from pathlib import Path

import numpy as np
import pytest

from riskseries.cli import parse_csv
from riskseries.series import TimeSeries

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CSV = DATA_DIR / "extreme_precipitation.csv"
DETRENDED_CSV = DATA_DIR / "extreme_precipitation_detrended.csv"


@pytest.fixture(scope="session")
def event_series() -> TimeSeries:
    """The 31-event precipitation record (raw case-study fixture)."""
    return parse_csv(str(FIXTURE_CSV))


@pytest.fixture(scope="session")
def detrended_series() -> TimeSeries:
    """The published detrended companion column (see data/NOTES.md)."""
    return parse_csv(str(DETRENDED_CSV))


@pytest.fixture(scope="session")
def simple_series() -> TimeSeries:
    """The 12-point worked example used for the POT tables."""
    return TimeSeries.from_values(
        [200, 30, 40, 120, 80, 110, 180, 55, 190, 110, 20, 110]
    )


@pytest.fixture(scope="session")
def fixture_path() -> str:
    return str(FIXTURE_CSV)


@pytest.fixture(scope="session")
def squares_that_differ() -> list[float]:
    """Doubles whose square numpy's ``x * x`` and Python's ``v ** 2`` round apart.

    Python's ``**`` is the C library's pow, which is not correctly rounded;
    a bit test fed these values fails if a square is taken as a product.
    """
    values = np.random.default_rng(20161).normal(0.0, 1e3, 200_000)
    products = (values * values).tolist()
    found = [v for v, product in zip(values.tolist(), products) if v ** 2 != product]
    assert found, "pow and the product agree on every sample; the bit tests would prove nothing"
    return found
