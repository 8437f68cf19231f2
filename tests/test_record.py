"""The frozen ``Record`` base: fields, binding, immutability, equality, the JSON walk."""
import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import riskseries
from riskseries import cli, evt_risk
from riskseries._record import Record
from riskseries.autoreg import fit_ar
from riskseries.linreg import RegressionReport
from riskseries.peaks import STRICTLY_ABOVE, EventSeries, Provenance, ThresholdSpec
from riskseries.series import TimeSeries

IDENTITY_EQUAL = {"TimeSeries", "EventSeries", "ResidualReport", "VulnerabilityCurve"}


def _record_classes() -> set[type]:
    for info in pkgutil.iter_modules(riskseries.__path__):
        importlib.import_module(f"riskseries.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("riskseries.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def _collect(value, samples: dict):
    if isinstance(value, Record):
        samples.setdefault(type(value), value)
        value = [getattr(value, field) for field in value._fields]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _collect(item, samples)


def _samples(fixture_path) -> dict:
    """One real instance of each record class: a pipeline run, a series and the risk types."""
    series = cli.parse_csv(fixture_path)
    config = cli.AnalysisConfig(input=fixture_path, threshold=ThresholdSpec(150.0))
    samples: dict = {TimeSeries: series}
    _collect(cli.run_pipeline(series, config), samples)
    hazard = evt_risk.HazardCurve(points=((1.0, 2.0), (2.0, 1.0)))
    vulnerability = tuple(evt_risk.VulnerabilityPoint(s=s, mean_loss=m, cov=0.5)
                          for s, m in ((1.0, 0.2), (2.0, 0.5)))
    risk = evt_risk.risk_curve([0.0, 0.5], hazard, vulnerability)
    curve = evt_risk.VulnerabilityCurve.of(vulnerability)
    _collect([hazard, vulnerability, curve, risk, evt_risk.GevParams(mu=0.0, sigma=1.0, xi=0.1)],
             samples)
    return samples


@pytest.fixture(scope="module")
def samples(fixture_path):
    found = _samples(fixture_path)
    assert set(found) == _record_classes(), "every record class needs a sample here"
    return found


def _kwargs(record) -> dict:
    return {field: getattr(record, field) for field in record._fields}


def test_every_record_class_is_checked(samples):
    assert len(samples) == 21
    assert not any(cls.__name__ == "LaggedDesign" for cls in samples)


def test_fields_cannot_be_assigned_or_deleted(samples):
    for cls, record in samples.items():
        for field in record._fields:
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is before, (cls, field)
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_value_records_compare_and_hash_by_field(samples):
    for cls, record in samples.items():
        if cls.__name__ in IDENTITY_EQUAL:
            continue
        rebuilt = cls(**_kwargs(record))
        assert rebuilt is not record and rebuilt == record, cls
        assert not rebuilt != record, cls
        # A record is not a tuple of its values.
        assert record != tuple(_kwargs(record).values()), cls
        try:
            expected = hash(tuple(_kwargs(record).values()))
        except TypeError:  # a dict or array field makes the record unhashable too
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(rebuilt) == hash(record) == expected, cls
    assert ThresholdSpec(100.0) != ThresholdSpec(101.0)
    assert ThresholdSpec(100.0) != ThresholdSpec(100.0, "at-or-above")
    assert len({ThresholdSpec(100.0), ThresholdSpec(threshold=100.0)}) == 1


def test_series_and_residual_records_compare_by_identity(samples):
    identity = {cls for cls in samples if cls.__name__ in IDENTITY_EQUAL}
    assert {cls.__name__ for cls in identity} == IDENTITY_EQUAL
    for cls in identity:
        record = samples[cls]
        rebuilt = cls(**_kwargs(record))
        assert record == record and rebuilt != record, cls
        assert hash(record) == object.__hash__(record), cls


def _same_fields(a, b) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(_kwargs(a).values(), _kwargs(b).values())
    )


def test_positional_keyword_and_default_binding(samples):
    for cls, record in samples.items():
        assert _same_fields(cls(*_kwargs(record).values()), record), cls
        assert _same_fields(cls(**dict(reversed(_kwargs(record).items()))), record), cls
    assert evt_risk.GevParams(0.0, 1.0, 0.1) == evt_risk.GevParams(mu=0.0, sigma=1.0, xi=0.1)
    assert evt_risk.GevParams(0.0, sigma=1.0, xi=0.1) == evt_risk.GevParams(0.0, 1.0, 0.1)
    spec = ThresholdSpec(100.0)
    assert (spec.threshold, spec.comparison) == (100.0, STRICTLY_ABOVE)
    provenance = Provenance("pot")
    assert _kwargs(provenance) == {"method": "pot", "block_size": None, "threshold": None,
                                   "comparison": None, "zero_filled": False}
    events = EventSeries([1, 2], [3.0, 4.0])
    assert events.provenance == Provenance(method="pot")
    assert events.indices.tolist() == [1, 2] and events.values.tolist() == [3.0, 4.0]


def test_binding_errors_raise_type_error(samples):
    for cls, record in samples.items():
        kwargs = _kwargs(record)
        first = record._fields[0]
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**kwargs, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(kwargs[first], **kwargs)
        with pytest.raises(TypeError, match=f"missing required arguments: '{first}'"):
            cls(**{k: v for k, v in kwargs.items() if k != first})
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*kwargs.values(), None)


def test_post_init_checks_run_on_every_path():
    with pytest.raises(riskseries.UsageError):
        evt_risk.GevParams(0.0, -1.0, 0.1)
    with pytest.raises(riskseries.UsageError):
        evt_risk.GevParams(mu=0.0, sigma=-1.0, xi=0.1)
    with pytest.raises(riskseries.UsageError):
        ThresholdSpec(threshold=float("nan"), comparison=STRICTLY_ABOVE)
    with pytest.raises(riskseries.DataError):
        TimeSeries([2, 1], [0.0, 0.0])


def test_event_series_fields_follow_the_series_fields():
    assert TimeSeries._fields == ("indices", "values")
    assert EventSeries._fields == ("indices", "values", "provenance")


def test_vulnerability_point_derives_theta_and_beta():
    point = evt_risk.VulnerabilityPoint(1.0, 0.5, 0.25)
    assert point._fields == ("s", "mean_loss", "cov")
    assert (point.theta, point.beta) == evt_risk.lognormal_params(0.5, 0.25)
    with pytest.raises(AttributeError):
        point.theta = 0.0


def test_pickle_and_deepcopy_round_trip_a_regression_report(event_series):
    report = fit_ar(event_series, 2).report
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert clone is not report and clone == report
        assert type(clone) is RegressionReport
        with pytest.raises(AttributeError):
            clone.n = 0


def _value_fields(record) -> list:
    return [value for value in record._values() if type(value).__name__ not in IDENTITY_EQUAL]


@pytest.mark.parametrize("clone", [lambda record: pickle.loads(pickle.dumps(record)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_round_trips_keep_columns_read_only_and_bit_equal(samples, clone):
    columns = 0
    for cls, record in samples.items():
        copied = clone(record)
        assert type(copied) is cls and copied is not record
        if cls is cli.PipelineReport:  # its column records are samples of their own
            assert _value_fields(copied) == _value_fields(record)
            continue
        if cls.__name__ not in IDENTITY_EQUAL:
            assert copied == record, cls
            continue
        assert vars(copied).keys() == vars(record).keys(), cls
        for name, value in vars(record).items():
            if isinstance(value, np.ndarray):
                got = getattr(copied, name)
                assert got is not value and not got.flags.writeable, (cls, name)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (value.dtype, value.shape, value.tobytes()), (cls, name)
                columns += 1
    # TimeSeries 2, EventSeries 2, ResidualReport 6, VulnerabilityCurve 3 fields + theta, beta.
    assert columns == 15


def test_record_to_dict_follows_declaration_order(event_series):
    report = fit_ar(event_series, 2).report
    reversed_anova = type(report.anova)(**dict(reversed(_kwargs(report.anova).items())))
    reversed_report = RegressionReport(
        **dict(reversed({**_kwargs(report), "anova": reversed_anova}.items()))
    )
    assert list(vars(reversed_report)) != list(RegressionReport._fields)
    d = cli._record_to_dict(reversed_report)
    assert list(d) == list(RegressionReport._fields)
    assert list(d["anova"]) == list(type(report.anova)._fields)
    # The coefficient tables compare by identity; their JSON bytes compare every value.
    assert cli.render(d, "json", None) == cli.render(cli._record_to_dict(report), "json", None)
    assert [list(c) for c in d["coefficients"]] == [list(type(report.coefficients[0])._fields)] * 3


def test_record_to_dict_leaves_derived_attributes_out():
    point = evt_risk.VulnerabilityPoint(s=1.0, mean_loss=0.5, cov=0.25)
    assert cli._record_to_dict(point) == {"s": 1.0, "mean_loss": 0.5, "cov": 0.25}


def test_repr_names_every_field():
    expected = "ThresholdSpec(threshold=100.0, comparison='strictly-above')"
    assert repr(ThresholdSpec(100.0)) == expected
