"""The frozen ``Record`` base: fields, binding, immutability, equality, the JSON walk."""
import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import riskseries
from riskseries import autoreg, cli, evt_risk
from riskseries._record import Record
from riskseries.autoreg import fit_ar
from riskseries.linreg import RegressionReport
from riskseries.peaks import STRICTLY_ABOVE, EventSeries, Provenance, ThresholdSpec
from riskseries.series import TimeSeries, summarize

IDENTITY_EQUAL = {"TimeSeries", "EventSeries", "ResidualReport", "HazardCurve",
                  "VulnerabilityCurve"}


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
    hazard = evt_risk.HazardCurve(s=[1.0, 2.0], g=[2.0, 1.0])
    vulnerability = evt_risk.VulnerabilityCurve(s=[1.0, 2.0], mean_loss=[0.2, 0.5], cov=[0.5, 0.5])
    risk = evt_risk.risk_curve([0.0, 0.5], hazard, vulnerability)
    _collect([hazard, vulnerability, risk, evt_risk.GevParams(mu=0.0, sigma=1.0, xi=0.1)],
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
    assert len(samples) == 20
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


def test_every_array_of_a_column_record_is_read_only_on_every_path(samples):
    def writeable_copies(record) -> dict:
        return {field: value.copy() if isinstance(value, np.ndarray) else value
                for field, value in _kwargs(record).items()}

    assert {cls.__name__ for cls in samples if cls._columns} == IDENTITY_EQUAL
    arrays = 0
    for cls, record in samples.items():
        if not cls._columns:
            continue
        # As sampled, by keyword, and by position through the binding path.
        for built in (record, cls(**writeable_copies(record)),
                      cls(*writeable_copies(record).values())):
            assert [name for name, value in vars(built).items()
                    if isinstance(value, np.ndarray) and value.flags.writeable] == [], cls
        arrays += sum(isinstance(value, np.ndarray) for value in vars(record).values())
    assert arrays == 17  # the derived theta and beta too


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


def test_vulnerability_curve_derives_theta_and_beta():
    curve = evt_risk.VulnerabilityCurve([1.0], [0.5], [0.25])
    assert curve._fields == ("s", "mean_loss", "cov")
    assert (curve.theta.tolist(), curve.beta.tolist()) == tuple(
        [value] for value in evt_risk.lognormal_params(0.5, 0.25))
    with pytest.raises(AttributeError):
        curve.theta = curve.beta


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
        # A memo of derived state, such as a used series' moments, is left behind.
        assert vars(copied).keys() == {name for name in vars(record) if name[0] != "_"}, cls
        for name, value in vars(record).items():
            if isinstance(value, np.ndarray):
                got = getattr(copied, name)
                assert got is not value and not got.flags.writeable, (cls, name)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (value.dtype, value.shape, value.tobytes()), (cls, name)
                columns += 1
    # TimeSeries 2, EventSeries 2, ResidualReport 6, HazardCurve 2,
    # VulnerabilityCurve 3 fields + theta, beta.
    assert columns == 17


@pytest.mark.parametrize("clone", [lambda record: pickle.loads(pickle.dumps(record)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_used_series_copies_as_a_new_one(event_series, clone):
    def results(series):
        stats = summarize(series)
        return [*map(float.hex, stats._values()[1:]),
                *(autoreg.lag_correlation(series, lag).hex() for lag in (1, 2)),
                *(b.hex() for b in fit_ar(series, 2).b)]

    series = TimeSeries(event_series.indices, event_series.values)
    fresh = pickle.dumps(series)
    expected = results(series)
    assert series._memo  # filled by the statistics above
    assert pickle.dumps(series) == fresh
    copied = clone(series)
    assert vars(copied).keys() == {"indices", "values"}
    for name in ("indices", "values"):
        column = getattr(copied, name)
        assert not column.flags.writeable
        assert column.tobytes() == getattr(series, name).tobytes()
    assert copied != series and copied == copied and hash(copied) != hash(series)
    assert repr(copied) == repr(series)
    assert results(copied) == expected
    assert copied._memo.keys() == series._memo.keys()


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
    curve = evt_risk.VulnerabilityCurve(s=[1.0], mean_loss=[0.5], cov=[0.25])
    fields = cli._record_to_dict(curve)
    assert list(fields) == ["s", "mean_loss", "cov"]
    assert all(value is getattr(curve, name) for name, value in fields.items())


def test_repr_names_every_field():
    expected = "ThresholdSpec(threshold=100.0, comparison='strictly-above')"
    assert repr(ThresholdSpec(100.0)) == expected
