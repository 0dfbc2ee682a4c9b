"""Tests for the schema-versioned RunRecord and its wire/cache format."""

import json

import pytest

from repro.analysis.lagprofile import LagMeasurement
from repro.results import RUN_RECORD_SCHEMA_VERSION, RunRecord, RunRecordSchemaError


def make_record(**overrides):
    lags = tuple(
        LagMeasurement(
            lag_index=i,
            gesture_index=i,
            label=f"lag{i}",
            category="simple_frequent",
            begin_time_us=1_000_000 * (i + 1),
            end_frame=40 * (i + 1),
            duration_us=120_000 + i,
            threshold_us=1_000_000,
        )
        for i in range(3)
    )
    fields = dict(
        workload="03",
        config="ondemand",
        rep=2,
        duration_us=65_000_000,
        energy_j=12.345678901234567,
        dynamic_energy_j=3.2109876543210987,
        busy_us=7_654_321,
        transitions=[(0, 300_000), (1_234_567, 960_000)],
        busy_intervals=[(10, 500), (1_000, 9_999)],
        lags=lags,
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_json_roundtrip_is_lossless():
    record = make_record()
    again = RunRecord.loads(record.dumps())
    assert again == record
    # Floats must survive exactly — the bit-identical A/B depends on it.
    assert repr(again.energy_j) == repr(record.energy_j)
    assert again.transitions == record.transitions
    assert again.lags == record.lags


def test_row_is_pure_json():
    row = make_record().to_json_dict()
    text = json.dumps(row)
    assert json.loads(text)["schema_version"] == RUN_RECORD_SCHEMA_VERSION


def test_wrong_schema_version_rejected():
    row = make_record().to_json_dict()
    row["schema_version"] = RUN_RECORD_SCHEMA_VERSION + 1
    with pytest.raises(RunRecordSchemaError):
        RunRecord.from_json_dict(row)
    row.pop("schema_version")
    with pytest.raises(RunRecordSchemaError):
        RunRecord.from_json_dict(row)


def test_derived_views_match_fields():
    record = make_record()
    assert record.lag_profile.workload_name == "03"
    assert record.lag_profile.durations_us() == [l.duration_us for l in record.lags]
    assert record.busy_timeline.total_busy_us == 490 + 8_999
    assert record.busy_timeline is record.busy_timeline  # cached
    assert record.irritation_seconds() >= 0.0
    # The lazily-built timeline never affects equality.
    fresh = make_record()
    assert fresh == record


def test_cache_stores_json_rows_not_pickles(tmp_path):
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    record = make_record()
    cache.store("ab" + "0" * 62, record)
    path = cache.path_for("ab" + "0" * 62)
    assert path.suffix == ".json"
    row = json.loads(path.read_text(encoding="utf-8"))
    assert row["schema_version"] == RUN_RECORD_SCHEMA_VERSION
    assert cache.load("ab" + "0" * 62) == record


def test_cache_miss_on_stale_schema_version(tmp_path):
    """A row written under an older schema re-executes instead of loading."""
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    key = "cd" + "0" * 62
    cache.store(key, make_record())
    path = cache.path_for(key)
    row = json.loads(path.read_text(encoding="utf-8"))
    row["schema_version"] = RUN_RECORD_SCHEMA_VERSION - 1
    path.write_text(json.dumps(row), encoding="utf-8")
    assert cache.load(key) is None
    assert cache.misses == 1


def test_cache_key_depends_on_record_schema_version(tmp_path, monkeypatch):
    """Regression: bumping RUN_RECORD_SCHEMA_VERSION must move every cell's
    content address, so old entries become unreachable, not just unreadable."""
    import repro.fleet.cache as cache_mod
    from repro.fleet.cache import ResultCache
    from repro.fleet.spec import RunSpec

    cache = ResultCache(tmp_path)
    spec = RunSpec(dataset="03", config="ondemand", rep=0, master_seed=2014)
    fingerprint = "f" * 64
    key = cache.key_for(spec, fingerprint)
    monkeypatch.setattr(
        cache_mod, "RUN_RECORD_SCHEMA_VERSION", RUN_RECORD_SCHEMA_VERSION + 1
    )
    assert cache.key_for(spec, fingerprint) != key


def test_trace_columns_are_packed_strings():
    row = make_record().to_json_dict()
    assert isinstance(row["transitions"], str)
    assert isinstance(row["busy_intervals"], str)


def _packed_words(raw: bytes) -> str:
    import base64
    import zlib

    return base64.b64encode(zlib.compress(raw)).decode()


DAMAGED_COLUMNS = {
    "bad-base64": "@@@" + _packed_words(b"\0" * 16),
    "truncated-zlib": _packed_words(b"\0" * 32)[:-8],
    "odd-word-count": _packed_words(b"\0" * 24),
    "partial-word": _packed_words(b"\0" * 3),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_COLUMNS))
@pytest.mark.parametrize("column", ["transitions", "busy_intervals"])
def test_cache_miss_on_damaged_packed_column(tmp_path, damage, column):
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    key = "ef" + "0" * 62
    cache.store(key, make_record())
    path = cache.path_for(key)
    row = json.loads(path.read_text(encoding="utf-8"))
    row[column] = DAMAGED_COLUMNS[damage]
    path.write_text(json.dumps(row), encoding="utf-8")
    assert cache.load(key) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_cache_miss_on_v2_list_row(tmp_path):
    """A row in the version-2 layout (``[[a, b], ...]`` trace columns)
    is a miss, not a wrong decode."""
    from repro.fleet.cache import ResultCache

    cache = ResultCache(tmp_path)
    key = "fa" + "0" * 62
    record = make_record()
    row = record.to_json_dict()
    row["schema_version"] = 2
    row["transitions"] = [list(pair) for pair in record.transitions]
    row["busy_intervals"] = [list(pair) for pair in record.busy_intervals]
    cache.path_for(key).parent.mkdir(parents=True)
    cache.path_for(key).write_text(json.dumps(row), encoding="utf-8")
    assert cache.load(key) is None
    assert cache.misses == 1
