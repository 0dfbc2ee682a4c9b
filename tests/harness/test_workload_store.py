"""The workload store: record once, reuse across CLI invocations."""

import json
import pickle
import shutil

import pytest

import repro.harness.cli as cli
from repro.core.errors import ReproError
from repro.fleet.cache import ResultCache, WorkloadStore
from repro.harness.experiment import WorkloadArtifacts
from repro.workloads import dataset

SEED = 2014


@pytest.fixture
def recordings(monkeypatch, artifacts_ds03):
    """Stub ``record_workload`` with the session recording; count calls."""
    calls = []

    def record(spec, master_seed):
        calls.append((spec.name, master_seed))
        return artifacts_ds03

    monkeypatch.setattr(cli, "record_workload", record)
    return calls


def fetch(tmp_path):
    workloads = cli._Workloads(ResultCache(tmp_path))
    return workloads, workloads.get(dataset("03"), SEED)


def entry(tmp_path):
    return WorkloadStore.for_cache(ResultCache(tmp_path)).path_for("03", SEED)


def test_second_fetch_loads_instead_of_recording(tmp_path, recordings, artifacts_ds03):
    first, recorded = fetch(tmp_path)
    assert (first.loaded, first.recorded) == (0, 1)
    second, loaded = fetch(tmp_path)
    assert (second.loaded, second.recorded) == (1, 0)
    assert len(recordings) == 1
    assert isinstance(loaded, WorkloadArtifacts)
    assert loaded is not recorded
    assert loaded.fingerprint() == artifacts_ds03.fingerprint()
    assert loaded.trace.dumps() == artifacts_ds03.trace.dumps()
    assert loaded.classification == artifacts_ds03.classification


def test_entry_layout(tmp_path, recordings):
    fetch(tmp_path)
    root = entry(tmp_path)
    assert root.parent == tmp_path / "workloads"
    for name in (
        "manifest.json", "meta.json", "trace.getevent",
        "annotations/meta.json", "annotations/images.npz",
    ):
        assert (root / name).is_file(), name
    # Staging directories never outlive a publish.
    assert [p.name for p in root.parent.iterdir()] == [root.name]


def test_no_cache_always_records(recordings):
    workloads = cli._Workloads(None)
    workloads.get(dataset("03"), SEED)
    workloads.get(dataset("03"), SEED)
    assert (workloads.loaded, workloads.recorded) == (0, 2)


def _truncate_trace(root):
    path = root / "trace.getevent"
    text = path.read_text(encoding="utf-8")
    # Cut at a line boundary: still parseable, but fewer events.
    path.write_text(text[: text.rindex("\n", 0, len(text) // 2) + 1])


def _drop_images(root):
    (root / "annotations" / "images.npz").unlink()


def _drop_manifest(root):
    (root / "manifest.json").unlink()


def _corrupt_meta(root):
    (root / "meta.json").write_text("{", encoding="utf-8")


def _tamper_images(root):
    path = root / "annotations" / "images.npz"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _v1_manifest(root):
    """The manifest as store version 1 wrote it: digests, no fingerprint."""
    path = root / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["fingerprint"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _manifest_lists_nothing(root):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["files"] = {}
    path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    "damage",
    [
        _truncate_trace,
        _drop_images,
        _drop_manifest,
        _corrupt_meta,
        _tamper_images,
        _v1_manifest,
        _manifest_lists_nothing,
    ],
)
def test_damaged_entry_is_re_recorded(tmp_path, recordings, artifacts_ds03, damage):
    fetch(tmp_path)
    damage(entry(tmp_path))
    workloads, artifacts = fetch(tmp_path)
    assert (workloads.loaded, workloads.recorded) == (0, 1)
    assert workloads.store.misses == 1
    assert artifacts is artifacts_ds03
    # The re-recording replaced the damaged entry.
    workloads, reloaded = fetch(tmp_path)
    assert (workloads.loaded, workloads.recorded) == (1, 0)
    assert reloaded.fingerprint() == artifacts_ds03.fingerprint()


def test_entry_under_other_code_is_re_recorded(tmp_path, recordings, monkeypatch):
    import repro.fleet.cache as cache_mod

    real = cache_mod.code_fingerprint()
    monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT", "0" * 64)
    fetch(tmp_path)
    monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT", real)
    workloads, _ = fetch(tmp_path)
    assert (workloads.loaded, workloads.recorded) == (0, 1)
    assert len(recordings) == 2
    assert len(list((tmp_path / "workloads").iterdir())) == 2


def count_parses(monkeypatch) -> list[str]:
    """Record every trace and annotation-database parse, in order."""
    from repro.analysis import AnnotationDatabase
    from repro.replay.trace import EventTrace

    parses: list[str] = []
    for owner, label in ((EventTrace, "trace"), (AnnotationDatabase, "database")):
        real = owner.load.__func__

        def counted(cls, path, real=real, label=label):
            parses.append(label)
            return real(cls, path)

        monkeypatch.setattr(owner, "load", classmethod(counted))
    return parses


def test_entry_of_store_version_1_is_not_read(tmp_path, recordings, monkeypatch):
    import repro.fleet.cache as cache_mod

    current = cache_mod.WORKLOAD_STORE_VERSION
    monkeypatch.setattr(cache_mod, "WORKLOAD_STORE_VERSION", 1)
    fetch(tmp_path)
    monkeypatch.setattr(cache_mod, "WORKLOAD_STORE_VERSION", current)
    workloads, _ = fetch(tmp_path)
    assert (workloads.loaded, workloads.recorded) == (0, 1)
    assert len(recordings) == 2


def test_open_reads_only_meta_and_serves_the_recorded_fingerprint(
    tmp_path, recordings, artifacts_ds03, monkeypatch
):
    import repro.fleet.cache as cache_mod

    fetch(tmp_path)
    parses = count_parses(monkeypatch)

    def no_hashing(_artifacts):
        raise AssertionError("an opened workload was hashed")

    monkeypatch.setattr(cache_mod, "workload_fingerprint", no_hashing)
    workloads, loaded = fetch(tmp_path)
    assert loaded.fingerprint() == artifacts_ds03.fingerprint()
    assert loaded.classification == artifacts_ds03.classification
    assert (workloads.loaded, workloads.parsed) == (1, 0)
    assert parses == []
    assert loaded.database.lag_count == artifacts_ds03.database.lag_count
    assert parses == ["database"]
    assert workloads.parsed == 1
    assert loaded.trace.dumps() == artifacts_ds03.trace.dumps()
    assert parses == ["database", "trace"]


def test_part_that_stops_parsing_after_open_names_the_entry(tmp_path, recordings):
    fetch(tmp_path)
    _, loaded = fetch(tmp_path)
    root = entry(tmp_path)
    (root / "annotations" / "images.npz").write_bytes(b"not a zip file")
    with pytest.raises(ReproError, match=str(root)):
        loaded.database


def test_shipped_copy_carries_the_parsed_parts(tmp_path, recordings, artifacts_ds03):
    fetch(tmp_path)
    _, loaded = fetch(tmp_path)
    shipped = pickle.loads(pickle.dumps(loaded))
    assert loaded.parsed
    assert shipped.parsed
    assert shipped.fingerprint() == artifacts_ds03.fingerprint()
    assert shipped.trace.dumps() == artifacts_ds03.trace.dumps()


@pytest.mark.parametrize(
    "name", ["01", "02", "03", "04", "05", "persona=gamer,seed=7,duration=45s"]
)
def test_stored_fingerprint_is_the_hash_of_the_loaded_workload(tmp_path, name):
    """The manifest's fingerprint equals a full hash of what it serves."""
    from repro.fleet.cache import workload_fingerprint
    from repro.harness.experiment import record_workload
    from repro.scenarios.config import canonical_scenario

    if name.startswith("persona="):
        name = canonical_scenario(name)
    store = WorkloadStore(tmp_path)
    recorded = record_workload(dataset(name), master_seed=SEED)
    store.store(recorded)
    loaded = store.load(name, SEED)
    assert loaded is not None and not loaded.parsed
    assert loaded.fingerprint() == workload_fingerprint(loaded)
    assert loaded.fingerprint() == workload_fingerprint(recorded)


STUDY = ["study", "--datasets", "01", "03", "--reps", "1", "--jobs", "1"]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A cache directory a cold ``study`` of datasets 01 and 03 filled."""
    root = tmp_path_factory.mktemp("study") / "cache"
    assert cli.main([*STUDY, "--cache-dir", str(root)]) == 0
    return root


def _copy(warm_store, tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(warm_store, copy)
    return copy


def test_warm_study_parses_no_workload(warm_store, tmp_path, monkeypatch, capsys):
    root = _copy(warm_store, tmp_path)
    capsys.readouterr()
    parses = count_parses(monkeypatch)
    assert cli.main([*STUDY, "--cache-dir", str(root)]) == 0
    err = capsys.readouterr().err
    assert "# workloads: 2 loaded (0 parsed), 0 recorded" in err
    assert "# cache: 34 hits, 0 misses" in err
    assert parses == []


def test_warm_sweep_with_a_row_missing_parses_only_its_workload(
    warm_store, tmp_path, monkeypatch, capsys
):
    from repro.fleet.spec import RunSpec

    root = _copy(warm_store, tmp_path)
    workloads = cli._Workloads(ResultCache(root))
    artifacts = workloads.get(dataset("03"), SEED)
    cache = ResultCache(root)
    row = cache.path_for(
        cache.key_for(RunSpec("03", "ondemand", 0, SEED), artifacts.fingerprint())
    )
    row.unlink()
    capsys.readouterr()
    parses = count_parses(monkeypatch)
    argv = ["sweep", "--dataset", "03", "--reps", "1", "--jobs", "1"]
    assert cli.main([*argv, "--cache-dir", str(root)]) == 0
    err = capsys.readouterr().err
    assert "# workloads: 1 loaded (1 parsed), 0 recorded" in err
    assert "# cache: 16 hits, 1 misses" in err
    assert sorted(parses) == ["database", "trace"]
