"""The workload store: record once, reuse across CLI invocations."""

import pytest

import repro.harness.cli as cli
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


@pytest.mark.parametrize(
    "damage", [_truncate_trace, _drop_images, _drop_manifest, _corrupt_meta]
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
