"""Persistence tests for workload artifacts (the reusable study artefact)."""

import json

import pytest

from repro.core.errors import WorkloadError
from repro.harness.experiment import WorkloadArtifacts, replay_run


def test_save_load_roundtrip(tmp_path, artifacts_ds03):
    artifacts_ds03.save(tmp_path / "ds03")
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    assert loaded.name == artifacts_ds03.name
    assert loaded.duration_us == artifacts_ds03.duration_us
    assert loaded.trace.dumps() == artifacts_ds03.trace.dumps()
    assert loaded.database.lag_count == artifacts_ds03.database.lag_count
    assert (
        loaded.classification.as_row()
        == artifacts_ds03.classification.as_row()
    )


def test_loaded_artifacts_replay_identically(tmp_path, artifacts_ds03):
    artifacts_ds03.save(tmp_path / "ds03")
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    original = replay_run(artifacts_ds03, "fixed:960000")
    reloaded = replay_run(loaded, "fixed:960000")
    assert (
        original.lag_profile.durations_us()
        == reloaded.lag_profile.durations_us()
    )
    assert original.energy_j == reloaded.energy_j


def test_saved_layout_contains_expected_files(tmp_path, artifacts_ds03):
    artifacts_ds03.save(tmp_path / "ds03")
    root = tmp_path / "ds03"
    assert (root / "trace.getevent").exists()
    assert (root / "meta.json").exists()
    assert (root / "annotations" / "meta.json").exists()
    assert (root / "annotations" / "images.npz").exists()


def test_load_uses_saved_classification_row(tmp_path, artifacts_ds03, monkeypatch):
    """Loading must read the classification from meta.json, not re-run the
    full gesture decode the recording already paid for."""
    import repro.harness.experiment as experiment

    artifacts_ds03.save(tmp_path / "ds03")

    def boom(*_args, **_kwargs):
        raise AssertionError("classification was recomputed on load")

    monkeypatch.setattr(experiment, "classify_workload", boom)
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    assert loaded.classification == artifacts_ds03.classification


def test_load_verify_classification_recomputes_and_accepts(
    tmp_path, artifacts_ds03
):
    artifacts_ds03.save(tmp_path / "ds03")
    loaded = WorkloadArtifacts.load(tmp_path / "ds03", verify_classification=True)
    assert loaded.classification == artifacts_ds03.classification


def test_load_verify_classification_rejects_tampered_row(
    tmp_path, artifacts_ds03
):
    artifacts_ds03.save(tmp_path / "ds03")
    meta_path = tmp_path / "ds03" / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["classification"]["taps"] += 1
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    # The silent path serves the (tampered) saved row...
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    assert loaded.classification.taps == artifacts_ds03.classification.taps + 1
    # ...the opt-in verification path catches it.
    with pytest.raises(WorkloadError):
        WorkloadArtifacts.load(tmp_path / "ds03", verify_classification=True)


def test_load_without_saved_row_falls_back_to_recomputation(
    tmp_path, artifacts_ds03
):
    """Artifacts saved before the row existed still load (and classify)."""
    artifacts_ds03.save(tmp_path / "ds03")
    meta_path = tmp_path / "ds03" / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    del meta["classification"]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    assert loaded.classification == artifacts_ds03.classification


def test_fingerprint_survives_save_and_load(tmp_path, artifacts_ds03):
    """Regression: the fingerprint hashes content, not object identity.

    It used to pickle the trace, and pickle memoises by identity: a
    recorded trace shares one device string across its events, a loaded
    one does not, so a reloaded workload missed every cached cell."""
    artifacts_ds03.save(tmp_path / "ds03")
    loaded = WorkloadArtifacts.load(tmp_path / "ds03")
    assert loaded.fingerprint() == artifacts_ds03.fingerprint()


def test_fingerprint_tracks_annotation_images(artifacts_ds03):
    from dataclasses import replace

    from repro.analysis.annotation import AnnotationDatabase

    database = artifacts_ds03.database
    edited = AnnotationDatabase(
        database.workload_name, database.screen_width, database.screen_height
    )
    for gesture in database.gestures:
        edited.add_gesture(gesture)
    for index, annotation in enumerate(database.annotations):
        image = annotation.image.copy()
        if index == 0:
            image[0, 0] ^= 1
        edited.add(replace(annotation, image=image))
    assert (
        replace(artifacts_ds03, database=edited).fingerprint()
        != artifacts_ds03.fingerprint()
    )
