"""A study as one fleet batch: parallel recording and capture, one grid.

A cold ``study`` records the missing workloads and captures the missing
demand traces on the worker pool, then runs every workload's cells in
one fleet batch.  These tests pin that none of it changes a result:
recordings and traces do not depend on which process made them or what
it did before, stdout and cache keys agree across ``--jobs`` values and
backends, and the telemetry stream describes one grid.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.demand import DemandTrace
from repro.fleet.backends.local import pool_map
from repro.fleet.engine import capture_task
from repro.harness import cli
from repro.scenarios.config import canonical_scenario
from repro.workloads.datasets import dataset

SEED = 2014
DATASETS = ["01", "02", "03", "04", "05"]
#: Two short synthesized workloads: a whole study of them takes ~1 s.
SHORT = [
    canonical_scenario("persona=gamer,seed=7,duration=30s"),
    canonical_scenario("persona=reader,seed=1,duration=30s"),
]
STUDY = ["study", "--datasets", *SHORT, "--reps", "1"]


#: Records and captures one workload in a new interpreter, printing the
#: workload fingerprint and the demand trace's content hash.
FRESH_PROCESS = """
import sys
from repro.demand import capture_demand
from repro.harness.experiment import record_workload
from repro.workloads.datasets import dataset
artifacts = record_workload(dataset(sys.argv[1]), master_seed=int(sys.argv[2]))
print(artifacts.fingerprint(), capture_demand(artifacts).content_hash())
"""


def _digests(recorded, traces) -> list[tuple[str, str]]:
    pairs = []
    for artifacts, (text, error) in zip(recorded, traces):
        assert error is None
        trace = DemandTrace.loads(text)
        assert trace.dumps() == text
        pairs.append((artifacts.fingerprint(), trace.content_hash()))
    return pairs


def test_recording_and_capture_do_not_depend_on_process_history():
    """ds01-05 record and capture identically in a fresh process, after
    other workloads in this process, and in a forked pool worker."""
    items = [(dataset(name), SEED) for name in DATASETS]

    # Fresh interpreters: recording is each one's first task.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    fresh_runs = [
        subprocess.Popen(
            [sys.executable, "-c", FRESH_PROCESS, name, str(SEED)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        for name in DATASETS
    ]
    fresh = []
    for run in fresh_runs:
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0
        fresh.append(tuple(out.split()))

    # This process, in reverse order, each after other recordings.
    cli._record_task((dataset(SHORT[0]), SEED))
    in_process = {}
    for item in reversed(items):
        artifacts = cli._record_task(item)
        in_process[artifacts.name] = (artifacts, capture_task(artifacts))
    sequential = _digests(
        [in_process[name][0] for name in DATASETS],
        [in_process[name][1] for name in DATASETS],
    )

    # Pool workers forked from this (now well-used) process.
    recorded = list(pool_map(cli._record_task, items, jobs=2))
    traces = list(pool_map(capture_task, recorded, jobs=2))
    forked = _digests(recorded, traces)

    assert fresh == sequential == forked


def test_warm_jobs1_study_on_a_store_filled_by_a_cold_jobs2_study(
    tmp_path, capsys
):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main([*STUDY, "--jobs", "2", *cache]) == 0
    cold = capsys.readouterr()
    assert "# workloads: 0 loaded (0 parsed), 2 recorded" in cold.err
    assert "# cache: 0 hits, 34 misses" in cold.err

    assert cli.main([*STUDY, "--jobs", "1", *cache]) == 0
    warm = capsys.readouterr()
    assert ", 0 misses" in warm.err
    assert " 0 recorded" in warm.err
    assert "(0 parsed)" in warm.err
    assert warm.out == cold.out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_study_is_one_fleet_batch(jobs, tmp_path, capsys, monkeypatch):
    """One grid_bound and one fleet_summary per study, one run_completed
    per cell, with the keys downstream telemetry readers use."""
    monkeypatch.setenv("REPRO_DEMAND", "1")
    jsonl = tmp_path / "progress.jsonl"
    argv = [*STUDY, "--jobs", jobs, "--no-cache"]
    argv += ["--progress-jsonl", str(jsonl)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    events = [
        json.loads(line)
        for line in jsonl.read_text(encoding="utf-8").splitlines()
    ]
    kinds = [event["event"] for event in events]
    assert kinds.count("grid_bound") == 1
    assert kinds.count("fleet_summary") == 1
    assert kinds[0] == "grid_bound"
    assert kinds[-1] == "fleet_summary"
    assert [event["seq"] for event in events] == list(range(len(events)))
    [bound] = [e for e in events if e["event"] == "grid_bound"]
    assert bound["total"] == 34
    cells = [e for e in events if e["event"] == "run_completed"]
    assert len(cells) == 34
    assert {e["spec"].split(":", 1)[0] for e in cells} == set(SHORT)
    for cell in cells:
        assert cell["cached"] is False
        assert cell["mode"] == "demand"
        assert cell["wall_s"] > 0 and cell["cpu_s"] >= 0
        assert cell["config"]
    [summary] = [e for e in events if e["event"] == "fleet_summary"]
    assert summary["total"] == summary["executed"] == 34
    assert summary["demand"]["fallback_cells"] == 0
    assert summary["demand"]["demand_cells"] == 34
    assert summary["demand"]["trace_source"] == "captured"


def test_multi_workload_study_identical_across_backends(tmp_path, capsys):
    outputs = {}
    for label, extra in (
        ("jobs1", ["--jobs", "1", "--no-cache"]),
        ("jobs2", ["--jobs", "2", "--no-cache"]),
        (
            "distributed",
            ["--backend", f"distributed:dir={tmp_path / 'shared'},workers=2"],
        ),
    ):
        assert cli.main([*STUDY, *extra]) == 0
        captured = capsys.readouterr()
        assert "Fig. 14" in captured.out
        outputs[label] = captured.out
    assert outputs["jobs1"] == outputs["jobs2"] == outputs["distributed"]
