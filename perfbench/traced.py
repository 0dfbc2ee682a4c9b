"""One traced, in-process run of a repro-qoe CLI command.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python perfbench/traced.py OUT_JSON TRACE_JSON STDOUT_FILE -- CLI_ARGS...

The script imports :mod:`repro.harness.cli`, wraps the public functions
that mark each layer boundary (see ``_install``) so every call records a
span -- name, start, end, parent span and run id -- in memory, then calls
``repro.harness.cli.main`` with ``CLI_ARGS`` plus ``--progress-jsonl``.
Nothing inside the program changes: the spans are taken from outside,
around the calls into each layer.

When the command ends it writes

* ``TRACE_JSON`` -- the spans as Chrome trace-event JSON on a host
  wall-clock track (``pid`` 2), which Perfetto opens beside the simulated
  device trace that ``repro-qoe trace`` writes (``pid`` 1);
* ``OUT_JSON`` -- the per-layer metrics (see :func:`layer_metrics`), each
  layer's self time and the exact work counters;
* ``STDOUT_FILE`` -- the command's standard output, for the caller's
  correctness check.

Every ``*_s`` layer metric is a *self* time: the span's duration minus the
part its child spans cover.  Self times of all spans plus the root's
uncovered self time add up to the traced wall time, so the metrics form
a ledger with no double counting.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import sys
import time
from collections import defaultdict
from statistics import median, quantiles

ROOT = "cli.main"
#: Governor families whose per-cell wall time is reported on its own.
FAMILIES = ("fixed", "ondemand", "conservative", "interactive", "qoe_aware")
HOST_PID = 2  # the simulated device trace uses pid 1


class SpanRecorder:
    """Nested spans kept in memory, in the order they were opened."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict, **args) -> None:
        span["end_ns"] = time.perf_counter_ns()
        if args:
            span["args"] = args
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")


def _timed(recorder: SpanRecorder, name: str, fn, describe=None):
    """``fn`` wrapped in a span; ``describe(args, result)`` adds span args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        extra = {}
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                extra = describe(args, result)
            return result
        finally:
            recorder.end(span, **extra)

    return wrapper


def _timed_generator(recorder: SpanRecorder, name: str, fn):
    """A generator function wrapped in one span from first call to exhaustion.

    The consumer's work between items (row decode, cache store) runs while
    the span is open, so it is recorded as the span's children.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _wrap_classmethod(cls, attr: str, make) -> None:
    setattr(cls, attr, classmethod(make(cls.__dict__[attr].__func__)))


def _wrap_attr(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def _install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of the study and explore paths."""
    import repro.demand
    import repro.explore.evaluator
    import repro.fleet.cache
    import repro.fleet.engine
    import repro.harness.cli
    import repro.harness.sweep
    from repro.demand.store import DemandTraceStore
    from repro.explore.evaluator import ExploreEvaluator
    from repro.explore.strategies import SearchStrategy
    from repro.fleet.backends.local import LocalBackend
    from repro.fleet.cache import ResultCache
    from repro.fleet.engine import FleetEngine
    from repro.harness import figures
    from repro.results import RunRecord

    def timed(name, describe=None):
        return lambda fn: _timed(recorder, name, fn, describe)

    _wrap_attr(repro.harness.cli, "record_workload", timed("harness.record"))
    _wrap_classmethod(
        RunRecord, "loads",
        timed("results.decode", lambda args, _: {"bytes": len(args[1])}),
    )
    _wrap_classmethod(RunRecord, "from_json_dict", timed("results.decode"))
    _wrap_attr(
        RunRecord, "dumps",
        timed("results.encode", lambda _, text: {"bytes": len(text)}),
    )
    _wrap_attr(
        ResultCache, "load",
        timed("fleet.cache_load", lambda _, row: {"hit": row is not None}),
    )
    _wrap_attr(ResultCache, "store", timed("fleet.store"))
    fingerprint = _timed(
        recorder, "fleet.fingerprint", repro.fleet.cache.workload_fingerprint
    )
    repro.fleet.cache.workload_fingerprint = fingerprint
    repro.fleet.engine.workload_fingerprint = fingerprint
    _wrap_attr(repro.demand, "capture_demand", timed("demand.capture"))
    _wrap_attr(
        DemandTraceStore, "load",
        timed("demand.trace_load", lambda _, t: {"hit": t is not None}),
    )
    _wrap_attr(DemandTraceStore, "store", timed("demand.trace_store"))
    _wrap_attr(FleetEngine, "run", timed("fleet.run"))
    LocalBackend.execute = _timed_generator(
        recorder, "fleet.execute", LocalBackend.execute
    )
    _wrap_attr(multiprocessing, "Pool", timed("fleet.pool_start"))
    compose = _timed(
        recorder, "oracle.compose", repro.harness.sweep.compose_oracle_from_runs
    )
    repro.harness.sweep.compose_oracle_from_runs = compose
    repro.explore.evaluator.compose_oracle_from_runs = compose
    for attr in dir(figures):
        if attr.startswith("render_") or attr == "headline_savings":
            _wrap_attr(figures, attr, timed("harness.figures"))
    _wrap_attr(ExploreEvaluator, "evaluate", timed("explore.evaluate"))
    for strategy in SearchStrategy.__subclasses__():
        _wrap_attr(strategy, "search", timed("explore.search"))
    _wrap_attr(
        repro.harness.cli, "render_frontier_report", timed("explore.report")
    )


# --- analysis ----------------------------------------------------------------------


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    return [
        span["end_ns"] - span["start_ns"] - child_ns[span["id"]]
        for span in spans
    ]


def _cell_events(jsonl_path: str) -> tuple[list[dict], list[dict]]:
    """(executed ``run_completed`` events, ``fleet_summary`` events)."""
    cells, summaries = [], []
    with open(jsonl_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["event"] == "run_completed" and not event["cached"]:
                cells.append(event)
            elif event["event"] == "fleet_summary":
                summaries.append(event)
    return cells, summaries


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict], jsonl_path: str, jobs: int) -> dict:
    """Per-layer metrics, layer self times and work counters of one run."""
    selfs = self_times_ns(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span["name"]].append(span)
        self_s[span["name"]] += own / 1e9

    def count(name: str) -> int:
        return len(by_name[name])

    def arg_sum(name: str, key: str) -> int:
        return sum(s.get("args", {}).get(key, 0) for s in by_name[name])

    # A decode nested in another decode (``loads`` calls
    # ``from_json_dict``) is one row, not two.
    decoded_rows = sum(
        1
        for span in by_name["results.decode"]
        if span["parent"] is None
        or spans[span["parent"]]["name"] != "results.decode"
    )
    hits = arg_sum("fleet.cache_load", "hit")
    misses = count("fleet.cache_load") - hits
    cells, summaries = _cell_events(jsonl_path)
    walls_ms = [1000 * cell["wall_s"] for cell in cells]
    fallbacks = sum(s["demand"]["fallback_cells"] for s in summaries)
    execute_wall_s = sum(
        (s["end_ns"] - s["start_ns"]) / 1e9 for s in by_name["fleet.execute"]
    )
    [root] = by_name[ROOT]
    root_wall_s = (root["end_ns"] - root["start_ns"]) / 1e9

    def family_ms(family: str) -> float:
        values = [
            1000 * c["wall_s"]
            for c in cells
            if c["config"].split(":", 1)[0] == family
        ]
        return median(values) if values else 0.0

    metrics = {
        "harness.record_s": self_s["harness.record"],
        "harness.record_calls": count("harness.record"),
        "results.decode_s": self_s["results.decode"],
        "results.decode_rows": decoded_rows,
        "results.decode_mb": arg_sum("results.decode", "bytes") / 1e6,
        "fleet.scan_s": self_s["fleet.cache_load"],
        "fleet.cache_hits": hits,
        "fleet.cache_misses": misses,
        "fleet.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "results.encode_s": self_s["results.encode"],
        "fleet.store_s": self_s["fleet.store"],
        "fleet.store_bytes": arg_sum("results.encode", "bytes"),
        "fleet.fingerprint_s": self_s["fleet.fingerprint"],
        "demand.capture_s": self_s["demand.capture"],
        "demand.captures": count("demand.capture"),
        "demand.trace_load_s": self_s["demand.trace_load"],
        "demand.trace_store_s": self_s["demand.trace_store"],
        "demand.cell_p50_ms": median(walls_ms) if walls_ms else 0.0,
        "demand.cell_p90_ms": _p90(walls_ms),
        **{f"demand.cell_ms.{f}": family_ms(f) for f in FAMILIES},
        "demand.cell_cpu_s": sum(cell["cpu_s"] for cell in cells),
        "demand.cells": len(cells),
        "demand.fallbacks": fallbacks,
        "demand.fallback_ratio": fallbacks / len(cells) if cells else 0.0,
        "harness.replay_cells": sum(
            1 for cell in cells if cell.get("mode") == "full"
        ),
        "fleet.execute_s": self_s["fleet.execute"],
        "fleet.pool_start_s": self_s["fleet.pool_start"],
        "fleet.worker_util": (
            sum(cell["wall_s"] for cell in cells) / (jobs * execute_wall_s)
            if execute_wall_s
            else 0.0
        ),
        "fleet.batches": count("fleet.run"),
        "fleet.pool_starts": count("fleet.pool_start"),
        "fleet.engine_self_s": self_s["fleet.run"],
        "oracle.compose_s": self_s["oracle.compose"],
        "harness.figures_s": self_s["harness.figures"],
        "explore.evaluate_s": self_s["explore.evaluate"],
        "explore.search_self_s": self_s["explore.search"],
        "explore.report_s": self_s["explore.report"],
        "harness.uncovered_s": self_s[ROOT],
        "harness.uncovered_share": self_s[ROOT] / root_wall_s,
    }
    layer_self_s: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self_s[name if name == ROOT else name.split(".", 1)[0]] += seconds
    counters = {
        "cells_executed": len(cells),
        "cells_served": hits,
        "cache_misses": misses,
        "demand_captures": count("demand.capture"),
        "demand_trace_loads": count("demand.trace_load"),
        "fallbacks": fallbacks,
        "fleet_batches": count("fleet.run"),
        "pool_starts": count("fleet.pool_start"),
        "record_calls": count("harness.record"),
        "rows_decoded": decoded_rows,
        "bytes_decoded": arg_sum("results.decode", "bytes"),
        "rows_written": count("fleet.store"),
        "bytes_written": arg_sum("results.encode", "bytes"),
    }
    return {
        "root_wall_s": root_wall_s,
        "metrics": metrics,
        "layer_self_s": dict(sorted(layer_self_s.items())),
        "counters": counters,
    }


def chrome_trace(spans: list[dict], run_id: str, epoch_start_s: float) -> dict:
    """Spans as complete events (``ph: X``) on the host wall-clock track."""
    base_ns = spans[0]["start_ns"]
    events = [
        {"name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 0,
         "args": {"name": f"repro-qoe host (wall clock) {run_id}"}},
        {"name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": 0,
         "args": {"name": "cli"}},
    ]
    for span in spans:
        event = {
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (span["start_ns"] - base_ns) / 1000,
            "dur": (span["end_ns"] - span["start_ns"]) / 1000,
            "pid": HOST_PID,
            "tid": 0,
            "args": {
                "span": span["id"],
                "parent": span["parent"],
                "run": span["run"],
                **span.get("args", {}),
            },
        }
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "time_base": "host_wall_clock_microseconds",
            "epoch_start_s": epoch_start_s,
            "run": run_id,
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, trace_path, stdout_path = argv[:3]
    cli_args = argv[4:]
    jsonl_path = out_path + ".jsonl"
    jobs = int(cli_args[cli_args.index("--jobs") + 1])

    import repro.harness.cli

    run_id = f"{os.getpid()}-{time.time_ns()}"
    recorder = SpanRecorder(run_id)
    _install(recorder)
    epoch_start_s = time.time()
    with open(stdout_path, "w", encoding="utf-8") as stdout, \
            contextlib.redirect_stdout(stdout):
        root = recorder.begin(ROOT)
        try:
            code = repro.harness.cli.main(
                cli_args + ["--progress-jsonl", jsonl_path]
            )
        finally:
            recorder.end(root)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(recorder.spans, run_id, epoch_start_s), handle)
    result = {"exit_code": code, **layer_metrics(recorder.spans, jsonl_path, jobs)}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
