"""End-to-end benchmark of repro-qoe: cold study, warm study, halving explore.

Run from the repository root::

    python3 perfbench/run.py --workload study_cold --seed 2014 --seconds 20 --trace 0

Each operation is one ``python -m repro.harness.cli`` subprocess with
``--jobs 2``, an explicit fresh ``--cache-dir`` and ``--master-seed``.
Its wall time (interpreter start included), CPU time and peak RSS come
from ``os.wait4``, which covers the CLI process and the pool workers it
reaped.  ``--trace 1`` alternates untraced operations with traced ones
(``perfbench/traced.py``) and reports the per-layer metrics instead.

One recorded workload instance can cost 20-30% more than another,
so a run measures several: the first instance uses ``--seed`` as the
master seed and the others use seeds derived from it.  Every instance
runs once, then operations go round-robin over the instances until
``--seconds`` have passed; a metric is the median over an instance's
operations, averaged over instances.

A workload's report ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  The lines before it are for people: host facts,
one line per operation with its exact work counters, and the metrics with
their units.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
CLI_SOURCE = Path("src/repro/harness/cli.py")
REFERENCE = HERE / "reference.json"
WORK_ROOT = Path(".perfbench")
JOBS = 2
RUN_LIMIT_S = 165.0  # a run, set-up included, must end within 180 s
OP_RESERVE_S = 30.0  # no new operation starts with less time left
SETUP_IMPORTS = 3
DEFAULT_SEED = 2014  # repro-qoe's own default master seed
HELD_OUT_SEED = 7  # a second seed whose digests are kept, never tuned on
STUDY_CELLS = 85  # 5 datasets x (14 fixed OPPs + 3 governors) x 1 rep

STUDY = ("study", "--datasets", "01", "02", "03", "04", "05", "--reps", "1")
EXPLORE = (
    "explore", "--dataset", "02", "--governor", "qoe_aware",
    "--strategy", "halving", "--budget", "16",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    warm: bool  # measured against a store filled during set-up
    instances: int  # recorded workload instances (master seeds) per run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_cold", STUDY, warm=False, instances=3),
        Workload("study_warm", STUDY, warm=True, instances=2),
        Workload("explore_halving", EXPLORE, warm=False, instances=4),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "success_rate": "ratio",
}

LAYER_UNITS = {
    "harness.record_s": "s", "harness.record_calls": "count",
    "results.decode_s": "s", "results.decode_rows": "count",
    "results.decode_mb": "MB",
    "fleet.scan_s": "s", "fleet.cache_hits": "count",
    "fleet.cache_misses": "count", "fleet.hit_ratio": "ratio",
    "results.encode_s": "s", "fleet.store_s": "s", "fleet.store_bytes": "bytes",
    "fleet.fingerprint_s": "s",
    "demand.capture_s": "s", "demand.captures": "count",
    "demand.trace_load_s": "s", "demand.trace_store_s": "s",
    "demand.cell_p50_ms": "ms", "demand.cell_p90_ms": "ms",
    "demand.cell_ms.fixed": "ms", "demand.cell_ms.ondemand": "ms",
    "demand.cell_ms.conservative": "ms", "demand.cell_ms.interactive": "ms",
    "demand.cell_ms.qoe_aware": "ms",
    "demand.cell_cpu_s": "s", "demand.cells": "count",
    "demand.fallbacks": "count", "demand.fallback_ratio": "ratio",
    "harness.replay_cells": "count",
    "fleet.execute_s": "s", "fleet.pool_start_s": "s",
    "fleet.worker_util": "ratio", "fleet.batches": "count",
    "fleet.pool_starts": "count", "fleet.engine_self_s": "s",
    "oracle.compose_s": "s", "harness.figures_s": "s",
    "explore.evaluate_s": "s", "explore.search_self_s": "s",
    "explore.report_s": "s",
    "harness.uncovered_s": "s", "harness.uncovered_share": "ratio",
    "harness.startup_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def program_env() -> dict[str, str]:
    """The environment for the program: ``src`` importable, no kill switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])
    )
    return env


def instance_seeds(seed: int, count: int) -> list[int]:
    """The run's master seeds: ``seed`` itself, then seeds derived from it."""
    return [seed] + [
        random.Random(f"perfbench:{seed}:{i}").randrange(1, 2**31)
        for i in range(1, count)
    ]


@dataclass
class Op:
    """One CLI operation as measured from outside."""

    label: str
    seed: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str
    store_mb: float = 0.0
    cells: int = 0
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict | None = None  # traced operations only


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.env = program_env()
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.first_stdout: dict[int, bytes] = {}
        # (fill pass?, traced?, master seed) -> the first operation's counters
        self.counters_seen: dict[tuple[bool, bool, int], dict] = {}
        self.drift: list[str] = []
        self.steal_s = 0.0  # hypervisor steal while operations ran
        self._serial = 0

    def remaining_s(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    # --- processes ------------------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, bytes, str]:
        """Run ``argv`` to completion: (wall, cpu, rss MB, exit, stdout, stderr)."""
        self._serial += 1
        out_path = self.work / f"op{self._serial}.out"
        err_path = self.work / f"op{self._serial}.err"
        stolen = steal_s()
        start = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env,
                start_new_session=True,
            )
            timer = threading.Timer(
                max(1.0, self.remaining_s()), os.killpg,
                (proc.pid, signal.SIGKILL),
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        wall = time.perf_counter() - start
        self.steal_s += steal_s() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli_argv(self, store: Path, seed: int) -> list[str]:
        return [
            sys.executable, "-m", "repro.harness.cli", *self.workload.command,
            "--jobs", str(JOBS), "--cache-dir", str(store),
            "--master-seed", str(seed),
        ]

    def run_op(self, label: str, store: Path, seed: int) -> Op:
        before = store_snapshot(store)
        wall, cpu, rss, code, out, err = self.spawn(self.cli_argv(store, seed))
        op = Op(label, seed, wall, cpu, rss, code, out, err)
        self.finish(op, store, before)
        return op

    def run_traced_op(self, label: str, store: Path, seed: int, trace_path: Path) -> Op:
        self._serial += 1
        layers_path = self.work / f"traced{self._serial}.json"
        stdout_path = self.work / f"traced{self._serial}.stdout"
        argv = [
            sys.executable, str(HERE / "traced.py"), str(layers_path),
            str(trace_path), str(stdout_path), "--",
            *self.cli_argv(store, seed)[3:],
        ]
        before = store_snapshot(store)
        wall, cpu, rss, code, _, err = self.spawn(argv)
        out = stdout_path.read_bytes() if stdout_path.exists() else b""
        op = Op(label, seed, wall, cpu, rss, code, out, err)
        if layers_path.exists():
            op.layers = json.loads(layers_path.read_text(encoding="utf-8"))
        else:
            op.problems.append("traced run wrote no layer metrics")
        self.finish(op, store, before)
        return op

    # --- correctness and counters -----------------------------------------------------

    def finish(self, op: Op, store: Path, before: dict) -> None:
        """Check ``op``'s output and fill in its store size and work counters."""
        after = store_snapshot(store)
        op.store_mb = after["bytes"] / 1e6
        problems = op.problems
        if op.exit_code != 0:
            problems.append(f"exit code {op.exit_code}")
        study = self.workload.command[0] == "study"
        if study:
            match = re.search(r"# cache: (\d+) hits, (\d+) misses", op.stderr)
            served, executed = map(int, match.groups()) if match else (0, 0)
            markers = (b"Fig. 10", b"Fig. 14", b"Headline savings")
        else:
            match = re.search(
                r"# (\d+) replay\(s\) executed, (\d+) served", op.stderr
            )
            executed, served = map(int, match.groups()) if match else (0, 0)
            markers = (b"Pareto frontier vs oracle", b"@")
        if not match:
            problems.append("no cell counts on stderr")
        op.cells = executed + served or (STUDY_CELLS if study else 1)
        if not all(marker in op.stdout for marker in markers):
            problems.append("stdout lacks the report sections")
        digest = hashlib.sha256(op.stdout).hexdigest()
        kind = "study" if study else "explore"
        expected = self.reference[kind].get(str(op.seed))
        if expected is not None and digest != expected:
            problems.append("stdout differs from the reference digest")
        first = self.first_stdout.setdefault(op.seed, op.stdout)
        if op.stdout != first:
            problems.append("stdout differs from an earlier run of this seed")
        if study and (op.label == "fill" or not self.workload.warm):
            if served or executed != STUDY_CELLS:
                problems.append(f"cold study served {served}, ran {executed}")
        elif study and (executed or served != STUDY_CELLS):
            problems.append(f"warm study ran {executed} cells (expected 0 misses)")
        op.counters = {
            "cells_executed": executed,
            "cells_served": served,
            "rows_written": after["rows"] - before["rows"],
            "bytes_written": after["row_bytes"] - before["row_bytes"],
            "demand_traces_written": after["traces"] - before["traces"],
            "stdout_bytes": len(op.stdout),
        }
        if op.layers is not None:
            op.counters.update(op.layers["counters"])
        key = (op.label == "fill", op.layers is not None, op.seed)
        seen = self.counters_seen.setdefault(key, op.counters)
        if seen != op.counters:
            changed = sorted(k for k in seen if seen[k] != op.counters.get(k))
            self.drift.append(f"seed {op.seed} {op.label}: {', '.join(changed)}")

    # --- the run ------------------------------------------------------------------------

    def setup(self, seeds: list[int]) -> tuple[float, dict[int, Path], list[Op]]:
        """Compile, time fresh imports and fill the warm stores (untimed)."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro"],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        imports = [
            self.spawn([sys.executable, "-c", "import repro.harness.cli"])
            for _ in range(SETUP_IMPORTS)
        ]
        failed = [r for r in imports if r[3] != 0]
        if failed:
            sys.stderr.write(failed[0][5])
            raise SystemExit("perfbench: the program does not import")
        setup_s = median(r[0] for r in imports)
        stores: dict[int, Path] = {}
        fills: list[Op] = []
        if self.workload.warm:
            for seed in seeds:
                stores[seed] = self.work / f"store-warm-{seed}"
                fills.append(self.run_op("fill", stores[seed], seed))
            setup_s += median(op.wall_s for op in fills)
        return setup_s, stores, fills

    def measure(self, seconds: float, traced: bool):
        seeds = instance_seeds(self.seed, self.workload.instances)
        setup_s, stores, fills = self.setup(seeds)
        ops: list[Op] = []
        start = time.perf_counter()
        for n in itertools.count():
            # Every instance runs once; then round-robin until time is up.
            if n >= len(seeds) and (
                time.perf_counter() - start >= seconds
                or self.remaining_s() < OP_RESERVE_S
            ):
                break
            seed = seeds[n % len(seeds)]
            label = f"r{n // len(seeds) + 1}"
            store = stores.get(seed) or self.work / f"store-{n}"
            ops.append(self.run_op(label, store, seed))
            if traced:
                if not self.workload.warm:
                    shutil.rmtree(store, ignore_errors=True)
                trace_path = trace_file(self.workload.name, self.seed, seed)
                ops.append(
                    self.run_traced_op(f"{label}-traced", store, seed, trace_path)
                )
            if not self.workload.warm:
                shutil.rmtree(store, ignore_errors=True)
        return seeds, setup_s, fills, ops


def store_snapshot(store: Path) -> dict:
    """File counts and bytes under a result store: rows and demand traces."""
    snap = {"rows": 0, "row_bytes": 0, "traces": 0, "bytes": 0}
    if not store.exists():
        return snap
    for path in store.rglob("*.json"):
        size = path.stat().st_size
        snap["bytes"] += size
        if path.parent.name == "demand":
            snap["traces"] += 1
        else:
            snap["rows"] += 1
            snap["row_bytes"] += size
    return snap


def trace_file(workload: str, run_seed: int, seed: int) -> Path:
    path = WORK_ROOT / "traces" / f"{workload}-seed{run_seed}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def per_instance(ops: list[Op], seeds: list[int], value) -> float:
    """Median over each instance's operations, averaged over instances."""
    medians = [
        median(value(op) for op in ops if op.seed == seed)
        for seed in seeds
        if any(op.seed == seed for op in ops)
    ]
    return mean(medians) if medians else 0.0


def end_to_end_values(seeds: list[int], ops: list[Op], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": per_instance(ops, seeds, lambda op: op.wall_s),
        "cpu_s": per_instance(ops, seeds, lambda op: op.cpu_s),
        "peak_rss_mb": per_instance(ops, seeds, lambda op: op.rss_mb),
        "store_mb": per_instance(ops, seeds, lambda op: op.store_mb),
    }


def layer_values(seeds: list[int], ops: list[Op]) -> dict:
    """Per-layer metrics of the traced operations; prints layer self times."""
    traced = [op for op in ops if op.layers is not None]
    untraced = [op for op in ops if op.layers is None]

    def layer(key: str, name: str):
        return lambda op: op.layers[key].get(name, 0.0)

    values = {
        name: per_instance(traced, seeds, layer("metrics", name))
        for name in LAYER_UNITS
    }
    values["harness.startup_s"] = per_instance(
        traced, seeds, lambda op: op.wall_s - op.layers["root_wall_s"]
    )
    values["trace.wall_s"] = per_instance(traced, seeds, lambda op: op.wall_s)
    values["trace.overhead_s"] = values["trace.wall_s"] - per_instance(
        untraced, seeds, lambda op: op.wall_s
    )
    names = sorted({n for op in traced for n in op.layers["layer_self_s"]})
    print("# layer self time, s (span minus child spans; cli.main = uncovered)")
    for name in names:
        seconds = per_instance(traced, seeds, layer("layer_self_s", name))
        print(f"#   {name:<10} {seconds:8.3f}")
    share = values["harness.uncovered_share"]
    print(f"# root time outside every layer span: {100 * share:.2f}% of the "
          f"traced cli.main wall ({'within' if share <= 0.1 else 'OVER'} "
          "the 10% limit)")
    print(f"# interpreter start-up and import: {values['harness.startup_s']:.3f}s")
    print(f"# tracing overhead: {values['trace.overhead_s']:+.3f}s "
          f"(traced {values['trace.wall_s']:.3f}s wall)")
    return values


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_1m": os.getloadavg()[0],
    }


def report_op(op: Op) -> None:
    status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
    counters = " ".join(f"{k}={v}" for k, v in op.counters.items())
    print(
        f"  {op.label:<10} seed={op.seed:<10} wall={op.wall_s:7.3f}s "
        f"cpu={op.cpu_s:7.3f}s rss={op.rss_mb:6.1f}MB "
        f"store={op.store_mb:7.3f}MB {status}"
    )
    print(f"  {'':<10} {counters}")


def record_reference() -> dict:
    """Stdout digests of every instance of the default and held-out seeds."""
    env = program_env()
    reference: dict[str, dict[str, str]] = {"study": {}, "explore": {}}
    for kind, command, count in (
        ("study", STUDY, WORKLOADS["study_cold"].instances),
        ("explore", EXPLORE, WORKLOADS["explore_halving"].instances),
    ):
        for run_seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for seed in instance_seeds(run_seed, count):
                out = subprocess.run(
                    [sys.executable, "-m", "repro.harness.cli", *command,
                     "--jobs", str(JOBS), "--no-cache",
                     "--master-seed", str(seed)],
                    env=env, check=True, capture_output=True,
                ).stdout
                reference[kind][str(seed)] = hashlib.sha256(out).hexdigest()
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to report every workload in turn",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"rewrite {REFERENCE.name} from the current program's output",
    )
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"perfbench: {CLI_SOURCE} not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    if args.record_reference:
        reference = record_reference()
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    return 0


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> None:
    """Measure one workload and print its report, the JSON result last."""
    work = WORK_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work)
    host = host_facts()
    try:
        seeds, setup_s, fills, ops = bench.measure(seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# perfbench {workload.name} seed={seed} trace={int(traced)} "
          f"instances={seeds}")
    print(f"# host nproc={host['nproc']} python={host['python']} "
          f"loadavg_1m={host['loadavg_1m']:.2f} jobs={JOBS} "
          f"steal_during_ops={bench.steal_s:.2f}s")
    for op in fills + ops:
        report_op(op)
    all_ops = fills + ops
    attempted = sum(op.cells for op in all_ops)
    failed = sum(op.cells for op in all_ops if op.problems)
    counters = json.dumps(sorted(bench.counters_seen.items()), sort_keys=True)
    print("# work counters sha256="
          + hashlib.sha256(counters.encode()).hexdigest()[:16]
          + " (equal for runs of one seed and commit)")
    if bench.drift:
        print("# NONDETERMINISM: work counters drifted between runs of one "
              "seed: " + " | ".join(bench.drift))
    if traced:
        values, units = layer_values(seeds, ops), LAYER_UNITS
    else:
        values = end_to_end_values(seeds, ops, setup_s)
        values["success_rate"] = 1 - failed / attempted
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"# {name:<30} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
