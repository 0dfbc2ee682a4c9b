"""The local backend: inline execution and the multiprocessing pool.

This is the execution path :class:`~repro.fleet.engine.FleetEngine`
shipped with from day one, extracted behind the backend contract:

* ``jobs == 1`` (or a single pending cell) runs inline in the parent
  process — no pool overhead, and the reference the parallel paths must
  be bit-identical to,
* ``jobs > 1`` deals cells one at a time to a :mod:`multiprocessing`
  pool whose workers receive every workload of the batch (artifacts
  and, when the demand pass is on, its demand trace) once at pool
  initialisation; a worker preprocesses a trace into a
  :class:`~repro.demand.replayer.DemandProgram` when it first runs a
  cell of that workload.  Governor cells are dealt before fixed-OPP
  cells: they are the slowest, and a batch that ends on them leaves
  workers idle while the last ones finish.

The worker-side functions (:func:`init_worker`, :func:`run_spec_cell`)
live here so other process-spanning backends — the distributed worker
loop — execute cells through exactly the same code as the pool path.
:func:`pool_map` is the same inline-or-pool choice for the one-off
per-workload steps (recording, demand capture) that precede a batch.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Iterable, Iterator

from repro.core.errors import ReproError
from repro.fleet.backends.registry import (
    CellResult,
    FleetBackend,
    WorkloadState,
    opt_int,
    register_backend,
    reject_unknown_opts,
)
from repro.fleet.spec import RunSpec

# --- worker-process side ----------------------------------------------------------

_WORKER_WORKLOADS: dict[str, WorkloadState] = {}


def init_worker(workloads: dict[str, WorkloadState]) -> None:
    """Install the per-process replay state: the batch's workloads,
    keyed by :attr:`RunSpec.dataset <repro.fleet.spec.RunSpec.dataset>`.
    Each workload's demand program is built once, shared by every cell
    of that workload this worker runs."""
    global _WORKER_WORKLOADS
    _WORKER_WORKLOADS = workloads


def run_spec_cell(item: tuple[int, RunSpec]) -> CellResult:
    """Execute one cell; the result crosses the process boundary as the
    schema-versioned :class:`~repro.results.RunRecord` JSON row, not a
    pickled object.

    The fourth element is the worker's telemetry for this cell — its pid,
    wall and CPU seconds spent, and which evaluation pass produced the
    record — measured here so the numbers cover exactly the replay, not
    pool scheduling or IPC.  A demand cell that raises
    :class:`~repro.demand.replayer.DemandFallback` re-runs as a full
    replay in place, tagged with the fallback reason; the wall clock then
    covers both attempts, which is the honest cost of that cell.
    """
    from repro.fleet.engine import WorkerFailure, execute_spec

    index, spec = item
    workload = _WORKER_WORKLOADS[spec.dataset]
    # Built before the clock starts: the telemetry covers the replay only.
    program = workload.program()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    mode = "full"
    fallback_reason = None
    try:
        if program is not None:
            from repro.demand import DemandFallback, demand_replay_run

            try:
                record = demand_replay_run(
                    workload.artifacts,
                    program,
                    spec.config,
                    rep=spec.rep,
                    master_seed=spec.master_seed,
                    **spec.tunables_dict(),
                )
                mode = "demand"
            except DemandFallback as fallback:
                fallback_reason = fallback.reason
                record = execute_spec(workload.artifacts, spec)
        else:
            record = execute_spec(workload.artifacts, spec)
        row, failure = record.to_json_dict(), None
    except Exception as exc:  # shipped home; the pool must not die
        row = None
        failure = WorkerFailure(
            spec=spec,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
    telemetry = {
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
        "mode": mode,
    }
    if fallback_reason is not None:
        telemetry["fallback_reason"] = fallback_reason
    return index, row, failure, telemetry


# --- parent side ------------------------------------------------------------------


def pool_map(task, items: list, jobs: int) -> Iterator:
    """Yield ``task(item)`` for each item, in item order.

    On up to ``jobs`` worker processes, or inline when only one would
    run.  ``task`` must be a module-level function of :mod:`repro`: the
    pool sends it by reference.  It should look up the functions it
    calls by name when it runs, so that code which wraps those names (a
    tracer, a test double) sees the calls.  Items go to the workers and
    results come back by pickle; like the cell pool, the workers start
    with the platform's default method.
    """
    jobs = min(jobs, len(items))
    if jobs <= 1:
        yield from map(task, items)
        return
    with multiprocessing.Pool(processes=jobs) as pool:
        yield from pool.imap(task, items, chunksize=1)



class LocalBackend(FleetBackend):
    """Inline / ``multiprocessing.Pool`` execution on this machine."""

    name = "local"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ReproError(f"fleet needs at least one worker, got {jobs}")
        self.jobs = jobs

    @classmethod
    def from_opts(cls, opts: dict[str, str], jobs: int = 1) -> "LocalBackend":
        reject_unknown_opts(cls.name, opts, ("jobs",))
        return cls(jobs=opt_int(opts, "jobs", jobs))

    def describe(self) -> str:
        return f"{self.name}:jobs={self.jobs}"

    def execute(
        self,
        workloads: dict[str, WorkloadState],
        pending: list[tuple[int, RunSpec]],
        keys: dict[int, str] | None = None,
        store=None,
    ) -> Iterable[CellResult]:
        if not pending:
            return
        jobs = min(self.jobs, len(pending))
        if jobs == 1:
            # Inline path: identical semantics, no pool overhead.  This is
            # also the reference the parallel path must be bit-identical to.
            init_worker(workloads)
            try:
                for item in pending:
                    yield run_spec_cell(item)
            finally:
                # Drop the parent-process reference so the traces and
                # programs can be collected once the run is over.
                init_worker({})
            return
        # Governor cells first (see the module docstring).
        ordered = sorted(
            pending, key=lambda item: item[1].config.startswith("fixed:")
        )
        with multiprocessing.Pool(
            processes=jobs,
            initializer=init_worker,
            initargs=(workloads,),
        ) as pool:
            yield from pool.imap_unordered(
                run_spec_cell, ordered, chunksize=1
            )


register_backend(LocalBackend.name, LocalBackend.from_opts)
