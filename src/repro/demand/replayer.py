"""The kernel-only evaluation pass: replay recorded demand, vary the response.

``demand_replay_run`` is the sweep-side counterpart of
:func:`~repro.harness.experiment.replay_run`: it produces the same
:class:`~repro.results.RunRecord` for a (config, rep) cell, but drives
only the device/governor/cpufreq/energy kernel.  Apps, window manager,
gesture decoding and UI composition are replaced by a
:class:`DemandTrace` walk:

* recorded **task** nodes are re-submitted to the real scheduler with
  their captured name/cycles/priority; when the *evaluation* kernel
  completes one — at whatever time the governor under study produces —
  its recorded children execute;
* recorded **timer** nodes re-arm the same engine delays (IO gaps,
  stage pauses);
* recorded **invalidate** nodes request composition on real vsync
  boundaries, tracking which interned state the screen would show; the
  lag profile is computed pixel-free from the trace's precomputed match
  table (:mod:`repro.demand.tablematch`), falling back to painting real
  frames through the capture card and online matcher when a caller
  needs them (a ``frame_tap``, or a trace without a table);
* recorded **chain** nodes start/stop live
  :class:`~repro.kernel.workchains.PeriodicWorkChain` loops, which fire
  as many times as *this* config's gate timing allows;
* background services run **live** with the same per-cell RNG stream a
  full replay would use — they are response-side noise, not demand.

The trace is immutable, so :class:`DemandProgram` lowers it once per
worker into fused **action tuples**: one tuple per node carrying an
integer opcode, the node's verbatim payloads and its children as a
prebuilt list of the child tuples, plus the root lists of the setup
phase and of each input ordinal.  :class:`DemandExecutor` iterates
those lists directly — evaluating a node is tuple indexing off one
iteration variable, with no dataclass attribute loads, no dict probes
and no per-node closures — and builds tasks without ``Task.__init__``'s
payload checks, which :meth:`DemandTrace.validate` makes once per trace
instead.

The governor→timing feedback loop is handled by the trace's guards: the
scripted user only gestures at foreground quiescence, and the capture
runs at the pinned *minimum* frequency, so every config completes
foreground work no later than the capture did and the guards hold —
unless a config's lag pattern genuinely perturbs a recorded think-time
boundary, in which case the pass raises :class:`DemandFallback` and the
fleet re-runs that cell as a full replay (counted in telemetry).

Parity contract: energy, irritation and transition digests are
bit-identical to a full replay of the same cell.  Frame digests are
*not* part of the contract — the evaluation pass drops the window
manager's minute/animation tick frames and repaints masked or
never-matching time-varying pixels (clock, spinner phase, cursor
blink) from capture time, none of which can move a match time.
"""

from __future__ import annotations

import sys
import zlib
from functools import partial

import numpy as np

from repro.core.errors import MatchError, ReproError
from repro.demand.tablematch import BLANK_STATE, ShadowStreamer, TableMatcher
from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
    DemandNode,
    DemandTrace,
)
from repro.kernel.task import PRIORITY_FOREGROUND, Task, _task_ids
from repro.kernel.workchains import PeriodicWorkChain

#: Opcodes of the action tuples, one per node kind.
OP_TASK = 0
OP_TIMER = 1
OP_INVALIDATE = 2
OP_CHAIN_START = 3
OP_CHAIN_STOP = 4


class DemandFallback(ReproError):
    """This cell cannot be evaluated on the kernel pass — run it full.

    ``reason`` is a short machine-readable tag the fleet telemetry
    aggregates (``guard_mismatch``, ``match_error``).
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


def _action(node: DemandNode, children: list | None) -> tuple:
    """The action tuple of one node; ``children`` is its (shared) child list.

    Payloads are the recorded values verbatim, so the scheduler sees
    bit-identical task parameters.  A task's cycles are pre-floated:
    ``Task`` stores ``float(cycles)``, and ``float`` of a float is the
    identity.
    """
    kind = node.kind
    if kind == KIND_TASK:
        # (op, node_id, name, cycles, priority, children)
        return (
            OP_TASK,
            node.node_id,
            sys.intern(node.name),
            float(node.cycles),
            node.priority,
            children,
        )
    if kind == KIND_INVALIDATE:
        return (OP_INVALIDATE, node.state_id)
    if kind == KIND_TIMER:
        return (OP_TIMER, node.delay_us, children)
    if kind == KIND_CHAIN_START:
        # (op, chain_key, name, period_us, cycles, priority)
        return (
            OP_CHAIN_START,
            node.chain_key,
            sys.intern(node.name),
            node.period_us,
            node.cycles,
            node.priority,
        )
    return (OP_CHAIN_STOP, node.chain_key)


class DemandProgram:
    """A demand trace preprocessed for repeated evaluation.

    Sweeping N cells over one trace repeats per-cell setup work — the
    lowering to action tuples, match-set construction, state
    decompression — that depends only on the trace.  A fleet worker
    builds one program per trace and evaluates every assigned cell
    against it.

    ``setup_actions`` is the setup phase's action list,
    ``input_actions[k]`` input ordinal *k*'s (``None`` when it has no
    demand) and ``guards[k]`` its recorded guard, ``()`` when unguarded.
    Every list keeps the capture's callback order, exactly as
    :meth:`~repro.demand.trace.DemandTrace.children_by_parent` returns it.
    """

    def __init__(self, trace: DemandTrace) -> None:
        self.trace = trace
        setup, by_input, by_node = trace.children_by_parent()
        # Child lists are created empty first so a parent's tuple can
        # hold its list before the children's own tuples exist; a
        # childless node carries ``None``.
        child_lists = {node_id: [] for node_id in by_node}
        actions = [
            _action(node, child_lists.get(node.node_id)) for node in trace.nodes
        ]
        for node_id, children in by_node.items():
            child_lists[node_id].extend(
                actions[child.node_id] for child in children
            )
        self.setup_actions = [actions[node.node_id] for node in setup]
        self.input_actions: list[list | None] = [
            [actions[node.node_id] for node in by_input[ordinal]]
            if ordinal in by_input
            else None
            for ordinal in range(trace.input_events)
        ]
        self.guards = [
            trace.guards.get(ordinal, ()) for ordinal in range(trace.input_events)
        ]
        self.match_sets: list[frozenset[int]] | None = None
        if trace.match_states is not None:
            blank = frozenset(trace.blank_matches)
            self.match_sets = [
                frozenset(states)
                | ({BLANK_STATE} if index in blank else frozenset())
                for index, states in enumerate(trace.match_states)
            ]
        self._states: list | None = None

    def states(self) -> list:
        """Decompressed framebuffer states (pixel path only, lazy)."""
        if self._states is None:
            trace = self.trace
            shape = (trace.height, trace.width)
            self._states = [
                np.frombuffer(
                    zlib.decompress(blob), dtype=np.uint8
                ).reshape(shape)
                for blob in trace.states
            ]
        return self._states


class _DemandTask(Task):
    """A task node's live submission.

    Carries its action tuple so one shared completion callback can find
    the node id, priority and child list.  The direct ``__init__`` skips
    ``Task.__init__``'s keyword parsing and payload validation: the
    payloads are pre-floated and trace-validated
    (:meth:`~repro.demand.trace.DemandTrace.validate`).  Ids come from
    the shared task-id counter, as every ``Task``'s do.
    """

    __slots__ = ("action",)

    def __init__(self, action: tuple, on_complete) -> None:
        # (op, node_id, name, cycles, priority, children)
        self.task_id = next(_task_ids)
        self.name = action[2]
        cycles = action[3]
        self.cycles = cycles
        self.priority = action[4]
        self.on_complete = on_complete
        self.remaining_cycles = cycles
        self.submitted_at = None
        self.started_at = None
        self.completed_at = None
        self.action = action


class DemandExecutor:
    """Walks a :class:`DemandProgram`'s action lists over a live kernel.

    With ``pixels=False`` (the default sweep path) invalidates only
    track the current interned state id — no state is decompressed and
    nothing is painted; the caller derives the lag profile from the
    trace's match table.  With ``pixels=True`` the executor installs a
    composer that repaints the interned states, so a capture card sees
    real frames.  Task completions share one bound method and timers
    re-arm a :func:`functools.partial` over the prebuilt child list, so
    the walk allocates no closure per node.
    """

    __slots__ = (
        "_engine",
        "_scheduler",
        "_schedule_after",
        "_submit",
        "_invalidate",
        "_setup_actions",
        "_input_actions",
        "_guards",
        "_pixels",
        "_states",
        "_frame",
        "current_state",
        "_chains",
        "_fg_inflight",
        "_next_ordinal",
    )

    def __init__(self, device, program: DemandProgram, pixels: bool) -> None:
        self._engine = device.engine
        self._scheduler = device.scheduler
        # Bound-method interning: the inner loop calls these thousands
        # of times per cell; one attribute load here beats two per node.
        self._schedule_after = device.engine.schedule_after
        self._submit = device.scheduler.submit
        self._invalidate = device.display.invalidate
        self._setup_actions = program.setup_actions
        self._input_actions = program.input_actions
        self._guards = program.guards
        self._pixels = pixels
        self._states: list | None = None
        self._frame = None
        if pixels:
            self._states = program.states()
            device.display.set_composer(self._paint)
        #: Interned state id the screen would show (BLANK_STATE at boot).
        self.current_state = BLANK_STATE
        self._chains: dict[int, PeriodicWorkChain] = {}
        self._fg_inflight: set[int] = set()
        self._next_ordinal = 0

    # --- composition -------------------------------------------------------------

    def _paint(self, framebuffer) -> None:
        if self._frame is not None:
            framebuffer[:] = self._frame

    # --- trace walking -----------------------------------------------------------

    def run_setup(self) -> None:
        """Execute the app-installation phase (engine time 0)."""
        self._run_list(self._setup_actions)

    def on_input(self, event) -> None:
        """Input-node observer: check the guard, run the ordinal's demand."""
        ordinal = self._next_ordinal
        self._next_ordinal = ordinal + 1
        guards = self._guards
        expected = guards[ordinal] if ordinal < len(guards) else ()
        actual = tuple(sorted(self._fg_inflight))
        if actual != expected:
            raise DemandFallback(
                f"input {ordinal} at t={self._engine.now}: foreground tasks "
                f"in flight {list(actual)} != recorded {list(expected)} — "
                "this config perturbs recorded think-time boundaries",
                reason="guard_mismatch",
            )
        roots = self._input_actions
        if ordinal < len(roots):
            actions = roots[ordinal]
            if actions is not None:
                self._run_list(actions)

    def _task_done(self, task) -> None:
        """Shared completion callback for every submitted task node."""
        action = task.action
        # (op, node_id, name, cycles, priority, children)
        if action[4] == PRIORITY_FOREGROUND:
            self._fg_inflight.discard(action[1])
        children = action[5]
        if children is not None:
            self._run_list(children)

    def _run_list(self, actions: list) -> None:
        """Execute one prebuilt action list — the walk's inner loop."""
        for action in actions:
            op = action[0]
            if op == OP_TASK:
                # (op, node_id, name, cycles, priority, children)
                if action[4] == PRIORITY_FOREGROUND:
                    self._fg_inflight.add(action[1])
                self._submit(_DemandTask(action, self._task_done))
            elif op == OP_INVALIDATE:
                # (op, state_id)
                state = action[1]
                self.current_state = state
                if self._pixels:
                    self._frame = self._states[state]
                self._invalidate()
            elif op == OP_TIMER:
                # (op, delay_us, children).  A childless timer produced
                # no recorded demand; skipping it is invisible to the
                # kernel.
                children = action[2]
                if children is not None:
                    self._schedule_after(
                        action[1],
                        partial(self._run_list, children),
                    )
            elif op == OP_CHAIN_START:
                # (op, chain_key, name, period_us, cycles, priority)
                key = action[1]
                chain = self._chains.get(key)
                if chain is None:
                    chain = PeriodicWorkChain(
                        self._engine,
                        self._scheduler,
                        action[2],
                        action[3],
                        action[4],
                        priority=action[5],
                    )
                    self._chains[key] = chain
                chain.start()
            else:  # OP_CHAIN_STOP: (op, chain_key)
                chain = self._chains.get(action[1])
                if chain is not None:
                    chain.stop()


def demand_replay_run(
    artifacts,
    trace: DemandTrace | DemandProgram,
    config: str,
    rep: int = 0,
    master_seed: int | None = None,
    device_config=None,
    frame_tap=None,
    **governor_tunables,
):
    """Evaluate one (config, rep) cell over recorded demand.

    Mirrors :func:`~repro.harness.experiment.replay_run` cell for cell:
    same RNG forks, same capture/matcher pipeline, same
    :class:`~repro.results.RunRecord` shape including the observability
    harvest.  Raises :class:`DemandFallback` when the cell needs a full
    replay.  ``trace`` may be a prebuilt :class:`DemandProgram` to share
    preprocessing across a sweep's cells.
    """
    from repro.analysis import Matcher, OnlineMatcher
    from repro.apps.services import BackgroundServices
    from repro.capture import CaptureCard, stream_enabled
    from repro.core.rng import RngStreams
    from repro.device.device import Device
    from repro.device.display import frame_index_at
    from repro.harness.experiment import DEFAULT_MASTER_SEED, RUN_TAIL_US
    from repro.obs import session as obs_session
    from repro.replay import ReplayAgent
    from repro.results import RunRecord
    from repro.scenarios.profiles import device_config_for

    if master_seed is None:
        master_seed = DEFAULT_MASTER_SEED
    obs = obs_session.active()
    owns_session = False
    if obs is None and obs_session.trace_enabled():
        obs = obs_session.ObsSession.for_run()
        obs_session.install(obs)
        owns_session = True
    try:
        streams = RngStreams(master_seed).fork(
            f"replay:{artifacts.name}:{config}:{rep}"
        )
        if device_config is None:
            device_config = device_config_for(artifacts.spec)
        program = (
            trace if isinstance(trace, DemandProgram) else DemandProgram(trace)
        )
        # The pixel-free table path needs a precomputed match table; a
        # frame tap needs real frames, so it forces the pixel path.
        pixels = frame_tap is not None or program.match_sets is None
        device = Device(device_config)
        executor = DemandExecutor(device, program, pixels)
        # Same observer order as a full replay: the window manager's
        # decoder registers before the governor's input boost; here the
        # executor takes the decoder's slot.
        device.touchscreen.node.add_observer(executor.on_input)
        executor.run_setup()
        services = BackgroundServices(
            device.engine, device.scheduler, streams.stream("services")
        )
        services.start()
        device.set_governor(config, **governor_tunables)
        device.cpu.enable_busy_trace()
        agent = ReplayAgent(device.engine, device.input_subsystem)
        agent.schedule(artifacts.trace)
        card = online = shadow = None
        streaming = stream_enabled()
        if pixels:
            card = CaptureCard(device.display)
            if streaming:
                online = OnlineMatcher(artifacts.database)
                card.add_tap(online)
            if frame_tap is not None:
                card.add_tap(frame_tap)
            card.start(device.engine.now, streaming=streaming)
        else:
            matcher = TableMatcher(artifacts.database, program.match_sets)
            shadow = ShadowStreamer(matcher)
            device.display.add_frame_observer(
                lambda index, _frame: shadow.record(
                    index, executor.current_state
                )
            )
            # The capture card's start seed: whatever is on screen right
            # now — nothing has composed yet, so the blank boot frame.
            shadow.record(frame_index_at(device.engine.now), BLANK_STATE)

        run_window = artifacts.duration_us + RUN_TAIL_US
        device.run_for(run_window)

        try:
            if pixels:
                video = card.stop(device.engine.now)
                if streaming:
                    profile = online.profile()
                else:
                    profile = Matcher(artifacts.database).match(video)
            else:
                shadow.finalize(frame_index_at(device.engine.now) + 1)
                profile = matcher.profile()
        except MatchError as exc:
            raise DemandFallback(
                f"cell ({config!r}, rep {rep}): replayed frames no longer "
                f"match the annotation database: {exc}",
                reason="match_error",
            ) from None
        record = RunRecord(
            workload=artifacts.name,
            config=config,
            rep=rep,
            duration_us=run_window,
            energy_j=device.cpu.energy_joules(),
            dynamic_energy_j=device.cpu.dynamic_energy_joules(),
            busy_us=device.cpu.busy_time_total(),
            transitions=device.policy.transition_points(),
            busy_intervals=device.cpu.busy_pairs(),
            lags=profile.lags,
        )
        if obs is not None:
            snapshot = obs.harvest_run(device.engine, governor=device.governor)
            if obs.decisions is not None:
                from repro.obs.attribution import attribute_record

                snapshot["attribution"] = attribute_record(
                    record, boosts=obs.decisions.boosts
                ).summary()
            record.obs = snapshot
        return record
    finally:
        if owns_session:
            obs_session.uninstall()
