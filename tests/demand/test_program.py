"""The demand program: lowering to action tuples, and the executor's guards."""

import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand.replayer import (
    OP_CHAIN_START,
    OP_CHAIN_STOP,
    OP_INVALIDATE,
    OP_TASK,
    OP_TIMER,
    DemandExecutor,
    DemandFallback,
    DemandProgram,
)
from repro.demand.trace import (
    KIND_CHAIN_START,
    KIND_CHAIN_STOP,
    KIND_INVALIDATE,
    KIND_TASK,
    KIND_TIMER,
    DemandNode,
    DemandTrace,
)
from repro.device.device import Device

WIDTH = HEIGHT = 4
STATE = zlib.compress(bytes(WIDTH * HEIGHT))


def _trace(nodes, input_events=0, guards=None, states=2):
    trace = DemandTrace(
        workload="test:program",
        capture_config="fixed:300000",
        duration_us=1_000_000,
        width=WIDTH,
        height=HEIGHT,
        input_events=input_events,
        nodes=nodes,
        states=[STATE] * states,
        guards=guards or {},
    )
    trace.validate()
    return trace


def _rich_trace(guards=None):
    """One of each node kind, setup + input roots + nested children."""
    nodes = [
        DemandNode(
            node_id=0,
            kind=KIND_CHAIN_START,
            chain_key=7,
            name="svc:poll",
            period_us=40_000,
            cycles=2.5e6,
            priority=1,
        ),
        DemandNode(
            node_id=1, kind=KIND_TASK, name="setup", cycles=1e6, priority=1
        ),
        DemandNode(node_id=2, kind=KIND_INVALIDATE, parent=1, state_id=0),
        DemandNode(
            node_id=3,
            kind=KIND_TASK,
            input_ordinal=0,
            name="tap",
            cycles=3e6,
            priority=0,
        ),
        DemandNode(node_id=4, kind=KIND_TIMER, parent=3, delay_us=2_000),
        DemandNode(
            node_id=5,
            kind=KIND_TASK,
            parent=4,
            name="render",
            cycles=2e6,
            priority=0,
        ),
        DemandNode(node_id=6, kind=KIND_INVALIDATE, parent=5, state_id=1),
        DemandNode(node_id=7, kind=KIND_TIMER, parent=3, delay_us=500),
        DemandNode(node_id=8, kind=KIND_CHAIN_STOP, input_ordinal=1, chain_key=7),
        DemandNode(
            node_id=9,
            kind=KIND_TASK,
            input_ordinal=1,
            name="tap2",
            cycles=1e6,
            priority=0,
        ),
    ]
    return _trace(nodes, input_events=2, guards=guards)


def test_actions_fuse_payloads_and_children():
    program = DemandProgram(_rich_trace(guards={1: (3,)}))
    chain, setup = program.setup_actions
    assert chain == (OP_CHAIN_START, 7, "svc:poll", 40_000, 2.5e6, 1)
    assert setup == (OP_TASK, 1, "setup", 1e6, 1, [(OP_INVALIDATE, 0)])
    (tap,) = program.input_actions[0]
    assert tap[:5] == (OP_TASK, 3, "tap", 3e6, 0)
    assert isinstance(tap[3], float)
    # Children embed as the child nodes' own action tuples, in order.
    stage, idle = tap[5]
    assert stage == (
        OP_TIMER,
        2_000,
        [(OP_TASK, 5, "render", 2e6, 0, [(OP_INVALIDATE, 1)])],
    )
    assert idle == (OP_TIMER, 500, None)  # childless timer
    assert program.input_actions[1] == [
        (OP_CHAIN_STOP, 7),
        (OP_TASK, 9, "tap2", 1e6, 0, None),
    ]
    # Dense guard list: recorded ordinals verbatim, the rest quiescent.
    assert program.guards == [(), (3,)]


def _random_trace(rng):
    """A seeded random forest exercising every kind and nesting shape."""
    nodes = []

    def add(kind, **payload):
        node = DemandNode(node_id=len(nodes), kind=kind, **payload)
        nodes.append(node)
        return node.node_id

    chains = 0
    if rng.random() < 0.5:
        add(
            KIND_CHAIN_START,
            chain_key=0,
            name="chain",
            period_us=rng.randrange(20_000, 60_000),
            cycles=float(rng.randrange(1, 5)) * 1e6,
            priority=1,
        )
        chains = 1

    def grow(parent, depth):
        for _ in range(rng.randrange(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                child = add(
                    KIND_TASK,
                    parent=parent,
                    name=f"t{len(nodes)}",
                    cycles=float(rng.randrange(1, 8)) * 1e5,
                    priority=rng.randrange(2),
                )
                if depth < 2:
                    grow(child, depth + 1)
            elif roll < 0.7:
                add(KIND_INVALIDATE, parent=parent, state_id=rng.randrange(2))
            else:
                child = add(
                    KIND_TIMER,
                    parent=parent,
                    delay_us=rng.randrange(0, 3_000),
                )
                if depth < 2:
                    grow(child, depth + 1)

    inputs = rng.randrange(1, 5)
    for ordinal in range(inputs):
        if rng.random() < 0.2:
            continue  # an input that recorded no demand
        if chains and rng.random() < 0.2:
            add(KIND_CHAIN_STOP, input_ordinal=ordinal, chain_key=0)
        root = add(
            KIND_TASK,
            input_ordinal=ordinal,
            name=f"in{ordinal}",
            cycles=float(rng.randrange(1, 8)) * 1e5,
            priority=0,
        )
        grow(root, 1)
    foreground = [
        node.node_id
        for node in nodes
        if node.kind == KIND_TASK and node.priority == 0
    ]
    guards = {
        ordinal: tuple(sorted(rng.sample(foreground, min(2, len(foreground)))))
        for ordinal in range(inputs)
        if rng.random() < 0.3
    }
    return _trace(nodes, input_events=inputs, guards=guards)


_OPS = {
    KIND_TASK: OP_TASK,
    KIND_TIMER: OP_TIMER,
    KIND_INVALIDATE: OP_INVALIDATE,
    KIND_CHAIN_START: OP_CHAIN_START,
    KIND_CHAIN_STOP: OP_CHAIN_STOP,
}


def _expected(node, by_node):
    """The action tuple ``node`` should lower to, children expanded."""
    children = by_node.get(node.node_id)
    if children is not None:
        children = [_expected(child, by_node) for child in children]
    payload = {
        KIND_TASK: (node.node_id, node.name, node.cycles, node.priority, children),
        KIND_TIMER: (node.delay_us, children),
        KIND_INVALIDATE: (node.state_id,),
        KIND_CHAIN_START: (
            node.chain_key,
            node.name,
            node.period_us,
            node.cycles,
            node.priority,
        ),
        KIND_CHAIN_STOP: (node.chain_key,),
    }[node.kind]
    return (_OPS[node.kind], *payload)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_actions_expand_to_children_by_parent(seed):
    """Expanding the action lists recursively reproduces the node forest."""
    trace = _random_trace(random.Random(seed))
    program = DemandProgram(trace)
    setup, by_input, by_node = trace.children_by_parent()
    assert program.setup_actions == [_expected(node, by_node) for node in setup]
    assert program.input_actions == [
        [_expected(node, by_node) for node in by_input[ordinal]]
        if ordinal in by_input
        else None
        for ordinal in range(trace.input_events)
    ]
    assert program.guards == [
        trace.guards.get(ordinal, ()) for ordinal in range(trace.input_events)
    ]


def _deliver_inputs(program, spacing_us):
    """Run ``program`` on a device, one input every ``spacing_us``.

    Returns the executor and the fallbacks the input deliveries raised.
    """
    device = Device()
    executor = DemandExecutor(device, program, False)
    executor.run_setup()
    device.set_governor("fixed:960000")
    fallbacks = []

    def deliver():
        try:
            executor.on_input(None)
        except DemandFallback as exc:
            fallbacks.append(exc)

    inputs = program.trace.input_events
    for index in range(inputs):
        device.engine.schedule_at(5_000 + index * spacing_us, deliver)
    device.run_for(inputs * spacing_us + 50_000)
    return executor, fallbacks


def test_guard_mismatch_raises_fallback():
    """Input 1 recorded tap 3 in flight; 50 ms after input 0 it is done."""
    executor, fallbacks = _deliver_inputs(DemandProgram(_rich_trace()), 50_000)
    assert fallbacks == []
    assert executor.current_state == 1  # the render's invalidate ran last
    program = DemandProgram(_rich_trace(guards={1: (3,)}))
    _executor, fallbacks = _deliver_inputs(program, 50_000)
    assert [exc.reason for exc in fallbacks] == ["guard_mismatch"]
    assert "in flight [] != recorded [3]" in str(fallbacks[0])

