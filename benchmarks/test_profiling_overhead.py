"""Guard: disabled observability hooks cost <5 % of the hot paths they wrap.

The instrumentation contract (docs/OBSERVABILITY.md) is that tracing,
metrics and profiling are near-zero-cost when off: a disabled trace emit is
one attribute check, a disabled profiler span is a shared no-op object, and
a histogram observation is a dict hit plus arithmetic.  This module measures
those per-call costs against the cheapest real operation they instrument
(one mirror selection), so a regression that makes the hooks expensive
fails here before it shows up as slower simulations.
"""

import random
import statistics
import time

from repro.core.config import SoupConfig
from repro.core.selection import select_mirrors
from repro.obs import MetricsRegistry, Tracer
from repro.obs.profiling import PROFILER, Profiler, _NULL_SPAN

#: Calls-per-selection budget: the engine's selection path runs at most
#: this many hook calls (tracer guards, counter incs, histogram observes,
#: phase-timer spans — ``engine.selection`` wraps each placement,
#: ``engine.sync``/``engine.dropping`` amortize over the round)
#: per ``select_mirrors`` invocation.
_HOOKS_PER_SELECTION = 16
#: Alternating repeats of every cost an overhead guard compares.
_REPEATS = 5


def _per_call_s(fn, iterations: int = 50_000) -> float:
    fn()  # warm any lazy allocation out of the measured loop
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _selection_cost_s(rounds: int = 200) -> float:
    config = SoupConfig()
    rng = random.Random(3)
    ranking = [(node, rng.random()) for node in range(250)]
    friends = list(range(0, 40))
    start = time.perf_counter()
    for _ in range(rounds):
        select_mirrors(
            ranking=ranking,
            friends=friends,
            config=config,
            rng=rng,
            exploration_pool=range(250, 280),
        )
    return (time.perf_counter() - start) / rounds


def test_disabled_hooks_under_five_percent_of_selection():
    tracer = Tracer()  # disabled
    profiler = Profiler()  # disabled
    registry = MetricsRegistry()
    histogram = registry.histogram("bench.hist")
    counter = registry.counter("bench.counter")

    def disabled_trace_guard():
        if tracer.enabled:
            tracer.emit("retry", kind="bench")

    def disabled_span():
        with profiler.span("bench"):
            pass

    measurements = (
        lambda: _per_call_s(disabled_trace_guard),
        lambda: _per_call_s(disabled_span),
        lambda: _per_call_s(lambda: counter.inc()),
        lambda: _per_call_s(lambda: histogram.observe(3.0)),
        _selection_cost_s,
    )
    # Host noise only ever adds time, so each cost is the minimum over
    # repeats that alternate between the five measurements: a burst of
    # load lands on one repeat of each, not on all repeats of one.
    repeats = [[measure() for measure in measurements] for _ in range(_REPEATS)]
    *hook_costs, selection_cost = (min(costs) for costs in zip(*repeats))
    hook_cost = max(hook_costs)
    estimated_overhead = _HOOKS_PER_SELECTION * hook_cost / selection_cost
    print(
        f"\nhook={hook_cost * 1e9:.0f}ns selection={selection_cost * 1e6:.0f}µs "
        f"estimated overhead={estimated_overhead:.3%}"
    )
    assert estimated_overhead < 0.05, (
        f"disabled observability hooks cost {estimated_overhead:.1%} of one "
        f"selection ({hook_cost * 1e9:.0f}ns x {_HOOKS_PER_SELECTION} calls)"
    )


def test_disabled_live_observer_under_five_percent_of_message_cost():
    """The live transport's observability hooks, when no plane is
    attached, are three ``is None`` attribute checks per message (send,
    transmit, dispatch).  Guard: that costs <5 % of the cheapest
    unavoidable per-message work — encoding and decoding the frame of a
    real ``UPDATE`` envelope (signed, as ``post_item`` sends it)."""
    from repro.core.objects import ObjectType, SoupObject
    from repro.crypto.keys import KeyPair
    from repro.deploy.live.transport import LiveTransport
    from repro.deploy.live.transport_codec import LENGTH, decode_frame, encode_frame
    from repro.network.reliability import Envelope
    from repro.node.security_manager import SecurityManager

    # The attribute-lookup cost is a property of the class layout; build
    # an instance without the event-loop plumbing the real ctor needs.
    transport = LiveTransport.__new__(LiveTransport)
    transport.observer = None

    def disabled_guards():
        if transport.observer is not None:  # send()
            raise AssertionError
        if transport.observer is not None:  # _transmit()
            raise AssertionError
        if transport.observer is not None:  # _dispatch()
            raise AssertionError

    def noop():
        pass

    keys = KeyPair.generate(bits=512, seed=3)
    update = SoupObject(
        source=keys.soup_id,
        dest=keys.soup_id,
        object_type=ObjectType.UPDATE,
        payload={"action": "post_item", "item_id": 42, "kind": "text", "size": 2000},
        timestamp=12.5,
    )
    SecurityManager(keys).sign_object(update)
    envelope = Envelope(msg_id=42, origin=keys.soup_id, attempt=0, payload=update, floor=40)
    wire = encode_frame(keys.soup_id, 4_048, envelope)

    def message_lifecycle():
        # The unavoidable per-message floor the guards amortize against:
        # the sender encodes the frame, the receiver decodes it.
        frame = encode_frame(keys.soup_id, 4_048, envelope)
        decode_frame(memoryview(frame)[LENGTH.size:])

    # Net guard cost: the checks themselves, minus the call overhead the
    # measuring harness adds (inline in the real transport).
    guard_cost = max(0.0, _per_call_s(disabled_guards) - _per_call_s(noop))
    message_cost = _per_call_s(message_lifecycle, iterations=20_000)
    overhead = guard_cost / message_cost
    print(
        f"\nguards={guard_cost * 1e9:.0f}ns "
        f"encode+decode({len(wire)}B)={message_cost * 1e9:.0f}ns "
        f"overhead={overhead:.3%}"
    )
    assert overhead < 0.05, (
        f"disabled live-observer guards cost {overhead:.1%} of one message's "
        f"serialize/deserialize ({guard_cost * 1e9:.0f}ns vs "
        f"{message_cost * 1e9:.0f}ns)"
    )


def test_disabled_span_is_allocation_free():
    profiler = Profiler()
    assert profiler.span("a") is profiler.span("b") is _NULL_SPAN


def test_disabled_tracer_emit_is_noop():
    tracer = Tracer()
    cost = _per_call_s(lambda: tracer.emit("retry", kind="bench"))
    assert cost < 2e-6, f"disabled emit costs {cost * 1e9:.0f}ns per call"


def test_profile_run_produces_phase_breakdown():
    from repro.sim.engine import run_scenario
    from repro.sim.scenario import ScenarioConfig

    PROFILER.reset()
    PROFILER.enable()
    try:
        run_scenario(ScenarioConfig(scale=0.004, n_days=1, seed=5))
    finally:
        PROFILER.disable()
    totals = PROFILER.totals()
    for phase in ("engine.epoch", "engine.selection_round", "engine.measure"):
        assert phase in totals, f"phase {phase} never recorded"
        assert totals[phase] > 0.0
    lines = PROFILER.report_lines(top_level="engine.epoch")
    print()
    for line in lines:
        print(line)
    assert any("engine.epoch" in line and "100.0%" in line for line in lines)
    PROFILER.reset()


def test_enabled_phase_timers_under_fifteen_percent_on_epoch_loop():
    """The enabled-path budget (docs/OBSERVABILITY.md): running the
    epoch-loop bench case with phase timers capturing costs <15 % over a
    plain run.  The overhead is the median over :data:`_REPEATS`
    back-to-back plain/profiled pairs of their ratio: the host's speed
    wanders between runs, and both runs of a pair share its level."""
    from repro.graphs.datasets import generate_dataset
    from repro.sim.engine import SoupSimulation
    from repro.sim.scenario import ScenarioConfig

    config = ScenarioConfig(scale=0.005, n_days=2, seed=5)
    graph = generate_dataset(
        config.dataset, scale=config.scale, seed=config.seed
    )

    def run_plain() -> float:
        start = time.perf_counter()
        SoupSimulation(graph, config).run()
        return time.perf_counter() - start

    def run_profiled() -> float:
        PROFILER.reset()
        PROFILER.enable()
        try:
            start = time.perf_counter()
            SoupSimulation(graph, config).run()
            elapsed = time.perf_counter() - start
        finally:
            PROFILER.disable()
        assert PROFILER.totals(), "profiled run recorded no phases"
        return elapsed

    run_plain()  # warm caches/allocators out of the measurement
    pairs = [(run_plain(), run_profiled()) for _ in range(_REPEATS)]
    PROFILER.reset()
    overhead = statistics.median(profiled / plain for plain, profiled in pairs) - 1.0
    print(
        "\nplain/profiled: "
        + " ".join(f"{plain:.3f}/{profiled:.3f}s" for plain, profiled in pairs)
        + f" overhead={overhead:+.1%}"
    )
    assert overhead < 0.15, (
        f"enabled phase timers cost {overhead:.1%} on the epoch-loop bench "
        f"case (budget: 15%)"
    )
