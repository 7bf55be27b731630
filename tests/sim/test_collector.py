"""Construction and the epoch loop run with the cyclic collector paused.

``SoupSimulation.__init__`` builds every node's state (its knowledge base
holds one dict slot per friendship) with automatic collection off and ends
with one full pass, so the collector's cost of the new heap is paid once,
inside construction.
``SoupSimulation.run()`` disables automatic collection for the loop and
makes one young-generation pass per epoch (the ``engine.collect`` phase).
Both leave ``gc.isenabled()`` as they found it.  That is safe only while
the engine's heap stays acyclic — reference counting frees everything —
which the premise test below pins: a per-epoch reference cycle added to the
engine fails here instead of growing the heap of a long run.
"""

import gc
import json

import pytest

from repro.cli import main
from repro.graphs.datasets import generate_dataset
from repro.sim.engine import SoupSimulation
from repro.sim.invariants import InvariantViolation
from repro.sim.scenario import ScenarioConfig


def inputs(**overrides):
    base = dict(dataset="facebook", scale=0.004, n_days=2, seed=7)
    base.update(overrides)
    config = ScenarioConfig(**base)
    return generate_dataset(config.dataset, config.scale, config.seed), config


def build(**overrides):
    return SoupSimulation(*inputs(**overrides))


@pytest.fixture()
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_construction_leaves_the_collector_as_it_found_it(enabled, restore_collector):
    graph, config = inputs()
    (gc.enable if enabled else gc.disable)()
    SoupSimulation(graph, config)
    assert gc.isenabled() is enabled


def test_construction_restores_the_collector_when_it_raises(restore_collector):
    graph, config = inputs()
    graph = graph.to_networkx()  # a FriendshipGraph holds no self-loop
    graph.add_edge(3, 3)  # node 3 befriends itself: its knowledge base refuses
    gc.enable()
    with pytest.raises(ValueError, match="about itself"):
        SoupSimulation(graph, config)
    assert gc.isenabled()


def test_construction_runs_no_automatic_collection(restore_collector):
    """Automatic passes while a population is built made ``__init__``
    superlinear (0.36 s at 4.5 k nodes, 2.8 s at 18 k); the only pass left
    is the explicit full one at the end."""
    graph, config = inputs(scale=0.01)
    passes = []

    def hook(phase, info):
        if phase == "start":
            passes.append((info["generation"], gc.isenabled()))

    gc.enable()
    gc.collect()  # an empty young generation: nothing is due on entry
    gc.callbacks.append(hook)
    try:
        SoupSimulation(graph, config)
    finally:
        gc.callbacks.remove(hook)
    assert passes == [(2, False)]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_leaves_the_collector_as_it_found_it(enabled, restore_collector):
    simulation = build()
    (gc.enable if enabled else gc.disable)()
    simulation.run()
    assert gc.isenabled() is enabled


def test_run_restores_the_collector_when_the_loop_raises(restore_collector):
    # The spec CI's "Fault injection trips the checker" step uses: every
    # transfer from epoch 24 on is lost, so the checker raises mid-loop.
    simulation = build(
        scale=0.005,
        n_days=6,
        seed=3,
        check_invariants=True,
        faults="drop_transfer:rate=1.0:from_epoch=24",
    )
    gc.enable()
    with pytest.raises(InvariantViolation):
        simulation.run()
    assert gc.isenabled()


def test_the_collector_is_off_inside_the_loop_and_runs_once_per_epoch(
    restore_collector,
):
    simulation = build()
    inside = []
    young_passes = []
    run_epoch = simulation._run_epoch

    def spy(*args, **kwargs):
        inside.append(gc.isenabled())
        return run_epoch(*args, **kwargs)

    def hook(phase, info):
        if phase == "stop" and not gc.isenabled():
            young_passes.append(info["generation"])

    simulation._run_epoch = spy
    gc.enable()
    gc.callbacks.append(hook)
    try:
        simulation.run()
    finally:
        gc.callbacks.remove(hook)
    assert inside == [False] * simulation.config.n_epochs
    assert young_passes == [1] * simulation.config.n_epochs


def test_a_run_leaves_the_collector_next_to_nothing_to_reclaim(restore_collector):
    """The premise of pausing it: the engine's heap is acyclic.  Measured:
    317 objects at 4,513 nodes, 311 on the adverse workload — per-run
    constants, not per-epoch growth."""
    simulation = build(dataset="facebook", scale=0.01, n_days=6, seed=3)
    gc.collect()
    reclaimed = []

    def hook(phase, info):
        if phase == "stop":
            reclaimed.append(info["collected"])

    gc.callbacks.append(hook)
    try:
        simulation.run()
        gc.collect()
    finally:
        gc.callbacks.remove(hook)
    assert sum(reclaimed) < 1_000


def test_soup_perf_lists_the_collect_phase_once_per_epoch(capsys):
    code = main(["perf", "--scale", "0.003", "--days", "1", "--seed", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["counts"]["engine.collect"] == payload["counts"]["engine.epoch"] == 24
    assert payload["totals"]["engine.collect"] > 0.0
