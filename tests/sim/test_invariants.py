"""Tests for the runtime invariant checker and fault-injection harness.

Three families:

* clean runs — every paper scenario (base, departure, attacks) completes
  with per-epoch invariant checking on and zero violations;
* fault-injected runs — each injected fault kind either trips the checker
  with a structured :class:`InvariantViolation` whose one-line repro
  string replays to the same violation, or (for benign faults) the
  protocol absorbs it and the run stays green;
* the repro-string format itself — format/parse round-trips.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import ARCHITECTURES
from repro.behavior.activity import ActivityModel
from repro.cli import scenario_config
from repro.core.config import SoupConfig
from repro.graphs.datasets import DATASET_SPECS, generate_dataset
from repro.runtime.spec import build_config, parse_base_flag
from repro.sim.engine import SoupSimulation
from repro.sim.faults import _KINDS, FaultInjector, FaultSpec
from repro.sim.invariants import (
    ENGINE_INVARIANTS,
    InvariantChecker,
    InvariantViolation,
    format_repro,
    parse_repro,
)
from repro.sim.scenario import OnlineDistribution, ScenarioConfig
from repro.testing import expect_violation, run_checked


def tiny_config(**overrides):
    base = dict(dataset="epinions", scale=0.004, n_days=4, seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


# --- clean runs stay green ------------------------------------------------


def test_base_scenario_holds_all_invariants():
    result = run_checked(tiny_config())
    assert result.availability[-1] > 0


def test_departure_scenario_holds_all_invariants():
    """Fig. 9: a 5 % mass departure never leaves protocol state torn."""
    result = run_checked(
        tiny_config(departure_fraction=0.05, departure_day=2, n_days=4)
    )
    assert result.availability[-1] > 0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(slander_fraction=0.5),
        dict(sybil_fraction=0.3, sybil_flood_requests=30),
        dict(altruist_fraction=0.02, altruist_join_day=2),
        dict(traitor_fraction=0.1, betrayal_day=2),
    ],
    ids=["slander", "flooding", "altruism", "traitors"],
)
def test_attack_scenarios_hold_all_invariants(overrides):
    run_checked(tiny_config(**overrides))


def test_invariant_subset_selection():
    config = tiny_config(
        check_invariants=True, invariant_names=("storage-within-capacity",)
    )
    run_checked(config)
    with pytest.raises(ValueError, match="unknown invariant"):
        tiny_config(invariant_names=("no-such-invariant",))


# --- injected faults trip the checker -------------------------------------


def test_dropped_transfer_raises_structured_violation():
    violation = expect_violation(
        tiny_config(seed=3, n_days=6, faults="drop_transfer:rate=1.0:from_epoch=24"),
        invariant="announced-mirrors-stored",
    )
    assert violation.epoch >= 24
    assert violation.node_ids  # names the owner/mirror pair involved
    assert violation.violations[0].snapshot  # minimal state snapshot attached
    assert violation.repro.startswith("soup-repro/v2 ")
    assert 'faults="drop_transfer:rate=1.0:from_epoch=24"' in violation.repro


def test_violation_serializes_for_triage():
    violation = expect_violation(
        tiny_config(n_days=6, faults="drop_transfer:rate=1.0:from_epoch=24")
    )
    payload = violation.to_dict()
    assert payload["invariant"] == violation.invariant
    assert payload["epoch"] == violation.epoch
    assert payload["repro"] == violation.repro


def test_crash_fault_is_absorbed_cleanly():
    """A mid-run crash is a protocol-legal departure: no violation."""
    run_checked(tiny_config(n_days=4, faults="crash:epoch=48:count=2"))


def test_departure_bypassing_note_departed_trips_membership_invariant():
    """The packed membership arrays are what the per-epoch vector passes
    read; a flag written around ``note_departed()`` must not go unnoticed."""
    config = tiny_config(
        check_invariants=True, invariant_names=("membership-columns-consistent",)
    )
    graph = generate_dataset(config.dataset, scale=config.scale, seed=config.seed)
    sim = SoupSimulation(graph, config)
    victim, bypass_epoch = 5, 30
    activate_joins = sim._activate_joins

    def activate_then_bypass(epoch):
        activate_joins(epoch)
        if epoch == bypass_epoch:
            sim.nodes[victim].departed = True

    sim._activate_joins = activate_then_bypass
    with pytest.raises(InvariantViolation) as caught:
        sim.run()
    violation = caught.value
    assert violation.invariant == "membership-columns-consistent"
    assert violation.epoch == bypass_epoch
    assert violation.node_ids == (victim,)
    assert "['departed']" in str(violation)
    snapshot = violation.violations[0].snapshot
    assert snapshot["arrays"]["departed"] is False
    assert snapshot["flags"]["departed"] is True


def test_reorder_and_stale_report_faults_are_benign():
    """Report reordering/staleness degrade rankings, never consistency."""
    run_checked(tiny_config(n_days=4, faults="reorder:rate=1.0"))
    run_checked(tiny_config(n_days=4, faults="stale_reports:rate=0.5"))


def test_slander_burst_forges_reports_into_attackers_friends():
    """At its epoch, ``slander_burst`` makes ``count`` seeded benign nodes
    report every announced mirror of each joined friend as always down."""
    config = tiny_config(n_days=2)
    sim = SoupSimulation(generate_dataset(config.dataset, scale=config.scale, seed=3), config)
    sim.run()
    o_max = sim.soup.o_max

    def burst(base_seed, epoch=30):
        injector = FaultInjector([FaultSpec.parse("slander_burst:epoch=30:count=3")], base_seed)
        before = [len(node.pending_reports) for node in sim.nodes]
        injector.on_epoch_start(sim, epoch)
        return {
            node.node_id: node.pending_reports[before[node.node_id]:]
            for node in sim.nodes
            if len(node.pending_reports) > before[node.node_id]
        }

    assert burst(base_seed=1, epoch=29) == {}
    forged = burst(base_seed=1)
    attackers = {report.reporter for reports in forged.values() for report in reports}
    assert len(attackers) == 3
    assert all(not sim.nodes[a].is_sybil and sim.nodes[a].joined for a in attackers)
    expected = {}
    for attacker in attackers:
        for friend_id in sim.nodes[attacker].friends:
            friend = sim.nodes[friend_id]
            if friend.joined and not friend.departed:
                pairs = expected.setdefault(friend_id, [])
                pairs.extend((attacker, mirror) for mirror in friend.announced_mirrors)
    expected = {victim: sorted(pairs) for victim, pairs in expected.items() if pairs}
    assert expected
    assert {
        victim: sorted((r.reporter, r.mirror) for r in reports)
        for victim, reports in forged.items()
    } == expected
    assert all(
        r.observations == o_max and r.availability == 0.0
        for reports in forged.values()
        for r in reports
    )
    # The attacker draw is seeded: the same base seed picks the same nodes.
    assert burst(base_seed=1) == forged
    assert burst(base_seed=2) != forged


def test_fault_injection_is_deterministic():
    config = tiny_config(n_days=6, faults="drop_transfer:rate=0.5:from_epoch=24")
    first = expect_violation(config)
    second = expect_violation(config)
    assert (first.invariant, first.epoch) == (second.invariant, second.epoch)


# --- the repro-string contract --------------------------------------------


def test_format_parse_round_trip():
    config = tiny_config(
        n_days=6,
        departure_fraction=0.05,
        departure_day=2,
        faults="drop_transfer:rate=1.0:from_epoch=24",
    )
    line = format_repro(config)
    parsed = parse_repro(line)
    assert parsed.check_invariants  # replays always check
    for field in ("dataset", "scale", "seed", "n_days", "departure_fraction",
                  "departure_day", "faults"):
        assert getattr(parsed, field) == getattr(config, field), field


def test_repro_line_omits_defaults():
    line = format_repro(tiny_config())
    assert "departure" not in line
    assert "faults" not in line
    assert line.startswith("soup-repro/v2 ")


def _every_field(cls, **strategies):
    """``st.builds(cls)`` that draws every field: a field added to ``cls``
    without a strategy here fails collection instead of going untested."""
    missing = {f.name for f in dataclasses.fields(cls)} - set(strategies)
    assert not missing, f"no strategy for {cls.__name__} field(s) {sorted(missing)}"
    return st.builds(cls, **strategies)


def _floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, **kwargs)


_fault_clauses = st.builds(
    lambda kind, params: ":".join([kind, *(f"{k}={v}" for k, v in params.items())]),
    st.sampled_from(_KINDS),
    st.dictionaries(
        st.sampled_from(["rate", "epoch", "count", "from_epoch", "to_epoch", "node"]),
        st.integers(0, 500) | _floats(0.0, 1.0),
        max_size=3,
    ),
)
_fractions = _floats(0.0, 1.0, exclude_max=True)
_days = _floats(0.0, 60.0)

scenario_configs = _every_field(
    ScenarioConfig,
    dataset=st.sampled_from(sorted(DATASET_SPECS)),
    scale=_floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**63),
    n_days=st.integers(1, 400),
    epochs_per_day=st.integers(1, 96),
    round_period_days=_floats(0.0, 30.0, exclude_min=True),
    soup=_every_field(
        SoupConfig,
        alpha=_floats(0.0, 1.0),
        o_max=st.integers(1, 50),
        experience_normalization=st.sampled_from(
            ["aged_counts", "by_observations", "by_cap"]
        ),
        count_retention=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        epsilon=_floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        beta=_floats(1.0, 10.0),
        max_mirrors=st.integers(1, 100),
        theta=_floats(0.0, 1e4, exclude_min=True),
        mismatch_penalty=_floats(0.0, 1e4, exclude_min=True),
        storage_median_profiles=st.integers(1, 500),
    ),
    activity=_every_field(
        ActivityModel,
        # Disjoint ranges: the peak rate never falls below the floor.
        peak_per_day=_floats(10.0, 60.0),
        floor_per_day=_floats(0.0, 10.0),
        decay_per_day=_floats(0.0, 5.0),
    ),
    online_distribution=st.sampled_from(OnlineDistribution),
    altruist_fraction=_fractions,
    altruist_join_day=_days,
    departure_fraction=_fractions,
    departure_day=_days,
    traitor_fraction=_fractions,
    betrayal_day=_days,
    slander_fraction=_floats(0.0, 0.9),
    sybil_fraction=_floats(0.0, 1.0),
    sybil_flood_requests=st.integers(0, 100),
    mirror_request_capacity=st.none() | st.integers(1, 1000),
    use_tie_strength=st.booleans(),
    cdf_snapshot_days=st.lists(st.integers(0, 60), max_size=4).map(tuple),
    repair=st.booleans(),
    architecture=st.sampled_from(sorted(ARCHITECTURES)),
    measure_dht=st.booleans(),
    check_invariants=st.booleans(),
    invariant_names=st.none()
    | st.lists(st.sampled_from(sorted(ENGINE_INVARIANTS)), unique=True).map(tuple),
    faults=st.none() | st.lists(_fault_clauses, min_size=1, max_size=3).map(";".join),
)


@given(config=scenario_configs)
def test_repro_line_replays_the_scenario_it_names(config):
    """Every field survives the line: architecture, the nested models,
    the tuple fields and fault plans included."""
    line = format_repro(config)
    assert "\n" not in line
    replayed = dataclasses.replace(config, check_invariants=True)
    assert parse_repro(line) == replayed
    # Each token is a --base flag: the same tokens passed to a scenario
    # command rebuild the config that `soup replay` runs.
    tokens = line.split()[1:]
    overrides = dict(parse_base_flag(token) for token in tokens)
    assert build_config({**overrides, "check_invariants": True}) == replayed
    assert scenario_config("sim", [*tokens, "check_invariants=true"]) == replayed


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_repro("not a repro line")


# --- spec strings and checker construction ---------------------------------


def test_fault_spec_round_trip():
    spec = "drop_transfer:rate=0.25:from_epoch=10:to_epoch=20;crash:epoch=5:count=1"
    injector = FaultInjector.from_spec(spec, base_seed=7)
    assert ";".join(s.to_string() for s in injector.specs) == spec


def test_malformed_fault_spec_fails_at_config_time():
    with pytest.raises(ValueError):
        tiny_config(faults="warp_core_breach:rate=1.0")


def test_checker_rejects_unknown_names():
    with pytest.raises(ValueError):
        InvariantChecker(names=("bogus",))
    assert set(InvariantChecker().names) == set(ENGINE_INVARIANTS)


def test_scenario_config_carries_harness_fields():
    config = tiny_config()
    assert not config.check_invariants
    replayed = dataclasses.replace(config, check_invariants=True)
    assert replayed.check_invariants


def test_fault_spec_window():
    spec = FaultSpec.parse("drop_transfer:rate=1.0:from_epoch=10:to_epoch=20")
    assert not spec.in_window(9)
    assert spec.in_window(10)
    assert spec.in_window(20)
    assert not spec.in_window(21)
