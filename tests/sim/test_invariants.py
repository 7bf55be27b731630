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

from repro.graphs.datasets import generate_dataset
from repro.sim.engine import SoupSimulation
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.invariants import (
    ENGINE_INVARIANTS,
    InvariantChecker,
    InvariantViolation,
    format_repro,
    parse_repro,
)
from repro.sim.scenario import ScenarioConfig
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
    assert violation.repro.startswith("soup-repro/v1 ")
    assert "faults=drop_transfer:rate=1.0:from_epoch=24" in violation.repro


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
    assert line.startswith("soup-repro/v1 ")


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
