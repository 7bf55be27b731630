"""Tests for attack models."""

import random

from repro.sim.attacks import FloodingAttack, SlanderAttack


class TestSlander:
    def test_forged_reports_maximal_and_false(self):
        attack = SlanderAttack(attacker_ids={1, 2})
        reports = attack.forge_reports(1, victim_mirrors=[10, 11], o_max=3)
        assert len(reports) == 2
        assert all(r.observations == 3 for r in reports)
        assert all(r.availability == 0.0 for r in reports)
        assert all(r.reporter == 1 for r in reports)

    def test_forged_recommendations_praise_accomplices(self):
        attack = SlanderAttack(attacker_ids={1, 2, 3})
        recs = attack.forge_recommendations(1, population=range(100), rng=random.Random(0))
        assert all(r.quality == 1.0 for r in recs)
        assert all(r.mirror in {2, 3} for r in recs)

    def test_lone_attacker_recommends_from_population(self):
        attack = SlanderAttack(attacker_ids={1})
        recs = attack.forge_recommendations(
            1, population=list(range(10)), rng=random.Random(0), count=3
        )
        assert len(recs) == 3

    def test_is_attacker(self):
        attack = SlanderAttack(attacker_ids={5})
        assert attack.is_attacker(5)
        assert not attack.is_attacker(6)


class TestFlooding:
    def test_flood_targets_exclude_sybils(self):
        attack = FloodingAttack(sybil_ids={90, 91}, flood_requests=5)
        candidates = attack.benign_population(range(95))
        assert candidates == list(range(90)) + [92, 93, 94]
        targets = attack.flood_targets(90, candidates, rng=random.Random(0))
        assert len(targets) == 5
        assert all(t not in attack.sybil_ids for t in targets)

    def test_flood_targets_capped_by_population(self):
        attack = FloodingAttack(sybil_ids={9}, flood_requests=100)
        candidates = attack.benign_population(range(10))
        targets = attack.flood_targets(9, candidates, rng=random.Random(0))
        assert len(targets) == 9

    def test_announced_set_undersized(self):
        attack = FloodingAttack(sybil_ids={1}, announced_mirrors=3)
        accepted = list(range(20))
        announced = attack.announced_set(accepted, random.Random(0))
        assert len(announced) == 3
        assert set(announced) <= set(accepted)

    def test_announced_set_small_acceptance_unchanged(self):
        attack = FloodingAttack(sybil_ids={1}, announced_mirrors=5)
        assert attack.announced_set([1, 2], random.Random(0)) == [1, 2]
