"""Pin the report paths of an exchange round to plain definitions.

``ExperienceBatch.reports`` spells a handed-over experience set out as one
:class:`ExperienceReport` per observed mirror (the form the fault injector
and the ``by_cap`` estimator read), and
``RegularRanker._ingest_aged_counts`` folds every received report into the
aged counters.  The references below are the straightforward
``min``/``max`` formulations; the real paths must give the same values and
the same types for every well-formed input (integer and float
observations, observations above ``o_max``, weights at or below zero).  A
third property drives whole exchange rounds through the engine, where a
friend's counts change hands as one batch, against a per-report model of
them.
"""

import copy

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SoupConfig
from repro.core.experience import ExperienceReport, ExperienceSet
from repro.core.knowledge import KnowledgeBase
from repro.core.ranking import BOOTSTRAP_PRIOR, COUNT_PRIOR_WEIGHT, RegularRanker
from repro.sim.attacks import SlanderAttack
from repro.sim.engine import SoupSimulation
from repro.sim.faults import FaultInjector
from repro.sim.scenario import ScenarioConfig

OWNER = 0


@given(
    outcomes=st.dictionaries(
        st.integers(1, 40), st.lists(st.booleans(), min_size=1, max_size=12), max_size=8
    ),
    o_max=st.integers(1, 6),
    reporter=st.integers(0, 99),
)
def test_drain_builds_the_reports_of_the_plain_definition(outcomes, o_max, reporter):
    es = ExperienceSet(observed_friend=7)
    for mirror, results in outcomes.items():
        for success in results:
            es.observe(mirror, success)
    batch = es.hand_over(reporter)
    reports = [] if batch is None else batch.reports(o_max)

    expected = [
        (reporter, mirror, min(len(results), o_max), sum(results) / len(results), 1.0)
        for mirror, results in outcomes.items()
    ]
    assert [tuple(report) for report in reports] == expected
    for report in reports:
        assert type(report) is ExperienceReport
        assert type(report.observations) is int
        assert type(report.availability) is float
        assert report.weight == 1.0 and type(report.weight) is float
    assert len(es) == 0


def reference_aged_counts(counters, knowledge, config, reports):
    """``_ingest_aged_counts`` as first written, with ``min`` and ``max``."""
    for counter in counters.values():
        counter[0] *= config.count_retention
        counter[1] *= config.count_retention
    updated = {}
    for _reporter, mirror, observations, availability, weight in reports:
        if mirror == knowledge.owner:
            continue
        weight = min(observations, config.o_max) * max(0.0, weight)
        if weight <= 0:
            continue
        counter = counters.get(mirror)
        if counter is None:
            counter = counters[mirror] = [0.0, 0.0]
        counter[0] += weight
        counter[1] += weight * availability
    prior, prior_weight = BOOTSTRAP_PRIOR, COUNT_PRIOR_WEIGHT
    for mirror, (requests, successes) in counters.items():
        if requests <= 0.0:
            continue
        value = (successes + prior_weight * prior) / (requests + prior_weight)
        updated[mirror] = max(0.0, min(1.0, value))
    knowledge.set_experiences(updated.items())
    return updated


well_formed_reports = st.builds(
    ExperienceReport,
    reporter=st.integers(1, 9),
    mirror=st.integers(0, 6),
    observations=st.one_of(
        st.integers(0, 12),
        st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
    availability=st.one_of(
        st.sampled_from([0.0, 1.0, 0, 1, 0.5]),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    weight=st.one_of(
        st.sampled_from([1.0, 0.0, -0.0, -1.0, 1, 0, 2]),
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    ),
)


@given(rounds=st.lists(st.lists(well_formed_reports, max_size=10), min_size=1, max_size=5))
def test_aged_counts_match_the_min_max_reference(rounds):
    config = SoupConfig()
    knowledge = KnowledgeBase(owner=OWNER)
    ranker = RegularRanker(knowledge, config)
    reference_knowledge = KnowledgeBase(owner=OWNER)
    reference_counters = {}
    for reports in rounds:
        updated = ranker.ingest_reports(reports)
        expected = reference_aged_counts(
            reference_counters, reference_knowledge, config, reports
        )
        assert list(updated.items()) == list(expected.items())
        assert [type(value) for value in updated.values()] == [
            type(value) for value in expected.values()
        ]
        assert ranker._counters == reference_counters
        assert list(knowledge.experience_values().items()) == list(
            reference_knowledge.experience_values().items()
        )


# --- whole exchange rounds through the engine --------------------------------
#
# The engine's exchange (``_exchange_experience``) and ingestion
# (``_ingest_reports``) are driven over several rounds and held, bit for
# bit, to a per-report model of the same rounds: every observed mirror of
# every friend becomes one 6-tuple, tie weights, slander forgeries and the
# ``stale_reports`` / ``reorder`` faults act on those tuples, and
# ``reference_aged_counts`` folds them in arrival order.  A receiver that
# is not among a round's participants ingests nothing that round, so what
# it was sent waits and decays once.

N_NODES = 5
MIRRORS = st.integers(0, 8)


def _plain_well_formed(report):
    _reporter, _mirror, observations, availability, weight = report
    return (
        0 <= observations < float("inf")
        and 0.0 <= availability <= 1.0
        and -float("inf") < weight < float("inf")
    )


class PerReportModel:
    """One exchange round per ``ExperienceReport``, written out plainly."""

    def __init__(self, sim, faults):
        self.sim = sim
        self.faults = faults
        self.streams = {}
        self.pending = {node.node_id: [] for node in sim.nodes}
        self.counters = {node.node_id: {} for node in sim.nodes}
        self.knowledge = {node.node_id: copy.deepcopy(node.knowledge) for node in sim.nodes}
        self.rejected = {node.node_id: 0 for node in sim.nodes}

    def observe(self, reporter, friend, mirror, success):
        counts = self.streams.setdefault((reporter, friend), {})
        counter = counts.setdefault(mirror, [0, 0])
        counter[0] += 1
        counter[1] += 1 if success else 0

    def exchange(self, reporter, epoch):
        sim = self.sim
        o_max = sim.soup.o_max
        for friend in sim.nodes[reporter].friends:
            if sim.nodes[reporter].is_slanderer:
                reports = [
                    (reporter, mirror, o_max, 0.0, 1.0)
                    for mirror in sim.nodes[friend].announced_mirrors
                ]
            else:
                counts = self.streams.pop((reporter, friend), {})
                reports = [
                    (reporter, mirror, min(requests, o_max), successes / requests, 1.0)
                    for mirror, (requests, successes) in counts.items()
                ]
            if sim.ties is not None and reports:
                reports = [
                    report[:4] + (report[4] * max(0.1, sim.ties.strength(friend, reporter)),)
                    for report in reports
                ]
            if self.faults is not None:
                reports = self.faults.tamper_reports(reporter, friend, reports, epoch)
            self.pending[friend].extend(reports)

    def ingest(self, receiver, epoch):
        pending = self.pending[receiver]
        if not pending:
            return
        if self.faults is not None:
            self.faults.shuffle_reports(receiver, pending, epoch)
        accepted = [report for report in pending if _plain_well_formed(report)]
        self.rejected[receiver] += len(pending) - len(accepted)
        reference_aged_counts(
            self.counters[receiver], self.knowledge[receiver], self.sim.soup, accepted
        )
        pending.clear()


hostile_reports = st.builds(
    ExperienceReport,
    reporter=st.integers(0, N_NODES - 1),
    mirror=MIRRORS,
    observations=st.sampled_from([3, -1, float("nan"), float("inf")]),
    availability=st.sampled_from([0.5, 1.5, -0.5, float("nan")]),
    weight=st.sampled_from([1.0, float("inf"), float("nan")]),
)
exchange_rounds = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 2), MIRRORS, st.booleans()
            ),
            max_size=40,
        ),
        st.sets(st.integers(0, N_NODES - 1)),
        st.lists(st.tuples(st.integers(0, N_NODES - 1), hostile_reports), max_size=2),
    ),
    min_size=1,
    max_size=4,
)


@given(
    rounds=exchange_rounds,
    o_max=st.integers(1, 4),
    ties=st.booleans(),
    slanderers=st.sets(st.integers(0, N_NODES - 1), max_size=2),
    faults=st.sampled_from(
        [None, "reorder", "stale_reports:rate=0.5", "reorder;stale_reports:rate=0.7"]
    ),
    announced=st.lists(st.lists(MIRRORS, max_size=3), min_size=N_NODES, max_size=N_NODES),
)
def test_exchange_rounds_match_the_per_report_model(
    rounds, o_max, ties, slanderers, faults, announced
):
    config = ScenarioConfig(
        n_days=1, seed=2, soup=SoupConfig(o_max=o_max), use_tie_strength=ties, faults=faults
    )
    sim = SoupSimulation(nx.complete_graph(N_NODES), config)
    if slanderers:
        sim.slander = SlanderAttack(attacker_ids=set(slanderers))
    for node, mirrors in zip(sim.nodes, announced):
        node.joined = True
        node.is_slanderer = node.node_id in slanderers
        node.announced_mirrors = mirrors
    model = PerReportModel(sim, FaultInjector.from_spec(faults, base_seed=config.seed))

    for epoch, (observations, participants, hostile) in enumerate(rounds):
        for reporter, friend_index, mirror, success in observations:
            friend = sim.nodes[reporter].friends[friend_index]
            sim.nodes[reporter].experience_set_for(friend).observe(mirror, success)
            model.observe(reporter, friend, mirror, success)
        for node_id in sorted(participants):
            sim._exchange_experience(sim.nodes[node_id], epoch)
            model.exchange(node_id, epoch)
        for receiver, report in hostile:
            sim.nodes[receiver].receive_reports([report])
            model.pending[receiver].append(report)
        for node_id in sorted(participants):
            sim._ingest_reports(sim.nodes[node_id], epoch)
            model.ingest(node_id, epoch)

        for node in sim.nodes:
            node_id = node.node_id
            assert _bits(node.ranker._counters) == _bits(model.counters[node_id])
            assert _bits(node.knowledge.experience_values()) == _bits(
                model.knowledge[node_id].experience_values()
            )
            assert node.ranker.rejected_reports == model.rejected[node_id]


def _bits(mapping):
    """A map's items in order, every float as its exact bit pattern."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return [
        (key, [exact(v) for v in value] if isinstance(value, list) else exact(value))
        for key, value in mapping.items()
    ]
