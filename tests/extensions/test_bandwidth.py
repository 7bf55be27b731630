"""Tests for the bandwidth-aware selection extension (``benchmarks/qos.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.sim.engine import run_scenario
from repro.sim.scenario import ScenarioConfig

_spec = importlib.util.spec_from_file_location(
    "qos", Path(__file__).resolve().parents[2] / "benchmarks" / "qos.py"
)
qos = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(qos)

#: Mirror 1 has a 50 KB/s uplink, mirror 2 a 2000 KB/s one.
UPLINK = [0.0, 50.0, 2000.0]


def best(ranking):
    return max(ranking, key=lambda pair: pair[1])[0]


class TestQosRanking:
    def test_availability_stays_primary(self):
        # Mirror 1: much better availability, terrible bandwidth.
        assert best(qos.qos_ranking([(1, 0.9), (2, 0.4)], UPLINK, 0.25)) == 1

    def test_bandwidth_breaks_near_ties(self):
        assert best(qos.qos_ranking([(1, 0.80), (2, 0.79)], UPLINK, 0.25)) == 2

    def test_unknown_bandwidth_neutral(self, monkeypatch):
        # Before the first selection round no friend has reported an uplink:
        # the strategy hands Algorithm 1 the ranking it was given.
        chosen = []
        monkeypatch.setattr(qos, "select_mirrors", lambda ranking, **_: chosen.append(ranking))
        ranking = [(1, 0.5), (2, 0.4)]
        qos.QosSelection().select(0, ranking, (), None, None)
        assert chosen == [ranking]

    def test_zero_weight_is_identity(self):
        original = [(1, 0.5), (2, 0.49)]
        assert qos.qos_ranking(original, UPLINK, 0.0) == original

    def test_invalid_weight(self):
        for weight in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                qos.QosSelection(weight=weight)


def test_zero_weight_runs_the_paper_engine_draw_for_draw(monkeypatch):
    """At ``weight = 0`` the strategy is the paper's ``soup`` run exactly: it
    draws its uplinks from its own generator, never the engine's."""

    def run(architecture):
        return run_scenario(
            ScenarioConfig(
                dataset="facebook", scale=0.004, n_days=3, seed=5, architecture=architecture
            )
        )

    soup = run("soup")
    plain = run(qos.register(monkeypatch, weight=0.0))
    assert np.array_equal(plain.availability, soup.availability)
    assert np.array_equal(plain.replica_overhead, soup.replica_overhead)
    assert plain.unavailable_owner_epochs == soup.unavailable_owner_epochs
    assert plain.arch["selection"]["mean_mirror_bandwidth_kb_s"] > 0
