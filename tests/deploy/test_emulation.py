"""Tests for the 31-node deployment emulation (Sec. 7)."""

import numpy as np
import pytest

from repro.arch.peerson import PARTNERS
from repro.arch.safebook import MAX_MIRRORS
from repro.deploy.emulation import Deployment


@pytest.fixture(scope="module")
def report():
    deployment = Deployment(n_desktop=27, n_mobile=4, seed=7)
    return deployment.run(duration_s=1200.0, selection_rounds=12)


def test_population_matches_paper(report):
    assert report.n_users == 31
    assert report.n_mobile == 4


def test_workload_volumes(report):
    assert report.friendships == 282
    assert report.messages_sent > 1000
    assert report.photos_shared >= 204


def test_no_data_loss(report):
    """The paper: "we did not observe a single loss"."""
    assert report.profile_requests > 0
    assert report.availability > 0.99


def test_mirror_sets_stabilize(report):
    """Fig. 14c: after the initial rounds, variance falls toward ~1 (the
    random exploration node)."""
    variance = report.mirror_variance_by_round
    assert len(variance) >= 10
    early = np.mean(variance[:3])
    late = np.mean(variance[-3:])
    assert late < early
    assert late < 3.0


def test_gateway_control_traffic_shape(report):
    """Fig. 14a: spikes of tens of KB/s on join/leave; otherwise quiet."""
    series = [kb for _, kb in report.gateway_series]
    assert 10.0 <= max(series) <= 80.0
    busy = sum(1 for kb in series if kb > 5.0)
    assert busy < len(series) * 0.1  # quiet most of the time


def test_user_traffic_mostly_idle(report):
    """Fig. 14b: messaging is hardly distinguishable from an idle link."""
    series = [kb for _, kb in report.busiest_user_series]
    idle_fraction = np.mean(np.array(series) < 5.0)
    assert idle_fraction > 0.6
    assert max(series) > 100  # but publication events do spike


def test_deployment_needs_gateway():
    with pytest.raises(ValueError):
        Deployment(n_desktop=0)


class TestDeploymentArchitectures:
    """The pluggable architecture layer also drives the live deployment."""

    @staticmethod
    def run(architecture):
        deployment = Deployment(
            n_desktop=8, n_mobile=2, seed=7, architecture=architecture
        )
        report = deployment.run(duration_s=300.0, selection_rounds=4)
        return deployment, report

    def test_default_is_soup_with_no_arch_metrics(self):
        _, report = self.run("soup")
        assert report.architecture == "soup"
        assert report.arch_metrics == {}

    def test_cache_architecture_serves_reads_locally(self):
        deployment, report = self.run("cache")
        assert report.architecture == "cache"
        cache = report.arch_metrics["cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert all(u.read_cache is not None for u in deployment.users)

    def test_superpeer_architecture_elects_and_accounts(self):
        _, report = self.run("superpeer")
        economy = report.arch_metrics["selection"]
        assert economy["superpeer_count"] >= 1
        assert economy["elections"] >= 1  # one election per selection round run
        assert 0.0 <= economy["slot_utilization"] <= 1.0

    def test_social_dht_architecture_keeps_workload_intact(self):
        _, report = self.run("social_dht")
        assert report.architecture == "social_dht"
        assert report.arch_metrics["placement"]["keys_remapped"] > 0
        assert "shortcut_offers" in report.arch_metrics["routing"]
        assert report.availability > 0.99

    @pytest.mark.parametrize("architecture", ["peerson", "safebook"])
    def test_related_work_selection_runs_on_the_deployment_view(self, architecture):
        """PeerSoN's and Safebook's selection read the dict-shaped
        deployment view; the shells are not modelled here, so reads see
        the plain online mirrors."""
        deployment, report = self.run(architecture)
        assert report.architecture == architecture
        assert report.profile_requests > 0
        bound = {"peerson": PARTNERS, "safebook": MAX_MIRRORS}[architecture]
        for user in deployment.users:
            mirrors = user.mirror_manager.announced_mirrors
            assert 0 < len(mirrors) <= bound
            if architecture == "safebook":
                assert set(mirrors) <= set(user.social.friends())

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            Deployment(n_desktop=4, architecture="no_such_arch")
