"""Shared test configuration: Hypothesis profiles and the invariant plugin.

Profiles (select with ``HYPOTHESIS_PROFILE=<name>`` or
``pytest --hypothesis-profile=<name>``):

* ``ci`` (default) — derandomized and example-capped so every CI run
  exercises the identical example set; a failure in CI always reproduces
  locally with the same command.
* ``nightly`` — aggressive: 500 examples per property, randomized, for
  the scheduled deep run (the ISSUE-1 bar for the churn properties).
* ``dev`` — Hypothesis defaults, for interactive work.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.deploy.cluster import Cluster
from repro.network.events import EventLoop
from repro.network.simnet import SimNetwork

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", settings.get_profile("default"))

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

pytest_plugins = ["repro.testing.plugin"]


@pytest.fixture()
def cluster():
    """An empty :class:`Cluster` on a fresh simulated network for unit
    scenarios (256-bit keys; tests pass each node's ``seed=``).  These
    scenarios park offline nodes in the ring, so the overlay's liveness
    oracle is cleared: every member counts as live, as in a bare
    ``PastryOverlay()``."""
    built = Cluster(SimNetwork(EventLoop()), random.Random(0), key_bits=256)
    built.overlay.set_liveness(None)
    return built
