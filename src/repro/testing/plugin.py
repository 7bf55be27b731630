"""Pytest plugin exposing the runtime correctness harness to the suite.

Loaded via ``pytest_plugins = ["repro.testing.plugin"]`` in
``tests/conftest.py``.  It contributes:

* ``pytest --check-invariants`` — forces *every* :class:`SoupSimulation`
  built during the test session to run with the per-epoch invariant
  checker on, exactly like ``--base check_invariants=true`` on the CLI.
  Any simulation any test runs then fails loudly (with a one-line repro
  string) the moment protocol state goes inconsistent.
* ``invariant_checker`` fixture — a fresh :class:`InvariantChecker` over
  all engine invariants.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser) -> None:
    group = parser.getgroup("soup")
    group.addoption(
        "--check-invariants",
        action="store_true",
        default=False,
        help=(
            "run every SoupSimulation in the session with per-epoch runtime "
            "invariant checking enabled (repro.sim.invariants)"
        ),
    )


def pytest_configure(config) -> None:
    if config.getoption("--check-invariants"):
        from repro.sim import invariants

        invariants.FORCE_CHECKS = True


def pytest_unconfigure(config) -> None:
    from repro.sim import invariants

    invariants.FORCE_CHECKS = False


@pytest.fixture
def invariant_checker():
    """A fresh checker over every engine invariant."""
    from repro.sim.invariants import InvariantChecker

    return InvariantChecker()

