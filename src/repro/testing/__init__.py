"""Test-facing surface of the runtime correctness harness.

Everything the simulator checks at runtime (:mod:`repro.sim.invariants`,
:mod:`repro.sim.faults`) is re-exported here so tests — and the pytest
plugin in :mod:`repro.testing.plugin` — drive the *same* machinery:

* :func:`check_overlay` / :func:`check_mirror_manager` — structural
  checks for DHT overlays and protocol nodes.
* :func:`run_checked` — run a scenario with invariant checking forced on.
* :func:`expect_violation` — run a scenario that *must* violate an
  invariant; returns the :class:`InvariantViolation` and asserts the
  one-line repro string replays it.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.invariants import (
    ENGINE_INVARIANTS,
    InvariantChecker,
    InvariantViolation,
    Violation,
    check_mirror_manager,
    check_overlay,
    format_repro,
    mirror_manager_violations,
    overlay_violations,
    parse_repro,
    run_repro,
)

__all__ = [
    "ENGINE_INVARIANTS",
    "FaultInjector",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "check_mirror_manager",
    "check_overlay",
    "expect_violation",
    "format_repro",
    "mirror_manager_violations",
    "overlay_violations",
    "parse_repro",
    "run_checked",
    "run_repro",
]


def run_checked(config):
    """Run a scenario with invariant checking enabled regardless of config."""
    from dataclasses import replace

    from repro.sim.engine import run_scenario

    return run_scenario(replace(config, check_invariants=True))


def expect_violation(config, invariant: Optional[str] = None) -> InvariantViolation:
    """Run a (typically fault-injected) scenario that must trip the checker.

    Asserts the violation's repro line replays to the same invariant and
    epoch, then returns it for further inspection.
    """
    from dataclasses import replace

    from repro.sim.engine import run_scenario

    try:
        run_scenario(replace(config, check_invariants=True))
    except InvariantViolation as violation:
        if invariant is not None and violation.invariant != invariant:
            raise AssertionError(
                f"expected a {invariant!r} violation, got {violation.invariant!r}"
            )
        replayed = run_repro(violation.repro)
        if replayed is None:
            raise AssertionError(
                f"repro line did not reproduce the violation: {violation.repro}"
            )
        if (replayed.invariant, replayed.epoch) != (
            violation.invariant,
            violation.epoch,
        ):
            raise AssertionError(
                "repro line reproduced a different violation: "
                f"{replayed.invariant}@{replayed.epoch} vs "
                f"{violation.invariant}@{violation.epoch}"
            )
        return violation
    raise AssertionError("scenario completed without the expected InvariantViolation")
