"""Drop, delay and pause chaos on both backends.

``tests/deploy/test_resilience.py`` drives kill and partition; this module
drives the other three chaos kinds of
:class:`repro.deploy.live.chaos.ChaosController` (``_apply_drop``,
``_apply_delay``, ``_apply_pause``) through the same
:class:`~repro.deploy.live.ResilienceHarness`.  Under a 30 % drop the
reliable sends of the live backend time out and retry through
:class:`~repro.deploy.live.AsyncClock`, so these runs also exercise the
wall-clock retry timers end to end.

The backends are not compared on ``durability``: under ``drop`` the live
and sim backends ack different numbers of updates (the known divergence in
``docs/RESILIENCE.md``).  Two same-seed live runs are compared the way CI
job ``resilience-smoke`` compares its replays.
"""

import pytest

from repro.deploy.live import ResilienceConfig, ResilienceHarness

CHAOS = (
    "drop:from_epoch=2:to_epoch=6:rate=0.3;"
    "delay:from_epoch=3:to_epoch=5:seconds=0.05;"
    "pause:epoch=4:count=1:resume=6"
)

#: ``(epoch, kind)`` of every chaos event the spec above produces, in order.
EVENTS = [
    (2, "drop_on"),
    (3, "delay_on"),
    (4, "pause"),
    (6, "delay_off"),
    (6, "resume"),
    (7, "drop_off"),
]


def run_harness(backend):
    return ResilienceHarness(
        ResilienceConfig(n_nodes=10, seed=7, backend=backend, chaos=CHAOS)
    ).run()


def structural(report):
    """What CI ``resilience-smoke`` compares between two replays: every
    section but the clock column ``t``."""

    def strip(rows):
        return [{k: v for k, v in row.items() if k != "t"} for row in rows]

    return {
        "samples": strip(report["availability"]["samples"]),
        "chaos": strip(report["chaos"]["events"]),
        "killed": report["chaos"]["killed"],
        "durability": report["durability"],
        "requests": report["requests"],
    }


@pytest.fixture(scope="module")
def reports():
    return {"sim": run_harness("sim"), "live": run_harness("live")}


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_all_six_chaos_events_in_order(reports, backend):
    events = reports[backend]["chaos"]["events"]
    assert [(event["epoch"], event["kind"]) for event in events] == EVENTS
    assert reports[backend]["chaos"]["killed"] == 0
    paused = [event["nodes"] for event in events if event["kind"] in ("pause", "resume")]
    assert len(paused) == 2 and len(paused[0]) == 1 and paused[0] == paused[1]


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_no_acked_update_is_lost(reports, backend):
    durability = reports[backend]["durability"]
    assert durability["acked_updates"] > 0
    assert durability["lost_acked_updates"] == 0


def test_live_retries_fire_and_none_gives_up(reports):
    reliability = reports["live"]["reliability"]
    assert reliability["retries"] > 0
    assert reliability["give_ups"] == 0
    assert reports["live"]["net"]["delivered"] > 0


def test_both_backends_replay_the_same_chaos(reports):
    assert structural(reports["sim"])["chaos"] == structural(reports["live"])["chaos"]


def test_same_seed_live_runs_are_structurally_identical(reports):
    assert structural(run_harness("live")) == structural(reports["live"])
