"""Live deployment runtime: real middleware over real sockets.

The simulator answers "does the protocol behave?"; this package answers
"does the *implementation* behave when the network is real" — real TCP
loopback sockets, real buffers, wall-clock timers, and process-level
chaos.  It is the second backend of the transport seam
(:mod:`repro.network.transport`):

* :mod:`repro.deploy.live.transport` — :class:`AsyncClock` (the wallclock
  :class:`~repro.network.transport.Clock`) and :class:`LiveTransport`
  (every frame crosses a real TCP loopback socket).
* :mod:`repro.deploy.live.chaos` — :class:`ChaosController`: replays a
  :class:`~repro.sim.faults.FaultPlan` spec (``kill``/``pause``/
  ``partition``/``delay``/``drop``) against either transport backend,
  seeded and epoch-triggered.
* :mod:`repro.deploy.live.load` — the open-loop fig15-style request mix.
* :mod:`repro.deploy.live.harness` — :class:`ResilienceHarness`: builds
  an N-node cluster on either backend, drives load + chaos, and emits a
  ``soup-resilience/v1`` report for :mod:`repro.deploy.gates`.
"""

from repro import _resolve_lazy

#: Re-exported names, imported on first access: running ``SoupNode`` on
#: ``LiveTransport`` loads neither the harness nor the chaos controller
#: (and, through them, the simulator's fault grammar).
_LAZY = {
    "AsyncClock": "repro.deploy.live.transport",
    "ChaosController": "repro.deploy.live.chaos",
    "LiveTransport": "repro.deploy.live.transport",
    "LoadOp": "repro.deploy.live.load",
    "ResilienceConfig": "repro.deploy.live.harness",
    "ResilienceHarness": "repro.deploy.live.harness",
    "build_load_plan": "repro.deploy.live.load",
}


def __getattr__(name):
    return _resolve_lazy(__name__, _LAZY, name)


__all__ = sorted(_LAZY)
