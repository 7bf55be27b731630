"""Deployment emulation (paper Sec. 7).

The paper deploys SOUP on a real 31-user DOSN (4 Android phones relaying
through one gateway/bootstrap node) and reports traffic and stability
measurements.  We reproduce that deployment over the simulated network:

* :mod:`repro.deploy.cluster` — :class:`~repro.deploy.cluster.Cluster`,
  the one builder: the only place a :class:`~repro.node.middleware.SoupNode`
  is constructed and wired.  Build a cluster with it, on any transport.
* :mod:`repro.deploy.emulation` — the 31-node SOUP network (27 desktop +
  4 mobile) on such a cluster: drives the measured workload (282
  friendships, 204 photos, 1189 messages) through real ``SoupNode``
  instances and collects the Fig. 14a/14b/14c series from the meters.
* :mod:`repro.deploy.workload` — the scheduled social workload.
* :mod:`repro.deploy.traffic` — the Fig. 15 mirror-load model: one mirror
  hosting 20 real-size profiles (206 MB, 2035 items) serving 1/10/20
  requests per second through a finite uplink.
* :mod:`repro.deploy.live` — the live TCP deployment backend: resilience
  harness, chaos controller, asyncio transport.
* :mod:`repro.deploy.gates` — declarative pass/fail gates over reports.
* :mod:`repro.deploy.postmortem` — content-keyed post-mortem bundles and
  the kill→consequence causal-chain correlator (``soup postmortem``).
"""

from repro import _resolve_lazy

#: Re-exported names, imported on first access (the emulation, the traffic
#: model and the post-mortem tooling are not needed to run a live node).
_LAZY = {
    "Deployment": "repro.deploy.emulation",
    "DeploymentReport": "repro.deploy.emulation",
    "Bundle": "repro.deploy.postmortem",
    "BundleError": "repro.deploy.postmortem",
    "CausalChain": "repro.deploy.postmortem",
    "Postmortem": "repro.deploy.postmortem",
    "assemble_bundle": "repro.deploy.postmortem",
    "correlate": "repro.deploy.postmortem",
    "load_bundle": "repro.deploy.postmortem",
    "render_postmortem": "repro.deploy.postmortem",
    "MirrorLoadModel": "repro.deploy.traffic",
    "MirrorLoadResult": "repro.deploy.traffic",
    "WorkloadEvent": "repro.deploy.workload",
    "build_workload": "repro.deploy.workload",
}


def __getattr__(name):
    return _resolve_lazy(__name__, _LAZY, name)


__all__ = sorted(_LAZY)
