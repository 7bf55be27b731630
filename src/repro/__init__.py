"""repro — a reproduction of SOUP (Middleware 2014).

SOUP (the Self-Organized Universe of People) is a decentralized online
social network in which every user's data is replicated at a small,
dynamically selected set of other participants — the *mirrors* — so that
the data stays highly available without central servers, permanent storage
providers, or per-user fees.

Top-level entry points:

* :class:`repro.core.SoupConfig` — protocol parameters (α, β, ε, θ, c …).
* :func:`repro.sim.run_scenario` / :class:`repro.sim.ScenarioConfig` — the
  large-scale replication simulator behind the paper's Sec. 5 figures.
* :class:`repro.node.SoupNode` — the full protocol middleware (Sec. 6).
* :class:`repro.deploy.Deployment` — the 31-node deployment emulation
  (Sec. 7).
* :mod:`repro.graphs` — the three evaluation datasets (Table 3).
* :mod:`repro.arch` — pluggable architectures: SOUP and the related work
  (PeerSoN, Safebook, super-peers, …) through the one engine (Table 4).
* :mod:`repro.baselines` — the DOSN feature matrix (Table 1).

See DESIGN.md for the complete system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import importlib
import logging
import sys

# Library convention: a silent handler so instrumented modules can log to
# "repro.*" without forcing output on consumers; the CLI's --log-level flag
# attaches a real handler.
logging.getLogger("repro").addHandler(logging.NullHandler())

__version__ = "1.0.0"


def _resolve_lazy(package, table, name):
    """PEP 562 ``__getattr__`` body shared by the package ``__init__``
    modules: import ``table[name]`` on first access and cache the value."""
    module = table.get(name)
    if module is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    setattr(sys.modules[package], name, value)
    return value


#: Public names and the modules that define them, imported on first access:
#: a process that only runs the node middleware never loads the simulator
#: and the numpy it needs behind ``run_scenario``.
_LAZY = {
    "SoupConfig": "repro.core.config",
    "run_scenario": "repro.sim.engine",
    "OnlineDistribution": "repro.sim.scenario",
    "ScenarioConfig": "repro.sim.scenario",
}


def __getattr__(name):
    return _resolve_lazy(__name__, _LAZY, name)


__all__ = [
    "SoupConfig",
    "run_scenario",
    "OnlineDistribution",
    "ScenarioConfig",
    "__version__",
]
