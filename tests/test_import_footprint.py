"""Running a node must not load the simulator.

``repro``, ``repro.deploy`` and ``repro.deploy.live`` re-export their public
names lazily (PEP 562): a process that only runs ``SoupNode`` on
``LiveTransport`` used to sit at ~54 MB after imports, half of it numpy,
networkx and ``repro.sim`` pulled in by the package ``__init__`` modules.
The cluster builder (``repro.deploy.cluster``) is on that path too, and so
is the modular-exponentiation kernel (``repro.crypto.bignum``, stdlib
``ctypes`` only).  Nor may running the simulator load the node stack, and
generating a dataset and simulating it loads neither networkx (+18 MB; the
graph is two flat arrays) nor ``numpy.ma`` (+1.2 MB; ``np.median`` and
``np.unique`` import it on their first call).
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import sys
import repro.node.middleware
import repro.deploy.live.transport
import repro.deploy.cluster
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "networkx") or name.startswith("repro.sim")
)
print(",".join(heavy))
print("repro.crypto.bignum" in sys.modules)
"""


#: The reverse direction: the simulator shares the node's replication state
#: through ``repro.core``, not by importing the node stack.
ENGINE_PROBE = """
import sys
import repro.sim.engine
print(",".join(sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (
        ["repro", "node"], ["repro", "crypto"], ["repro", "dht"], ["repro", "network"]
    )
)))
"""


#: A whole simulation, from graph generation to the last epoch.
SIMULATION_PROBE = """
import sys
from repro.graphs import generate_dataset
from repro.sim import ScenarioConfig, SoupSimulation
config = ScenarioConfig(dataset="facebook", scale=0.004, n_days=2, seed=3)
graph = generate_dataset(config.dataset, scale=config.scale, seed=config.seed)
SoupSimulation(graph, config).run()
print(",".join(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "networkx" or name.split(".")[:2] == ["numpy", "ma"]
)))
"""


def _probe(code: str) -> str:
    # The child finds the package wherever this process found it.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    ).stdout


def test_node_and_live_transport_import_without_the_simulator():
    out = _probe(PROBE)
    heavy, kernel = out.split("\n")[:2]
    assert heavy == "", out
    assert kernel == "True", out


def test_simulator_imports_without_the_node_stack():
    out = _probe(ENGINE_PROBE)
    assert out.split("\n")[0] == "", out


def test_simulation_loads_neither_networkx_nor_numpy_ma():
    out = _probe(SIMULATION_PROBE)
    assert out.split("\n")[0] == "", out


def test_lazy_public_names_still_resolve():
    import repro.deploy
    import repro.deploy.live

    for package in (repro, repro.deploy, repro.deploy.live):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
    from repro import run_scenario
    from repro.deploy import Deployment
    from repro.deploy.live import LiveTransport

    assert run_scenario.__module__ == "repro.sim.engine"
    assert Deployment.__module__ == "repro.deploy.emulation"
    assert LiveTransport.__module__ == "repro.deploy.live.transport"
