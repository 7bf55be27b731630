"""The module -> layer map of the tracer."""

import cProfile

import repro
from soupbench import layers
from soupbench.spec import LAYERS_SELF_ONLY, LAYERS_WITH_CALLS, PER_LAYER


def _layer(relative: str) -> str:
    return layers.layer_of_file(layers._repro_dir() + relative, layers._repro_dir())


def test_files_map_to_the_layers_the_issue_names():
    assert repro.__file__.startswith(layers._repro_dir())
    assert _layer("sim/engine.py") == "sim.engine"
    assert _layer("sim/faults.py") == "sim.attacks"
    assert _layer("core/dropping.py") == "core.dropping"
    assert _layer("behavior/online.py") == "behavior"
    assert _layer("node/interface_manager.py") == "dht"
    assert _layer("dht/node_state.py") == "dht"
    assert _layer("crypto/rsa.py") == "security"
    assert _layer("node/devices.py") == "mirror"
    assert _layer("network/reliability.py") == "network.reliability"
    assert _layer("deploy/live/transport.py") == "deploy.live.transport"
    assert _layer("obs/registry.py") == "obs"
    assert _layer("cli.py") == "repro.unassigned"
    assert layers.layer_of_file(layers.__file__, layers._repro_dir()) == "bench"
    assert layers.layer_of_file("/usr/lib/python3/asyncio/events.py", "") == "eventloop"
    assert layers.layer_of_file("/usr/lib/python3/json/encoder.py", "") == "ext.stdlib"


def test_builtins_that_are_a_layers_work_are_named():
    assert layers.layer_of_builtin("<built-in method builtins.pow>") == "security.modexp_s"
    assert layers.layer_of_builtin("<built-in method _pickle.loads>") == "wire.pickle_s"
    assert (
        layers.layer_of_builtin("<method 'send' of '_socket.socket' objects>")
        == "wire.socket_s"
    )
    assert (
        layers.layer_of_builtin("<method 'poll' of 'select.epoll' objects>")
        == "wire.socket_s"
    )
    assert layers.layer_of_builtin("<method 'sort' of 'list' objects>") == "ext.builtins"


def test_every_layer_the_map_can_produce_is_a_reported_metric():
    produced = {layer for _, layer in layers._REPRO_RULES}
    produced |= {"repro.unassigned", "bench", "ext.numpy", "eventloop", "ext.stdlib"}
    produced |= {"ext.builtins"}
    assert produced <= set(LAYERS_WITH_CALLS) | set(LAYERS_SELF_ONLY)
    named = {metric for _, metric in layers._NAMED_BUILTINS}
    named |= {metric for _, _, metric in layers._NAMED_FUNCTIONS}
    assert named <= set(PER_LAYER)


def test_attribute_sums_self_time_and_counts_named_calls():
    from repro.crypto.keys import KeyPair
    from repro.core.objects import ObjectType, SoupObject
    from repro.node.security_manager import SecurityManager

    security = SecurityManager(KeyPair.generate(bits=256, seed=5))
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3):
        security.sign_object(SoupObject(1, 2, ObjectType.MESSAGE, {"text": "x"}))
    profile.disable()
    trace = layers.attribute(profile.getstats())
    assert trace.named["security.sign_calls"] == 3
    assert trace.named["security.modexp_s"] > 0
    assert trace.self_s["security"] > 0 and trace.self_s["core.objects"] > 0
    assert trace.calls["security"] >= 3
    assert trace.self_s.get("repro.unassigned", 0.0) == 0.0
    metrics = trace.metrics()
    assert set(metrics) <= set(PER_LAYER)
