"""The layer trace: self time and call counts per ``repro`` module group.

``cProfile`` records, for every function, the time spent in the function
itself (not its callees) and how often it was called.  :func:`attribute`
folds those per-function rows into layers by the path of the file that
defines the function, so no source file of the program is patched and a
function moving between modules moves its time with it.  Builtins have no
file; the ones that are a layer's real work (``pow`` is RSA, ``dumps`` /
``loads`` the wire codec, socket calls and ``epoll.poll`` the wire itself)
are named, the rest is ``ext.builtins``.

The profiler slows Python calls but not the C code under them, so shares of
call-heavy layers are inflated; ``calls`` repeat exactly for fixed work and
are the number to compare across commits.
"""

from __future__ import annotations

import cProfile
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from soupbench.spec import LAYERS_SELF_ONLY, LAYERS_WITH_CALLS

#: (path prefix under ``repro/``, layer) — first match wins.
_REPRO_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine", "sim.engine"),
    ("sim/metrics", "sim.engine"),
    ("sim/scenario", "sim.engine"),
    ("sim/attacks", "sim.attacks"),
    ("sim/faults", "sim.attacks"),
    ("sim/invariants", "sim.attacks"),
    ("core/dropping", "core.dropping"),
    ("core/experience", "core.experience"),
    ("core/knowledge", "core.knowledge"),
    ("core/ranking", "core.ranking"),
    ("core/selection", "core.selection"),
    ("core/columnar", "core.columnar"),
    ("core/objects", "core.objects"),
    ("core/config", "core.objects"),
    ("behavior/", "behavior"),
    ("arch/", "arch"),
    ("node/middleware", "node.middleware"),
    ("node/application_manager", "node.middleware"),
    ("node/social_manager", "node.middleware"),
    ("node/profile", "node.middleware"),
    ("node/interface_manager", "dht"),
    ("dht/", "dht"),
    ("node/security_manager", "security"),
    ("crypto/", "security"),
    ("node/mirror_manager", "mirror"),
    ("node/sync", "mirror"),
    ("node/devices", "mirror"),
    ("network/reliability", "network.reliability"),
    ("network/transport", "network.transport"),
    ("network/events", "network.transport"),
    ("deploy/live/transport", "deploy.live.transport"),
    ("obs/", "obs"),
)

#: Builtins reported on their own: (substring of the profiler's name, metric).
_NAMED_BUILTINS: Tuple[Tuple[str, str], ...] = (
    ("builtins.pow", "security.modexp_s"),
    ("_pickle.dumps", "wire.pickle_s"),
    ("_pickle.loads", "wire.pickle_s"),
    ("'_socket.socket'", "wire.socket_s"),
    ("'select.epoll'", "wire.socket_s"),
    ("'select.poll'", "wire.socket_s"),
    ("select.select", "wire.socket_s"),
)

#: Single functions counted by name: (file suffix, function, metric).
_NAMED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro/dht/pastry.py", "lookup", "dht.lookups"),
    ("repro/node/security_manager.py", "sign_object", "security.sign_calls"),
    ("repro/node/security_manager.py", "verify_object", "security.verify_calls"),
)

_EVENTLOOP_FILES = ("/asyncio/", "/selectors.py", "/contextvars.py")
_EVENTLOOP_BUILTINS = ("_asyncio.", "_contextvars.", "'Context'")

_BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def _repro_dir() -> str:
    """Directory of the imported ``repro`` package ("" before its import)."""
    module = sys.modules.get("repro")
    if module is None or not getattr(module, "__file__", None):
        return ""
    return os.path.dirname(os.path.abspath(module.__file__)) + os.sep


def layer_of_file(filename: str, repro_dir: str) -> str:
    """The layer a Python source file belongs to."""
    path = filename.replace(os.sep, "/")
    if repro_dir and filename.startswith(repro_dir):
        relative = path[len(repro_dir) :]
        for prefix, layer in _REPRO_RULES:
            if relative.startswith(prefix):
                return layer
        return "repro.unassigned"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    if "/numpy/" in path:
        return "ext.numpy"
    if any(part in path for part in _EVENTLOOP_FILES):
        return "eventloop"
    return "ext.stdlib"


def layer_of_builtin(name: str) -> str:
    """The layer (or named metric) of a C function, from the profiler's
    label, e.g. ``<built-in method builtins.pow>``."""
    for needle, metric in _NAMED_BUILTINS:
        if needle in name:
            return metric
    if "numpy" in name:
        return "ext.numpy"
    if any(part in name for part in _EVENTLOOP_BUILTINS):
        return "eventloop"
    return "ext.builtins"


@dataclass
class LayerTrace:
    """Per-layer totals of one traced region."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    #: Named single-function metrics (seconds or counts).
    named: Dict[str, float] = field(default_factory=dict)
    #: Self time of each plain builtin, for the "top five" detail.
    builtins: Dict[str, float] = field(default_factory=dict)

    def top_builtins(self, count: int = 5) -> List[Tuple[str, float]]:
        ranked = sorted(self.builtins.items(), key=lambda kv: -kv[1])
        return [(name, round(seconds, 6)) for name, seconds in ranked[:count]]

    def metrics(self) -> Dict[str, float]:
        """The trace as ``<layer>.self_s`` / ``<layer>.calls`` numbers."""
        out: Dict[str, float] = {}
        for layer in LAYERS_WITH_CALLS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        for layer in LAYERS_SELF_ONLY:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out.update(self.named)
        return out


def attribute(entries: Iterable[object]) -> LayerTrace:
    """Fold ``cProfile.Profile.getstats()`` rows into layers."""
    trace = LayerTrace()
    repro_dir = _repro_dir()
    for entry in entries:
        code = entry.code
        seconds = entry.inlinetime
        if isinstance(code, str):
            layer = layer_of_builtin(code)
            if layer == "ext.builtins":
                trace.builtins[code] = trace.builtins.get(code, 0.0) + seconds
        else:
            layer = layer_of_file(code.co_filename, repro_dir)
            for suffix, function, metric in _NAMED_FUNCTIONS:
                if code.co_name == function and code.co_filename.replace(
                    os.sep, "/"
                ).endswith(suffix):
                    trace.named[metric] = trace.named.get(metric, 0) + entry.callcount
        if layer.endswith("_s"):
            # A named builtin: time on its own metric, not in a layer.
            trace.named[layer] = trace.named.get(layer, 0.0) + seconds
            continue
        trace.self_s[layer] = trace.self_s.get(layer, 0.0) + seconds
        trace.calls[layer] = trace.calls.get(layer, 0) + entry.callcount
    return trace


class Tracer:
    """``with Tracer(enabled) as tracer: ...`` then ``tracer.trace``; a
    disabled tracer records nothing and yields an empty trace."""

    def __init__(self, enabled: bool) -> None:
        self._profile: Optional[cProfile.Profile] = (
            cProfile.Profile() if enabled else None
        )
        self.trace = LayerTrace()

    def __enter__(self) -> "Tracer":
        if self._profile is not None:
            self._profile.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._profile is not None:
            self._profile.disable()
            self.trace = attribute(self._profile.getstats())
