"""SOUP objects: the universal signed message format.

Fig. 1 of the paper shows the wire format: source, destination, a type tag,
a payload, and the owner's signature.  "Applications running on top of SOUP
can encapsulate payload (such as user data or friend requests) into SOUP
objects, and thereby exchange content transparently via the middleware"
(Sec. 3.6).
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Optional


class ObjectType(enum.Enum):
    """Message types used across the middleware and applications."""

    # Directory / DHT
    PUBLISH_ENTRY = "PUBLISH_ENTRY"
    LOOKUP_ENTRY = "LOOKUP_ENTRY"
    ENTRY_RESPONSE = "ENTRY_RESPONSE"
    RELAY = "RELAY"  # mobile node relaying a DHT op through a gateway

    # Social layer
    FRIEND_REQUEST = "FRIEND_REQUEST"
    FRIEND_CONFIRM = "FRIEND_CONFIRM"
    REQ_PROFILE = "REQ_PROFILE"
    PROFILE_RESPONSE = "PROFILE_RESPONSE"
    MESSAGE = "MESSAGE"

    # Mirror protocol
    STORE_REQUEST = "STORE_REQUEST"
    STORE_ACCEPT = "STORE_ACCEPT"
    STORE_REJECT = "STORE_REJECT"
    REPLICA_PUSH = "REPLICA_PUSH"
    UPDATE = "UPDATE"
    UPDATE_FORWARD = "UPDATE_FORWARD"  # update passed on to a mirror's mirrors
    UPDATE_COLLECT = "UPDATE_COLLECT"
    ES_EXCHANGE = "ES_EXCHANGE"
    RECOMMENDATION = "RECOMMENDATION"


_sequence = itertools.count()


@dataclass
class SoupObject:
    """One signed unit of SOUP communication.

    ``payload`` is an arbitrary JSON-serializable structure (or raw bytes for
    replica pushes); ``signature`` is the RSA signature integer attached by
    the security manager, or ``None`` while the object is still in-node.
    ``timestamp`` orders updates during synchronization (Sec. 3.5).
    """

    source: int
    dest: int
    object_type: ObjectType
    payload: Any = None
    timestamp: float = 0.0
    signature: Optional[int] = None
    sequence: int = field(default_factory=lambda: next(_sequence))

    def signing_bytes(self) -> bytes:
        """The canonical byte string that the signature covers."""
        body = {
            "source": self.source,
            "dest": self.dest,
            "type": self.object_type.value,
            "timestamp": self.timestamp,
            "sequence": self.sequence,
        }
        if isinstance(self.payload, bytes):
            head = _dumps(_canonical.sorted, body).encode("utf-8")
            return head + b"|" + self.payload
        body["payload"] = self.payload
        return _dumps(_canonical.sorted, body).encode("utf-8")

    def size_bytes(self) -> int:
        """Approximate wire size for traffic accounting.

        Header fields (two 8-byte IDs, type tag, timestamp, sequence) plus a
        1024-bit signature plus the payload.
        """
        if isinstance(self.payload, bytes):
            payload_size = len(self.payload)
        elif self.payload is None:
            payload_size = 0
        else:
            payload_size = len(_dumps(_canonical.unsorted, self.payload))
        return 8 + 8 + 16 + 8 + 8 + 128 + payload_size

    def is_signed(self) -> bool:
        return self.signature is not None


def _json_fallback(value: Any) -> Any:
    """Serialize objects the payloads commonly embed (sets, dataclasses)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "__dict__"):
        return vars(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


class _CanonicalJson(threading.local):
    """``json.dumps(value, sort_keys=..., default=_json_fallback)``'s C
    encoder, built once per thread instead of once per call.

    Its output is the one ``json.dumps`` writes with those arguments
    (``ensure_ascii``, ``", "`` and ``": "``), so every signature stays the
    same.  Both encoders share one circular-reference ``markers`` dict,
    which a finished call leaves empty; per thread, so no two calls share
    it at once.
    """

    def __init__(self) -> None:
        self.markers: dict = {}
        self.sorted = self._encoder(sort_keys=True)
        self.unsorted = self._encoder(sort_keys=False)

    def _encoder(self, sort_keys: bool):
        return c_make_encoder(
            self.markers, _json_fallback, encode_basestring_ascii, None,
            ": ", ", ", sort_keys, False, True,
        )


_canonical = _CanonicalJson()


def _dumps(encoder, value: Any) -> str:
    """``value`` as JSON text, through one of :data:`_canonical`'s encoders.

    An encoder that raises (a cycle, a value ``_json_fallback`` refuses)
    leaves its markers behind, holding the objects it was inside; they
    are dropped here so that the next call neither keeps them alive nor
    takes an object at a recycled address for a cycle.  The ASCII output
    has as many bytes as characters.
    """
    try:
        return "".join(encoder(value, 0))
    except BaseException:
        _canonical.markers.clear()
        raise
