"""Tests for SOUP objects."""

import json
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.objects import ObjectType, SoupObject, _json_fallback


def test_sequence_monotonic():
    a = SoupObject(1, 2, ObjectType.MESSAGE)
    b = SoupObject(1, 2, ObjectType.MESSAGE)
    assert b.sequence > a.sequence


def test_signing_bytes_deterministic_for_same_object():
    obj = SoupObject(1, 2, ObjectType.MESSAGE, payload={"text": "hi"}, timestamp=5.0)
    assert obj.signing_bytes() == obj.signing_bytes()


def test_signing_bytes_cover_payload():
    a = SoupObject(1, 2, ObjectType.MESSAGE, payload={"text": "hi"}, timestamp=5.0)
    b = SoupObject(1, 2, ObjectType.MESSAGE, payload={"text": "yo"}, timestamp=5.0)
    assert a.signing_bytes() != b.signing_bytes()


def test_signing_bytes_cover_header_fields():
    a = SoupObject(1, 2, ObjectType.MESSAGE, payload=None, timestamp=1.0)
    b = SoupObject(1, 3, ObjectType.MESSAGE, payload=None, timestamp=1.0)
    assert a.signing_bytes() != b.signing_bytes()


def test_bytes_payload_supported():
    obj = SoupObject(1, 2, ObjectType.REPLICA_PUSH, payload=b"\x00\x01binary")
    assert b"binary" in obj.signing_bytes()
    assert obj.size_bytes() >= len(b"\x00\x01binary")


def test_size_accounts_for_payload():
    small = SoupObject(1, 2, ObjectType.MESSAGE, payload={"t": "x"})
    large = SoupObject(1, 2, ObjectType.MESSAGE, payload={"t": "x" * 5000})
    assert large.size_bytes() - small.size_bytes() >= 4500


def test_size_of_empty_payload_is_header_only():
    obj = SoupObject(1, 2, ObjectType.LOOKUP_ENTRY)
    assert obj.size_bytes() == 8 + 8 + 16 + 8 + 8 + 128


def test_is_signed():
    obj = SoupObject(1, 2, ObjectType.MESSAGE)
    assert not obj.is_signed()
    obj.signature = 12345
    assert obj.is_signed()


def test_payload_with_sets_serializable():
    obj = SoupObject(1, 2, ObjectType.PUBLISH_ENTRY, payload={"mirrors": {3, 1, 2}})
    assert obj.size_bytes() > 0
    assert obj.signing_bytes()


def test_all_object_types_distinct():
    values = [t.value for t in ObjectType]
    assert len(values) == len(set(values))


# --- the canonical bytes a signature covers -------------------------------
class Box:
    """A payload value serialized through its ``__dict__``."""

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"Box({self.a!r}, {self.b!r})"


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_KEYS = st.text(max_size=5)
JSON_SHAPED = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=4)
    | st.frozensets(st.integers(-50, 50), max_size=4)
    | st.sets(st.text(max_size=4), max_size=4)
    | st.builds(Box, children, children),
    max_leaves=12,
)


def reference_signing_bytes(obj: SoupObject) -> bytes:
    """The canonical bytes as ``json.dumps`` writes them."""
    body = {
        "source": obj.source, "dest": obj.dest, "type": obj.object_type.value,
        "timestamp": obj.timestamp, "sequence": obj.sequence,
    }
    if isinstance(obj.payload, bytes):
        return json.dumps(body, sort_keys=True).encode("utf-8") + b"|" + obj.payload
    body["payload"] = obj.payload
    return json.dumps(body, sort_keys=True, default=_json_fallback).encode("utf-8")


def reference_size_bytes(obj: SoupObject) -> int:
    if isinstance(obj.payload, bytes):
        payload_size = len(obj.payload)
    elif obj.payload is None:
        payload_size = 0
    else:
        payload_size = len(json.dumps(obj.payload, default=_json_fallback).encode("utf-8"))
    return 8 + 8 + 16 + 8 + 8 + 128 + payload_size


@given(
    payload=JSON_SHAPED | st.binary(max_size=16),
    timestamp=st.integers(-(2**40), 2**40) | st.floats(allow_nan=False, allow_infinity=False),
    object_type=st.sampled_from(list(ObjectType)),
)
def test_signing_and_size_bytes_are_what_json_dumps_writes(payload, timestamp, object_type):
    obj = SoupObject(7, 8, object_type, payload=payload, timestamp=timestamp, sequence=9)
    assert obj.signing_bytes() == reference_signing_bytes(obj)
    assert obj.size_bytes() == reference_size_bytes(obj)


def test_signing_bytes_of_a_dict_payload_are_pinned():
    obj = SoupObject(
        1, 2, ObjectType.UPDATE, payload={"b": [1, 2.5, None, True], "a": "ü"},
        timestamp=0.5, sequence=7,
    )
    assert obj.signing_bytes() == (
        b'{"dest": 2, "payload": {"a": "\\u00fc", "b": [1, 2.5, null, true]}, '
        b'"sequence": 7, "source": 1, "timestamp": 0.5, "type": "UPDATE"}'
    )
    assert obj.size_bytes() == 218


def test_signing_bytes_of_a_bytes_payload_are_pinned():
    obj = SoupObject(
        3, 4, ObjectType.REPLICA_PUSH, payload=b"\x00ab\xff", timestamp=1.0, sequence=8
    )
    assert obj.signing_bytes() == (
        b'{"dest": 4, "sequence": 8, "source": 3, "timestamp": 1.0, '
        b'"type": "REPLICA_PUSH"}|\x00ab\xff'
    )
    assert obj.size_bytes() == 180


def test_signing_bytes_of_a_set_payload_are_pinned():
    obj = SoupObject(
        5, 6, ObjectType.MESSAGE, payload={"tags": {"b", "a"}}, timestamp=2, sequence=9
    )
    assert obj.signing_bytes() == (
        b'{"dest": 6, "payload": {"tags": ["a", "b"]}, "sequence": 9, '
        b'"source": 5, "timestamp": 2, "type": "MESSAGE"}'
    )
    assert obj.size_bytes() == 196


def test_a_cyclic_payload_is_refused_as_json_dumps_refuses_it():
    cycle = []
    cycle.append(cycle)
    obj = SoupObject(1, 2, ObjectType.UPDATE, payload={"x": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        obj.signing_bytes()
    with pytest.raises(ValueError, match="Circular reference"):
        obj.size_bytes()


def test_a_refused_payload_leaves_nothing_behind():
    shared = ["kept"]
    bad = SoupObject(1, 2, ObjectType.UPDATE, payload={"a": shared, "b": [shared, object()]})
    with pytest.raises(TypeError):
        bad.signing_bytes()
    with pytest.raises(TypeError):
        bad.size_bytes()
    # ``shared`` was inside the failed calls; it is no cycle now.
    good = SoupObject(1, 2, ObjectType.UPDATE, payload={"a": shared, "b": [shared]})
    assert good.signing_bytes() == reference_signing_bytes(good)
    assert good.size_bytes() == reference_size_bytes(good)


def test_mixed_key_types_are_sized_but_not_signed():
    obj = SoupObject(1, 2, ObjectType.UPDATE, payload={1: 2, "a": 3})
    assert obj.size_bytes() == reference_size_bytes(obj)
    with pytest.raises(TypeError):
        obj.signing_bytes()


def test_each_thread_signs_with_its_own_encoder():
    payloads = [{"n": n, "tags": {str(n), "x"}} for n in range(200)]
    expected = [
        reference_signing_bytes(SoupObject(1, 2, ObjectType.MESSAGE, payload=p, sequence=3))
        for p in payloads
    ]
    results = {}

    def sign_all(index):
        results[index] = [
            SoupObject(1, 2, ObjectType.MESSAGE, payload=p, sequence=3).signing_bytes()
            for p in payloads
        ]

    threads = [threading.Thread(target=sign_all, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the encoder's callbacks
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[i] == expected for i in range(4))
