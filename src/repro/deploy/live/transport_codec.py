"""The live wire's frame codec: the protocol's own types, nothing else.

:class:`~repro.deploy.live.transport.LiveTransport` puts exactly three
message types on a socket — :class:`~repro.network.reliability.Ack`,
:class:`~repro.network.reliability.Envelope` around one
:class:`~repro.core.objects.SoupObject`, and a bare ``SoupObject`` — and
this module is the only way they get there and back.  The layout is fixed
``struct`` fields and length-prefixed byte strings, no object graph, so a
receiver builds nothing but those three types from what a peer sends.
``docs/PROTOCOL.md`` ("Wire format") has the byte tables.

A frame is a 4-byte big-endian body length (at most
:data:`MAX_FRAME_BYTES`) and a body:

* ``version`` u8 (:data:`WIRE_VERSION`), ``flags`` u8 (bit 0: a trace
  context follows), ``sender`` u64, ``size_bytes`` u64 — the metered size,
  not the frame's;
* the trace context ``(msg_id, lamport, t_send)`` of
  :meth:`repro.obs.flight.LiveObservability.on_send` when flagged:
  ``lamport`` u64, ``t_send`` f64, ``msg_id`` as u16 length + UTF-8;
* one tagged message: ``ACK`` (``msg_id`` u64), ``ENVELOPE`` (``msg_id``,
  ``origin`` u64, ``attempt`` u32, ``floor`` u64, then one SOUP object's
  fields) or ``SOUP_OBJECT`` (its fields).

A SOUP object is ``source`` u64, ``dest`` u64, a type code u8 from
:data:`TYPE_CODES`, a ``forms`` u8, the timestamp as f64 or i64 (``forms``
says which, so an ``int`` timestamp stays an ``int`` and the signed bytes
stay the same), ``sequence`` u64, then the signature — none or an RSA
integer (u16 length + big-endian magnitude, at most
:data:`MAX_SIGNATURE_BYTES`) — and the payload — none, bytes or UTF-8
JSON (u32 length each).

:func:`decode_frame` checks every length against the frame, every tag,
code and form against its table, and that nothing trails the message; any
violation is a :class:`WireError`.  :func:`encode_frame` refuses, with the
same error, anything the decoder would refuse.
"""

from __future__ import annotations

import json
import struct
from math import isfinite
from typing import Any, Optional, Tuple

from repro.core.objects import ObjectType, SoupObject
from repro.network.reliability import Ack, Envelope


class WireError(ValueError):
    """A frame that is not a protocol frame, or a message that cannot be one."""


#: The body layout version this module reads and writes.
WIRE_VERSION = 1

#: The longest frame body a peer may announce.  The largest frame the
#: protocol sends is a few kilobytes (payload sizes are metered, not
#: carried), so this is generous; its job is to stop four hostile bytes
#: from making the receiver buffer 4 GiB.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The longest RSA signature the wire carries: a 4096-bit modulus.
MAX_SIGNATURE_BYTES = 512

#: Wire code of every SOUP object type.  Fixed here, never derived from the
#: declaration order of :class:`ObjectType`; a new type gets a new code.
TYPE_CODES = {
    ObjectType.PUBLISH_ENTRY: 1,
    ObjectType.LOOKUP_ENTRY: 2,
    ObjectType.ENTRY_RESPONSE: 3,
    ObjectType.RELAY: 4,
    ObjectType.FRIEND_REQUEST: 5,
    ObjectType.FRIEND_CONFIRM: 6,
    ObjectType.REQ_PROFILE: 7,
    ObjectType.PROFILE_RESPONSE: 8,
    ObjectType.MESSAGE: 9,
    ObjectType.STORE_REQUEST: 10,
    ObjectType.STORE_ACCEPT: 11,
    ObjectType.STORE_REJECT: 12,
    ObjectType.REPLICA_PUSH: 13,
    ObjectType.UPDATE: 14,
    ObjectType.UPDATE_FORWARD: 15,
    ObjectType.UPDATE_COLLECT: 16,
    ObjectType.ES_EXCHANGE: 17,
    ObjectType.RECOMMENDATION: 18,
}
_TYPES_BY_CODE = {code: object_type for object_type, code in TYPE_CODES.items()}

# Message tags.
ACK, ENVELOPE, SOUP_OBJECT = 1, 2, 3

#: ``flags`` bit: a trace context follows the header.
FLAG_CONTEXT = 0x01

# ``forms`` bits of a SOUP object.  Bit 0x04 (the retired by-id
# signature form) is not among them: a frame that sets it is refused.
TIMESTAMP_INT = 0x01
SIGNATURE_RSA = 0x02
PAYLOAD_BYTES, PAYLOAD_JSON, _PAYLOAD_MASK = 0x08, 0x10, 0x18
_FORMS = TIMESTAMP_INT | SIGNATURE_RSA | _PAYLOAD_MASK

#: A u32 length: the frame prefix, and the prefix of a payload.
LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">BBQQ")
_CONTEXT = struct.Struct(">QdH")
_ACK = struct.Struct(">BQ")
#: An ACK frame without a trace context is one fixed layout: length
#: prefix, head and ACK in 31 bytes, its body in 27.
_ACK_FRAME = struct.Struct(">IBBQQBQ")
_ACK_BODY = struct.Struct(">BBQQBQ")
_ENVELOPE = struct.Struct(">BQQIQ")
_SOUP_FLOAT = struct.Struct(">QQBBdQ")
_SOUP_INT = struct.Struct(">QQBBqQ")
_TIMESTAMP_AT = 18  # offset of the timestamp in a SOUP object's fields
_I64 = struct.Struct(">q")
_U16 = struct.Struct(">H")
_SOUP_TAG = bytes([SOUP_OBJECT])
#: Builds a decoded ``Envelope`` or ``Ack`` without its ``__new__`` frame.
_new = tuple.__new__


def _not_json(value: Any) -> Any:
    raise TypeError(f"{type(value).__name__} is not JSON")


def _refuse_constant(name: str) -> Any:
    raise WireError(f"JSON constant {name} is not allowed")


# The JSON codec's C halves, built once: ``JSONEncoder.encode`` builds a new
# encoder per call, and ``JSONDecoder.decode`` wraps the scanner in two
# whitespace scans a payload this module wrote never needs.  No
# circular-reference markers: a cyclic payload ends in RecursionError,
# which the encoder reports like any other refusal.
_json_chunks = json.encoder.c_make_encoder(
    None, _not_json, json.encoder.encode_basestring, None, ":", ",", False, False, False
)
_json_scan = json.JSONDecoder(parse_constant=_refuse_constant).scan_once

#: What the encoder's primitives raise on a field the layout cannot carry.
_UNENCODABLE = (struct.error, TypeError, ValueError, RecursionError)

#: What the decoder's primitives raise on bytes that are not a frame (the
#: JSON scanner raises StopIteration where no value starts).
_MALFORMED = (struct.error, IndexError, ValueError, RecursionError, StopIteration)


# --- encoding ---------------------------------------------------------------
def encode_frame(
    sender: int,
    size_bytes: int,
    message: Any,
    ctx: Optional[tuple] = None,
    soup: Optional[bytes] = None,
) -> bytes:
    """The whole frame, length prefix included, for ``message``.

    ``soup``, when given, is what :func:`soup_section` returned for the
    object ``message`` envelopes: a fan-out encodes its object once and
    every frame reuses the bytes, which are the ones this function would
    write.

    Raises :class:`WireError` for a message outside the three protocol
    types (an envelope must wrap exactly one SOUP object) or a field the
    layout cannot carry.
    """
    kind = type(message)
    try:
        if kind is Envelope:
            inner = message.payload
            if type(inner) is not SoupObject:
                raise WireError("an envelope carries exactly one SOUP object")
            if soup is None:
                soup = _encode_soup(inner)
            msg_id, origin, attempt, _, floor = message
            tail = _ENVELOPE.pack(ENVELOPE, msg_id, origin, attempt, floor) + soup
        elif kind is SoupObject:
            tail = _SOUP_TAG + _encode_soup(message)
        elif kind is Ack:
            if ctx is None:
                return _ACK_FRAME.pack(
                    _ACK_FRAME.size - LENGTH.size, WIRE_VERSION, 0,
                    sender, size_bytes, ACK, message.msg_id,
                )
            tail = _ACK.pack(ACK, message.msg_id)
        else:
            raise WireError(f"{kind.__name__} is not a protocol message")
        if ctx is None:
            head = _HEAD.pack(WIRE_VERSION, 0, sender, size_bytes)
        else:
            msg_id, lamport, t_send = ctx
            if type(msg_id) is not str or type(t_send) is not float or not isfinite(t_send):
                raise WireError("trace context must be (str, int, finite float)")
            tag = msg_id.encode("utf-8")
            head = (
                _HEAD.pack(WIRE_VERSION, FLAG_CONTEXT, sender, size_bytes)
                + _CONTEXT.pack(lamport, t_send, len(tag))
                + tag
            )
    except WireError:
        raise
    except _UNENCODABLE as exc:
        raise WireError(f"cannot encode: {exc}") from None
    length = len(head) + len(tail)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return LENGTH.pack(length) + head + tail


def soup_section(obj: SoupObject) -> bytes:
    """``obj``'s fields as an ``ENVELOPE`` frame carries them, after its
    envelope fields: the bytes :func:`encode_frame` takes as ``soup``.

    Raises :class:`WireError` for an object the layout cannot carry.
    """
    try:
        return _encode_soup(obj)
    except WireError:
        raise
    except _UNENCODABLE as exc:
        raise WireError(f"cannot encode: {exc}") from None


def _encode_soup(obj: SoupObject) -> bytes:
    timestamp = obj.timestamp
    if type(timestamp) is float:
        if not isfinite(timestamp):
            raise WireError("timestamp must be finite")
        forms, fields = 0, _SOUP_FLOAT
    elif type(timestamp) is int:
        forms, fields = TIMESTAMP_INT, _SOUP_INT
    else:
        raise WireError(f"timestamp of type {type(timestamp).__name__}")
    signature = obj.signature
    signed = b""
    if signature is not None:
        if type(signature) is int:
            size = (signature.bit_length() + 7) // 8
            if signature < 0 or size > MAX_SIGNATURE_BYTES:
                raise WireError("RSA signature out of range")
            forms |= SIGNATURE_RSA
            signed = _U16.pack(size) + signature.to_bytes(size, "big")
        else:
            raise WireError(f"signature of type {type(signature).__name__}")
    payload = obj.payload
    if payload is None:
        raw = b""
    elif type(payload) is bytes:
        forms |= PAYLOAD_BYTES
        raw = LENGTH.pack(len(payload)) + payload
    else:
        forms |= PAYLOAD_JSON
        text = "".join(_json_chunks(payload, 0)).encode("utf-8")
        raw = LENGTH.pack(len(text)) + text
    code = TYPE_CODES.get(obj.object_type)
    if code is None:
        raise WireError(f"object type {obj.object_type!r} has no wire code")
    return (
        fields.pack(obj.source, obj.dest, code, forms, timestamp, obj.sequence)
        + signed
        + raw
    )


# --- decoding ---------------------------------------------------------------
def decode_frame(body) -> Tuple[int, int, Any, Optional[tuple]]:
    """``(sender, size_bytes, message, ctx)`` from one frame body (the
    bytes after the length prefix; ``bytes`` or a ``memoryview``).

    Raises :class:`WireError` for anything that is not exactly one frame.
    """
    if len(body) == _ACK_BODY.size:
        # An ACK without a trace context, in one unpack; a body of this
        # length that is anything else takes the general path.
        version, flags, sender, size_bytes, tag, msg_id = _ACK_BODY.unpack(body)
        if version == WIRE_VERSION and not flags and tag == ACK:
            return sender, size_bytes, _new(Ack, (msg_id,)), None
    return _decode_general(body)


def _decode_general(body) -> Tuple[int, int, Any, Optional[tuple]]:
    """:func:`decode_frame` for every layout, the ACK included."""
    try:
        return _decode(body)
    except WireError:
        raise
    except _MALFORMED as exc:
        raise WireError(f"malformed frame: {exc!r}") from None


def _decode(body) -> Tuple[int, int, Any, Optional[tuple]]:
    end = len(body)
    version, flags, sender, size_bytes = _HEAD.unpack_from(body, 0)
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    offset = _HEAD.size
    ctx = None
    if flags:
        if flags != FLAG_CONTEXT:
            raise WireError(f"unknown flags {flags:#04x}")
        lamport, t_send, size = _CONTEXT.unpack_from(body, offset)
        offset += _CONTEXT.size
        stop = _take(offset, size, end)
        if not isfinite(t_send):
            raise WireError("trace context time is not finite")
        ctx = (str(body[offset:stop], "utf-8"), lamport, t_send)
        offset = stop
    tag = body[offset]
    if tag == ENVELOPE:
        _, msg_id, origin, attempt, floor = _ENVELOPE.unpack_from(body, offset)
        obj, offset = _decode_soup(body, offset + _ENVELOPE.size, end)
        message = _new(Envelope, (msg_id, origin, attempt, obj, floor))
    elif tag == SOUP_OBJECT:
        message, offset = _decode_soup(body, offset + 1, end)
    elif tag == ACK:
        _, msg_id = _ACK.unpack_from(body, offset)
        message = _new(Ack, (msg_id,))
        offset += _ACK.size
    else:
        raise WireError(f"unknown message tag {tag}")
    if offset != end:
        raise WireError(f"{end - offset} bytes trail the message")
    return sender, size_bytes, message, ctx


def _take(offset: int, size: int, end: int) -> int:
    """End of a ``size``-byte field at ``offset``, if it fits the frame."""
    stop = offset + size
    if stop > end:
        raise WireError(f"a {size}-byte field overruns the frame")
    return stop


def _decode_soup(body, offset: int, end: int) -> Tuple[SoupObject, int]:
    source, dest, code, forms, timestamp, sequence = _SOUP_FLOAT.unpack_from(body, offset)
    object_type = _TYPES_BY_CODE.get(code)
    if object_type is None:
        raise WireError(f"unknown object type code {code}")
    if forms & ~_FORMS:
        raise WireError(f"unknown forms {forms:#04x}")
    if forms & TIMESTAMP_INT:
        (timestamp,) = _I64.unpack_from(body, offset + _TIMESTAMP_AT)
    elif not isfinite(timestamp):
        raise WireError("timestamp is not finite")
    offset += _SOUP_FLOAT.size

    if forms & SIGNATURE_RSA:
        (size,) = _U16.unpack_from(body, offset)
        if size > MAX_SIGNATURE_BYTES:
            raise WireError(f"RSA signature of {size} bytes")
        offset += 2
        stop = _take(offset, size, end)
        if size and not body[offset]:
            raise WireError("RSA signature with a leading zero byte")
        signature = int.from_bytes(body[offset:stop], "big")
        offset = stop
    else:
        signature = None

    form = forms & _PAYLOAD_MASK
    if not form:
        payload = None
    else:
        (size,) = LENGTH.unpack_from(body, offset)
        offset += LENGTH.size
        stop = _take(offset, size, end)
        if form == PAYLOAD_BYTES:
            payload = bytes(body[offset:stop])
        elif form == PAYLOAD_JSON:
            text = str(body[offset:stop], "utf-8")
            payload, parsed = _json_scan(text, 0)
            if parsed != len(text):
                raise WireError("bytes trail the JSON payload")
            if payload is None:
                raise WireError("JSON payload null (that is the empty form)")
        else:
            raise WireError("two payload forms at once")
        offset = stop
    # Positional, in field order; passing ``sequence`` keeps the
    # sender-side counter untouched.
    obj = SoupObject(source, dest, object_type, payload, timestamp, signature, sequence)
    return obj, offset
