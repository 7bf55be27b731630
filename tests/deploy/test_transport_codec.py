"""The live wire's frame codec (:mod:`repro.deploy.live.transport_codec`).

Round trips over generated protocol messages, golden frames, the fast
paths (a context-free ACK, an envelope around an already encoded SOUP
section) against the general ones, the encoder's refusals, and
hostile bytes fed to a receiving connection the way the event loop feeds
it (``get_buffer`` / ``buffer_updated``): every malformed frame must end as
one counted ``bad-frame`` with the connection closed, nothing may raise out
of ``buffer_updated``, any chunking of good frames delivers the same
messages, and the receive buffer holds no more than a peer has sent.
"""

import asyncio
import hashlib
import math
import pickle
import re
import struct
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import objects
from repro.core.objects import ObjectType, SoupObject
from repro.deploy.live.transport import (
    MAX_METERED_BYTES,
    RECEIVE_BUFFER_BYTES,
    AsyncClock,
    LiveTransport,
    _FrameReceiver,
)
from repro.deploy.live import transport_codec
from repro.deploy.live.transport_codec import (
    ACK,
    ENVELOPE,
    LENGTH,
    MAX_FRAME_BYTES,
    MAX_SIGNATURE_BYTES,
    PAYLOAD_JSON,
    SIGNATURE_RSA,
    SOUP_OBJECT,
    TYPE_CODES,
    WIRE_VERSION,
    WireError,
    decode_frame,
    encode_frame,
    soup_section,
)
from repro.network.reliability import Ack, Envelope

U64 = st.integers(0, 2**64 - 1)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
PAYLOADS = st.none() | st.binary(max_size=64) | JSON.filter(lambda v: v is not None)
TIMESTAMPS = st.integers(-(2**63), 2**63 - 1) | st.floats(
    allow_nan=False, allow_infinity=False
)
SIGNATURES = st.none() | st.integers(0, 2 ** (8 * MAX_SIGNATURE_BYTES) - 1)
SOUP_OBJECTS = st.builds(
    SoupObject,
    source=U64,
    dest=U64,
    object_type=st.sampled_from(list(ObjectType)),
    payload=PAYLOADS,
    timestamp=TIMESTAMPS,
    signature=SIGNATURES,
    sequence=U64,
)
MESSAGES = (
    st.builds(Ack, msg_id=U64)
    | SOUP_OBJECTS
    | st.builds(
        Envelope,
        msg_id=U64,
        origin=U64,
        attempt=st.integers(0, 2**32 - 1),
        payload=SOUP_OBJECTS,
        floor=U64,
    )
)
CONTEXTS = st.none() | st.tuples(
    st.text(max_size=24), U64, st.floats(allow_nan=False, allow_infinity=False)
)


def sample_object(**overrides) -> SoupObject:
    fields = dict(
        source=11,
        dest=22,
        object_type=ObjectType.UPDATE,
        payload={"action": "post_item", "item_id": 7, "kind": "text", "size": 2000},
        timestamp=1.5,
        signature=2**511 + 12345,
        sequence=33,
    )
    fields.update(overrides)
    return SoupObject(**fields)


def sample_frame() -> bytes:
    """A rich frame: trace context, envelope, RSA signature, JSON payload."""
    envelope = Envelope(msg_id=5, origin=11, attempt=1, payload=sample_object(), floor=3)
    return encode_frame(11, 4_048, envelope, ("m11-4", 9, 1234.5))


def body_of(frame: bytes) -> bytes:
    return frame[LENGTH.size:]


def framed(body: bytes) -> bytes:
    return LENGTH.pack(len(body)) + body


def soup_fields(obj: SoupObject):
    return (
        obj.source, obj.dest, obj.object_type, obj.payload, obj.timestamp,
        type(obj.timestamp), obj.signature, obj.sequence, obj.signing_bytes(),
    )


def same(sent, got) -> bool:
    if type(sent) is not type(got):
        return False
    if isinstance(sent, Envelope):
        return (sent.msg_id, sent.origin, sent.attempt, sent.floor) == (
            got.msg_id, got.origin, got.attempt, got.floor
        ) and same(sent.payload, got.payload)
    if isinstance(sent, SoupObject):
        return soup_fields(sent) == soup_fields(got)
    return sent == got


# --- round trips ---------------------------------------------------------
@given(message=MESSAGES, sender=U64, size_bytes=U64, ctx=CONTEXTS)
def test_every_protocol_message_round_trips(message, sender, size_bytes, ctx):
    frame = encode_frame(sender, size_bytes, message, ctx)
    assert LENGTH.unpack_from(frame)[0] == len(frame) - LENGTH.size
    counter = repr(objects._sequence)
    got_sender, got_size, got, got_ctx = decode_frame(memoryview(frame)[LENGTH.size:])
    # Building the received object draws nothing from the sequence counter.
    assert repr(objects._sequence) == counter
    assert (got_sender, got_size, got_ctx) == (sender, size_bytes, ctx)
    assert same(message, got)
    if ctx is not None:
        assert [type(part) for part in got_ctx] == [str, int, float]


def test_int_timestamp_stays_int_and_signed_bytes_stay_equal():
    for timestamp in (3, 3.0):
        obj = sample_object(timestamp=timestamp)
        _, _, got, _ = decode_frame(body_of(encode_frame(1, 10, obj)))
        assert type(got.timestamp) is type(timestamp)
        assert got.signing_bytes() == obj.signing_bytes()


def test_frames_are_compact():
    ack = encode_frame(1, 64, Ack(9))
    assert len(ack) == LENGTH.size + 18 + 9
    envelope = Envelope(msg_id=5, origin=11, attempt=0, payload=sample_object(), floor=3)
    assert len(encode_frame(11, 4_048, envelope)) < 256


# --- golden frames ----------------------------------------------------------
GOLDEN_SENDER = 0x9167453D489BA97F
GOLDEN_SIGNATURE = int(
    "1727319779876273441506384137195427895691844278491654785267214688798134857292"
    "247251108508023359827982638687560920871091112044550740897210087734325002044072"
)


def golden_update() -> SoupObject:
    """An update signed by the 512-bit key of ``KeyPair.generate(bits=512, seed=7)``."""
    return SoupObject(
        source=GOLDEN_SENDER, dest=GOLDEN_SENDER, object_type=ObjectType.UPDATE,
        payload={"action": "post_item", "item_id": 7, "kind": "text", "size": 2000},
        timestamp=12.25, signature=GOLDEN_SIGNATURE, sequence=41,
    )


def golden_response() -> SoupObject:
    return SoupObject(
        source=22, dest=GOLDEN_SENDER, object_type=ObjectType.PROFILE_RESPONSE,
        payload={"owner": 22, "items": ["a", "\u00e9"], "served_by": 33},
        timestamp=3, sequence=8,
    )


def golden_envelope() -> Envelope:
    return Envelope(msg_id=5, origin=GOLDEN_SENDER, attempt=1, payload=golden_update(), floor=3)


#: Frames recorded before the ACK and shared-section fast paths existed.
GOLDEN_FRAMES = [
    (lambda: encode_frame(GOLDEN_SENDER, 64, Ack(9)),
     "0000001b01009167453d489ba97f0000000000000040010000000000000009"),
    (lambda: encode_frame(GOLDEN_SENDER, 64, Ack(9), ("m3-17", 5, 2.5)),
     "0000003201019167453d489ba97f00000000000000400000000000000005400400000000000000056d332d3137010000000000000009"),
    (lambda: encode_frame(GOLDEN_SENDER, 2256, golden_envelope()),
     "000000d301009167453d489ba97f00000000000008d00200000000000000059167453d489ba97f000000010000000000"
     "0000039167453d489ba97f9167453d489ba97f0e1240288000000000000000000000000029004020faf69500a4704f37"
     "e4deda7cb09455d377600464b0923ad021a01bbb03f56924b6444c8c89b8586a783839b683498161119d427a8260201f"
     "37462a8f0302a80000003c7b22616374696f6e223a22706f73745f6974656d222c226974656d5f6964223a372c226b69"
     "6e64223a2274657874222c2273697a65223a323030307d"),
    (lambda: encode_frame(GOLDEN_SENDER, 2256, golden_envelope(), ("m3-18", 6, 2.75)),
     "000000ea01019167453d489ba97f00000000000008d00000000000000006400600000000000000056d332d3138020000"
     "0000000000059167453d489ba97f0000000100000000000000039167453d489ba97f9167453d489ba97f0e1240288000"
     "000000000000000000000029004020faf69500a4704f37e4deda7cb09455d377600464b0923ad021a01bbb03f56924b6"
     "444c8c89b8586a783839b683498161119d427a8260201f37462a8f0302a80000003c7b22616374696f6e223a22706f73"
     "745f6974656d222c226974656d5f6964223a372c226b696e64223a2274657874222c2273697a65223a323030307d"),
    (lambda: encode_frame(22, 512, golden_response()),
     "000000670100000000000000001600000000000002000300000000000000169167453d489ba97f081100000000000000"
     "0300000000000000080000002e7b226f776e6572223a32322c226974656d73223a5b2261222c22c3a9225d2c227365727665645f6279223a33337d"),
]


@pytest.mark.parametrize(
    "encode, golden", GOLDEN_FRAMES,
    ids=["ack", "ack-with-context", "update-envelope", "update-envelope-with-context",
         "bare-profile-response"],
)
def test_frames_are_byte_for_byte_the_recorded_ones(encode, golden):
    frame = encode()
    assert frame.hex() == golden
    # What the receiver builds from it encodes back to the same bytes.
    sender, size_bytes, message, ctx = decode_frame(body_of(frame))
    assert encode_frame(sender, size_bytes, message, ctx) == frame


def test_a_shared_section_gives_the_recorded_envelope_frame():
    envelope = golden_envelope()
    shared = encode_frame(GOLDEN_SENDER, 2256, envelope, None, soup_section(envelope.payload))
    assert shared.hex() == GOLDEN_FRAMES[2][1]


# --- fast paths against the general ones --------------------------------------
def decode_both(body):
    """What the fast path and the general decoder make of ``body``: a
    result, or ``WireError``."""
    outcomes = []
    for decode in (decode_frame, transport_codec._decode_general):
        try:
            outcomes.append(decode(body))
        except WireError:
            outcomes.append(WireError)
    return outcomes


def assert_same_decoding(body):
    fast, general = decode_both(body)
    assert fast == general
    if fast is not WireError:
        assert type(fast[2]) is type(general[2])


@given(body=st.binary(min_size=27, max_size=27))
def test_every_27_byte_body_decodes_alike_on_both_paths(body):
    assert_same_decoding(body)


@given(
    msg_id=U64, sender=U64, size_bytes=U64,
    position=st.integers(0, 26), value=st.integers(0, 255),
)
def test_a_corrupted_ack_decodes_alike_on_both_paths(msg_id, sender, size_bytes, position, value):
    body = bytearray(body_of(encode_frame(sender, size_bytes, Ack(msg_id))))
    assert len(body) == 27
    assert decode_frame(bytes(body)) == (sender, size_bytes, Ack(msg_id), None)
    body[position] = value
    assert_same_decoding(bytes(body))


def test_an_ack_frame_is_31_bytes_and_round_trips_on_the_fast_path():
    frame = encode_frame(1, 64, Ack(2**64 - 1))
    assert len(frame) == 31
    sender, size_bytes, message, ctx = decode_frame(memoryview(frame)[LENGTH.size:])
    assert (sender, size_bytes, message, ctx) == (1, 64, Ack(2**64 - 1), None)
    assert type(message) is Ack


ENVELOPES = st.builds(
    Envelope,
    msg_id=U64,
    origin=U64,
    attempt=st.integers(0, 2**32 - 1),
    payload=SOUP_OBJECTS,
    floor=U64,
)


@given(envelope=ENVELOPES, sender=U64, size_bytes=U64, ctx=CONTEXTS)
def test_a_shared_soup_section_frames_the_bytes_of_one_encoded_alone(
    envelope, sender, size_bytes, ctx
):
    alone = encode_frame(sender, size_bytes, envelope, ctx)
    soup = soup_section(envelope.payload)
    assert encode_frame(sender, size_bytes, envelope, ctx, soup) == alone
    # A second frame of the same fan-out: same section, other fields.
    again = envelope._replace(msg_id=envelope.msg_id ^ 1, attempt=0)
    assert encode_frame(sender, size_bytes, again, ctx, soup) == encode_frame(
        sender, size_bytes, again, ctx
    )


def test_soup_section_refuses_what_the_wire_does_not_carry():
    with pytest.raises(WireError):
        soup_section(sample_object(payload={1, 2}))
    with pytest.raises(WireError):
        soup_section(sample_object(timestamp=math.nan))


def test_type_codes_are_explicit_unique_and_documented():
    assert set(TYPE_CODES) == set(ObjectType)
    assert sorted(TYPE_CODES.values()) == list(range(1, len(ObjectType) + 1))
    protocol = (Path(__file__).parents[2] / "docs" / "PROTOCOL.md").read_text()
    documented = {
        name: int(code)
        for code, name in re.findall(r"^\| (\d+) \| `([A-Z_]+)` \|", protocol, re.M)
    }
    assert documented == {t.value: code for t, code in TYPE_CODES.items()}


# --- what the encoder refuses ----------------------------------------------
class NotAnAck(Ack):
    pass


class LikeAnAck(NamedTuple):
    msg_id: int


class LikeAnEnvelope(NamedTuple):
    msg_id: int
    origin: int
    attempt: int
    payload: Any
    floor: int = 0


@pytest.mark.parametrize(
    "message",
    [
        ("ping", 1),
        (9,),
        (1, 2, 0, sample_object(), 0),
        LikeAnAck(9),
        LikeAnEnvelope(1, 2, 0, sample_object(), 0),
        "text",
        7,
        None,
        NotAnAck(1),
        Envelope(msg_id=1, origin=2, attempt=0, payload="bare"),
        Envelope(
            msg_id=1, origin=2, attempt=0,
            payload=Envelope(msg_id=1, origin=2, attempt=0, payload=sample_object()),
        ),
        sample_object(timestamp=True),
        sample_object(timestamp=math.nan),
        sample_object(timestamp=2**63),
        sample_object(signature=-1),
        sample_object(signature=2 ** (8 * MAX_SIGNATURE_BYTES)),
        sample_object(signature=(11, b"digest")),
        sample_object(signature=b"short"),
        sample_object(payload={1, 2}),
        sample_object(payload={"x": math.inf}),
        sample_object(payload=sample_object()),
        sample_object(payload=b"x" * (MAX_FRAME_BYTES + 1)),
        sample_object(source=-1),
        sample_object(sequence=2**64),
        Envelope(msg_id=1, origin=2, attempt=2**32, payload=sample_object()),
    ],
    ids=[
        "tuple", "bare-ack-tuple", "bare-envelope-tuple", "namedtuple-like-ack",
        "namedtuple-like-envelope", "str", "int", "none", "subclass", "envelope-of-str",
        "nested-envelope", "bool-timestamp", "nan-timestamp", "huge-int-timestamp",
        "negative-signature", "oversized-signature", "tuple-signature",
        "short-digest", "set-payload", "infinite-json", "object-payload",
        "oversized-frame", "negative-id", "huge-sequence", "huge-attempt",
    ],
)
def test_encoder_refuses_what_the_wire_does_not_carry(message):
    with pytest.raises(WireError):
        encode_frame(1, 16, message)


@pytest.mark.parametrize(
    "ctx",
    [(1, 2, 3.0), ("m", 2, 3), ("m", -2, 3.0), ("m", 2, math.inf), ("x" * 70_000, 1, 1.0)],
    ids=["int-id", "int-time", "negative-lamport", "infinite-time", "long-id"],
)
def test_encoder_refuses_a_malformed_trace_context(ctx):
    with pytest.raises(WireError):
        encode_frame(1, 16, Ack(1), ctx)


@pytest.mark.parametrize("sender, size_bytes", [(-1, 1), (1, -1), (1, 1.5), (2**64, 1)])
def test_encoder_refuses_header_fields_outside_u64(sender, size_bytes):
    with pytest.raises(WireError):
        encode_frame(sender, size_bytes, Ack(1))


# --- hostile bytes at a receiving connection --------------------------------
class FakeConnection:
    """Stands in for the accepted socket: records whether it was closed."""

    closed = False

    def close(self) -> None:
        self.closed = True


def feed(receiver: _FrameReceiver, connection: FakeConnection, data: bytes) -> None:
    """Deliver ``data`` as the event loop would: copied into as many
    buffers as the receiver hands out, each followed by
    ``buffer_updated``, and nothing more once the connection is closed."""
    rest = memoryview(data)
    while rest and not connection.closed:
        buffer = receiver.get_buffer(-1)
        assert len(buffer) > 0
        n = min(len(buffer), len(rest))
        buffer[:n] = rest[:n]
        receiver.buffer_updated(n)  # the loop still holds ``buffer`` here
        rest = rest[n:]


def receive(cases, capacities=None):
    """Feed each case — a list of socket reads — to a fresh connection of
    node 1; per case: (messages handled, failure reasons, closed).  With
    ``capacities`` (a list), append the receive buffer's length after
    every read of every case to it."""

    async def scenario():
        net = LiveTransport(AsyncClock())
        inbox = []
        net.register(0, lambda sender, message: None)
        net.register(1, lambda sender, message: inbox.append(message))
        results = []
        for reads in cases:
            receiver = _FrameReceiver(net, 1)
            connection = FakeConnection()
            receiver.connection_made(connection)
            before = dict(net.failures_by_reason)
            inbox.clear()
            for data in reads:
                feed(receiver, connection, data)
                if capacities is not None:
                    capacities.append(len(receiver._buffer))
            reasons = {
                reason: count - before.get(reason, 0)
                for reason, count in net.failures_by_reason.items()
                if count != before.get(reason, 0)
            }
            results.append((list(inbox), reasons, connection.closed))
            receiver.connection_lost(None)
        await net.close()
        return results

    return asyncio.run(scenario())


def assert_rejected(results):
    for handled, reasons, closed in results:
        assert (handled, reasons, closed) == ([], {"bad-frame": 1}, True)


def test_a_frame_cut_at_every_offset_is_a_bad_frame():
    body = body_of(sample_frame())
    assert_rejected(receive([[framed(body[:cut])] for cut in range(len(body))]))


def test_trailing_bytes_are_a_bad_frame():
    assert_rejected(receive([[framed(body_of(sample_frame()) + b"\0")]]))


def _patched(offset: int, value: bytes) -> bytes:
    body = bytearray(body_of(encode_frame(11, 16, sample_object())))
    body[offset:offset + len(value)] = value
    return framed(bytes(body))


# Byte offsets in the body of a bare SOUP_OBJECT frame without a context.
_TAG_AT, _CODE_AT, _FORMS_AT, _SIG_AT = 18, 35, 36, 53


def with_json(raw: bytes) -> bytes:
    """A SOUP_OBJECT frame whose JSON payload is ``raw``, verbatim."""
    body = bytearray(body_of(encode_frame(11, 16, sample_object(payload=None))))
    body[_FORMS_AT] |= PAYLOAD_JSON
    return framed(bytes(body) + struct.pack(">I", len(raw)) + raw)


@pytest.mark.parametrize(
    "frame",
    [
        _patched(0, bytes([WIRE_VERSION + 1])),
        _patched(0, b"\0"),
        _patched(1, b"\x02"),
        _patched(_TAG_AT, b"\0"),
        _patched(_TAG_AT, b"\x04"),
        _patched(_CODE_AT, b"\0"),
        _patched(_CODE_AT, bytes([len(ObjectType) + 1])),
        _patched(_FORMS_AT, b"\x20"),
        _patched(_FORMS_AT, bytes([SIGNATURE_RSA | 0x04 | 0x10])),
        _patched(_FORMS_AT, bytes([SIGNATURE_RSA | 0x08 | 0x10])),
        _patched(_SIG_AT, struct.pack(">H", MAX_SIGNATURE_BYTES + 1)),
        _patched(_SIG_AT, struct.pack(">H", 500)),
        _patched(_SIG_AT + 2, b"\0"),
        _patched(_SIG_AT + 2 + 64, struct.pack(">I", 2**32 - 1)),
        _patched(_SIG_AT + 2 + 64 + 4, b"\xff"),
        _patched(_SIG_AT + 2 + 64 + 4, b" "),
        with_json(b"nul"),
        with_json(b"null"),
        with_json(b"NaN"),
        with_json(b"[1] x"),
        with_json(b"[[["),
        with_json(b"[" * 100_000 + b"]" * 100_000),
        framed(body_of(encode_frame(1, 2, Ack(3), ("m", 1, 1.0)))[:18] + struct.pack(">QdH", 1, math.nan, 1) + b"m" + bytes([ACK]) + bytes(8)),
        framed(body_of(encode_frame(1, 2, Ack(3), ("m", 1, 1.0)))[:34] + b"\xff\xff" + b"m" + bytes([ACK]) + bytes(8)),
        framed(body_of(encode_frame(1, 2, Ack(3), ("m", 1, 1.0)))[:36] + b"\xff" + bytes([ACK]) + bytes(8)),
    ],
    ids=[
        "next-version", "version-zero", "unknown-flag", "tag-zero", "unknown-tag",
        "code-zero", "unknown-code", "unknown-forms-bit", "two-signature-forms",
        "two-payload-forms", "oversized-signature", "signature-overruns",
        "signature-leading-zero", "payload-overruns", "payload-not-utf8",
        "payload-not-json", "json-invalid", "json-null", "json-nan",
        "json-trailing-garbage", "json-truncated", "json-too-deep", "context-nan-time",
        "context-id-overruns", "context-id-not-utf8",
    ],
)
def test_malformed_fields_are_a_bad_frame(frame):
    assert_rejected(receive([[frame]]))


def retired_by_id_frame() -> bytes:
    """A SOUP_OBJECT frame in the retired by-id signature form: forms bit
    0x04, then signer u64 + 32-byte SHA-256 digest."""
    obj = sample_object(signature=None, payload=None)
    body = bytearray(body_of(encode_frame(11, 16, obj)))
    body[_FORMS_AT] |= 0x04
    digest = hashlib.sha256(obj.signing_bytes()).digest()
    return framed(bytes(body) + struct.pack(">Q32s", obj.source, digest))


def test_the_retired_by_id_form_is_refused():
    with pytest.raises(WireError, match="unknown forms"):
        decode_frame(body_of(retired_by_id_frame()))
    assert_rejected(receive([[retired_by_id_frame()]]))


def test_a_nested_envelope_is_a_bad_frame():
    inner = body_of(encode_frame(11, 16, Envelope(msg_id=1, origin=2, attempt=0, payload=sample_object())))
    head = struct.pack(">BQQIQ", ENVELOPE, 9, 11, 0, 0)
    assert_rejected(receive([[framed(inner[:18] + head + inner[18:])]]))


def test_a_hostile_pickle_runs_nothing():
    ran = []

    class Exploit:
        def __reduce__(self):
            return (ran.append, ("code ran",))

    hostile = pickle.dumps((0, 16, Exploit()), protocol=pickle.HIGHEST_PROTOCOL)
    assert_rejected(receive([[framed(hostile)]]))
    assert ran == []


def test_frames_before_a_bad_one_are_delivered_and_none_after():
    good = encode_frame(0, 16, sample_object(payload="good"))
    after = encode_frame(0, 16, sample_object(payload="after"))
    [(handled, reasons, closed)] = receive([[good + framed(b"\x07junk") + after]])
    assert [m.payload for m in handled] == ["good"]
    assert (reasons, closed) == ({"bad-frame": 1}, True)


@given(junk=st.binary(max_size=200))
def test_random_bytes_never_raise(junk):
    [(handled, reasons, closed)] = receive([[framed(junk)]])
    # Either one well-formed message (vanishingly unlikely) or one bad frame.
    assert (len(handled), reasons, closed) in ((1, {}, False), (0, {"bad-frame": 1}, True))


@given(
    message=MESSAGES,
    ctx=CONTEXTS,
    position=st.integers(0, 10_000),
    value=st.integers(0, 255),
    split=st.integers(0, 10_000),
)
def test_a_corrupted_byte_yields_one_message_or_a_bad_frame(message, ctx, position, value, split):
    frame = bytearray(encode_frame(3, 16, message, ctx))
    position = LENGTH.size + position % (len(frame) - LENGTH.size)
    frame[position] = value
    split %= len(frame) + 1
    [(handled, reasons, closed)] = receive([[bytes(frame[:split]), bytes(frame[split:])]])
    if closed:
        assert (handled, reasons) == ([], {"bad-frame": 1})
    else:
        assert len(handled) == 1 and reasons == {}
        assert type(handled[0]) in (Ack, Envelope, SoupObject)


@pytest.mark.parametrize("size_bytes", [MAX_METERED_BYTES + 1, 2**60, 2**64 - 1])
def test_metering_more_than_the_cap_is_a_bad_frame(size_bytes):
    # The receiver would bin these bytes over one meter entry per second
    # of its downlink: billions of entries for a few hostile bytes.
    assert_rejected(receive([[encode_frame(0, size_bytes, Ack(1))]]))
    assert_rejected(receive([[encode_frame(0, size_bytes, sample_object())]]))


def test_metering_up_to_the_cap_is_delivered():
    [(handled, reasons, closed)] = receive([[encode_frame(0, MAX_METERED_BYTES, Ack(1))]])
    assert (handled, reasons, closed) == ([Ack(1)], {}, False)


def test_announcing_more_than_the_cap_is_a_bad_frame():
    assert_rejected(receive([[LENGTH.pack(MAX_FRAME_BYTES + 1)]]))


# --- chunking and the receive buffer -----------------------------------------
def large_object() -> SoupObject:
    """A frame that does not fit the receive buffer."""
    return sample_object(payload=bytes(range(256)) * 40)


def reads_of(stream: bytes, frames, mode: str, offsets) -> list:
    """``stream`` cut into socket reads: one byte each, each frame's
    length prefix cut inside, or at arbitrary points."""
    if mode == "one-byte":
        return [stream[i:i + 1] for i in range(len(stream))]
    points = {0, len(stream)}
    if mode == "inside-prefix":
        start = 0
        for frame, offset in zip(frames, offsets + [1] * len(frames)):
            points.add(start + 1 + offset % (LENGTH.size - 1))
            start += len(frame)
    else:
        points.update(offset % (len(stream) + 1) for offset in offsets)
    points = sorted(points)
    return [stream[a:b] for a, b in zip(points, points[1:])]


@given(
    messages=st.lists(MESSAGES | st.just(large_object()), min_size=1, max_size=6),
    ctx=CONTEXTS,
    mode=st.sampled_from(["one-byte", "inside-prefix", "anywhere"]),
    offsets=st.lists(st.integers(0, 2**20), max_size=12),
)
def test_any_chunking_delivers_the_same_messages_in_order(messages, ctx, mode, offsets):
    frames = [encode_frame(5, 16, message, ctx) for message in messages]
    reads = reads_of(b"".join(frames), frames, mode, offsets)
    capacities = []
    [(handled, reasons, closed)] = receive([reads], capacities)
    assert (reasons, closed) == ({}, False)
    assert len(handled) == len(messages)
    assert all(same(sent, got) for sent, got in zip(messages, handled))
    assert capacities[-1] == RECEIVE_BUFFER_BYTES


def test_a_hostile_length_costs_only_what_was_sent():
    # Announce a frame just under the cap, then send it a little at a time.
    head = LENGTH.pack(MAX_FRAME_BYTES - 1) + b"\x01"
    reads = [head] + [bytes(997)] * 300
    capacities = []
    [(handled, reasons, closed)] = receive([reads], capacities)
    assert (handled, reasons, closed) == ([], {}, False)
    received = 0
    for data, capacity in zip(reads, capacities):
        received += len(data)
        assert capacity <= max(RECEIVE_BUFFER_BYTES, 2 * received)
    assert capacities[-1] > RECEIVE_BUFFER_BYTES  # it did grow, with the bytes


def test_the_buffer_shrinks_after_a_large_frame():
    big = encode_frame(0, 16, sample_object(payload=bytes(64 * 1024)))
    small = [encode_frame(0, 16, sample_object(payload=f"after {i}")) for i in range(3)]
    stream = big + b"".join(small)
    reads = [stream[i:i + 1460] for i in range(0, len(stream), 1460)]
    capacities = []
    [(handled, reasons, closed)] = receive([reads], capacities)
    assert (reasons, closed) == ({}, False)
    assert [len(m.payload) for m in handled[:1]] == [64 * 1024]
    assert [m.payload for m in handled[1:]] == ["after 0", "after 1", "after 2"]
    assert RECEIVE_BUFFER_BYTES < max(capacities) <= len(big)
    assert capacities[-1] == RECEIVE_BUFFER_BYTES


def test_soup_object_tag_matches_the_table():
    body = body_of(encode_frame(11, 16, sample_object()))
    assert body[_TAG_AT] == SOUP_OBJECT and body[_CODE_AT] == TYPE_CODES[ObjectType.UPDATE]
