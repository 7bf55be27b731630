"""The live TCP loopback backend: real sockets, same Transport semantics.

LiveTransport must present exactly the contract middleware already relies
on from SimNetwork — register/send/handlers/failure reasons/chaos — while
moving every frame through actual asyncio stream connections on
127.0.0.1.  These tests run small clusters inside ``asyncio.run`` and
assert on what arrived, what failed, and with which accounting.
"""

import asyncio
import socket
import struct
from collections import deque

import pytest

from repro.core.objects import ObjectType, SoupObject
from repro.deploy.live import AsyncClock, LiveTransport
from repro.deploy.live.transport import MAX_FRAME_BYTES
from repro.deploy.live.transport_codec import LENGTH, WIRE_VERSION, encode_frame
from repro.network.reliability import ReliableEndpoint


def run(coro):
    return asyncio.run(coro)


def note(payload):
    """A small protocol message standing in for whatever a test sends;
    equal to any other ``note`` of the same payload."""
    return SoupObject(
        source=0, dest=1, object_type=ObjectType.MESSAGE, payload=payload, sequence=0
    )


def payloads(inbox):
    return [message.payload for _, message in inbox]


async def make_net(n_nodes=3):
    clock = AsyncClock()
    net = LiveTransport(clock)
    received = {i: [] for i in range(n_nodes)}
    failures = {i: [] for i in range(n_nodes)}

    for node_id in range(n_nodes):
        def handler(sender, message, _inbox=received[node_id]):
            _inbox.append((sender, message))

        def on_failure(receiver, message, reason, _log=failures[node_id]):
            _log.append((receiver, message, reason))

        net.register(node_id, handler, on_failure=on_failure)
    await net.start()
    return clock, net, received, failures


def test_clock_runs_inside_event_loop_and_schedules():
    async def scenario():
        clock = AsyncClock()
        fired = []
        clock.schedule(0.01, lambda: fired.append(clock.now))
        t0 = clock.now
        await asyncio.sleep(0.05)
        clock.close()
        return t0, fired

    t0, fired = run(scenario())
    assert t0 >= 0.0
    assert len(fired) == 1 and fired[0] >= 0.01


def test_cancelled_timer_never_fires_and_leaves_the_clock():
    async def scenario():
        clock = AsyncClock()
        fired = []
        keep = clock.schedule(0.01, lambda: fired.append("keep"))
        drop = clock.schedule(0.01, lambda: fired.append("drop"))
        assert clock.pending() == 2
        drop.cancel()
        assert clock.pending() == 1
        await asyncio.sleep(0.05)
        keep.cancel()  # after firing: harmless
        pending = clock.pending()
        clock.close()
        clock.schedule(0.0, lambda: fired.append("late")).cancel()
        await asyncio.sleep(0.01)
        return fired, pending

    fired, pending = run(scenario())
    assert fired == ["keep"]
    assert pending == 0


class FrozenTime:
    """Holds an event loop's clock still, so timers can share a deadline
    and a pass can be stepped: ``advance`` moves it, ``turns`` lets the
    loop run its ready callbacks."""

    def __init__(self, loop):
        self.value = loop.time()
        loop.time = lambda: self.value

    def advance(self, seconds):
        self.value += seconds

    @staticmethod
    async def turns(n=3):
        for _ in range(n):
            await asyncio.sleep(0)


def test_equal_deadlines_fire_first_in_first_out():
    async def scenario():
        time = FrozenTime(asyncio.get_running_loop())
        clock = AsyncClock()
        fired = []
        for i in range(5):
            clock.schedule(0.01, lambda i=i: fired.append(i))
        clock.schedule(0.005, lambda: fired.append("earlier"))
        clock.schedule(0.02, lambda: fired.append("later"))
        time.advance(0.01)
        await time.turns()
        first_pass = list(fired)
        time.advance(0.01)
        await time.turns()
        clock.close()
        return first_pass, fired

    first_pass, fired = run(scenario())
    assert first_pass == ["earlier", 0, 1, 2, 3, 4]
    assert fired == ["earlier", 0, 1, 2, 3, 4, "later"]


def test_a_deadline_rounded_past_the_firing_time_still_runs():
    """At loop time 100000, (t + 0.01) + 0.01 falls one ulp short of
    t + 0.02: asyncio runs the handle (it is within the clock's
    resolution), so the pass must run the timer too."""

    async def scenario():
        time = FrozenTime(asyncio.get_running_loop())
        time.value = 100_000.0
        clock = AsyncClock()
        fired = []
        clock.schedule(0.02, lambda: fired.append("due"))
        time.advance(0.01)
        time.advance(0.01)
        assert time.value < 100_000.0 + 0.02
        await time.turns()
        clock.close()
        return fired

    assert run(scenario()) == ["due"]


def test_zero_delay_timer_scheduled_in_a_callback_runs_on_a_later_pass():
    async def scenario():
        loop = asyncio.get_running_loop()
        time = FrozenTime(loop)
        clock = AsyncClock()
        fired = []

        def first():
            fired.append("first")
            # Due at once (the loop's time does not move), yet not this pass.
            clock.schedule(0.0, lambda: fired.append("zero-delay"))
            loop.call_soon(lambda: fired.append("after the pass"))

        clock.schedule(0.0, first)
        clock.schedule(0.0, lambda: fired.append("second"))
        await time.turns()
        pending = clock.pending()
        clock.close()
        return fired, pending

    fired, pending = run(scenario())
    assert fired == ["first", "second", "after the pass", "zero-delay"]
    assert pending == 0


def test_raising_callback_is_logged_and_the_rest_of_its_pass_runs(caplog):
    async def scenario():
        time = FrozenTime(asyncio.get_running_loop())
        clock = AsyncClock()
        fired = []

        def boom():
            fired.append("boom")
            raise RuntimeError("retry handler bug")

        clock.schedule(0.01, lambda: fired.append("before"))
        clock.schedule(0.01, boom)
        clock.schedule(0.01, lambda: fired.append("after"))
        clock.schedule(0.05, lambda: fired.append("next pass"))
        time.advance(0.01)
        await time.turns()
        first_pass = list(fired)
        time.advance(0.05)
        await time.turns()
        clock.close()
        return first_pass, fired

    with caplog.at_level("ERROR", logger="repro.deploy.live.transport"):
        first_pass, fired = run(scenario())
    assert first_pass == ["before", "boom", "after"]
    assert fired[-1] == "next pass"  # the handle re-armed after the error
    failures = [r for r in caplog.records if r.getMessage() == "scheduled callback failed"]
    assert len(failures) == 1 and failures[0].exc_info[0] is RuntimeError


def test_close_cancels_everything_and_later_schedules_are_inert():
    async def scenario():
        time = FrozenTime(asyncio.get_running_loop())
        clock = AsyncClock()
        fired = []
        armed = [clock.schedule(delay, lambda: fired.append("armed")) for delay in (0, 0.01, 5)]
        assert clock.pending() == 3
        clock.close()
        closed_pending = clock.pending()
        late = clock.schedule(0.0, lambda: fired.append("late"))
        late_pending = clock.pending()
        late.cancel()  # harmless
        time.advance(10)
        await time.turns()
        return fired, closed_pending, late_pending, armed

    fired, closed_pending, late_pending, armed = run(scenario())
    assert fired == []
    assert closed_pending == 0 and late_pending == 0
    assert all(timer.callback is None for timer in armed)


def test_cancelled_entries_keep_the_heap_within_twice_the_live_timers():
    """100,000 schedule-and-cancel cycles, at most 4 timers live at once:
    the clock's heap never holds more than ``2 * live + 64`` entries.
    Nothing waits for a deadline, so the bound needs no clock."""

    async def scenario():
        clock = AsyncClock()
        live = deque()
        worst = 0
        for i in range(100_000):
            if len(live) == 4:
                live.popleft().cancel()
            live.append(clock.schedule(60.0 + (i % 7), lambda: None))
            worst = max(worst, len(clock._heap) - 2 * len(live))
        pending = clock.pending()
        clock.close()
        return worst, pending

    worst, pending = run(scenario())
    assert pending == 4
    assert worst <= 64


def test_frames_round_trip_over_real_sockets():
    async def scenario():
        _, net, received, failures = await make_net()
        ports = {i: net.port_of(i) for i in range(3)}
        net.send(0, 1, note(["ping", 1]), size_bytes=128)
        net.send(1, 2, note(["ping", 2]), size_bytes=128)
        net.send(2, 0, note({"k": "v"}), size_bytes=128)
        await net.drain(0.2)
        await net.close()
        return ports, received, failures, net.messages_delivered

    ports, received, failures, delivered = run(scenario())
    # Every node got a real ephemeral TCP port.
    assert all(isinstance(p, int) and p > 0 for p in ports.values())
    assert len(set(ports.values())) == 3
    assert received[1] == [(0, note(["ping", 1]))]
    assert received[2] == [(1, note(["ping", 2]))]
    assert received[0] == [(2, note({"k": "v"}))]
    assert delivered == 3
    assert all(log == [] for log in failures.values())


def test_offline_receiver_is_unreachable_with_failure_callback():
    async def scenario():
        _, net, received, failures = await make_net()
        net.set_online(1, False)
        net.send(0, 1, note("lost"), size_bytes=64)
        await net.drain(0.2)
        # Failure is surfaced after the simulated detection timeout.
        await asyncio.sleep(1.2)
        await net.close()
        return received, failures, dict(net.failures_by_reason)

    received, failures, reasons = run(scenario())
    assert received[1] == []
    assert failures[0] and failures[0][0] == (1, note("lost"), "unreachable")
    assert reasons.get("unreachable") == 1


def test_offline_sender_fails_immediately():
    async def scenario():
        _, net, _, failures = await make_net()
        net.set_online(0, False)
        net.send(0, 1, note("dropped"), size_bytes=64)
        await net.drain(0.2)
        await net.close()
        return failures, dict(net.failures_by_reason)

    failures, reasons = run(scenario())
    assert failures[0] == [(1, note("dropped"), "sender-offline")]
    assert reasons.get("sender-offline") == 1


def test_chaos_partition_and_pause_on_live_sockets():
    async def scenario():
        _, net, received, failures = await make_net()
        net.set_partition({0: 0, 1: 0, 2: 1})
        net.send(0, 1, note("intra"), size_bytes=64)
        net.send(0, 2, note("cross"), size_bytes=64)
        await net.drain(0.2)
        await asyncio.sleep(1.2)  # let the partitioned failure fire

        net.heal_partition()
        net.pause(1)
        net.send(0, 1, note("while-paused"), size_bytes=64)
        await net.drain(0.3)
        buffered_view = list(received[1])
        net.resume(1)
        await net.drain(0.3)
        await net.close()
        return received, failures, buffered_view, dict(net.failures_by_reason)

    received, failures, buffered_view, reasons = run(scenario())
    assert "cross" not in payloads(received[2])
    assert (2, note("cross"), "partitioned") in failures[0]
    assert reasons.get("partitioned") == 1
    # Paused: the frame crossed the wire but was buffered, then flushed.
    assert payloads(buffered_view) == ["intra"]
    assert payloads(received[1]) == ["intra", "while-paused"]


def test_chaos_drop_is_seeded_on_live_backend():
    async def scenario(seed):
        _, net, received, _ = await make_net(2)
        net.set_drop(0.5, seed=seed)
        for i in range(30):
            net.send(0, 1, note(i), size_bytes=32)
        await net.drain(0.3)
        await net.close()
        return payloads(received[1])

    first = run(scenario(13))
    second = run(scenario(13))
    assert first == second
    assert 0 < len(first) < 30


def test_close_is_idempotent_and_stops_serving():
    async def scenario():
        _, net, received, _ = await make_net(2)
        net.send(0, 1, note("before"), size_bytes=32)
        await net.drain(0.2)
        await net.close()
        await net.close()  # second close must not raise
        return received

    received = run(scenario())
    assert payloads(received[1]) == ["before"]


def test_start_is_idempotent():
    async def scenario():
        clock = AsyncClock()
        net = LiveTransport(clock)
        net.register(0, lambda s, m: None)
        await net.start()
        port = net.port_of(0)
        await net.start()
        same = net.port_of(0)
        await net.close()
        return port, same

    port, same = run(scenario())
    assert port == same


def test_send_requires_registered_sender():
    async def scenario():
        _, net, _, _ = await make_net(2)
        with pytest.raises(KeyError):
            net.send(9, 0, note("nope"), size_bytes=8)
        await net.close()

    run(scenario())


@pytest.mark.parametrize(
    "message",
    [("ping", 1), "text", 7, note(note("nested"))],
    ids=["tuple", "str", "int", "object-in-object"],
)
def test_message_outside_the_protocol_is_refused_at_send(message):
    async def scenario():
        _, net, received, failures = await make_net(2)
        net.send(0, 1, message, size_bytes=32)
        during_send = list(failures[0])
        await net.drain(0.05)
        await asyncio.sleep(0.02)  # the failure is reported from a timer
        net.send(0, 1, note("after"), size_bytes=32)
        await net.drain(0.05)
        await net.close()
        return received, failures, during_send, dict(net.failures_by_reason)

    received, failures, during_send, reasons = run(scenario())
    assert during_send == []
    assert failures[0] == [(1, message, "unreachable")]
    assert reasons == {"unreachable": 1}
    assert payloads(received[1]) == ["after"]


def test_pair_order_holds_across_connection_setup_and_in_place_writes():
    """The first frame of a pair has to open the connection (task path);
    the ones sent behind it in the same turn queue; once the pump has
    retired, sends are written in place.  Arrival order is send order."""

    async def scenario():
        _, net, received, failures = await make_net(2)
        for i in range(5):
            net.send(0, 1, note(i), size_bytes=32)
        tasks_with_backlog = len(net._tasks)
        await net.drain(0.05)
        for i in range(5, 10):
            net.send(0, 1, note(i), size_bytes=32)
        tasks_in_place = len(net._tasks)
        await net.drain(0.05)
        await net.close()
        return received, failures, tasks_with_backlog, tasks_in_place

    received, failures, tasks_with_backlog, tasks_in_place = run(scenario())
    assert payloads(received[1]) == list(range(10))
    assert tasks_with_backlog == 1  # one pump for the pair, not one per frame
    assert tasks_in_place == 0
    assert failures[0] == []


def test_chaos_delay_holds_back_the_frame_not_the_pair():
    """Same-delay frames keep their order; a frame sent once the delay is
    lifted does not queue behind them (as on the simulated network, where
    the delay is added to each delivery's own time)."""

    async def scenario():
        _, net, received, _ = await make_net(2)
        net.set_extra_delay(0.1)
        net.send(0, 1, note("slow-1"), size_bytes=32)  # will also open the connection
        net.send(0, 1, note("slow-2"), size_bytes=32)
        net.set_extra_delay(0.0)
        net.send(0, 1, note("prompt"), size_bytes=32)
        await asyncio.sleep(0.05)
        early = payloads(received[1])
        await net.drain(0.05)  # waits out the delay and the frames behind it
        await net.close()
        return early, payloads(received[1])

    early, final = run(scenario())
    assert early == ["prompt"]
    assert final == ["prompt", "slow-1", "slow-2"]


def test_in_place_write_error_is_reported_on_a_later_loop_turn():
    async def scenario():
        _, net, received, failures = await make_net(2)
        net.send(0, 1, note("opens"), size_bytes=32)
        await net.drain(0.05)
        # Break the established connection under the transport's feet.
        writer = net._writers[(0, 1)]
        writer.transport.get_extra_info("socket").shutdown(socket.SHUT_WR)
        net.send(0, 1, note("refused"), size_bytes=32)
        during_send = list(failures[0])
        await asyncio.sleep(0.05)
        # The next send finds no usable connection and opens a new one.
        net.send(0, 1, note("reopened"), size_bytes=32)
        await net.drain(0.05)
        await net.close()
        return received, failures, during_send, dict(net.failures_by_reason)

    received, failures, during_send, reasons = run(scenario())
    assert during_send == []
    assert failures[0] == [(1, note("refused"), "unreachable")]
    assert reasons == {"unreachable": 1}
    assert payloads(received[1]) == ["opens", "reopened"]


def test_drain_waits_for_bytes_the_socket_has_not_taken():
    async def scenario():
        _, net, received, _ = await make_net(2)
        net.send(0, 1, note("opens"), size_bytes=32)
        await net.drain(0.05)
        blob = b"x" * (4 * 1024 * 1024)  # more than a loopback socket buffers
        net.send(0, 1, note(blob), size_bytes=len(blob))  # in place, partly buffered
        writer = net._writers[(0, 1)]
        buffered = writer.transport.get_write_buffer_size()
        net.send(0, 1, note("behind"), size_bytes=32)  # must queue, not overtake
        await net.drain(0.05)
        left = writer.transport.get_write_buffer_size()
        await net.close()
        return received, buffered, left

    received, buffered, left = run(scenario())
    assert buffered > 0 and left == 0
    assert [m if isinstance(m, str) else len(m) for m in payloads(received[1])] == [
        "opens", 4 * 1024 * 1024, "behind",
    ]


def _frame(message, sender=0, size_bytes=16) -> bytes:
    return encode_frame(sender, size_bytes, message)


def test_receiver_reassembles_split_frames_and_dispatches_batched_ones():
    async def scenario():
        _, net, received, _ = await make_net(2)
        _, writer = await asyncio.open_connection("127.0.0.1", net.port_of(1))
        stream = b"".join(_frame(note(i)) for i in range(4))
        # Two and a half frames, cut inside a header's worth of the third...
        cut = len(_frame(note(0))) * 2 + 2
        writer.write(stream[:cut])
        await writer.drain()
        await asyncio.sleep(0.05)
        first = payloads(received[1])
        # ...then the rest, one byte short, then the last byte.
        writer.write(stream[cut:-1])
        await writer.drain()
        await asyncio.sleep(0.05)
        second = payloads(received[1])
        writer.write(stream[-1:])
        await writer.drain()
        await asyncio.sleep(0.05)
        writer.close()
        await net.close()
        return first, second, payloads(received[1])

    first, second, final = run(scenario())
    assert first == [0, 1]
    assert second == [0, 1, 2]
    assert final == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "bad",
    [
        struct.pack(">I", MAX_FRAME_BYTES + 1),  # announces too much
        struct.pack(">I", 5) + b"junk!",  # not a frame at all
        # A well-formed header, then a message tag outside the table.
        LENGTH.pack(20) + struct.pack(">BBQQB", WIRE_VERSION, 0, 0, 16, 99) + b"?",
        # A header that ends before its byte count.
        LENGTH.pack(10) + struct.pack(">BBQ", WIRE_VERSION, 0, 0),
    ],
    ids=["oversized", "unpicklable", "wrong-shape", "wrong-size"],
)
def test_bad_frame_is_counted_and_costs_the_connection(bad):
    async def scenario():
        _, net, received, _ = await make_net(2)
        reader, writer = await asyncio.open_connection("127.0.0.1", net.port_of(1))
        writer.write(_frame(note("good")) + bad + _frame(note("after")))
        await writer.drain()
        closed_by_server = await asyncio.wait_for(reader.read(), timeout=2.0)
        writer.close()
        # The server itself is unharmed: a new connection is served.
        net.send(0, 1, note("fresh"), size_bytes=16)
        await net.drain(0.05)
        await net.close()
        return received, closed_by_server, dict(net.failures_by_reason)

    received, closed_by_server, reasons = run(scenario())
    assert closed_by_server == b""  # EOF: the receiver hung up
    assert reasons == {"bad-frame": 1}
    assert payloads(received[1]) == ["good", "fresh"]


def test_acked_reliable_sends_leave_no_timer_in_the_clock():
    async def scenario(k):
        clock = AsyncClock()
        net = LiveTransport(clock)
        inbox = []
        endpoints = {
            0: ReliableEndpoint(0, net, inner_handler=lambda s, m: None),
            1: ReliableEndpoint(1, net, inner_handler=lambda s, m: inbox.append(m)),
        }
        for node_id, endpoint in endpoints.items():
            net.register(
                node_id,
                endpoint.handle_message,
                on_failure=endpoint.handle_network_failure,
            )
        await net.start()
        for i in range(k):
            endpoints[0].send_reliable(1, note(i), 64)
        armed = clock.pending()
        for _ in range(100):
            await net.drain(0.01)
            if not endpoints[0].pending_count():
                break
        left = clock.pending()
        stats = endpoints[0].stats
        await net.close()
        return inbox, armed, left, stats

    inbox, armed, left, stats = run(scenario(300))
    assert [message.payload for message in inbox] == list(range(300))
    assert armed == 300  # one ack timeout each...
    assert stats.acked == 300 and stats.timeouts == 0
    assert left == 0  # ...and none outlives its ack
