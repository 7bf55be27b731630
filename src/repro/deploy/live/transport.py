"""The live transport backend: TCP loopback sockets under asyncio.

Every node gets a real TCP server on ``127.0.0.1`` (ephemeral port);
every :meth:`LiveTransport.send` encodes the message into a
length-prefixed frame (:mod:`repro.deploy.live.transport_codec`: the
protocol's three message types, nothing else) and writes it over a real
socket connection to the receiver's server, where it is decoded and
dispatched to the node's registered handler.  Protocol state stays
in-process (the :class:`~repro.deploy.cluster.Cluster` that built the
nodes still resolves a peer id to its live object, and holds the one
shared overlay and bootstrap registry — exactly as in the simulated
deployment, where decisions are synchronous but every byte crosses the
metered network; ``docs/PROTOCOL.md`` lists every such reach-through), so
the middleware runs unchanged; what becomes real is the timing: kernel
buffers, connection setup, wall-clock retry timers.

The steady state costs no task and no await per frame: :meth:`LiveTransport.send`
writes to the pair's open connection in place, and the receiving
:class:`_FrameReceiver` parses and dispatches every complete frame of a
read from the socket callback.  The receiver is an
:class:`asyncio.BufferedProtocol`: the loop reads each connection into a
small buffer the receiver owns (:data:`RECEIVE_BUFFER_BYTES`, grown only
while a larger frame arrives), not into a fresh 256 KiB ``bytes`` per
read.  Only connection set-up and a socket that has not taken earlier
bytes go through a task (one per pair), and a chaos delay through one per
delayed frame.

Failure semantics deliberately mirror :class:`~repro.network.simnet.SimNetwork`
so the reliability layer sees the same reasons on both backends:
``sender-offline`` (immediate), ``unreachable`` (after a latency-derived
detection delay, when the connection errors, or when the message is not
one the wire carries), ``lost-in-flight`` (the receiver went offline while
the frame was in flight), plus the chaos reasons (``partitioned``,
``chaos-drop``) from the shared base class.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging
import time
from collections import deque
from typing import Any, Callable, Coroutine, Deque, Dict, List, Optional, Set, Tuple

from repro.deploy.live.transport_codec import (
    LENGTH,
    MAX_FRAME_BYTES,
    WireError,
    decode_frame,
    encode_frame,
    soup_section,
)
from repro.network.events import Timer
from repro.network.reliability import Envelope
from repro.network.transport import TimerHandle, Transport
from repro.obs import get_registry

logger = logging.getLogger("repro.deploy.live.transport")

_Pair = Tuple[int, int]  # (sender, receiver)

#: asyncio runs a handle due within this much of ``loop.time()``
#: (``BaseEventLoop._run_once``); a pass counts the same timers as due.
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution


class _PausedFrame:
    """Wrapper keeping a frame's trace context attached while it sits in
    the paused-inbox buffer (the shared buffer stores messages opaquely)."""

    __slots__ = ("message", "ctx")

    def __init__(self, message: Any, ctx: Optional[tuple]) -> None:
        self.message = message
        self.ctx = ctx


class _FanOut:
    """One :meth:`LiveTransport.fan_out` scope: the SOUP section of
    ``obj``, encoded by the first frame that carries it and reused by the
    others."""

    __slots__ = ("obj", "_net", "_soup")

    def __init__(self, net: "LiveTransport", obj: Any) -> None:
        self.obj = obj
        self._net = net
        self._soup: Optional[bytes] = None

    def __enter__(self) -> "_FanOut":
        self._net._fan_out = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._net._fan_out = None

    def soup(self) -> bytes:
        soup = self._soup
        if soup is None:
            soup = self._soup = soup_section(self.obj)
        return soup


#: Bytes a connection's receive buffer holds when no large frame is
#: arriving.  Every frame the protocol sends fits, with room for a few.
RECEIVE_BUFFER_BYTES = 4096

#: The most bytes a frame's message may say it meters.  The receiver bins
#: those bytes over the seconds its downlink takes for them, one meter
#: entry per second, so the claim must not be free to size that work:
#: 2**60 bytes would be billions of entries.  Every message the protocol
#: sends meters far less.
MAX_METERED_BYTES = 2**32 - 1


class _FrameReceiver(asyncio.BufferedProtocol):
    """The receiving end of one connection to a node's server.

    The event loop reads the socket straight into a buffer this receiver
    owns (:meth:`get_buffer`), so a read allocates nothing.  Whatever a
    read brings is parsed in place: every complete length-prefixed frame
    in the buffer is decoded and dispatched before :meth:`buffer_updated`
    returns, and an incomplete tail moves to the front to wait for the
    next read.

    The buffer is :data:`RECEIVE_BUFFER_BYTES` long.  Only when a frame
    fills all of it does it grow: to twice the bytes it holds, capped at
    the end the frame announces, so a peer that announces a large frame
    and sends little costs at most twice what it sent.  Once the large
    frame is consumed, the buffer goes back to the small size.

    A frame that announces more than :data:`MAX_FRAME_BYTES`, does not
    decode (:func:`~repro.deploy.live.transport_codec.decode_frame` builds
    nothing but ``Ack``, ``Envelope`` and ``SoupObject``) or says it meters
    more than :data:`MAX_METERED_BYTES` is counted as ``bad-frame`` and
    costs the peer its connection — the stream cannot be trusted past it.
    """

    __slots__ = ("_net", "_node_id", "_connection", "_buffer", "_end")

    def __init__(self, net: "LiveTransport", node_id: int) -> None:
        self._net = net
        self._node_id = node_id
        self._connection: Optional[asyncio.Transport] = None
        #: The receive buffer; never resized, replaced to grow or shrink.
        self._buffer = memoryview(bytearray(RECEIVE_BUFFER_BYTES))
        #: Bytes at the front of the buffer that arrived and wait for the
        #: rest of their frame.
        self._end = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._connection = transport
        self._net._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._net._inbound.discard(self._connection)

    def get_buffer(self, sizehint: int) -> memoryview:
        # Never empty: a full buffer grows in buffer_updated.
        return self._buffer[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        net, node_id, view = self._net, self._node_id, self._buffer
        start, end = 0, self._end + nbytes
        while end - start >= LENGTH.size:
            (length,) = LENGTH.unpack_from(view, start)
            if length > MAX_FRAME_BYTES:
                return self._bad_frame(f"announces {length} bytes")
            body = start + LENGTH.size
            if end - body < length:
                break
            start = body + length
            try:
                sender, size_bytes, message, ctx = decode_frame(view[body:start])
            except WireError as exc:
                return self._bad_frame(f"does not decode ({exc})")
            if size_bytes > MAX_METERED_BYTES:
                return self._bad_frame(f"meters {size_bytes} bytes")
            net._dispatch(sender, node_id, message, size_bytes, ctx)
        tail = end - start
        capacity = len(view)
        if tail == capacity:
            # One frame fills the buffer: grow with what has arrived.
            (length,) = LENGTH.unpack_from(view, 0)
            self._replace(min(2 * capacity, LENGTH.size + length), view)
        elif capacity > RECEIVE_BUFFER_BYTES and tail <= RECEIVE_BUFFER_BYTES:
            self._replace(RECEIVE_BUFFER_BYTES, view[start:end])
        elif start and tail:
            view[:tail] = view[start:end]
        self._end = tail

    def _replace(self, capacity: int, tail: memoryview) -> None:
        """Move ``tail`` to the front of a new buffer of ``capacity`` bytes."""
        buffer = memoryview(bytearray(capacity))
        buffer[:len(tail)] = tail
        self._buffer = buffer

    def _bad_frame(self, why: str) -> None:
        logger.warning("node %d: dropping a connection whose frame %s", self._node_id, why)
        self._net._count_failure("bad-frame")
        self._end = 0
        self._connection.close()


class AsyncClock:
    """Wallclock :class:`~repro.network.transport.Clock` over asyncio.

    ``now`` is seconds since the clock was created (so timestamps look
    like the simulator's small floats, not epoch seconds).  The clock keeps
    its own heap of ``(when, seq, Timer)`` entries — the discipline
    :class:`~repro.network.events.EventLoop` follows — and holds one
    asyncio ``call_at`` handle, armed for the earliest live deadline, so a
    timer costs a heap push and not an asyncio handle of its own.  When the
    handle fires, it runs, in ``(when, seq)`` order, every timer that was
    due and scheduled before it fired (a zero-delay timer scheduled by one
    of those callbacks waits for the next pass); an exception in a
    callback is logged and must not kill the event loop, nor the rest of
    the pass.  Then the handle re-arms.

    ``cancel`` on a returned :class:`~repro.network.events.Timer` drops its
    callback at once; its heap entry goes when its deadline comes, or
    earlier, when the heap has doubled since it was last rebuilt without
    cancelled entries, so the heap stays within about twice the live
    timers.  Must be constructed inside a running event loop.
    """

    #: The heap is never rebuilt below this many entries.
    MIN_REBUILD = 64

    def __init__(self) -> None:
        self.aioloop = asyncio.get_running_loop()
        self._t0 = self.aioloop.time()
        self._heap: List[Tuple[float, int, Timer]] = []
        self._sequence = itertools.count()
        #: Rebuild the heap once it holds more entries than this.
        self._rebuild_above = self.MIN_REBUILD
        #: The one asyncio handle and the loop time it is armed for.
        self._handle: Optional[asyncio.TimerHandle] = None
        self._armed_at = 0.0
        self._closed = False

    @property
    def now(self) -> float:
        return self.aioloop.time() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        timer = Timer(callback)
        if self._closed:
            timer.cancel()
            return timer
        when = self.aioloop.time() + max(0.0, delay)
        heap = self._heap
        heapq.heappush(heap, (when, next(self._sequence), timer))
        if len(heap) > self._rebuild_above:
            heap[:] = [entry for entry in heap if entry[2].callback is not None]
            heapq.heapify(heap)
            self._rebuild_above = max(self.MIN_REBUILD, 2 * len(heap))
        # While a pass runs, its fired handle stays in _handle with a time
        # no later than anything scheduled now: the pass re-arms at its end.
        if self._handle is None or when < self._armed_at:
            if self._handle is not None:
                self._handle.cancel()
            self._arm(when)
        return timer

    def _arm(self, when: float) -> None:
        self._handle = self.aioloop.call_at(when, self._run_due)
        self._armed_at = when

    def _run_due(self) -> None:
        """One pass: run what is due, then re-arm for the earliest live
        deadline."""
        heap = self._heap
        # Without the resolution, a deadline that float rounding puts a
        # hair past the time the handle fired at would re-arm a handle
        # asyncio runs at once, a spin until the loop's time moves on.
        now = self.aioloop.time() + _CLOCK_RESOLUTION
        fence = next(self._sequence)  # entries scheduled from here wait
        try:
            while heap:
                when, seq, timer = heap[0]
                callback = timer.callback
                if callback is not None and (when > now or seq > fence):
                    break
                heapq.heappop(heap)
                if callback is None:
                    continue
                timer.callback = None
                try:
                    callback()
                except Exception:  # noqa: BLE001 — timers must not kill the loop
                    logger.exception("scheduled callback failed")
        finally:
            self._handle = None
            if heap and not self._closed:
                self._arm(heap[0][0])

    def pending(self) -> int:
        """Timers armed and neither fired nor cancelled."""
        return sum(1 for _, _, timer in self._heap if timer.callback is not None)

    def close(self) -> None:
        """Cancel every outstanding timer (teardown: pending retries from
        killed nodes must not fire into a dismantled cluster); later
        schedules are inert."""
        self._closed = True
        for _, _, timer in self._heap:
            timer.cancel()
        self._heap.clear()
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class LiveTransport(Transport):
    """Message delivery over real TCP loopback sockets.

    When an observability plane is attached (``observer`` set to a
    :class:`repro.obs.flight.LiveObservability`), every send stamps a
    compact trace context ``(msg_id, lamport, t_send)`` into the wire
    envelope and every delivery folds it back into the receiver's
    Lamport clock — the disabled path costs a single ``is None`` check.
    """

    def __init__(self, clock: AsyncClock) -> None:
        super().__init__(clock)
        self._aio = clock.aioloop
        self._clock = clock
        self.observer = None  # Optional[repro.obs.flight.LiveObservability]
        self._servers: Dict[int, asyncio.base_events.Server] = {}
        self._ports: Dict[int, int] = {}
        #: Accepted connections, so teardown can close them.
        self._inbound: Set[asyncio.Transport] = set()
        #: One cached outbound connection per (sender, receiver) pair.
        self._writers: Dict[_Pair, asyncio.StreamWriter] = {}
        #: Frames of a pair that could not be written in place, in send
        #: order, each with the message to report if it fails.  A pair has
        #: an entry exactly while its pump task runs; while it has one,
        #: every send of the pair queues behind it.
        self._backlog: Dict[_Pair, Deque[Tuple[bytes, Any]]] = {}
        self._tasks: Set[asyncio.Task] = set()
        #: The open :meth:`fan_out` scope, if any.
        self._fan_out: Optional[_FanOut] = None
        self._closed = False

    # --- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        """Open one TCP server per registered node (idempotent — call
        again after registering more nodes)."""
        for node_id in self.node_ids():
            if node_id not in self._servers:
                await self._start_server(node_id)

    async def _start_server(self, node_id: int) -> None:
        server = await self._aio.create_server(
            lambda: _FrameReceiver(self, node_id), host="127.0.0.1", port=0
        )
        self._servers[node_id] = server
        self._ports[node_id] = server.sockets[0].getsockname()[1]

    def port_of(self, node_id: int) -> Optional[int]:
        return self._ports.get(node_id)

    async def close(self) -> None:
        """Tear the runtime down: timers, in-flight tasks, sockets."""
        self._closed = True
        self._clock.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for connection in list(self._inbound):
            connection.close()
        for server in self._servers.values():
            server.close()
        await asyncio.gather(
            *(server.wait_closed() for server in self._servers.values()),
            return_exceptions=True,
        )
        self._servers.clear()
        self._ports.clear()

    async def drain(self, settle_s: float = 0.05) -> None:
        """Wait for every queued outbound frame to hit the wire, then a
        short settle so inbound dispatch runs."""
        # A task that ends may leave another behind (a delayed frame that
        # then has to open its connection), hence the loop.
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Frames written in place leave no task behind, but the kernel may
        # not have taken all their bytes yet.
        for writer in list(self._writers.values()):
            if writer.transport.get_write_buffer_size():
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # the connection died; its next send reports it
        await asyncio.sleep(settle_s)

    # --- inbound ----------------------------------------------------------
    def _dispatch(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        ctx: Optional[tuple] = None,
    ) -> None:
        if self._closed:
            return
        if not self._online.get(receiver, False):
            # Went offline while the frame was in flight: bytes are lost.
            self._count_failure("lost-in-flight")
            return
        if self._chaos is not None and receiver in self._chaos.paused:
            self._buffer_inbound(
                sender, receiver, _PausedFrame(message, ctx), size_bytes, 0.0
            )
            return
        link = self._links.get(receiver)
        if link is None:
            self._count_failure("lost-in-flight")
            return
        self.meters[receiver].record_received(
            self.loop.now, size_bytes, size_bytes / link.downstream_bytes_per_s
        )
        self.messages_delivered += 1
        get_registry().counter("net.delivered").inc()
        handler = self._handlers.get(receiver)
        observer = self.observer
        if observer is None:
            if handler is not None:
                try:
                    handler(sender, message)
                except Exception:  # noqa: BLE001 — one bad frame must not kill the server
                    logger.exception("handler for node %d failed", receiver)
            return
        if ctx is not None:
            observer.on_receive(receiver, sender, ctx, type(message).__name__)
        if handler is not None:
            # Scope the handler to the receiving node so every protocol
            # event it emits (repair_round, failure_declared, acks...)
            # lands in that node's flight recorder.
            with observer.scope(receiver):
                try:
                    handler(sender, message)
                except Exception:  # noqa: BLE001 — one bad frame must not kill the server
                    logger.exception("handler for node %d failed", receiver)

    def _flush_inbound(
        self,
        sender: int,
        receiver: int,
        message: Any,
        size_bytes: int,
        receive_duration: float,
    ) -> None:
        ctx = None
        if isinstance(message, _PausedFrame):
            message, ctx = message.message, message.ctx
        self._dispatch(sender, receiver, message, size_bytes, ctx)

    # --- outbound ---------------------------------------------------------
    def _fail(
        self, delay: float, sender: int, receiver: int, message: Any, reason: str
    ) -> None:
        """Count a failed send and tell the sender's failure handler —
        always from a timer, never from inside :meth:`send`."""
        self._count_failure(reason)
        failure_handler = self._failure_handlers.get(sender)
        if failure_handler is not None:
            self.loop.schedule(
                delay, lambda: failure_handler(receiver, message, reason)
            )

    def send(self, sender: int, receiver: int, message: Any, size_bytes: int) -> None:
        """Send a message; the frame crosses a real loopback socket.

        The frame is encoded here and, in the steady state, written to the
        pair's open connection before this returns.  It goes through the
        pair's pump task instead when a connection has to be opened first,
        the socket has not yet taken earlier bytes, or frames of the pair
        are already waiting for either — so a pair's frames reach the wire
        in send order whichever way they go.  A chaos delay holds the frame
        back in a task of its own first.  A message the wire does not
        carry (anything but ``Ack``, ``Envelope`` around one ``SoupObject``,
        and ``SoupObject``) is logged and reported ``unreachable``.
        """
        links, online = self._links, self._online
        link = links.get(sender)
        if link is None:
            raise KeyError(f"unknown sender {sender}")
        if size_bytes < 0:
            raise ValueError("message size cannot be negative")
        if self._closed:
            return
        if not online.get(sender, False):
            self._fail(0.0, sender, receiver, message, "sender-offline")
            return
        extra_delay = 0.0
        if self._chaos is not None:
            blocked = self._chaos_blocks(sender, receiver)
            if blocked == "paused":
                self._buffer_outbound(sender, receiver, message, size_bytes)
                return
            if blocked == "chaos-drop":
                self._count_failure("chaos-drop")
                return
            if blocked is not None:  # "partitioned"
                delay = link.latency_s * 2 + 0.5
                self._fail(delay, sender, receiver, message, blocked)
                return
            extra_delay = self._chaos_extra_delay()
        send_duration = size_bytes / link.upstream_bytes_per_s
        self.meters[sender].record_sent(self.loop.now, size_bytes, send_duration)
        # Trace context is minted after the chaos checks (a resumed,
        # re-sent frame records once per actual wire attempt) but before
        # the receiver-online check: a send into a dead node is exactly
        # the unmatched live_msg_send a post-mortem wants to see.
        ctx = None
        if self.observer is not None:
            ctx = self.observer.on_send(
                sender, receiver, type(message).__name__, size_bytes
            )
        if receiver not in links or not online.get(receiver, False):
            delay = link.latency_s * 2 + 0.5
            self._fail(delay, sender, receiver, message, "unreachable")
            return
        scope = self._fan_out
        try:
            if (
                scope is not None
                and type(message) is Envelope
                and message.payload is scope.obj
            ):
                frame = encode_frame(sender, size_bytes, message, ctx, scope.soup())
            else:
                frame = encode_frame(sender, size_bytes, message, ctx)
        except WireError as exc:
            logger.warning(
                "node %d: not sending %s to %d: %s",
                sender, type(message).__name__, receiver, exc,
            )
            self._fail(0.0, sender, receiver, message, "unreachable")
            return
        if extra_delay:
            self._spawn(
                self._put_on_wire_later(extra_delay, sender, receiver, frame, message)
            )
        else:
            self._put_on_wire(sender, receiver, frame, message)

    def fan_out(self, obj: Any) -> _FanOut:
        """A scope in which every ``Envelope`` around ``obj`` is framed
        with one encoding of ``obj``, made by the first of them.  Each
        frame still gets its own header, envelope fields and trace
        context, and carries the bytes a frame encoded on its own would
        (``docs/PROTOCOL.md`` §12)."""
        return _FanOut(self, obj)

    def uplink_backlog_s(self, node_id: int) -> float:
        """Always 0: nothing here books the uplink.  On a real socket the
        kernel serialises a node's sends, and a frame it has queued is
        covered by the attempt timeout, which is seconds on a loopback
        that moves a frame in microseconds."""
        return 0.0

    def _spawn(self, coro: Coroutine[Any, Any, None]) -> None:
        task = self._aio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _put_on_wire_later(
        self, delay: float, sender: int, receiver: int, frame: bytes, message: Any
    ) -> None:
        """Chaos delay: hold one frame back, then send it as if it had been
        sent now.  The delay belongs to the frame, not to the pair — a frame
        sent after the delay was lifted does not wait behind this one."""
        await asyncio.sleep(delay)
        self._put_on_wire(sender, receiver, frame, message)

    def _put_on_wire(
        self, sender: int, receiver: int, frame: bytes, message: Any
    ) -> None:
        """Write the frame to the pair's connection now if nothing stands
        in the way, else queue it behind the pair's pump (starting one)."""
        key = (sender, receiver)
        backlog = self._backlog.get(key)
        if backlog is None:
            writers = self._writers
            writer = writers.get(key)
            if writer is not None:
                wire = writer.transport  # the socket's own, not the wrappers
                if not wire.is_closing() and not wire.get_write_buffer_size():
                    wire.write(frame)
                    if wire.is_closing():  # the socket refused the bytes
                        del writers[key]
                        self._fail(0.0, sender, receiver, message, "unreachable")
                    return
            backlog = self._backlog[key] = deque()
            self._spawn(self._pump(key))
        backlog.append((frame, message))

    async def _pump(self, key: _Pair) -> None:
        """Carry one pair's backlog to the wire in order — opening the
        connection if there is none, and letting the socket take every
        byte before the next frame — then retire, handing the pair back to
        the in-place path."""
        sender, receiver = key
        backlog = self._backlog[key]
        try:
            while backlog:
                frame, message = backlog.popleft()
                try:
                    writer = self._writers.get(key)
                    if writer is None or writer.is_closing():
                        port = self._ports.get(receiver)
                        if port is None:
                            raise ConnectionError(f"no server for node {receiver}")
                        _, writer = await asyncio.open_connection("127.0.0.1", port)
                        # Any unsent byte counts as backed up: drain() then
                        # waits for an empty buffer, not for a low one.
                        writer.transport.set_write_buffer_limits(high=0)
                        self._writers[key] = writer
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._writers.pop(key, None)
                    if self._closed:
                        return
                    self._fail(0.0, sender, receiver, message, "unreachable")
        finally:
            # No await separates the emptiness test from this: a frame
            # sent later finds no backlog and starts a new pump.
            del self._backlog[key]
