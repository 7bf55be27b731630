"""A socket read on the live backend allocates no read buffer.

The receiver reads every connection into a buffer it owns
(``_FrameReceiver`` is an :class:`asyncio.BufferedProtocol`); a plain
:class:`asyncio.Protocol` would have the selector transport allocate a
fresh 256 KiB ``bytes`` per read.  The guard counts traced bytes, not
seconds, so it holds on any machine.
"""

import asyncio
import tracemalloc

from repro.core.objects import ObjectType, SoupObject
from repro.deploy.live import AsyncClock, LiveTransport

FRAMES = 500
BATCH = 50
#: What reading and dispatching the frames may add to the traced peak:
#: a quarter of one read's worth of a fresh 256 KiB ``bytes``.
HEADROOM_BYTES = 64 * 1024


def test_reading_frames_allocates_no_read_buffer():
    message = SoupObject(
        source=0, dest=1, object_type=ObjectType.MESSAGE, payload="x" * 100, sequence=0
    )

    async def scenario():
        net = LiveTransport(AsyncClock())
        delivered = [0]

        def count(sender, received):
            delivered[0] += 1

        net.register(0, lambda sender, received: None)
        net.register(1, count)
        await net.start()

        async def send(frames):
            target = delivered[0] + frames
            for start in range(0, frames, BATCH):
                for _ in range(min(BATCH, frames - start)):
                    net.send(0, 1, message, 200)
                await asyncio.sleep(0)
            while delivered[0] < target:
                await asyncio.sleep(0.001)

        await send(BATCH)  # open the connection, warm every path
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            await send(FRAMES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        await net.close()
        return delivered[0], peak - baseline

    delivered, growth = asyncio.run(scenario())
    assert delivered == BATCH + FRAMES
    assert growth < HEADROOM_BYTES, f"traced peak rose {growth} bytes"
