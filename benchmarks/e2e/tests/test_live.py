"""Op completion on a tiny live cluster: only the awaited effect completes an
op, and a give-up or a timeout is a failed op, never a fast one."""

import asyncio
from dataclasses import replace

from repro.core.objects import ObjectType, SoupObject
from soupbench import live
from soupbench.spec import LIVE_READ, LIVE_WRITE, build_live_plan

_SMALL = dict(n_nodes=6, key_bits=256, items_per_node=1, warm_log_entries=3)


def _on_cluster(spec, scenario):
    """Boot ``spec``'s cluster, run ``scenario(cluster, client)``, tear down."""

    async def body():
        cluster = live.Cluster(spec, build_live_plan(spec, 1))
        await cluster.boot()
        try:
            return await scenario(cluster, live.Client(cluster))
        finally:
            await cluster.close()

    return asyncio.run(body())


def test_each_kind_completes_and_is_timed():
    async def scenario(cluster, client):
        outcomes = [await client.op("post", 1, 1), await client.op("message", 1, 2)]
        outcomes.append(await client.op("read", 2, 3))
        return outcomes, cluster.node_at(2).applications.inbox[-1].payload

    spec = replace(LIVE_WRITE, **_SMALL)
    outcomes, delivered = _on_cluster(spec, scenario)
    assert [outcome for outcome, _, _ in outcomes] == [live.DONE] * 3
    assert all(call > 0 and wait > 0 for _, call, wait in outcomes)
    assert delivered == {"text": "e2e-probe"}


def test_read_of_a_departed_owner_is_served_by_a_mirror_or_unavailable():
    spec = replace(LIVE_READ, **{**_SMALL, "departing": 2, "warm_log_entries": 0})

    async def scenario(cluster, client):
        plan = cluster.plan
        reader = plan.actors[0]
        results = {}
        for target in plan.graceful + plan.abrupt:
            results[target] = (await client.op("read", reader, target))[0]
        return results, client.failures

    results, failures = _on_cluster(spec, scenario)
    assert set(results.values()) <= {live.DONE, live.UNAVAILABLE}
    assert failures == {}


def test_forced_giveup_is_a_failed_op():
    async def scenario(cluster, client):
        node = cluster.node_at(1)
        mirror = node.mirror_manager.announced_mirrors[0]
        for _ in range(node.reliability.breaker.failure_threshold):
            node.reliability.breaker.record_failure(mirror, cluster.transport.loop.now)
        return await client.op("post", 1, 1), client.failures

    (outcome, _, _), failures = _on_cluster(replace(LIVE_WRITE, **_SMALL), scenario)
    assert outcome == live.FAILED
    assert failures == {"push-giveup": 1}


def test_forced_timeout_is_a_failed_op_and_the_late_ack_completes_nothing():
    spec = replace(LIVE_WRITE, **_SMALL, op_timeout_s=0.05)

    async def scenario(cluster, client):
        cluster.transport.set_extra_delay(0.15)
        slow = await client.op("post", 1, 1)
        cluster.transport.set_extra_delay(0.0)
        # The slow post's acks arrive while this message is in flight or after.
        following = await client.op("message", 1, 2)
        await cluster.settle()
        return slow[0], following[0], dict(client.failures)

    slow, following, failures = _on_cluster(spec, scenario)
    assert slow == live.FAILED and failures == {"timeout": 1}
    assert following == live.DONE


def test_unrelated_frame_does_not_complete_the_awaited_op():
    spec = replace(LIVE_READ, **{**_SMALL, "departing": 0, "warm_log_entries": 0})
    spec = replace(spec, op_timeout_s=0.2)

    async def scenario(cluster, client):
        reader, owner = cluster.order[1], cluster.order[2]
        handled = []
        inner = cluster.transport.on_handled

        def spy(receiver, message):
            handled.append((receiver, message))
            inner(receiver, message)

        cluster.transport.on_handled = spy
        # Same type, same reader, another op's sequence; sent first, and the
        # real response is then lost, so only this frame can arrive.
        stray = SoupObject(owner, reader, ObjectType.PROFILE_RESPONSE)
        cluster.transport.send(owner, reader, stray, 100)
        cluster.transport.set_drop(1.0)
        outcome = await client.op("read", 1, 2)
        cluster.transport.set_drop(0.0)
        return outcome[0], [m.sequence for r, m in handled if r == reader], stray.sequence

    outcome, seen, stray_sequence = _on_cluster(spec, scenario)
    assert seen == [stray_sequence]
    assert outcome == live.FAILED


def test_failed_ops_land_in_failed_op_share_and_make_the_run_incorrect():
    spec = replace(LIVE_READ, **{**_SMALL, "departing": 0, "warm_log_entries": 0})
    spec = replace(spec, op_timeout_s=0.02)

    async def body():
        cluster = live.Cluster(spec, build_live_plan(spec, 1))
        await cluster.boot()
        # Every response is lost in flight: all reads time out.
        cluster.transport.set_drop(1.0)
        return await live.measure(cluster, 5.0, True, max_ops=6)

    result = asyncio.run(body())
    assert result["attempted"] == 6 and result["failed"] == 6
    assert result["correct"] is False
    assert result["metrics"]["failed_op_share"] == 1.0
    assert result["detail"]["op_failures"] == {"timeout": 6}
