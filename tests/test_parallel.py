"""Determinism pins for the parallel executor.

The acceptance bar of the parallel-replay work: on a partitioned cluster
trace, the sequential event loop (node-merge policy) and the per-node worker
processes must produce *identical* results — same ``SimulationResult``
summary, same per-node event-schedule digests — at 1, 2 and 4 nodes.  Plus
validation of the shapes the executor refuses, and a hypothesis property
that random NIC timings never let the node-merge loop execute an event ahead
of an earlier pending one on another node (the conservative window).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import cluster_config
from repro.core.clock import VirtualClock
from repro.core.cluster.network import Nic
from repro.core.scheduler import NodeMergeSchedulingPolicy, Scheduler
from repro.errors import ConfigurationError
from repro.patsy.simulator import PatsySimulator
from repro.patsy.stats import LatencyRecorder
from repro.patsy.traces import TraceRecord


def partitioned_trace(clients=4, files_per_client=5, ops=140, seed=7):
    """A trace whose clients only ever touch their own ``/c{i}`` subtree —
    the shape the per-node partition requires."""
    rng = random.Random(seed)
    records = []
    t = 0.0
    for _ in range(ops):
        c = rng.randrange(clients)
        path = f"/c{c}/f{rng.randrange(files_per_client)}"
        r = rng.random()
        if r < 0.3:
            records.append(
                TraceRecord(
                    timestamp=t, client=c, op="write", path=path,
                    offset=rng.randrange(4) * 4096, size=4096,
                )
            )
        elif r < 0.7:
            records.append(
                TraceRecord(timestamp=t, client=c, op="read", path=path, offset=0, size=4096)
            )
        else:
            records.append(TraceRecord(timestamp=t, client=c, op="open", path=path))
            records.append(
                TraceRecord(timestamp=t + 0.001, client=c, op="close", path=path)
            )
        t += rng.random() * 0.01
    return records


def _config(nodes, *, parallel=False, jobs=0,
            client_entry="home", placement="node", rebalance=False):
    config = cluster_config(
        nodes=nodes, scale=0.1, placement=placement, rebalance=rebalance
    )
    return replace(
        config,
        cluster=replace(
            config.cluster,
            parallel=parallel,
            jobs=jobs,
            client_entry=client_entry,
        ),
    )


def _replay(config, trace):
    sim = PatsySimulator(config)
    sim.scheduler.enable_schedule_hash()
    return sim.replay(trace, trace_name="pin")


# ---------------------------------------------------------------------------
# The byte-identical pin
# ---------------------------------------------------------------------------


def test_sequential_parallel_schedules_identical():
    """Seeded 2-node run: sequential == per-node workers, schedule and all."""
    trace = partitioned_trace()
    sequential = _replay(_config(2), trace)
    parallel = _replay(_config(2, parallel=True), trace)

    assert sequential.schedule_digests
    assert sequential.schedule_digests == parallel.schedule_digests
    assert sequential.summary() == parallel.summary()


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_parallel_pin_at_1_2_4_nodes(nodes):
    trace = partitioned_trace()
    sequential = _replay(_config(nodes), trace)
    parallel = _replay(_config(nodes, parallel=True), trace)
    assert sequential.summary() == parallel.summary()
    assert sequential.schedule_digests == parallel.schedule_digests
    assert sequential.simulated_time == parallel.simulated_time
    assert sequential.errors == parallel.errors


def test_jobs_cap_does_not_change_results():
    """jobs=1 serialises the workers but the merged result is unchanged."""
    trace = partitioned_trace()
    full = _replay(_config(2, parallel=True), trace)
    capped = _replay(_config(2, parallel=True, jobs=1), trace)
    assert full.summary() == capped.summary()
    assert full.schedule_digests == capped.schedule_digests


def test_parallel_result_reports_worker_stats():
    from repro.analysis.report import format_cluster_table

    trace = partitioned_trace()
    result = _replay(_config(2, parallel=True), trace)
    stats = result.parallel_stats
    assert stats["workers"] == 2
    assert set(stats["local_ends"]) == {0, 1}
    assert stats["critical_path_seconds"] >= 0.0
    assert set(stats["worker_cpu_seconds"]) == {0, 1}
    table = format_cluster_table(result.cluster_stats)
    assert "parallel replay: workers=2" in table
    assert "critical-path=" in table


# ---------------------------------------------------------------------------
# Validation: shapes the partition cannot support
# ---------------------------------------------------------------------------


def test_parallel_requires_home_entry():
    from repro.core.parallel import ParallelReplayExecutor

    config = _config(2, parallel=True, client_entry="front-end")
    with pytest.raises(ConfigurationError, match="client_entry"):
        ParallelReplayExecutor(config)


def test_parallel_requires_node_placement():
    from repro.core.parallel import ParallelReplayExecutor

    config = _config(2, parallel=True, placement="hash")
    with pytest.raises(ConfigurationError, match="placement"):
        ParallelReplayExecutor(config)


def test_parallel_requires_rebalance_off():
    from repro.core.parallel import ParallelReplayExecutor

    config = _config(2, parallel=True, rebalance=True)
    with pytest.raises(ConfigurationError, match="rebalance"):
        ParallelReplayExecutor(config)


def test_strict_partition_rejects_directories_shared_across_nodes():
    records = [
        TraceRecord(timestamp=0.0, client=0, op="read", path="/shared/a", offset=0, size=1),
        TraceRecord(timestamp=0.1, client=1, op="read", path="/shared/b", offset=0, size=1),
    ]
    with pytest.raises(ConfigurationError, match="shared"):
        PatsySimulator.partition_setup_dirs(records, nodes=2, strict=True)


# ---------------------------------------------------------------------------
# Recorder merge exactness
# ---------------------------------------------------------------------------


def test_recorder_merge_matches_sequential_exactly():
    """Replaying the same completions through per-node shards and merging
    reproduces the sequential recorder's summary bit-for-bit (within the
    exact window)."""
    rng = random.Random(11)
    events = []  # (start, op, latency, client); client % 2 is the node
    t = 0.0
    for _ in range(400):
        t += rng.random() * 0.01
        events.append((t, rng.choice(["read", "write", "stat"]), rng.random() * 0.05,
                       rng.randrange(4)))

    sequential = LatencyRecorder()
    # Sequential order is completion order with the merge tie-break.
    for start, op, latency, client in sorted(
        events, key=lambda e: (e[0] + e[2], e[3] % 2)
    ):
        sequential.record(start, op, latency, client)
    sequential.finish()

    shards = [LatencyRecorder(), LatencyRecorder()]
    for start, op, latency, client in sorted(
        events, key=lambda e: (e[0] + e[2], e[3] % 2)
    ):
        shards[client % 2].record(start, op, latency, client)
    for shard in shards:
        shard.finish()
    merged = LatencyRecorder.merged(shards)

    assert merged.count == sequential.count
    assert merged.summary() == sequential.summary()


# ---------------------------------------------------------------------------
# The conservative window under random NIC timings (hypothesis)
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@given(
    latency=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    overhead=st.floats(min_value=0.0, max_value=0.001, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_window_never_executes_ahead_of_earlier_cross_node_delivery(
    latency, overhead, seed
):
    """Random NIC latencies/overheads never violate the conservative window:
    execution times are globally nondecreasing, so no node runs an event
    while another node still holds an earlier pending delivery."""
    scheduler = Scheduler(clock=VirtualClock(), seed=1, policy=NodeMergeSchedulingPolicy())
    nics = [
        Nic(scheduler, name=f"nic{n}", latency=latency, overhead=overhead)
        for n in range(2)
    ]
    rng = random.Random(seed)
    log = []  # (time, node) at every step of every worker thread

    def worker(node):
        for _ in range(10):
            log.append((scheduler.now, node))
            # Local think time, then a cross-node message through the NIC.
            yield from scheduler.sleep(rng.random() * 0.005)
            log.append((scheduler.now, node))
            yield from nics[node].send(rng.randrange(1, 64 * 1024))
        log.append((scheduler.now, node))

    threads = [
        scheduler.spawn(worker, n, name=f"w{n}", node=n) for n in range(2)
    ]
    scheduler.run()
    assert all(not t.alive for t in threads)
    times = [t for t, _ in log]
    assert times == sorted(times), "an event executed before an earlier pending one"
