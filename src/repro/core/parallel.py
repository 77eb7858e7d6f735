"""``ParallelReplayExecutor``: per-node worker processes for trace replay.

A multi-node stack's event loop runs under
:class:`~repro.core.scheduler.NodeMergeSchedulingPolicy`, which orders
execution by ``(time, node, arrival)`` — a deterministic merge of per-node
streams.  On a *partitioned* workload the streams never interact, so each
node's stream can be produced by its own worker process (running the same
loop) and the merge applied to the results instead of the events:

* every worker builds the **full identical stack** from the same spec (same
  mount, same namespace-setup phase, same daemon spawn order), so inode
  numbers, block addresses and thread stamps agree across processes;
* worker ``k`` then replays only the clients homed on node ``k``.  With
  ``client_entry="home"``, ``placement="node"`` and rebalancing off, those
  clients touch only node ``k``'s volumes, caches and daemons — node ``j``'s
  sub-schedule is byte-for-byte independent of node ``k``'s;
* completions are merged by ``(completion time, node, per-node position)``,
  the exact tie-break of the node-merge policy, so the merged recorder is
  bit-identical to the sequential one while the run fits the exact window.

The *conservative window* of the sequential loop becomes a two-phase end
protocol over pipes: each worker reports the time its last client finished
(``T_k``); the parent broadcasts the global end ``T = max T_k`` and the node
``m`` that set it (the window grant).  Workers before ``m`` in merge order
run everything due *through* ``T``; workers after ``m`` stop just *before*
``T`` — reproducing exactly where the sequential scheduler stopped mid-
instant — and every clock is advanced to ``T`` so periodic daemons ticked
identically everywhere.

Requirements are validated up front: ``parallel=True`` needs nodes > 1,
``client_entry="home"``, ``placement="node"`` and ``rebalance=False``; any
other shape raises :class:`~repro.errors.ConfigurationError` (rebalancing
migrates files across nodes mid-run, which breaks the partition).
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SchedulerError
from repro.patsy.stats import LatencyRecorder

__all__ = ["ParallelReplayExecutor"]

_LEN = struct.Struct(">Q")


def _send(fd: int, obj: Any) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, _LEN.pack(len(payload)) + payload)


def _recv(fd: int) -> Any:
    header = _read_exact(fd, _LEN.size)
    return pickle.loads(_read_exact(fd, _LEN.unpack(header)[0]))


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise SchedulerError("parallel replay worker closed its pipe early")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


@dataclass
class _WorkerReport:
    """Everything one worker sends back after the end protocol."""

    node: int
    local_end: float
    final_time: float
    wall_seconds: float
    cpu_seconds: float
    recorder: LatencyRecorder
    errors: int
    operations: int
    digest: Optional[str]
    replacement: str
    cache_raw: Dict[str, int]
    policy_raw: Dict[str, Any]
    volume_layouts: Dict[int, dict]
    node_entry: Dict[str, Any]


class ParallelReplayExecutor:
    """Replays one trace with one worker process per cluster node.

    ``jobs`` (from ``ClusterConfig.jobs``; 0 = one per node) caps how many
    workers replay concurrently — the rest are forked but wait for a start
    token, so the deterministic result never depends on the cap.
    """

    def __init__(self, config: SimulationConfig, enable_digests: bool = False):
        cluster = config.cluster
        if cluster is None or cluster.nodes <= 1:
            raise ConfigurationError("parallel replay needs a multi-node cluster")
        if not cluster.parallel:
            raise ConfigurationError("parallel replay requires cluster.parallel=True")
        if cluster.client_entry != "home":
            raise ConfigurationError(
                'parallel replay requires client_entry="home" (front-end entry '
                "funnels every operation through node 0, which serialises the run)"
            )
        if cluster.rebalance:
            raise ConfigurationError(
                "parallel replay requires rebalance=False (migration moves files "
                "across the node partition mid-run)"
            )
        from repro.assembly.spec import StackSpec

        spec_placement = StackSpec.from_config(config).effective_array.placement
        if spec_placement != "node":
            raise ConfigurationError(
                'parallel replay requires placement="node" so each client\'s tree '
                "stays on its home node"
            )
        if not os.name == "posix" or not hasattr(os, "fork"):
            raise ConfigurationError("parallel replay needs a POSIX fork()")
        self.config = config
        self.cluster = cluster
        self.nodes = cluster.nodes
        self.jobs = min(cluster.jobs, self.nodes) if cluster.jobs else self.nodes
        self.enable_digests = enable_digests

    # ------------------------------------------------------------------ driving

    def replay(
        self,
        records: Sequence[Any],
        trace_name: str = "",
        max_time: Optional[float] = None,
    ):
        """Replay ``records`` across the workers; returns the merged result.

        ``records`` is materialised here — a path is loaded, an iterator
        listed — because the partition is computed up front; the list is
        shared with the forked workers copy-on-write, and each worker
        replays its node's share through
        :meth:`~repro.patsy.simulator.PatsySimulator.run_clients`.
        """
        from repro.patsy.simulator import PatsySimulator
        from repro.patsy.traces import load_trace

        if isinstance(records, (str, os.PathLike)):
            records = load_trace(records)
        records = list(records)
        if not records:
            raise ConfigurationError("cannot replay an empty trace")
        # The sequential config every worker runs under: identical stack,
        # parallel off (a worker must not recurse into this executor).
        worker_config = replace(
            self.config, cluster=replace(self.cluster, parallel=False, jobs=0)
        )
        setup_dirs = PatsySimulator.partition_setup_dirs(
            records, self.nodes, strict=True
        )
        pipes = []  # (child_pid, to_child_fd, from_child_fd)
        for node in range(self.nodes):
            parent_r, child_w = os.pipe()
            child_r, parent_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Worker process: close the parent's ends and every pipe of
                # previously forked siblings, then run and hard-exit.
                os.close(parent_r)
                os.close(parent_w)
                for _, sib_w, sib_r in pipes:
                    os.close(sib_w)
                    os.close(sib_r)
                code = 0
                try:
                    self._worker(
                        node, worker_config, records, setup_dirs, max_time,
                        child_r, child_w,
                    )
                except BaseException:
                    import traceback

                    traceback.print_exc()
                    code = 1
                finally:
                    os._exit(code)
            os.close(child_r)
            os.close(child_w)
            pipes.append((pid, parent_w, parent_r))
        try:
            return self._drive(pipes, trace_name)
        finally:
            for pid, to_child, from_child in pipes:
                for fd in (to_child, from_child):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass

    def _drive(self, pipes: List[Tuple[int, int, int]], trace_name: str):
        # Phase 1: hand out start tokens (at most ``jobs`` replaying at
        # once) and collect each worker's local end time.
        local_ends: Dict[int, float] = {}
        started = 0
        pending = list(range(self.nodes))
        while started < min(self.jobs, self.nodes):
            _send(pipes[pending[0]][1], ("start",))
            pending.pop(0)
            started += 1
        for _ in range(self.nodes):
            # Workers finish phase 1 in any OS order; each message carries
            # its node id.
            node, local_end = self._collect_one(pipes, local_ends)
            local_ends[node] = local_end
            if pending:
                _send(pipes[pending[0]][1], ("start",))
                pending.pop(0)
        # Phase 2: broadcast the window grant (global end + merge pivot).
        pivot = max(range(self.nodes), key=lambda k: (local_ends[k], k))
        global_end = local_ends[pivot]
        for _, to_child, _ in pipes:
            _send(to_child, ("finish", global_end, pivot))
        # Phase 3: gather reports (in node order — each pipe carries its
        # own node's report, so ordering is by construction).
        reports = [
            _WorkerReport(**_recv(from_child)) for _, _, from_child in pipes
        ]
        return self._merge(reports, trace_name, global_end)

    def _collect_one(
        self, pipes: List[Tuple[int, int, int]], seen: Dict[int, float]
    ) -> Tuple[int, float]:
        import select

        waiting = [
            from_child
            for node, (_, _, from_child) in enumerate(pipes)
            if node not in seen
        ]
        ready, _, _ = select.select(waiting, [], [])
        message = _recv(ready[0])
        return message[1], message[2]

    # ------------------------------------------------------------------ the worker

    def _worker(
        self,
        node: int,
        config: SimulationConfig,
        records: Sequence[Any],
        setup_dirs: Sequence[Tuple[int, str]],
        max_time: Optional[float],
        rx: int,
        tx: int,
    ) -> None:
        import time

        from repro.patsy.simulator import PatsySimulator

        message = _recv(rx)
        assert message[0] == "start"
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        sim = PatsySimulator(config)
        if self.enable_digests:
            sim.scheduler.enable_schedule_hash()
        sim.mount()
        sim.prepare_namespace(setup_dirs)
        own = [r for r in records if sim.client_node(r.client) == node]
        limit = max_time if max_time is not None else config.max_simulated_time
        sim.run_clients(own, limit)
        local_end = sim.scheduler.now
        _send(tx, ("done", node, local_end))
        message = _recv(rx)
        assert message[0] == "finish"
        global_end, pivot = message[1], message[2]
        scheduler = sim.scheduler
        if node < pivot:
            # Merge order puts this node's events at the global end *before*
            # the pivot's final completion: run them.
            scheduler.run(until=global_end, inclusive=True)
        elif node > pivot:
            # ... and this node's after it: release but do not execute.
            scheduler.run(until=global_end)
        if scheduler.now < global_end:
            scheduler.clock.advance_to(global_end)
        sim.latency.finish()
        report = self._report(sim, node, local_end)
        # CPU seconds measure this worker's own work even when the host has
        # fewer cores than workers and the OS interleaves them; the maximum
        # over workers is the critical path of the parallel run.
        report["wall_seconds"] = time.perf_counter() - wall_start
        report["cpu_seconds"] = time.process_time() - cpu_start
        _send(tx, report)

    def _report(self, sim: Any, node: int, local_end: float) -> Dict[str, Any]:
        spec = sim.stack.spec
        own_volumes = [
            v for v in range(spec.num_volumes) if spec.node_of_volume(v) == node
        ]
        cache_raw: Dict[str, int] = {}
        policy_raw: Dict[str, Any] = {}
        for v in own_volumes:
            shard = sim.cache.shards[v] if len(sim.cache.shards) > 1 else None
            if shard is None:
                continue
            for key, value in shard.stats.snapshot().items():
                if key == "hit_rate":
                    continue
                cache_raw[key] = cache_raw.get(key, 0) + value
            for key, value in shard.policy.snapshot().items():
                if isinstance(value, (int, float)):
                    policy_raw[key] = policy_raw.get(key, 0) + value
                else:
                    policy_raw.setdefault(key, value)
        if len(sim.cache.shards) == 1 and node == 0:
            # Unified cache: the single shard belongs to node 0's report.
            cache_raw = {
                key: value
                for key, value in sim.cache.shards[0].stats.snapshot().items()
                if key != "hit_rate"
            }
            policy_raw = dict(sim.cache.shards[0].policy.snapshot())
        volume_layouts = {}
        for v in own_volumes:
            sub = sim.layout.sublayouts[v]
            volume_layouts[v] = {
                "kind": sub.name,
                "disk_reads": sub.stats.disk_reads,
                "disk_writes": sub.stats.disk_writes,
                "blocks_read": sub.stats.blocks_read,
                "blocks_written": sub.stats.blocks_written,
                "free_blocks": sub.free_blocks,
            }
        cluster_stats = sim.collect_cluster_stats()
        node_entry = cluster_stats.get("per_node", {}).get(f"node{node}", {})
        digests = sim.scheduler.schedule_digests()
        return {
            "node": node,
            "local_end": local_end,
            "final_time": sim.scheduler.now,
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
            "recorder": sim.latency,
            "errors": sim.errors,
            "operations": sim.latency.count,
            "digest": digests.get(node),
            "replacement": sim.cache.policy.name,
            "cache_raw": cache_raw,
            "policy_raw": policy_raw,
            "volume_layouts": volume_layouts,
            "node_entry": node_entry,
        }

    # ------------------------------------------------------------------ merging

    def _merge(
        self, reports: List[_WorkerReport], trace_name: str, global_end: float
    ):
        from repro.patsy.simulator import SimulationResult

        reports.sort(key=lambda r: r.node)
        recorder = LatencyRecorder.merged([r.recorder for r in reports])
        cache_raw: Dict[str, int] = {}
        policy_raw: Dict[str, Any] = {}
        for report in reports:
            for key, value in report.cache_raw.items():
                cache_raw[key] = cache_raw.get(key, 0) + value
            for key, value in report.policy_raw.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    policy_raw[key] = policy_raw.get(key, 0) + value
                else:
                    policy_raw.setdefault(key, value)
        lookups = cache_raw.get("lookups", 0)
        cache_stats: Dict[str, Any] = dict(cache_raw)
        cache_stats["hit_rate"] = (
            cache_raw.get("hits", 0) / lookups if lookups else 0.0
        )
        cache_stats["replacement"] = reports[0].replacement
        for key, value in policy_raw.items():
            cache_stats[f"policy_{key}"] = value
        per_volume = {}
        for report in reports:
            for v, layout in sorted(report.volume_layouts.items()):
                per_volume[f"vol{v}"] = {"layout": layout}
        per_node = {
            f"node{report.node}": report.node_entry
            for report in reports
            if report.node_entry
        }
        parallel_stats = {
            "workers": self.nodes,
            "jobs": self.jobs,
            "worker_wall_seconds": {
                report.node: report.wall_seconds for report in reports
            },
            "worker_cpu_seconds": {
                report.node: report.cpu_seconds for report in reports
            },
            "critical_path_seconds": max(
                report.cpu_seconds for report in reports
            ),
            "local_ends": {report.node: report.local_end for report in reports},
            "pivot": max(
                range(self.nodes),
                key=lambda k: (reports[k].local_end, k),
            ),
        }
        result = SimulationResult(
            trace_name=trace_name,
            policy_name=self.config.flush.policy,
            simulated_time=global_end,
            operations=recorder.count,
            errors=sum(report.errors for report in reports),
            latency=recorder,
            cache_stats=cache_stats,
            write_savings_blocks=cache_raw.get("dirty_blocks_discarded", 0),
            blocks_written_to_disk=cache_raw.get("blocks_written", 0),
            volume_stats={"per_volume": per_volume} if per_volume else {},
            cluster_stats={
                "nodes": self.nodes,
                "per_node": per_node,
                "parallel": parallel_stats,
            },
        )
        result.schedule_digests = {
            report.node: report.digest
            for report in reports
            if report.digest is not None
        }
        result.parallel_stats = parallel_stats
        return result
