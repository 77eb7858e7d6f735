"""The benchmark's workloads: two PATSY replays and one PFS churn.

Each workload makes its inputs from a seed (a trace, or a list of PFS
calls), hands the program only those inputs, and drives the stack through
its public entry points: ``PatsySimulator(config)`` + ``.mount()`` +
``.replay(trace)``, and the ``PegasusFileSystem`` calls.  Load is closed
loop and single process: the replay's clients each wait for their previous
operation, and the PFS calls run one after another on one thread.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import random
import signal
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.config import SimulationConfig, cluster_config, sun4_280_config
from repro.config import CacheConfig, LayoutConfig
from repro.patsy.simulator import PatsySimulator, SimulationResult
from repro.patsy.stats import LatencyRecorder
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB

#: stacks built (and mounted or formatted) per run; setup_s is their median.
SETUP_REPEATS = 15


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM when a run outlives its deadline.

    A ``BaseException`` so that no ``except Exception`` in the harness
    swallows it; the op in progress and every op after it count as failed.
    """


class Deadline:
    """Interrupts the run ``seconds`` after it is armed.

    The scheduler catches every exception a simulated thread raises, so the
    first ``DeadlineExceeded`` may die inside the stack, taking one
    simulated thread with it.  The alarm therefore repeats every
    ``RETRY_SECONDS`` until the harness sees it, and the harness checks
    :attr:`expired` after every call into the stack.
    """

    RETRY_SECONDS = 0.5

    def __init__(self, seconds: float):
        self.seconds = max(seconds, 0.001)
        self.expired = False

    def __enter__(self) -> "Deadline":
        signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds, self.RETRY_SECONDS)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.disarm()

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def check(self) -> None:
        """Raise in the harness if the alarm fired while the stack ran."""
        if self.expired:
            self.disarm()
            raise DeadlineExceeded()

    def _expire(self, signum: int, frame: Any) -> None:
        self.expired = True
        raise DeadlineExceeded()


class SpanLog:
    """One span (name, start, end in host ns) per public call into the stack."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.spans: List[Tuple[str, int, int]] = []
        self.exceptions: Dict[str, int] = {}
        self.first_traceback: Dict[str, str] = {}

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Tuple[bool, Any]:
        """Run ``fn(*args)``; an exception it raises is a failed op, not a crash."""
        start = time.perf_counter_ns()
        try:
            result, ok = fn(*args), True
        except Exception as exc:  # the op boundary: record it and go on
            result, ok = None, False
            kind = f"{name}:{type(exc).__name__}"
            self.exceptions[kind] = self.exceptions.get(kind, 0) + 1
            self.first_traceback.setdefault(kind, traceback.format_exc())
        self.spans.append((name, start, time.perf_counter_ns()))
        self.deadline.check()
        return ok, result

    def timed(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Like :meth:`call`, but an exception propagates (set-up calls)."""
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            self.deadline.check()
        self.spans.append((name, start, time.perf_counter_ns()))
        return result


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int):
        self.a = a
        self.b = a * 3

    def step(self, value: int) -> int:
        return self.a + value if value & 1 else self.b - value


def _echo() -> Generator[int, int, None]:
    value = 0
    while True:
        value = yield value + 1


class HostSpeed:
    """Converts host seconds to seconds at a reference host speed.

    The hosts this runs on share their cores with other tenants, and the
    same replay takes from 1.6 s to 3.2 s depending on the minute.  A fixed
    pure-Python loop shaped like the stack's hot paths (lookups in a dict
    larger than the CPU caches, method calls, generator sends) is timed
    before and after each timed segment, and the segment's seconds are
    scaled by ``REFERENCE_SECONDS`` over the loop's mean time: they become
    seconds on a host that runs the loop in 0.1 s.  The loop runs no code of
    the program, so no change to the program moves the scale.
    """

    CELLS = 50_000
    STEPS = 200_000
    REFERENCE_SECONDS = 0.1

    def __init__(self) -> None:
        # Integer keys: string hashes change with each process's hash seed,
        # and with them the table's layout and the loop's speed.
        rng = random.Random(0)
        self.table = {i * 7919: _Cell(i) for i in range(self.CELLS)}
        self.order = [rng.randrange(self.CELLS) * 7919 for _ in range(self.STEPS)]
        self.last = self.sample()

    def sample(self) -> float:
        table = self.table
        echo = _echo()
        next(echo)
        total = 0
        start = time.perf_counter()
        for key in self.order:
            total = echo.send((total + table[key].step(total)) & 1023)
        return time.perf_counter() - start

    def mark(self) -> None:
        """Re-time the loop right before a segment that follows other work."""
        self.last = self.sample()

    def scale(self) -> float:
        """The factor for the segment that just ended."""
        after = self.sample()
        factor = self.REFERENCE_SECONDS / ((self.last + after) / 2)
        self.last = after
        return factor


@dataclass
class Outcome:
    """What one run of a workload measured."""

    attempted: int = 0
    failed: int = 0
    #: failed checks that make the whole run incorrect (not per-op failures).
    problems: List[str] = field(default_factory=list)
    timed_ops: int = 0
    #: seconds of the timed phase at reference host speed, and as measured.
    timed_seconds: float = 0.0
    host_seconds: float = 0.0
    #: seconds at reference host speed of each stack built and mounted
    #: (or formatted).
    setup_seconds: List[float] = field(default_factory=list)
    #: None in traced runs, whose figures are not scaled.
    speed: Optional[HostSpeed] = None
    #: per-operation latency in ms: simulated (replay) or host per call (PFS).
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    latency_samples: int = 0
    #: "sim" for simulated per-op latency, "host" for host time per call.
    latency_world: str = ""
    #: cumulative counters of the first pass, in the shared raw vocabulary,
    #: and the number of ops they cover.
    raw: Dict[str, float] = field(default_factory=dict)
    counted_ops: int = 0
    #: digest of each input's outcome (trace or PFS pass), first time seen.
    digests: Dict[str, str] = field(default_factory=dict)
    #: unprofiled and profiled wall seconds of the same input (traced runs),
    #: and the ops of the profiled one.
    plain_seconds: float = 0.0
    profiled_seconds: float = 0.0
    profiled_ops: int = 0
    #: failed ops by "phase op reason" (PFS).
    failures: Dict[str, int] = field(default_factory=dict)
    #: spans of the timed operations whose latency the PFS metrics report.
    op_spans: List[Tuple[str, int, int]] = field(default_factory=list)

    def add_timed(self, ops: int, wall: float) -> None:
        self.timed_ops += ops
        self.host_seconds += wall
        self.timed_seconds += wall * self.speed.scale() if self.speed else wall

    def add_setups(self, walls: List[float]) -> None:
        factor = self.speed.scale() if self.speed else 1.0
        self.setup_seconds += [wall * factor for wall in walls]

    def note_digest(self, key: str, value: str) -> None:
        """Record an outcome's digest; a differing repeat is a problem."""
        seen = self.digests.setdefault(key, value)
        if seen != value:
            self.problems.append(f"{key}: repeat gave digest {value}, first gave {seen}")


def freeze_inputs() -> None:
    """Move the generated inputs and the speed table out of the garbage
    collector's reach.

    Without this every full collection inside the timed phase also scans
    the benchmark's own objects, so the program's measured cost would
    depend on how much the harness holds.
    """
    gc.collect()
    gc.freeze()


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile, the rule ``LatencyRecorder`` uses."""
    rank = min(max(math.ceil(fraction * len(sorted_values)), 1), len(sorted_values))
    return sorted_values[rank - 1]


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------- replay


class ReplayWorkload:
    """PATSY replays of ``traces`` seeded traces on one configuration preset.

    One trace's hot set decides much of its cost, so a run replays several
    independent traces and reports their pooled figures.
    """

    def __init__(self, config: SimulationConfig, profile: WorkloadProfile, traces: int):
        self.config = config
        self.profile = profile
        self.traces = traces

    def inputs(self, seed: int) -> List[list]:
        return [generate_workload(self.profile, seed=seed * 1000 + k) for k in range(self.traces)]

    def build(self, log: SpanLog) -> PatsySimulator:
        simulator = log.timed("build", PatsySimulator, self.config)
        log.timed("mount", simulator.mount)
        return simulator

    def replay(
        self, index: int, trace: list, log: SpanLog, out: Outcome,
        profile: Optional[cProfile.Profile] = None,
    ) -> Tuple[SimulationResult, Dict[str, float], float]:
        """Replay one trace on a fresh stack; check it and note its digest."""
        gc.collect()  # the previous stack's garbage is not this replay's cost
        simulator = self.build(log)
        out.attempted += len(trace)
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = log.timed("replay", simulator.replay, trace)
        except DeadlineExceeded:
            log.deadline.disarm()
            out.failed += len(trace)
            raise
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - start
        out.failed += len(trace) - result.operations + result.errors
        if result.operations != len(trace):
            out.problems.append(f"trace {index}: replayed {result.operations} of {len(trace)} operations")
        raw = replay_counters(result, simulator)
        out.note_digest(f"trace{index}", digest({"summary": result.summary(), "counters": raw}))
        return result, raw, wall

    def replay_all(self, traces: List[list], log: SpanLog, out: Outcome) -> List[float]:
        """One pass over every trace; the first pass's figures are recorded."""
        first = not out.digests
        recorders, walls = [], []
        for index, trace in enumerate(traces):
            result, raw, wall = self.replay(index, trace, log, out)
            out.add_timed(result.operations, wall)
            walls.append(wall)
            if first:
                recorders.append(result.latency)
                out.raw = add_counters(out.raw, raw)
        if first:
            latency = LatencyRecorder.merged(recorders)
            out.latencies_ms = {
                "mean": latency.mean_latency() * 1e3,
                "p50": latency.percentile(0.5) * 1e3,
                "p99": latency.percentile(0.99) * 1e3,
                "p999": latency.percentile(0.999) * 1e3,
            }
            out.latency_samples = latency.count
            out.latency_world = "sim"
            out.counted_ops = latency.count
        return walls

    def measure(self, seed: int, seconds: float, out: Outcome, log: SpanLog) -> None:
        traces = self.inputs(seed)
        out.speed = HostSpeed()
        freeze_inputs()
        walls = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            self.build(log)
            walls.append(time.perf_counter() - start)
        out.add_setups(walls)
        began = time.perf_counter()
        while not out.latencies_ms or time.perf_counter() - began < seconds:
            self.replay_all(traces, log, out)

    def trace(self, seed: int, out: Outcome, log: SpanLog, profile: cProfile.Profile) -> None:
        traces = self.inputs(seed)
        freeze_inputs()
        out.plain_seconds = self.replay_all(traces, log, out)[0]
        result, _raw, out.profiled_seconds = self.replay(0, traces[0], log, out, profile)
        out.profiled_ops = result.operations


def add_counters(total: Dict[str, float], raw: Dict[str, float]) -> Dict[str, float]:
    """Pool two sets of raw counters; utilisation is a maximum, not a sum."""
    if not total:
        return dict(raw)
    pooled = {key: total[key] + value for key, value in raw.items()}
    pooled["disk_max_utilisation"] = max(total["disk_max_utilisation"], raw["disk_max_utilisation"])
    return pooled


def replay_counters(result: SimulationResult, simulator: PatsySimulator) -> Dict[str, float]:
    """The raw per-layer counters of one replay, from its result surfaces."""
    cache = result.cache_stats
    rollup = result.volume_stats["rollup"]
    layout = rollup["layout"]
    disks = [
        disk
        for volume in result.volume_stats["per_volume"].values()
        for disk in volume["disks"].values()
    ]
    buses = list(result.plugin_reports["bus"]["buses"].values())
    cluster = result.cluster_stats
    nics = [node["nic"] for node in cluster.get("per_node", {}).values() if "nic" in node]
    rebalancer = cluster.get("rebalancer", {})
    wal = cluster.get("metadata", {}).get("wal", {})
    return {
        "context_switches": simulator.scheduler.context_switches,
        "cache_lookups": cache["lookups"],
        "cache_hits": cache["hits"],
        "cache_evictions": cache["evictions"],
        "cache_stalls": cache["allocation_stalls"],
        "blocks_dirtied": cache["blocks_dirtied"],
        "dirty_discarded": result.write_savings_blocks,
        "flushed_blocks": result.blocks_written_to_disk,
        "disk_reads": layout["disk_reads"],
        "disk_writes": layout["disk_writes"],
        "layout_blocks_written": layout["blocks_written"],
        "cleaner_segments": layout["cleaner_segments_cleaned"],
        "cleaner_blocks_copied": layout["cleaner_blocks_copied"],
        "disk_ops": sum(d["operations"] for d in disks),
        "disk_response_total": sum(d["operations"] * d["mean_response_time"] for d in disks),
        "disk_max_utilisation": max(d["utilisation"] for d in disks),
        "bus_transfers": sum(b["transfers"] for b in buses),
        "bus_wait_total": sum(b["transfers"] * b["mean_wait_time"] for b in buses),
        "nic_messages": sum(n["messages"] for n in nics),
        "nic_wait_total": sum(n["messages"] * n["mean_wait_time"] for n in nics),
        "migrations": rebalancer.get("migrations", 0),
        "migration_blocks": rebalancer.get("blocks_copied", 0),
        "wal_records": wal.get("records_appended", 0),
        "wal_commits": wal.get("commits", 0),
    }


# --------------------------------------------------------------------------- PFS churn

#: a file's model state after a call whose outcome is not known.
UNKNOWN = None
EMPTY = (-1, 0)


@dataclass
class ChurnPlan:
    """The PFS calls of one pass, made from the seed before anything runs."""

    populate: List[tuple]
    churn: List[tuple]
    #: every file the plan leaves alive, verified after the remount.
    final: List[str]
    pool: bytes


class PfsChurn:
    """PFS moving real bytes on a file-backed volume until the cleaner cycles."""

    VOLUME = 32 * MB
    CACHE = 2 * MB
    SEGMENT = 128 * KB
    LIVE = 8 * MB
    #: bytes written in the churn phase, as a multiple of the volume size.
    TURNOVER = 4
    DIRECTORIES = 4
    MIN_FILE, MAX_FILE = 2 * KB, 30 * KB
    #: share of churn steps: whole-file read, overwrite, create+delete, stat.
    MIX = (("read", 0.35), ("overwrite", 0.30), ("replace", 0.20), ("stat", 0.15))
    POOL = 256 * KB
    #: churn calls timed between two host-speed samples (about 1 s).
    CHUNK_CALLS = 3000
    #: seconds of one pass's timed churn at reference host speed.  A run
    #: makes ceil(--seconds / PASS_SECONDS) whole passes instead of passing
    #: until a clock runs out: PFS runs on virtual time, so the calls a run
    #: makes, and the calls that fail, then depend on the seed alone and not
    #: on how fast the host happens to be.
    PASS_SECONDS = 6.0

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def inputs(self, seed: int) -> ChurnPlan:
        rng = random.Random(seed)
        dirs = [f"/d{i}" for i in range(self.DIRECTORIES)]
        live: List[str] = []
        next_id = 0
        version = 0

        def new_file(calls: List[tuple]) -> int:
            nonlocal next_id, version
            path = f"{dirs[next_id % len(dirs)]}/f{next_id}"
            next_id += 1
            version += 1
            size = rng.randint(self.MIN_FILE, self.MAX_FILE)
            calls += [("create", path), ("write", path, version, size)]
            live.append(path)
            return size

        populate: List[tuple] = [("mkdir", d) for d in dirs]
        total = 0
        while total < self.LIVE:
            total += new_file(populate)
        churn: List[tuple] = []
        written = 0
        kinds = [kind for kind, _ in self.MIX]
        weights = [weight for _, weight in self.MIX]
        while written < self.TURNOVER * self.VOLUME:
            kind = rng.choices(kinds, weights)[0]
            index = rng.randrange(len(live))
            path = live[index]
            if kind == "read":
                churn.append(("read", path))
            elif kind == "stat":
                churn.append(("stat", path))
            elif kind == "overwrite":
                version += 1
                size = rng.randint(self.MIN_FILE, self.MAX_FILE)
                churn += [("truncate", path), ("write", path, version, size)]
                written += size
            else:
                live[index] = live[-1]
                live.pop()
                written += new_file(churn)
                churn.append(("delete", path))
        return ChurnPlan(populate, churn, sorted(live), random.Random(seed).randbytes(self.POOL))

    def content(self, plan: ChurnPlan, version: int, size: int) -> bytes:
        """The bytes of one file version: a version header, then pool bytes."""
        if not size:
            return b""
        header = b"%015d\n" % version
        offset = (version * 40503) % (self.POOL - self.MAX_FILE)
        return header + plan.pool[offset : offset + size - len(header)]

    def open(self, backing: Path) -> PegasusFileSystem:
        return PegasusFileSystem(
            backing=backing,
            size_bytes=self.VOLUME,
            cache=CacheConfig(size_bytes=self.CACHE),
            layout=LayoutConfig(segment_size=self.SEGMENT),
        )

    def build(self, backing: Path, log: SpanLog) -> PegasusFileSystem:
        fs = log.timed("build", self.open, backing)
        log.timed("format", fs.format)
        return fs

    def run_calls(
        self, phase: str, fs: PegasusFileSystem, calls: List[tuple], plan: ChurnPlan,
        model: Dict[str, Any], log: SpanLog, out: Outcome,
    ) -> None:
        """Run PFS calls, checking each against the model of the files.

        A call fails when it raises, or when a read or stat of a file whose
        contents the model knows returns other bytes or another size.
        """
        for call in calls:
            op = call[0]
            path = call[1] if len(call) > 1 else None
            reason = "raised"
            if op == "write":
                version, size = call[2], call[3]
                ok, _ = log.call("write", fs.write_file, path, self.content(plan, version, size))
                if ok:
                    model[path] = (version, size) if model.get(path) == EMPTY else UNKNOWN
            elif op == "read":
                ok, data = log.call("read", fs.read_file, path)
                expected = model.get(path, UNKNOWN)
                if ok and expected is not UNKNOWN and data != self.content(plan, *expected):
                    ok, reason = False, "wrong bytes"
            elif op == "stat":
                ok, info = log.call("stat", fs.stat, path)
                expected = model.get(path, UNKNOWN)
                if ok and expected is not UNKNOWN and info["size"] != expected[1]:
                    ok, reason = False, "wrong size"
            elif op == "truncate":
                ok, _ = log.call("truncate", fs.truncate, path, 0)
                if ok:
                    model[path] = EMPTY
            elif op == "create":
                ok, _ = log.call("create", fs.create, path)
                if ok:
                    model[path] = EMPTY
            elif op == "delete":
                ok, _ = log.call("delete", fs.delete, path)
                if ok:
                    model.pop(path, None)
            else:  # mkdir, sync, unmount, mount
                ok, _ = log.call(op, getattr(fs, op), *call[1:])
            out.attempted += 1
            if not ok:
                out.failed += 1
                kind = f"{phase} {op} {reason}"
                out.failures[kind] = out.failures.get(kind, 0) + 1
                if op in ("write", "truncate", "create", "delete"):
                    model[path] = UNKNOWN

    def run_pass(
        self, plan: ChurnPlan, seed: int, log: SpanLog, out: Outcome,
        profile: Optional[cProfile.Profile] = None,
    ) -> float:
        """One pass: format, populate, timed churn, sync, remount, verify.

        Returns the churn's wall seconds; its spans go to ``out.op_spans``
        and, for the first pass, its counters to ``out.raw``.  Every call
        the deadline cuts off counts as failed.
        """
        # The 4: sync, unmount, mount and the final unmount.
        planned = len(plan.populate) + len(plan.churn) + 4 + len(plan.final)
        attempted_before = out.attempted
        failed_before = out.failed
        exceptions_before = dict(log.exceptions)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        backing = self.work_dir / f"pfs-seed{seed}.img"
        model: Dict[str, Any] = {}
        opened: List[PegasusFileSystem] = []
        gc.collect()
        try:
            fs = self.build(backing, log)
            opened.append(fs)
            self.run_calls("populate", fs, plan.populate, plan, model, log, out)
            before = pfs_counters(fs)
            first_span = len(log.spans)
            if out.speed is not None:
                out.speed.mark()
            wall = 0.0
            for first in range(0, len(plan.churn), self.CHUNK_CALLS):
                chunk = plan.churn[first : first + self.CHUNK_CALLS]
                start = time.perf_counter()
                if profile is not None:
                    profile.enable()
                try:
                    self.run_calls("churn", fs, chunk, plan, model, log, out)
                finally:
                    if profile is not None:
                        profile.disable()
                chunk_wall = time.perf_counter() - start
                out.add_timed(len(chunk), chunk_wall)
                wall += chunk_wall
            raw = pfs_counters(fs, before)
            churn_spans = log.spans[first_span:]
            self.run_calls("final", fs, [("sync",), ("unmount",)], plan, model, log, out)
            fs.close_backing()
            remounted = log.timed("build", self.open, backing)
            opened.append(remounted)
            self.run_calls("remount", remounted, [("mount",)], plan, model, log, out)
            self.run_calls("remount", remounted, [("read", path) for path in plan.final], plan, model, log, out)
            self.run_calls("remount", remounted, [("unmount",)], plan, model, log, out)
        except DeadlineExceeded:
            log.deadline.disarm()
            out.failed += planned - (out.attempted - attempted_before)
            out.attempted = attempted_before + planned
            raise
        finally:
            for fs in opened:
                fs.close_backing()
            backing.unlink(missing_ok=True)
        if not out.digests:
            out.raw, out.counted_ops = raw, len(churn_spans)
        exceptions = {
            kind: count - exceptions_before.get(kind, 0)
            for kind, count in log.exceptions.items()
            if count != exceptions_before.get(kind, 0)
        }
        out.note_digest("pass", digest([out.failed - failed_before, exceptions, raw]))
        out.op_spans.extend(churn_spans)
        return wall

    def setup(self, seed: int, log: SpanLog, out: Outcome) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        backing = self.work_dir / f"pfs-setup-seed{seed}.img"
        walls = []
        try:
            for _ in range(SETUP_REPEATS):
                gc.collect()
                start = time.perf_counter()
                fs = self.build(backing, log)
                walls.append(time.perf_counter() - start)
                fs.close_backing()
        finally:
            backing.unlink(missing_ok=True)
        out.add_setups(walls)

    @staticmethod
    def record_latencies(out: Outcome) -> None:
        out.latency_world = "host"
        values = sorted((end - start) / 1e6 for _name, start, end in out.op_spans)
        out.latencies_ms = {
            "mean": statistics.fmean(values),
            "p50": percentile(values, 0.5),
            "p99": percentile(values, 0.99),
            "p999": percentile(values, 0.999),
        }
        out.latency_samples = len(values)

    def measure(self, seed: int, seconds: float, out: Outcome, log: SpanLog) -> None:
        plan = self.inputs(seed)
        out.speed = HostSpeed()
        freeze_inputs()
        self.setup(seed, log, out)
        try:
            for _ in range(max(1, math.ceil(seconds / self.PASS_SECONDS))):
                self.run_pass(plan, seed, log, out)
        finally:
            if out.op_spans:
                self.record_latencies(out)

    def trace(self, seed: int, out: Outcome, log: SpanLog, profile: cProfile.Profile) -> None:
        plan = self.inputs(seed)
        freeze_inputs()
        out.plain_seconds = self.run_pass(plan, seed, log, out)
        self.record_latencies(out)
        timed_ops = out.timed_ops
        out.profiled_seconds = self.run_pass(plan, seed, log, out, profile)
        out.profiled_ops = out.timed_ops - timed_ops
        out.timed_ops = timed_ops
        del out.op_spans[timed_ops:]


def pfs_counters(fs: PegasusFileSystem, before: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Raw per-layer counters of a PFS, less ``before`` when given."""
    stats = fs.statistics()
    cache = stats["cache"]
    layout = fs.layout.stats
    drivers = fs.drivers
    elapsed = fs.scheduler.now
    response = sum(sum(d.stats.response_times) for d in drivers)
    raw = {
        "context_switches": fs.scheduler.context_switches,
        "cache_lookups": cache["lookups"],
        "cache_hits": cache["hits"],
        "cache_evictions": cache["evictions"],
        "cache_stalls": cache["allocation_stalls"],
        "blocks_dirtied": cache["blocks_dirtied"],
        "dirty_discarded": cache["dirty_blocks_discarded"],
        "flushed_blocks": cache["blocks_written"],
        "disk_reads": stats["layout"]["disk_reads"],
        "disk_writes": stats["layout"]["disk_writes"],
        "layout_blocks_written": stats["layout"]["blocks_written"],
        "cleaner_segments": layout.cleaner_segments_cleaned,
        "cleaner_blocks_copied": layout.cleaner_blocks_copied,
        "disk_ops": stats["driver"]["reads"] + stats["driver"]["writes"],
        "disk_response_total": response,
        "disk_max_utilisation": max(d.stats.utilisation(elapsed) for d in drivers),
        "bus_transfers": 0,
        "bus_wait_total": 0.0,
        "nic_messages": 0,
        "nic_wait_total": 0.0,
        "migrations": 0,
        "migration_blocks": 0,
        "wal_records": 0,
        "wal_commits": 0,
    }
    if before is not None:
        for key, value in before.items():
            if key != "disk_max_utilisation":
                raw[key] -= value
    return raw


def counter_metrics(raw: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-layer counter metrics from raw counters over ``ops`` operations."""
    raw = defaultdict(float, raw)  # empty when a deadline cut the first pass
    ops = max(ops, 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    written = raw["layout_blocks_written"]
    return {
        "scheduler.steps_per_op": raw["context_switches"] / ops,
        "cache.hit_rate": ratio(raw["cache_hits"], raw["cache_lookups"]),
        "cache.evictions_per_op": raw["cache_evictions"] / ops,
        "cache.allocation_stalls_per_op": raw["cache_stalls"] / ops,
        "flush.write_saving_share": ratio(raw["dirty_discarded"], raw["blocks_dirtied"]),
        "flush.disk_blocks_per_op": raw["flushed_blocks"] / ops,
        "layout.disk_reads_per_op": raw["disk_reads"] / ops,
        "layout.disk_writes_per_op": raw["disk_writes"] / ops,
        "layout.write_amp": ratio(written + raw["cleaner_blocks_copied"], written),
        "layout.cleaner_segments": raw["cleaner_segments"],
        "layout.cleaner_blocks_copied": raw["cleaner_blocks_copied"],
        "disk.ops_per_op": raw["disk_ops"] / ops,
        "disk.sim_response_ms": ratio(raw["disk_response_total"], raw["disk_ops"]) * 1e3,
        "disk.max_utilisation": raw["disk_max_utilisation"],
        "bus.sim_wait_us": ratio(raw["bus_wait_total"], raw["bus_transfers"]) * 1e6,
        "cluster.nic_messages_per_op": raw["nic_messages"] / ops,
        "cluster.nic_sim_wait_us": ratio(raw["nic_wait_total"], raw["nic_messages"]) * 1e6,
        "cluster.migrations": raw["migrations"],
        "cluster.migration_blocks_per_op": raw["migration_blocks"] / ops,
        "metadata.wal_records": raw["wal_records"],
        "metadata.wal_commits": raw["wal_commits"],
    }


#: PFS call types whose host p50 the traced run reports.
PFS_CALLS = ("read", "write", "create", "delete", "stat")


def pfs_call_p50s(spans: List[Tuple[str, int, int]]) -> Dict[str, float]:
    by_name: Dict[str, List[float]] = {name: [] for name in PFS_CALLS}
    for name, start, end in spans:
        if name in by_name:
            by_name[name].append((end - start) / 1e3)
    return {
        f"pfs.{name}_p50_us": percentile(sorted(values), 0.5) if values else 0.0
        for name, values in by_name.items()
    }


def make_workloads(work_dir: Path) -> Dict[str, Any]:
    """The benchmark's workloads by name."""
    return {
        # The paper's experiment: the working set is far larger than the
        # 1.28 MB cache, so disks, buses, flushing and the LFS write path
        # do the work.
        "sun4-write": ReplayWorkload(
            sun4_280_config(scale=0.01),
            WorkloadProfile(name="sun4-write", duration=300.0, num_clients=8),
            traces=8,
        ),
        # The mirror image: a read-mostly zipf working set that fits the
        # 12.8 MB cache, with NICs, remote volumes, the rebalancer and the
        # metadata WAL in play while the disks sit mostly idle.
        "cluster4-read": ReplayWorkload(
            cluster_config(nodes=4, scale=0.1, placement="directory", rebalance=True),
            WorkloadProfile(
                name="cluster4-read",
                duration=300.0,
                num_clients=8,
                read_fraction=0.85,
                initial_files=100,
                directory_count=2,
                access_pattern="zipf",
            ),
            traces=16,
        ),
        # No simulated hardware: real bytes through the namespace, cache,
        # LFS, codec and file-backed driver, live data four times the cache.
        "pfs-churn": PfsChurn(work_dir),
    }
