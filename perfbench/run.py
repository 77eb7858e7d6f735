#!/usr/bin/env python3
"""End-to-end benchmark of the PATSY simulator and the PFS file system.

Run from the root of the repository:

    python3 perfbench/run.py --workload sun4-write --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that gives the per-layer metrics: cProfile
self time of the timed phase grouped by ``layers.LAYER_MODULES``, counters
read from the stack's result surfaces, and one span per public call (written
to ``perfbench/out/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name the run, its outcome digest and the latency figures.
See ``perfbench/NOTES.md`` for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

START = time.monotonic()
HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "repro"
OUT_DIR = HERE / "out"
WORKLOADS = ("sun4-write", "cluster4-read", "pfs-churn")
#: host seconds after start at which a run's remaining ops count as failed;
#: leaves time to report inside the 180 s a run may take.
DEADLINE_SECONDS = 150.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(out) -> Dict[str, Tuple[float, str]]:
    """The gated metrics: present and non-zero on every workload."""
    return {
        "ops_per_s": (out.timed_ops / out.timed_seconds if out.timed_seconds else 0.0, "1/s"),
        "setup_s": (statistics.median(out.setup_seconds) if out.setup_seconds else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency_metrics(out) -> Dict[str, Tuple[float, str]]:
    """Per-op latency: simulated on replays, host per public call on PFS.

    Zero where a world has no such latency, so these are reported but not
    gated (see NOTES.md).
    """
    lat = out.latencies_ms
    sim = out.latency_world == "sim"
    host = out.latency_world == "host"
    return {
        "sim_p50_ms": (lat["p50"] if sim else 0.0, "ms"),
        "sim_p99_ms": (lat["p99"] if sim else 0.0, "ms"),
        "sim_p999_ms": (lat["p999"] if sim else 0.0, "ms"),
        "host_p50_us": (lat["p50"] * 1e3 if host else 0.0, "us"),
        "host_p99_us": (lat["p99"] * 1e3 if host else 0.0, "us"),
        "failed_ops_share": (out.failed / max(out.attempted, 1), "ratio"),
    }


def per_layer(out, profile, module_map, layers, workloads) -> Dict[str, Tuple[float, str]]:
    self_time, calls = layers.layer_profile(profile, module_map, HERE)
    metrics = {
        name: (value, "us" if name.endswith("_us_per_op") else "ratio")
        for name, value in layers.layer_metrics(self_time, out.profiled_ops).items()
    }
    share_sum = sum(metrics[f"{layer}.cpu_share"][0] for layer in layers.LAYERS)
    if out.profiled_ops and abs(share_sum - 1.0) > 1e-9:
        out.problems.append(f"layer shares sum to {share_sum!r}, not 1")
    metrics["python.calls_per_op"] = (calls / max(out.profiled_ops, 1), "1/op")
    metrics["trace.overhead_ratio"] = (
        out.profiled_seconds / out.plain_seconds if out.plain_seconds else 0.0,
        "ratio",
    )
    counters = workloads.counter_metrics(out.raw, out.counted_ops)
    counters.update(workloads.pfs_call_p50s(out.op_spans))
    metrics.update((name, (value, counter_unit(name))) for name, value in counters.items())
    metrics.update(latency_metrics(out))
    return metrics


def counter_unit(name: str) -> str:
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith(("_ms", "_us")):
        return name.rsplit("_", 1)[1]
    if name.endswith(("hit_rate", "_share", "utilisation", "write_amp")):
        return "ratio"
    return "count"


def write_spans(log, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as handle:
        for name, start, end in log.spans:
            handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end}) + "\n")
    return path


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no source package at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import layers
    import workloads

    try:
        module_map = layers.build_module_map(PACKAGE)
    except layers.LayerMapError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.make_workloads(OUT_DIR)[args.workload]
    out = workloads.Outcome()
    deadline = workloads.Deadline(DEADLINE_SECONDS - (time.monotonic() - START))
    log = workloads.SpanLog(deadline)
    profile = cProfile.Profile() if args.trace else None
    cut = False
    try:
        with deadline:
            if profile is not None:
                workload.trace(args.seed, out, log, profile)
            else:
                workload.measure(args.seed, args.seconds, out, log)
    except workloads.DeadlineExceeded:
        deadline.disarm()
        cut = True
    if not out.latencies_ms or (profile is not None and not out.profiled_ops):
        out.problems.append("the deadline cut the run before its figures were complete")
        out.latencies_ms = dict.fromkeys(("mean", "p50", "p99", "p999"), 0.0)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} deadline_cut={cut}")
    print(f"outcome_digest={workloads.digest(out.digests)} timed_ops={out.timed_ops} "
          f"host_s={out.host_seconds:.3f} reference_s={out.timed_seconds:.3f} "
          f"setups={len(out.setup_seconds)}")
    lat = out.latencies_ms
    print(f"latency_ms world={out.latency_world or '-'} samples={out.latency_samples} mean={lat['mean']:.6g} "
          f"p50={lat['p50']:.6g} p99={lat['p99']:.6g} p999={lat['p999']:.6g}")
    for name, (value, unit) in latency_metrics(out).items():
        print(f"{name}={value:.6g} {unit}")
    for kind, count in sorted(out.failures.items()):
        print(f"failed {kind} x{count}")
    for kind, count in sorted(log.exceptions.items()):
        print(f"exception {kind} x{count}")
        print(log.first_traceback[kind].rstrip(), file=sys.stderr)
    if profile is not None:
        metrics = per_layer(out, profile, module_map, layers, workloads)
        print(f"spans={write_spans(log, args.workload, args.seed).relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(out)
    for problem in out.problems:
        print(f"problem: {problem}")
    result = {
        "correct": not out.problems,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
