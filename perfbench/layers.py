"""The layer map: every module under ``src/repro`` belongs to exactly one layer.

The traced run groups cProfile self time by these layers.  Two layers sit
outside the source tree: ``harness`` is this benchmark's own code, and
``other`` is everything else cProfile reports (C builtins, the standard
library).
"""

from __future__ import annotations

import cProfile
import fnmatch
from pathlib import Path
from typing import Dict, List

#: layer -> module patterns, relative to ``src/repro`` (fnmatch syntax).
LAYER_MODULES: Dict[str, List[str]] = {
    "scheduler": ["core/scheduler.py", "core/sync.py", "core/clock.py"],
    "replay": ["patsy/simulator.py", "patsy/traces.py", "patsy/sprite.py", "patsy/coda.py"],
    "recorder": ["patsy/stats.py"],
    "cache": ["core/cache.py", "core/replacement.py", "core/blocks.py"],
    "flush": ["core/flush.py"],
    "layout": [
        "core/storage/lfs.py",
        "core/storage/segindex.py",
        "core/storage/cleaner.py",
        "core/storage/layout.py",
        "core/storage/allocator.py",
        "core/storage/ffs.py",
        "core/codec.py",
    ],
    "array": ["core/storage/array.py", "core/storage/volume.py"],
    "disk": [
        "core/driver.py",
        "core/iosched.py",
        "core/datamover.py",
        "patsy/simdisk.py",
        "patsy/simdriver.py",
        "patsy/bus.py",
        "patsy/diskspec.py",
        "pfs/diskfile.py",
    ],
    "cluster": ["core/cluster/*.py", "core/faults.py"],
    "metadata": ["core/metadata/*.py"],
    "fs": [
        "core/filesystem.py",
        "core/namespace.py",
        "core/inode.py",
        "core/filetable.py",
        "core/filetypes.py",
        "core/client.py",
    ],
    "pfs": ["pfs/filesystem.py", "pfs/nfs.py"],
    # Stack assembly and configuration, plus the modules no replay or PFS
    # call runs in its timed phase (trace generation, reports, the CLI,
    # the forking parallel executor, package initialisers).
    "setup": [
        "assembly/*.py",
        "config.py",
        "__init__.py",
        "units.py",
        "errors.py",
        "cli.py",
        "analysis/*.py",
        "core/__init__.py",
        "core/parallel.py",
        "core/storage/__init__.py",
        "patsy/__init__.py",
        "patsy/workload.py",
        "patsy/synthetic.py",
        "patsy/experiments.py",
        "pfs/__init__.py",
    ],
}

HARNESS = "harness"
OTHER = "other"
LAYERS: List[str] = list(LAYER_MODULES) + [HARNESS, OTHER]


class LayerMapError(Exception):
    """A module under ``src/repro`` maps to no layer or to more than one."""


def build_module_map(package_dir: Path) -> Dict[str, str]:
    """Absolute module path -> layer, for every ``.py`` file of the package.

    Raises :class:`LayerMapError` naming every unmapped or doubly mapped
    module, so a new module cannot silently fall into ``other``.
    """
    module_map: Dict[str, str] = {}
    problems: List[str] = []
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir).as_posix()
        layers = [
            layer
            for layer, patterns in LAYER_MODULES.items()
            if any(fnmatch.fnmatchcase(rel, pattern) for pattern in patterns)
        ]
        if len(layers) != 1:
            problems.append(f"{rel}: {layers or 'no layer'}")
            continue
        module_map[str(path.resolve())] = layers[0]
    if problems:
        raise LayerMapError("layer map must cover each module once: " + "; ".join(problems))
    return module_map


def layer_profile(
    profile: cProfile.Profile, module_map: Dict[str, str], harness_dir: Path
) -> tuple[Dict[str, float], int]:
    """Self seconds per layer and the total number of Python-level calls."""
    self_time = {layer: 0.0 for layer in LAYERS}
    calls = 0
    harness_prefix = str(harness_dir.resolve())
    resolved: Dict[str, str] = {}
    profile.create_stats()
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in profile.stats.items():
        layer = resolved.get(filename)
        if layer is None:
            layer = _layer_of(filename, module_map, harness_prefix)
            resolved[filename] = layer
        self_time[layer] += tt
        calls += nc
    return self_time, calls


def _layer_of(filename: str, module_map: Dict[str, str], harness_prefix: str) -> str:
    if filename.startswith("<") or filename == "~":
        return OTHER
    path = str(Path(filename).resolve())
    if path in module_map:
        return module_map[path]
    if path.startswith(harness_prefix):
        return HARNESS
    return OTHER


def layer_metrics(self_time: Dict[str, float], ops: int) -> Dict[str, float]:
    """``<layer>.cpu_us_per_op`` and ``<layer>.cpu_share`` for every layer."""
    total = sum(self_time.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.cpu_us_per_op"] = self_time[layer] * 1e6 / max(ops, 1)
        metrics[f"{layer}.cpu_share"] = self_time[layer] / total if total else 0.0
    return metrics
