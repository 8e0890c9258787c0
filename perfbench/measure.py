"""Statistics and the environment record shared by every workload."""
from __future__ import annotations

import math
import os
import platform
from pathlib import Path

import numpy as np

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile of ``samples``.

    Raises ValueError unless at least ``MIN_BEYOND`` samples lie strictly
    beyond the returned rank, so a tail figure is never read off a handful
    of points (p90 needs at least 100 samples).
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(ordered)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return "unknown"


def _read(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return default


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def l3_cache() -> str:
    return _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()


def environment(root: Path) -> dict:
    src = root / "src"
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": l3_cache(),
        "git_sha": _git_sha(root),
        "src_lines": src_lines,
    }
