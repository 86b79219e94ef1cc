"""The machine and software a run measured, for its record."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

LARGEST_ARRAY_BYTES = 8 * 10**6  # one 1e6-atom float64 vector, the largest input


def _commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """{'L2': '2048K', 'L3': '307200K'} per core complex, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _kib(size: str) -> int:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else int(size or 0)


def collect(root: Path, mm) -> dict:
    import numpy

    caches = _caches()
    l3 = _kib(caches.get("L3", "0")) * 1024
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "missingmass": getattr(mm, "__version__", "unknown"),
        "cpu": _cpu_model(),
        "caches": caches,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "memory_note": (
            f"the largest input array ({LARGEST_ARRAY_BYTES // 10**6} MB) fits in the {l3 // 2**20} MiB L3, "
            "so no memory-bandwidth figure is reported"
            if l3 > LARGEST_ARRAY_BYTES
            else "the largest input array exceeds the L3; no bandwidth figure is reported either"
        ),
    }
