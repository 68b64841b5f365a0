"""Machine facts recorded beside every benchmark result: cores, CPU model,
cache sizes, interpreter and library versions, the BLAS thread count in
effect, and the commit of the checkout (when it is a git checkout)."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas_runtime() -> dict:
    """Version string and thread count reported by the OpenBLAS library
    numpy has loaded, looked up through the process's own memory map."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode()
                    info["threads"] = int(threads())
                    return info
        return info
    return {}


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(root / ".git" / ref)
    if value:
        return value
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts(root: Path, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _openblas_runtime(),
        "blas_threads_requested": blas_threads,
        "git_commit": _git_commit(root),
    }
