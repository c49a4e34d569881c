"""Host fingerprint, resident-memory sampling and the roofline ceilings.

A record is only comparable with another taken on the same fingerprint:
core count and affinity, BLAS build, version and effective thread count,
NumPy and Python versions.  :func:`fingerprint` returns that identity plus
a short digest of it, which ``compare.py`` groups records by.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import threading
import time

import numpy as np


def _openblas():
    """The OpenBLAS library NumPy loaded, as a ctypes handle, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_threads_and_config() -> tuple[int | None, str | None]:
    lib = _openblas()
    if lib is None:
        return None, None
    threads = config = None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            threads = int(get_threads())
            config = get_config().decode(errors="replace").strip()
            return threads, config
    return threads, config


def fingerprint() -> dict:
    """The host identity a record is comparable under."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):   # NumPy < 2 has no dict mode
        pass
    threads, config = _blas_threads_and_config()
    affinity = sorted(os.sched_getaffinity(0))
    ident = {
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "affinity": affinity,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "repro_num_threads": os.environ.get("REPRO_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    digest = hashlib.blake2b(json.dumps(ident, sort_keys=True).encode(),
                             digest_size=6).hexdigest()
    return {"digest": digest, **ident}


def rss_mb(pid: int | str = "self", field: str = "VmRSS") -> float:
    """A process's resident set (or ``VmHWM`` high-water mark) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks since boot, from ``/proc/stat``.

    On a virtual machine, steal is time a vCPU was runnable but the
    hypervisor ran someone else: the share over a run tells a slow run on
    a busy host from a slow program.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


class StealShare:
    """The share of CPU time stolen while the ``with`` block ran."""

    def __enter__(self) -> "StealShare":
        self._start = cpu_ticks()
        self.share = 0.0
        return self

    def __exit__(self, *exc) -> None:
        steal, total = (b - a for a, b in zip(self._start, cpu_ticks()))
        self.share = steal / total if total else 0.0


class PeakRss:
    """Samples this process's RSS on a thread; ``peak`` is the max seen.

    ``ru_maxrss`` would include set-up (training) in every reading, so the
    timed region is sampled instead: every ``interval`` seconds while the
    ``with`` block runs, plus once at entry and exit.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, rss_mb())

    def __enter__(self) -> "PeakRss":
        self.peak = rss_mb()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_mb())


def ceilings(repeats: int = 5) -> dict:
    """Measured host GEMM and memcpy rates, the roofline's two roofs.

    GEMM: float64 256x256 @ 256x256 (the dtype the reference backend runs
    in), best of ``repeats``.  memcpy: a 32 MiB float64 copy, counting the
    bytes read plus the bytes written.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    out = np.empty((256, 256))
    src = rng.standard_normal(4 << 20)
    dst = np.empty_like(src)
    gemm = copy = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        gemm = min(gemm, time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(dst, src)
        copy = min(copy, time.perf_counter() - start)
    return {"gemm_gflop_s": 2 * 256 ** 3 / gemm / 1e9,
            "memcpy_gb_s": 2 * src.nbytes / copy / 1e9}
