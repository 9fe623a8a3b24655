"""The fused run kernel: ``_kernel.c`` compiled at first use and loaded with ctypes.

The shared library lives in the package's ``__pycache__/`` under a name keyed
by a hash of the source and the compiler flags, so an edited source or a
changed flag builds afresh.  A build writes a temporary file and renames it
into place, so processes racing on a cold cache each load a complete library,
and then removes the libraries of earlier sources.
When no compiler is present, or the build or the load fails, ``kernel()`` is
None and ``dynamics`` runs its numpy stepper instead.

``threads(n, k)`` is the split rule: how many threads a k-step call of n
particles runs on.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = _SOURCE.parent / "__pycache__"
# no -ffast-math or -march=native: the float path must keep numpy's operation order, and
# the library must run on any machine of its architecture (_kernel.c adds a SIMD clone)
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")
_BUILD_TIMEOUT_S = 120

# A call splits between two threads when it has at least SPLIT_PARTICLES particles and
# SPLIT_WORK particle-steps.  On a 2-vCPU Xeon the split costs about 0.5 us a step, and
# starting and joining the helper 30-50 us a call; at p = 1, where a step draws no
# coins, a call of 2048 particles and 2**18 particle-steps ran slower on two threads
# and one of 4096 particles faster (BENCH_18.json).
SPLIT_PARTICLES = 4096
SPLIT_WORK = 2**18
# the most threads a call may split across; a worker of a process pool sets 1
max_threads = 2


def one_thread() -> None:
    """Run every call of this process on one thread: the initializer of a pool's
    workers, whose siblings hold the other CPUs."""
    global max_threads
    max_threads = 1


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads(n: int, k: int) -> int:
    """The threads a k-step call of n particles runs on: two when the call is large
    enough to pay for the second and the process may run on two CPUs, one otherwise."""
    if n < SPLIT_PARTICLES or n * k < SPLIT_WORK:
        return 1
    return min(max_threads, _cpus())


def _args(T):
    """The ctypes mirror of the kernel's struct of run arguments, for positions of type T:
    the run's own arrays, as the kernel keeps its block buffers on its stack."""
    P = ctypes.c_void_p
    U = ctypes.c_uint64
    I = ctypes.c_int64
    fields = [("n", I), ("k0", U), ("k1", U), ("cut", U), ("x", P), ("rr", P), ("ring", I),
              ("seam", T), ("v", T), ("wind", P), ("disp", P), ("obs", P), ("m", I)]
    return type(f"RunArgs_{T.__name__}", (ctypes.Structure,), {"_fields_": fields})


def bind(dll) -> dict:
    """{"i", "f", "obstacles": (run function, its argument structure)} of a loaded library.

    "i" and "f" are the int64 and float64 runs, "obstacles" the float64 run among
    obstacles.  A run fills its structure once with its fixed arguments; each call
    takes a pointer to it, then the first step t, the step count k, totals, xs, ds and
    the threads it may split across.
    """
    P = ctypes.c_void_p
    i64, f64 = _args(ctypes.c_int64), _args(ctypes.c_double)
    fns = {"i": (dll.tasep_run_i64, i64), "f": (dll.tasep_run_f64, f64),
           "obstacles": (dll.tasep_run_f64_obstacles, f64)}
    for fn, args in fns.values():
        fn.argtypes = [ctypes.POINTER(args), ctypes.c_uint64, ctypes.c_int64, P, P, P,
                      ctypes.c_int64]
        fn.restype = None
    return fns


def _library(cache: Path) -> Path:
    """The library's path in ``cache``, keyed by the source and the flags."""
    tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()
    return cache / f"_kernel-{tag[:16]}.so"


def load(cache: Path = _CACHE):
    """``bind`` of the library in ``cache``, built if missing; None on failure."""
    try:
        lib = _library(cache)
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".so.tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["gcc", *_FLAGS, "-o", tmp, str(_SOURCE)], check=True,
                               capture_output=True, timeout=_BUILD_TIMEOUT_S)
                os.replace(tmp, lib)
                # the libraries of earlier sources; a *.so.tmp may still be another build
                for stale in set(cache.glob("_kernel-*.so")) - {lib}:
                    with contextlib.suppress(OSError):
                        stale.unlink()
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        dll = ctypes.CDLL(str(lib))
    except (OSError, subprocess.SubprocessError):
        return None
    return bind(dll)


kernel = functools.cache(load)
