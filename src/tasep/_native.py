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
import struct
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
# and one of 4096 particles faster (BENCH_18.json).  Re-measured on the cheaper coins
# of contract 0.3 (BENCH_27.json): at 4096 particles and 2**18 particle-steps two
# threads ran level with one at p = 1 and level or faster at p = 0.5, and at 2048
# particles slower at p = 1, so the rule stands.
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


# The kernel's struct of run-call arguments (ARGS in _kernel.c), packed in two parts
# whose bytes join into it.  OWN_ARGS, for positions of int64 ("i") and float64 ("f"),
# holds a run's own fields, which it packs once: n, the coins' seed and stream, cut, the
# address of rr, seam (0 on a line), v, the address of obs and m.  CALL_ARGS holds a
# call's: the addresses of x, wind and disp, its first step t, its step count k, the
# address of the totals (0 for a coupled call, which writes its own), the threads it may
# split across and the addresses of the positions and windings it copies into x and
# wind before its first step (0 and 0 to start from x and wind as they are).  Native
# layout ("@", "P" for a pointer) lays the fields out as the C compiler does; every
# field is 8 bytes, so the joined parts have no padding to miss.  A call passes the
# bytes, whose data CPython keeps 8-byte aligned, as its one c_char_p argument.
OWN_ARGS = {"i": struct.Struct("@qQQQPqqPq"), "f": struct.Struct("@qQQQPddPq")}
CALL_ARGS = struct.Struct("@PPPQqPqPP")


def bind(dll) -> dict:
    """{"i", "f", "obstacles", "coupled"} of a loaded library.

    "i" and "f" are the int64 and float64 runs, "obstacles" the float64 run among
    obstacles; each takes one call's packed ARGS.  "coupled" is the tuple of the four
    coupled entry points, indexed by the two runs' kinds: 2 when the first's positions
    are float64, plus 1 when the second's are.  Each takes the two runs' packed ARGS,
    the steps and step count being the first's, the displacement scale and the address
    of a 4 x k float64 output; the gaps compared are the first's, n on a ring and n - 1
    on a line.
    """
    fns = {"i": dll.tasep_run_i64, "f": dll.tasep_run_f64,
           "obstacles": dll.tasep_run_f64_obstacles}
    for fn in fns.values():
        fn.restype = None
        fn.argtypes = [ctypes.c_char_p]
    fns["coupled"] = tuple(getattr(dll, f"tasep_coupled_{a}_{b}")
                           for a in ("i64", "f64") for b in ("i64", "f64"))
    for fn in fns["coupled"]:
        fn.restype = None
        fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_double, ctypes.c_void_p]
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
