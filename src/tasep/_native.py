"""The fused run kernel: ``_kernel.c`` compiled at first use and loaded with ctypes.

The shared library lives in the package's ``__pycache__/`` under a name keyed
by a hash of the source and the compiler flags, so an edited source or a
changed flag builds afresh.  A build writes a temporary file and renames it
into place, so processes racing on a cold cache each load a complete library.
When no compiler is present, or the build or the load fails, ``kernel()`` is
None and ``dynamics`` runs its numpy stepper instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")
# no -ffast-math or -march=native: the float path must keep numpy's operation order
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120


def _signature(T):
    P = ctypes.c_void_p
    U = ctypes.c_uint64
    I = ctypes.c_int64
    return [I, U, U, U, P, P, ctypes.c_int, T, T, P, P, P, I, U, I, P, P, P]


def load(cache: Path = _SOURCE.parent / "__pycache__"):
    """{"i", "f", "obstacles": run function} from the library in ``cache``, built if missing.

    "i" and "f" are the int64 and float64 runs, "obstacles" the float64 run among
    obstacles; None on failure.
    """
    try:
        tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()
        lib = cache / f"_kernel-{tag[:16]}.so"
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_kernel-", suffix=".so.tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["gcc", *_FLAGS, "-o", tmp, str(_SOURCE)], check=True,
                               capture_output=True, timeout=_BUILD_TIMEOUT_S)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        dll = ctypes.CDLL(str(lib))
    except (OSError, subprocess.SubprocessError):
        return None
    fns = {"i": dll.tasep_run_i64, "f": dll.tasep_run_f64,
           "obstacles": dll.tasep_run_f64_obstacles}
    for name, fn in fns.items():
        fn.argtypes = _signature(ctypes.c_int64 if name == "i" else ctypes.c_double)
        fn.restype = None
    return fns


kernel = functools.cache(load)
