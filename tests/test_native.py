"""The fused C run kernel: it builds where a compiler exists, survives a cold-cache
race, compiles cleanly under strict warnings, exports every run function, and repeats
the numpy stepper bit for bit on plain runs, obstacle runs and coupled runs, in its
SIMD clone and in its portable default clone, on one thread and split across two."""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tasep import (
    LINE,
    CoinStream,
    Configuration,
    ObstacleField,
    ProcessParams,
    Ring,
    coupled_run,
    even_lattice_ring,
    radius_conjugate,
    run,
    step,
)
from tasep import _native, dynamics
from tasep.dynamics import _Stepper


def _summary_bytes(s) -> tuple[bytes, ...]:
    return (s.final.positions.tobytes(), s.final.positions.dtype.str.encode(),
            s.final.winding.tobytes(), s.step_total_displacement.tobytes())


def _both_paths(monkeypatch, fn):
    """fn() on the fused kernel, then on the numpy stepper."""
    if _native.kernel() is None:
        pytest.skip("the fused kernel cannot be built here")
    fused = fn()
    with monkeypatch.context() as m:
        m.setattr(_native, "kernel", lambda: None)
        return fused, fn()


def test_kernel_builds_where_gcc_exists():
    # a silent fallback would leave every default-path test on the numpy stepper
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on this machine")
    assert _native.kernel() is not None


def _build(lib: Path, *extra: str) -> subprocess.CompletedProcess:
    """The kernel compiled with the production flags plus ``extra`` into ``lib``."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on this machine")
    return subprocess.run(["gcc", *_native._FLAGS, *extra, "-o", str(lib), str(_native._SOURCE)],
                          capture_output=True, text=True, timeout=_native._BUILD_TIMEOUT_S)


# the production flags stay as they are; these catch shadowed names and the like,
# and bound the stack of a run function, which holds its block buffers
STRICT = ("-Wall", "-Wextra", "-Wshadow", "-Wstack-usage=16384", "-Werror")


def test_kernel_compiles_under_strict_warnings(tmp_path):
    proc = _build(tmp_path / "strict.so", *STRICT)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def default_clone_build(tmp_path_factory):
    """(library, compiler run) of the kernel built without target clones under the
    strict warnings, built once for the module.  Warning flags change no generated
    code, so this one library serves the strict check, the export check and the
    default-clone runs."""
    lib = tmp_path_factory.mktemp("no_clones") / "_kernel.so"
    return lib, _build(lib, *STRICT, "-DTASEP_NO_CLONES")


def test_default_clone_compiles_under_strict_warnings(default_clone_build):
    _, proc = default_clone_build
    assert proc.returncode == 0, proc.stderr


# the fields of the kernel's struct tasep_args_*, in the order of _native's packing
ARGS_FIELDS = ("n", "seed", "stream", "cut", "rr", "seam", "v", "obs", "m",
               "x", "wind", "disp", "t", "k", "totals", "threads", "x_src", "wind_src")
# prints each field's offset in both structs (FIELDS expands to one FIELD per field),
# then both sizes
ARGS_PROBE = """#include "_kernel.c"
#include <stddef.h>
#include <stdio.h>
#define FIELD(f) printf("%zu %zu\\n", offsetof(struct tasep_args_i64, f), \\
                        offsetof(struct tasep_args_f64, f));
int main(void) {
    FIELDS
    printf("%zu %zu\\n", sizeof(struct tasep_args_i64), sizeof(struct tasep_args_f64));
    return 0;
}
"""


def test_the_packed_arguments_match_the_kernels_struct(tmp_path):
    """_native packs ARGS by hand; each field's offset in its joined formats, and their
    size, must be those the compiler gives struct tasep_args_i64 and tasep_args_f64."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on this machine")
    probe, exe = tmp_path / "probe.c", tmp_path / "probe"
    probe.write_text(ARGS_PROBE.replace("FIELDS", " ".join(map("FIELD({})".format,
                                                               ARGS_FIELDS))))
    build = subprocess.run(["gcc", "-pthread", "-DTASEP_NO_CLONES",
                            f"-I{_native._SOURCE.parent}", "-o", str(exe), str(probe), "-lm"],
                           capture_output=True, text=True, timeout=_native._BUILD_TIMEOUT_S)
    assert build.returncode == 0, build.stderr
    rows = [tuple(map(int, line.split())) for line in
            subprocess.run([str(exe)], capture_output=True, text=True, check=True,
                           timeout=60).stdout.splitlines()]
    for column, kind in enumerate("if"):
        # one code per field, "@" applying to the joined format as to each part
        codes = _native.OWN_ARGS[kind].format[1:] + _native.CALL_ARGS.format[1:]
        assert len(codes) == len(ARGS_FIELDS)
        packed = [struct.calcsize("@" + codes[:j]) for j in range(len(codes) + 1)]
        assert [row[column] for row in rows] == packed
        assert _native.OWN_ARGS[kind].size + _native.CALL_ARGS.size == packed[-1]


RUN_FUNCTIONS = ("tasep_run_i64", "tasep_run_f64", "tasep_run_f64_obstacles",
                 "tasep_coupled_i64_i64", "tasep_coupled_i64_f64", "tasep_coupled_f64_i64",
                 "tasep_coupled_f64_f64")


def _exported(lib: Path) -> dict[str, str]:
    """{symbol: nm type} of the dynamic symbols ``lib`` defines."""
    if shutil.which("nm") is None:
        pytest.skip("no nm on this machine")
    out = subprocess.run(["nm", "-D", "--defined-only", str(lib)], capture_output=True,
                         text=True, check=True).stdout
    return {f[2]: f[1] for f in map(str.split, out.splitlines()) if len(f) == 3}


def test_library_exports_every_run_function(default_clone_build):
    # each run function, the coupled ones too, is an indirect function (its clones behind
    # one resolver) on x86-64 and a plain one elsewhere; without clones it is plain everywhere
    if _native.kernel() is None:
        pytest.skip("the fused kernel cannot be built here")
    kinds = _exported(_native._library(_native._CACHE))
    expected = "i" if platform.machine() in ("x86_64", "AMD64") else "T"
    assert {name: kinds.get(name) for name in RUN_FUNCTIONS} == dict.fromkeys(RUN_FUNCTIONS,
                                                                              expected)
    lib, proc = default_clone_build
    assert proc.returncode == 0, proc.stderr
    kinds = _exported(lib)
    assert {name: kinds.get(name) for name in RUN_FUNCTIONS} == dict.fromkeys(RUN_FUNCTIONS, "T")


def test_a_build_removes_the_libraries_of_earlier_sources(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on this machine")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_kernel-0000000000000000.so").write_bytes(b"an earlier source's library")
    # another process may still be building into its temporary file
    building = cache / "_kernel-x1y2z3.so.tmp"
    building.write_bytes(b"")
    assert _native.load(cache) is not None
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [_native._library(cache).name, building.name])


def test_unwritable_cache_falls_back(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should be")
    assert _native.load(blocker / "sub") is None


def test_no_compiler_falls_back(tmp_path, monkeypatch):
    # the platform where the numpy stepper runs in production: no gcc on PATH
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    cache = tmp_path / "cache"
    assert _native.load(cache) is None
    assert list(cache.glob("*.so.tmp")) == []


def _ring(n, lattice, rng):
    L = 2 * n + 3
    pos = np.sort(rng.choice(L, n, replace=False))
    if lattice:
        return Configuration(Ring(L), pos.astype(np.int64), 0.0), ProcessParams(0.5, 2)
    return Configuration(Ring(L * 1.7), pos * 1.7, 0.3), ProcessParams(0.5, 1.25)


# sizes around the 4-coin counter blocks and the 8-lane and 128-element blocks of
# numpy's pairwise sum, which the reproducibility cases (n <= 120) do not reach, then
# sizes around the split rule: just below, at and just above its particle count, one
# that is not a multiple of 8, and 10^4
SPLIT = _native.SPLIT_PARTICLES
SIZES = [1, 2, 3, 5, 8, 9, 127, 129, 257, 1031, SPLIT - 1, SPLIT, SPLIT + 1, 6001, 10_000]


def _shape(n):
    """(steps, snapshot stride) of a size's run.  From the split rule's particle count
    on, two chunks of exactly the rule's work split and a short last chunk does not."""
    if n < SPLIT - 1:
        return 40, 9
    k = -(-_native.SPLIT_WORK // n)
    return 2 * k + 3, k


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuum"])
def test_kernel_equals_numpy_across_sizes(n, lattice, monkeypatch):
    cfg, params = _ring(n, lattice, np.random.default_rng(n))
    steps, stride = _shape(n)
    fused, ref = _both_paths(monkeypatch, lambda: _summary_bytes(
        run(cfg, params, steps, CoinStream(n), snapshot_stride=stride)))
    assert fused == ref


def test_split_rule(monkeypatch):
    k = -(-_native.SPLIT_WORK // SPLIT)
    assert _native.threads(SPLIT - 1, 100 * k) == 1
    assert _native.threads(SPLIT, k - 1) == 1
    assert _native.threads(SPLIT, k) == min(2, _native._cpus())
    # the chunks of _shape: full ones split where two CPUs are there, the last does not
    for n in SIZES[SIZES.index(SPLIT):]:
        steps, stride = _shape(n)
        assert _native.threads(n, stride) == _native.threads(SPLIT, k)
        assert _native.threads(n, steps % stride) == 1
    # what a process pool's initializer sets in each worker
    monkeypatch.setattr(_native, "max_threads", 2)
    _native.one_thread()
    assert _native.threads(10_000, 10_000) == 1


# p = 0, 1 and 1 - 2**-53 (cut 2**32) draw no words; 1 - 2**-32 has the largest cut
# that draws, 2**-32 the cut 1 and 5e-324 the cut 1 too, moving only a coin of 0
@pytest.mark.parametrize("p", [0.0, 1.0, 1 - 2.0**-53, 1 - 2.0**-32, 2.0**-32, 5e-324])
def test_kernel_equals_numpy_on_a_line_at_edge_probabilities(p, monkeypatch):
    cfg = Configuration(LINE, np.cumsum(np.random.default_rng(3).uniform(0.5, 2.0, 50)),
                        np.random.default_rng(4).uniform(0.0, 0.25, 50))
    fused, ref = _both_paths(
        monkeypatch, lambda: _summary_bytes(run(cfg, ProcessParams(p, 1.5), 30, CoinStream(2))))
    assert fused == ref


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuum"])
def test_kernel_equals_numpy_with_deterministic_coins(p, lattice, monkeypatch):
    # at p = 0 and p = 1 the kernel draws no words at all
    cfg, _ = _ring(101, lattice, np.random.default_rng(5))
    params = ProcessParams(p, 2 if lattice else 1.25)
    fused, ref = _both_paths(
        monkeypatch, lambda: _summary_bytes(run(cfg, params, 30, CoinStream(6), snapshot_stride=7)))
    assert fused == ref


def _obstacle_ring(n, rng):
    """n point particles on a continuum ring among about n/2 random obstacles."""
    L = (2 * n + 3) * 1.7
    pos = np.sort(rng.choice(2 * n + 3, n, replace=False)) * 1.7
    z = np.unique(rng.uniform(0.0, L, n // 2 + 1))
    return Configuration(Ring(L), pos, 0.0), ObstacleField(Ring(L), z)


def _obstacle_line(n, rng):
    """n point particles on a line window among obstacles inside and beyond it."""
    pos = np.cumsum(rng.uniform(0.0, 2.0, n)) - 5.0
    z = np.unique(rng.uniform(-8.0, pos[-1] + 20.0, n // 2 + 3))
    return Configuration(LINE, pos, 0.0), ObstacleField(LINE, z)


def _obstacle_bytes(cfg, params, field, steps=40, seed=7, stride=9):
    return _summary_bytes(run(cfg, params, steps, CoinStream(seed), field=field,
                              snapshot_stride=stride))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("geometry", ["ring", "line"])
def test_obstacle_kernel_equals_numpy_across_sizes(n, geometry, monkeypatch):
    make = _obstacle_ring if geometry == "ring" else _obstacle_line
    cfg, field = make(n, np.random.default_rng(n))
    steps, stride = _shape(n)
    fused, ref = _both_paths(monkeypatch, lambda: _obstacle_bytes(
        cfg, ProcessParams(0.6, 1.5), field, steps=steps, seed=n, stride=stride))
    assert fused == ref


def _before_the_seam(cfg, gap):
    """cfg turned on its ring so that particle 0 sits gap below the seam."""
    L = cfg.circumference
    pos = cfg.positions - cfg.positions[0] + (L - gap)
    return Configuration(Ring(L), pos.astype(cfg.positions.dtype), cfg.radii)


# particle 0 reaches the seam after a few hundred steps of one split call, so the
# helper's particles wrap mid-call, on the seam decision the caller's thread puts out
@pytest.mark.parametrize("kind", ["lattice", "continuum", "obstacles"])
def test_split_call_wraps_at_the_seam(kind, monkeypatch):
    n, steps, gap = SPLIT + 1, 600, 300
    rng = np.random.default_rng(17)
    if kind == "obstacles":
        cfg, field = _obstacle_ring(n, rng)
    else:
        (cfg, _), field = _ring(n, kind == "lattice", rng), None
    params = ProcessParams(0.9, 3 if kind == "lattice" else 3.0)
    cfg = _before_the_seam(cfg, gap)
    if field is not None:
        field = ObstacleField(cfg.geometry, field.positions)
    assert _native.threads(n, steps) == min(2, _native._cpus())
    firsts = [float(c.positions[0]) for _, c in
              run(cfg, params, steps, CoinStream(5), field=field, snapshot_stride=100).snapshots]
    # particle 0 wrapped once, after the first 100 steps and inside one chunk's call
    assert firsts[1] > firsts[0] and sum(b < a for a, b in zip(firsts, firsts[1:])) == 1
    fused, ref = _both_paths(monkeypatch, lambda: _summary_bytes(
        run(cfg, params, steps, CoinStream(5), field=field)))
    assert fused == ref


# a split call on any machine: two threads that may share one CPU, at the smallest
# size the kernel splits (n > 128) and around it, and where the split c = half_of(n)
# meets a block edge: n - c = BLOCK (1024), c - 8 = BLOCK (1040), c - 8 > BLOCK (1056)
@pytest.mark.parametrize("n", [129, 130, 136, 1000, 1024, 1040, 1056, SPLIT + 1])
@pytest.mark.parametrize("kind", ["lattice", "continuum", "ring_obstacles", "line_obstacles"])
def test_forced_split_equals_numpy(n, kind, monkeypatch):
    rng = np.random.default_rng(n)
    field = None
    if kind in ("lattice", "continuum"):
        cfg, params = _ring(n, kind == "lattice", rng)
    else:
        cfg, field = (_obstacle_ring if kind == "ring_obstacles" else _obstacle_line)(n, rng)
        params = ProcessParams(0.6, 1.5)

    def walk():
        stepper, totals = _Stepper(cfg, params, CoinStream(n), field), np.zeros(300)
        for t, lo, hi in ((0, 0, 100), (100, 100, 300)):
            stepper.steps(t, totals[lo:hi], threads=2)
        return stepper.x.tobytes(), stepper.wind.tobytes(), stepper.disp.tobytes(), totals.tobytes()

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref


def _split_case(n, kind, rng):
    """(configuration, params, field) of a ring of n particles for each run function."""
    if kind == "obstacles":
        cfg, field = _obstacle_ring(n, rng)
        return cfg, ProcessParams(0.9, 1.5), field
    cfg, _ = _ring(n, kind == "lattice", rng)
    return cfg, ProcessParams(0.9, 3 if kind == "lattice" else 3.0), None


def _one_split_call(cfg, params, field, steps, seed):
    """The bytes of one forced split call of ``steps`` steps from cfg."""
    stepper, totals = _Stepper(cfg, params, CoinStream(seed), field), np.zeros(steps)
    stepper.steps(0, totals, threads=2)
    return stepper.x.tobytes(), stepper.wind.tobytes(), stepper.disp.tobytes(), totals.tobytes()


# a call of 1 or 2 steps runs mostly on the values each thread sets before the helper
# starts: the helper's first bound and the caller's first x[c]
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("n", [136, 1040])
@pytest.mark.parametrize("kind", ["lattice", "continuum", "obstacles"])
def test_a_forced_split_of_one_or_two_steps_equals_numpy(steps, n, kind, monkeypatch):
    cfg, params, field = _split_case(n, kind, np.random.default_rng(n))
    fused, ref = _both_paths(monkeypatch,
                             lambda: _one_split_call(cfg, params, field, steps, n))
    assert fused == ref


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("kind", ["lattice", "continuum", "obstacles"])
def test_a_forced_split_whose_first_step_wraps_equals_numpy(steps, kind, monkeypatch):
    cfg, params, field = _split_case(136, kind, np.random.default_rng(23))
    cfg = _before_the_seam(cfg, 1)
    if field is not None:
        field = ObstacleField(cfg.geometry, field.positions)
    fused, ref = _both_paths(monkeypatch,
                             lambda: _one_split_call(cfg, params, field, steps, 23))
    assert fused == ref
    # particle 0 crossed the seam in the first step, so the helper unwrapped its
    # particles on the caller's first post
    with monkeypatch.context() as m:
        m.setattr(_native, "kernel", lambda: None)
        first = _Stepper(cfg, params, CoinStream(23), field)
        first.steps(0)
    assert first.x[0] < cfg.positions[0]


def test_split_helper_wraps_on_particle_0s_own_coin(monkeypatch):
    """The helper thread of a split call wraps its particles at the seam as particle 0's
    move of the same step decides, which the caller's thread puts out for that step.  On
    a small ring at p = 1/2 particle 0 crosses the seam many times, and in each step at
    the seam its coin alone decides whether it crosses, so another step's decision
    would wrap the helper's particles in the wrong steps."""
    n, L = 136, 400
    pos = np.sort(np.random.default_rng(21).choice(L, n, replace=False)).astype(np.int64)
    cfg, params = Configuration(Ring(L), pos, 0.0), ProcessParams(0.5, 3)

    def walk():
        stepper, totals = _Stepper(cfg, params, CoinStream(21)), np.zeros(3000)
        stepper.steps(0, totals, threads=2)
        return stepper.x.tobytes(), stepper.wind.tobytes(), totals.tobytes()

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref
    # particle 0 went round the ring many times within the one split call
    assert np.frombuffer(ref[1])[0] > 5 * L


# a split step whose total no caller keeps still writes it, into a slot of scratch; a
# call without one died at that write (exit status 139), so it runs in a process of its own
SPLIT_STEP = ("from tasep import CoinStream, ProcessParams, even_lattice_ring\n"
              "from tasep.dynamics import _Stepper\n"
              "s = _Stepper(even_lattice_ring(400, 200), ProcessParams(0.5, 1), CoinStream(1))\n"
              "s.steps(0, None, threads=2)\n"
              "print(s.x.tobytes().hex())\n")


def test_a_split_step_without_totals_leaves_the_numpy_positions(monkeypatch):
    if _native.kernel() is None:
        pytest.skip("the fused kernel cannot be built here")
    env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SPLIT_STEP], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(_native, "kernel", lambda: None)
    stepper = _Stepper(even_lattice_ring(400, 200), ProcessParams(0.5, 1), CoinStream(1))
    stepper.steps(0)
    assert proc.stdout.strip() == stepper.x.tobytes().hex()


# tests/tsan_split.c's build: ThreadSanitizer, and no target clones, whose start-up
# code crashed under it with gcc 12.2
TSAN = ("-O1", "-g", "-fsanitize=thread", "-ffp-contract=off", "-pthread", "-DTASEP_NO_CLONES")


def test_split_calls_pass_thread_sanitizer(tmp_path):
    """Forced split calls of every run function on rings and lines, around the sizes
    where the split meets a block edge, at p = 1/2 and p = 1: ThreadSanitizer reports no
    data race, and each call has the bytes of a one-thread call of the same steps."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on this machine")
    runtime = subprocess.run(["gcc", "-print-file-name=libtsan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("no ThreadSanitizer runtime (libtsan) on this machine")
    exe = tmp_path / "tsan_split"
    build = subprocess.run(["gcc", *TSAN, "-o", str(exe),
                            str(Path(__file__).with_name("tsan_split.c")), "-lm"],
                           capture_output=True, text=True, timeout=_native._BUILD_TIMEOUT_S)
    assert build.returncode == 0, build.stderr
    proc = subprocess.run([str(exe)], capture_output=True, text=True, timeout=300)
    if "ThreadSanitizer: unexpected memory mapping" in proc.stderr:
        # a runtime that cannot start under this kernel's address layout reports no race
        pytest.skip("the ThreadSanitizer runtime cannot start on this kernel")
    assert proc.returncode == 0 and "ThreadSanitizer" not in proc.stderr, (
        proc.stdout + proc.stderr)


def _long_jump_ring(n, rng):
    """An int64 ring of 2**59 sites whose step totals pass 2**53: jump v near 2**52,
    unequal gaps below v between the n particles and the rest of the ring behind the
    last."""
    v = 2**52 + 7
    pos = np.concatenate([[0], np.cumsum(rng.integers(v // 8, v, n - 1))])
    return Configuration(Ring(2**59), pos.astype(np.int64), 0.0), ProcessParams(0.5, v)


def _integer_mismatches(cfg, params, coins, steps) -> int:
    """Steps of the numpy stepper whose pairwise total is not the integer sum of the
    step's displacements."""
    stepper, total, mismatches = _Stepper(cfg, params, coins), np.zeros(1), 0
    for t in range(steps):
        stepper.steps(t, total)
        mismatches += total[0] != float(sum(int(d) for d in stepper.disp))
    return mismatches


# an int64 run sums each step's displacements as integers only while n v <= 2**53,
# where that sum has pairwise's bits; past it the kernel must sum pairwise
@pytest.mark.parametrize("n, threads", [(10, 1), (136, 1), (136, 2)])
def test_kernel_totals_past_2_53_equal_numpy(n, threads, monkeypatch):
    cfg, params = _long_jump_ring(n, np.random.default_rng(n))
    assert n * params.v > 2**53

    def walk():
        stepper, totals = _Stepper(cfg, params, CoinStream(n)), np.zeros(40)
        stepper.steps(0, totals, threads=threads)
        return stepper.x.tobytes(), stepper.wind.tobytes(), stepper.disp.tobytes(), totals.tobytes()

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref
    # the case tells the two sums apart
    with monkeypatch.context() as m:
        m.setattr(_native, "kernel", lambda: None)
        assert _integer_mismatches(cfg, params, CoinStream(n), 40) > 0


def test_a_lattice_call_leaves_its_last_steps_displacements(monkeypatch):
    # an int64 call writes the disp row on its last step only; the row must then hold
    # that step's displacements, as after the numpy stepper
    cfg, params = _ring(1031, True, np.random.default_rng(8))

    def walk():
        stepper, totals = _Stepper(cfg, params, CoinStream(8)), np.zeros(7)
        stepper.steps(0, totals, threads=1)
        return stepper.disp.tobytes(), totals.tobytes()

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref


def _pinned_run(results) -> None:
    """In a process allowed one CPU: the split rule's verdict and the bytes of a run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg, params = _ring(10_000, True, np.random.default_rng(3))
    results.put((_native.threads(10_000, 100),
                 _summary_bytes(run(cfg, params, 100, CoinStream(3), snapshot_stride=40))))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_a_process_on_one_cpu_runs_one_thread_to_the_same_bytes():
    ctx = multiprocessing.get_context("spawn")
    results = ctx.Queue()
    proc = ctx.Process(target=_pinned_run, args=(results,))
    proc.start()
    threads, got = results.get(timeout=120)
    proc.join(timeout=30)
    assert not proc.is_alive() and proc.exitcode == 0
    assert threads == 1
    cfg, params = _ring(10_000, True, np.random.default_rng(3))
    assert got == _summary_bytes(run(cfg, params, 100, CoinStream(3), snapshot_stride=40))


def _split_walk(n, threads):
    """The bytes of a 300-step call of threads threads on a lattice ring of n particles."""
    cfg, params = _ring(n, True, np.random.default_rng(n))
    stepper, totals = _Stepper(cfg, params, CoinStream(n)), np.zeros(300)
    stepper.steps(0, totals, threads=threads)
    return stepper.x.tobytes(), stepper.wind.tobytes(), stepper.disp.tobytes(), totals.tobytes()


def _pinned_split(n, results) -> None:
    """In a process allowed one CPU: its CPU count and the bytes of a forced split call."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    results.put((len(os.sched_getaffinity(0)), _split_walk(n, 2)))


# the two threads of a forced split take turns on one CPU: each wait spins, then yields
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("n", [136, 1040])
def test_a_forced_split_on_one_cpu_has_one_threads_bytes(n):
    if _native.kernel() is None:
        pytest.skip("the fused kernel cannot be built here")
    ctx = multiprocessing.get_context("spawn")
    results = ctx.Queue()
    proc = ctx.Process(target=_pinned_split, args=(n, results))
    proc.start()
    cpus, got = results.get(timeout=120)
    proc.join(timeout=30)
    assert not proc.is_alive() and proc.exitcode == 0
    assert cpus == 1
    assert got == _split_walk(n, 1)


def _obstacles_on_every_site():
    cfg = Configuration(Ring(30.0), np.arange(0.0, 30.0, 3.0), 0.0)
    return cfg, ObstacleField(Ring(30.0), np.arange(30.0)), ProcessParams(1.0, 3.0)


# name -> (configuration, field, params)
OBSTACLE_EDGES = {
    "empty_field": (Configuration(Ring(40.0), np.arange(0.0, 40.0, 2.5), 0.0),
                    ObstacleField(Ring(40.0), []), ProcessParams(0.7, 2.0)),
    # obstacles at 0, 4 and 8 sit on particles: only one strictly beyond stops them
    "obstacle_on_a_particle": (Configuration(Ring(20.0), np.arange(0.0, 20.0, 4.0), 0.0),
                               ObstacleField(Ring(20.0), [0.0, 4.0, 5.5, 8.0, 13.0]),
                               ProcessParams(1.0, 3.0)),
    "obstacle_on_every_site": _obstacles_on_every_site(),
    "seam_wraps_mid_run": (Configuration(Ring(10.0), [6.5, 8.0, 9.5], 0.0),
                           ObstacleField(Ring(10.0), [0.25, 3.0, 7.0]),
                           ProcessParams(0.8, 1.5)),
}


@pytest.mark.parametrize("name", sorted(OBSTACLE_EDGES))
def test_obstacle_kernel_equals_numpy_on_edge_fields(name, monkeypatch):
    cfg, field, params = OBSTACLE_EDGES[name]
    fused, ref = _both_paths(monkeypatch, lambda: _obstacle_bytes(cfg, params, field, stride=1))
    assert fused == ref


def test_obstacle_edge_fields_behave_as_stated():
    cfg, field, params = OBSTACLE_EDGES["empty_field"]
    assert run(cfg, params, 40, CoinStream(7), field=field).final == run(
        cfg, params, 40, CoinStream(7)).final
    # the obstacle at a particle's own position does not hold it: 0 -> 3, 4 -> 5.5, 8 -> 11
    cfg, field, params = OBSTACLE_EDGES["obstacle_on_a_particle"]
    assert step(cfg, params, CoinStream(0), 0, field=field).positions.tolist() == [
        3.0, 5.5, 11.0, 13.0, 19.0]
    # with an obstacle on every site no particle moves more than one site a step
    cfg, field, params = OBSTACLE_EDGES["obstacle_on_every_site"]
    assert np.all(run(cfg, params, 40, CoinStream(7), field=field).step_total_displacement
                  == cfg.n)
    cfg, field, params = OBSTACLE_EDGES["seam_wraps_mid_run"]
    firsts = [float(c.positions[0]) for _, c in
              run(cfg, params, 40, CoinStream(7), field=field, snapshot_stride=1).snapshots]
    assert any(b < a for a, b in zip(firsts, firsts[1:]))


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_obstacle_kernel_equals_numpy_with_deterministic_coins(p, monkeypatch):
    cfg, field = _obstacle_ring(64, np.random.default_rng(8))
    fused, ref = _both_paths(
        monkeypatch, lambda: _obstacle_bytes(cfg, ProcessParams(p, 2.5), field))
    assert fused == ref


def _coupled_bytes(res):
    return tuple(a.tobytes() for a in (
        res.a.final.positions, res.a.final.winding, res.b.final.positions, res.b.final.winding,
        res.a.step_total_displacement, res.b.step_total_displacement,
        res.max_gap_divergence, res.max_displacement_divergence))


def _het_pair(n, rng):
    """Random radii and their mean-radius conjugate; the seam wraps within a few steps."""
    radii = rng.uniform(0.0, 0.4, n)
    cfg = Configuration(Ring(3.0 * n), np.arange(n) * 3.0 + (3.0 * n - 2.3), radii)
    return cfg, radius_conjugate(cfg, float(radii.mean()))


# one block of the kernel's, two, and nine with a partial last one
@pytest.mark.parametrize("n, steps", [(100, 41 * 3 + 7), (1000, 25), (4099, 3)],
                         ids=["n100_one_block", "n1000_two_blocks", "n4099_nine_blocks"])
def test_coupled_run_equals_single_steps(n, steps, monkeypatch):
    """Coupled runs on both paths equal a run compared after every single step."""
    cfg_a, cfg_b = _het_pair(n, np.random.default_rng(n))
    params = ProcessParams(0.6, 1.5)
    fused, ref = _both_paths(monkeypatch, lambda: _coupled_bytes(
        coupled_run(cfg_a, cfg_b, params, params, steps, CoinStream(n))))
    assert fused == ref
    # the per-step reference: each side one step at a time, compared after every step
    a, b = (_Stepper(c, params, CoinStream(n)) for c in (cfg_a, cfg_b))
    gap_div, disp_div = np.zeros(steps), np.zeros(steps)
    for t in range(steps):
        a.steps(t, np.zeros(1))
        b.steps(t, np.zeros(1))
        ga, gb = (side.bounds() - side.x for side in (a, b))
        gap_div[t] = np.abs(gb - ga).max()
        disp_div[t] = np.abs(b.disp - a.disp).max()
    assert fused[-2:] == (gap_div.tobytes(), disp_div.tobytes())


def _lattice_ring(n, L, seed):
    """n particles on a random int64 ring of L sites."""
    pos = np.sort(np.random.default_rng(seed).choice(L, n, replace=False))
    return Configuration(Ring(L), pos.astype(np.int64), 0.0)


def _line(n, seed):
    """n particles of random radii on a line, 1.5 to 3 apart."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.0, 0.3, n)
    return Configuration(LINE, np.cumsum(rng.uniform(1.5, 3.0, n)), radii)


def _as_float(cfg, scale=1.0):
    """cfg with float64 positions, scaled by scale about 0."""
    geometry = Ring(cfg.circumference * scale) if cfg.is_ring else LINE
    return Configuration(geometry, cfg.positions * scale, cfg.radii * scale)


LATTICE = _lattice_ring(60, 150, 1)
SEAM = _het_pair(50, np.random.default_rng(50))

# name -> (configuration a, configuration b, params a, params b, displacement scale):
# the positions' dtypes of a and b, their p and v, the geometry and the size
COUPLED_PAIRS = {
    "lattice_lattice": (LATTICE, radius_conjugate(LATTICE, 0.0), ProcessParams(0.6, 2),
                        ProcessParams(0.6, 2), 1.0),
    "continuum_continuum": (*SEAM, ProcessParams(0.6, 1.5), ProcessParams(0.6, 1.5), 1.0),
    "int64_float64": (LATTICE, _as_float(LATTICE), ProcessParams(0.5, 1),
                      ProcessParams(0.5, 1), 1.0),
    "float64_int64": (_as_float(LATTICE), LATTICE, ProcessParams(0.5, 1),
                      ProcessParams(0.5, 1), 1.0),
    # an integral ring run at a fractional jump is float64
    "int64_fractional_jump": (LATTICE, LATTICE, ProcessParams(0.5, 2),
                              ProcessParams(0.5, 1.5), 1.0),
    "different_p_and_v": (LATTICE, LATTICE, ProcessParams(0.3, 1), ProcessParams(0.8, 3), 1.0),
    # one side draws words, the other decides every coin without them
    "p_half_and_one": (*SEAM, ProcessParams(0.5, 1.5), ProcessParams(1.0, 1.5), 1.0),
    "p_one_and_half": (*SEAM, ProcessParams(1.0, 1.5), ProcessParams(0.5, 1.5), 1.0),
    # the sides differ first in the one gap that spans the kernel's first two blocks of
    # 512 particles, which the kernel compares once both blocks have moved
    "block_edge_gap": (Configuration(LINE, np.arange(0, 3000, 3), 0.0),
                       Configuration(LINE, np.arange(0, 3000, 3) + (np.arange(1000) >= 512), 0.0),
                       ProcessParams(0.5, 1), ProcessParams(0.5, 1), 1.0),
    "similarity_scale_2": (LATTICE, _as_float(LATTICE, 2.0), ProcessParams(0.5, 1),
                           ProcessParams(0.5, 2.0), 2.0),
    "line": (_line(40, 2), radius_conjugate(_line(40, 2), 0.0), ProcessParams(0.7, 2.0),
             ProcessParams(0.7, 2.0), 1.0),
    "line_int64": (Configuration(LINE, np.arange(0, 90, 3), 0.0),
                   Configuration(LINE, np.arange(0, 90, 3), 0.0), ProcessParams(0.5, 2),
                   ProcessParams(0.9, 1), 1.0),
    # a ring against a line: b's last gap runs to the line's sentinel
    "ring_and_line": (LATTICE, Configuration(LINE, LATTICE.positions, 0.0),
                      ProcessParams(0.5, 1), ProcessParams(0.5, 1), 1.0),
    "ring_and_float_line": (LATTICE, Configuration(LINE, LATTICE.positions * 1.0, 0.0),
                            ProcessParams(0.5, 1), ProcessParams(0.5, 1), 1.0),
    "ring_n0": (Configuration(Ring(9), np.zeros(0, np.int64), 0.0),
                Configuration(Ring(9.0), np.zeros(0), 0.0), ProcessParams(0.5, 1),
                ProcessParams(0.5, 1.5), 1.0),
    "line_n0": (Configuration(LINE, np.zeros(0), 0.0), Configuration(LINE, np.zeros(0), 0.0),
                ProcessParams(0.5, 1.5), ProcessParams(0.5, 1.5), 1.0),
    "ring_n1": (Configuration(Ring(7), [3], 0.0), Configuration(Ring(7.0), [3.5], 0.25),
                ProcessParams(0.5, 2), ProcessParams(0.5, 2.5), 1.0),
    "line_n1": (Configuration(LINE, [3], 0.0), Configuration(LINE, [3.5], 0.25),
                ProcessParams(0.5, 2), ProcessParams(0.5, 2.5), 1.0),
    "ring_n2": (Configuration(Ring(8), [0, 5], 0.0), Configuration(Ring(8.0), [1.0, 6.5], 0.2),
                ProcessParams(0.5, 2), ProcessParams(0.5, 2.5), 1.0),
    "line_n2": (Configuration(LINE, [0, 5], 0.0), Configuration(LINE, [1.0, 6.5], 0.2),
                ProcessParams(0.5, 2), ProcessParams(0.5, 2.5), 1.0),
    "p0": (*SEAM, ProcessParams(0.0, 1.5), ProcessParams(0.0, 1.5), 1.0),
    "p1": (*SEAM, ProcessParams(1.0, 1.5), ProcessParams(1.0, 1.5), 1.0),
}


@pytest.mark.parametrize("name", sorted(COUPLED_PAIRS))
def test_coupled_kernel_equals_numpy(name, monkeypatch):
    """Every pair coupled_run accepts: the fused entry point repeats the numpy
    comparison bit for bit, and each side has the bits of its own run."""
    cfg_a, cfg_b, params_a, params_b, scale = COUPLED_PAIRS[name]

    def both():
        res = coupled_run(cfg_a, cfg_b, params_a, params_b, 60, CoinStream(11), scale)
        return (_coupled_bytes(res), _summary_bytes(res.a), _summary_bytes(res.b),
                _summary_bytes(run(cfg_a, params_a, 60, CoinStream(11))),
                _summary_bytes(run(cfg_b, params_b, 60, CoinStream(11))))

    fused, ref = _both_paths(monkeypatch, both)
    assert fused == ref
    assert fused[1:3] == fused[3:]


# displacement scales coupled_run rejects: once comparison cases, whose NaN terms made
# every divergence NaN
BAD_SCALES = {"scale_nan": math.nan, "scale_inf": math.inf, "scale_-inf": -math.inf,
              "scale_0": 0.0, "scale_negative": -2.0}


@pytest.mark.parametrize("name", sorted(BAD_SCALES))
def test_coupled_run_rejects_a_bad_scale_before_any_step(name, monkeypatch):
    """On both paths a scale that is not positive and finite raises ValueError before a
    stepper is built, so no step runs."""

    def no_stepper(*args):
        raise AssertionError("a stepper was built")

    def rejected():
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_Stepper", no_stepper)
            with pytest.raises(ValueError, match="displacement_scale"):
                coupled_run(LATTICE, LATTICE, ProcessParams(0.5, 1), ProcessParams(0.5, 1), 60,
                            CoinStream(11), BAD_SCALES[name])
        return name

    assert _both_paths(monkeypatch, rejected) == (name, name)


def test_coupled_pairs_reach_what_they_name():
    def dtypes(name):
        cfg_a, cfg_b, params_a, params_b, _ = COUPLED_PAIRS[name]
        return tuple(run(c, p, 1, 0).final.positions.dtype.kind
                     for c, p in ((cfg_a, params_a), (cfg_b, params_b)))

    assert dtypes("lattice_lattice") == ("i", "i")
    assert dtypes("continuum_continuum") == ("f", "f")
    assert dtypes("int64_float64") == ("i", "f")
    assert dtypes("float64_int64") == ("f", "i")
    assert dtypes("int64_fractional_jump") == ("i", "f")
    assert dtypes("line_int64") == ("i", "i")
    # the scale-2 image never diverges, the sides of different p and v do, and the
    # continuum pair wraps at the seam within the run
    res = coupled_run(*COUPLED_PAIRS["similarity_scale_2"][:4], 60, CoinStream(11), 2.0)
    assert res.max_gap_divergence.max() == 0 and res.max_displacement_divergence.max() == 0
    res = coupled_run(*COUPLED_PAIRS["different_p_and_v"][:4], 60, CoinStream(11))
    assert res.max_gap_divergence.max() > 0 and res.max_displacement_divergence.max() > 0
    res = coupled_run(*COUPLED_PAIRS["block_edge_gap"][:4], 1, CoinStream(11))
    assert res.max_gap_divergence.tolist() == [1.0]
    cfg_a, _, params_a, _, _ = COUPLED_PAIRS["continuum_continuum"]
    firsts = [float(c.positions[0]) for _, c in
              run(cfg_a, params_a, 60, CoinStream(11), snapshot_stride=1).snapshots]
    assert any(b < a for a, b in zip(firsts, firsts[1:]))


def test_a_step_chain_that_changes_its_arguments_equals_numpy(monkeypatch):
    """A step() chain reuses its plan only for the very params, coins and field it was
    built for: equal but new objects, other values and other dtypes each take their own."""
    cfg = Configuration(Ring(120), np.arange(0, 120, 3), 0.0)
    field = ObstacleField(Ring(120), np.arange(1.0, 120.0, 7.0))
    coins, other = CoinStream(5), CoinStream(6)
    calls = [(ProcessParams(0.5, 1), coins, None), (ProcessParams(0.5, 1), coins, None),
             (ProcessParams(0.5, 1), other, None), (ProcessParams(0.8, 2), other, None),
             (ProcessParams(0.5, 1.5), coins, None), (ProcessParams(0.5, 1), coins, field),
             (ProcessParams(0.5, 1), CoinStream(5), field)]

    def walk():
        state, out = cfg, []
        for t in range(40):
            params, stream, f = calls[t // 2 % len(calls)]
            state = step(state, params, stream, t, field=f)
            out.append((state.positions.dtype.str, state.positions.tobytes(),
                        state.winding.tobytes()))
        return out

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref


def test_kernel_equals_numpy_on_a_stream_above_2_63(monkeypatch):
    # the kernel splits seed and stream into exact 32-bit halves, as the numpy reference does
    coins = CoinStream(1, 2**63 + 5)
    cfg, params = _ring(100, True, np.random.default_rng(0))
    fused, ref = _both_paths(monkeypatch, lambda: (
        _summary_bytes(run(cfg, params, 50, coins)), step(cfg, params, coins, 7)))
    assert fused == ref


def _race(cache: str, barrier, results) -> None:
    """Build into a cold cache together with another process, then run on the result."""
    barrier.wait(timeout=60)
    fns = _native.load(Path(cache))
    _native.kernel = lambda: fns  # this worker process only
    cfg, params = _ring(100, True, np.random.default_rng(0))
    results.put((fns is not None, _summary_bytes(run(cfg, params, 50, CoinStream(9)))))


def test_two_processes_racing_on_a_cold_cache_both_load(tmp_path, monkeypatch):
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_race, args=(str(tmp_path / "cache"), barrier, results))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    got = [results.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert not proc.is_alive() and proc.exitcode == 0
    monkeypatch.setattr(_native, "kernel", lambda: None)
    cfg, params = _ring(100, True, np.random.default_rng(0))
    expected = _summary_bytes(run(cfg, params, 50, CoinStream(9)))
    assert got == [(True, expected)] * 2
    assert len(list((tmp_path / "cache").glob("_kernel-*.so"))) == 1


def test_steps_start_at_the_step_they_are_given(monkeypatch):
    # the numpy path rebuilds its word stream when a call skips ahead, as the kernel keys by t
    cfg, params = _ring(100, True, np.random.default_rng(1))

    def walk():
        stepper, totals = _Stepper(cfg, params, CoinStream(4)), np.zeros(6)
        for t, lo, hi in ((0, 0, 2), (2, 2, 3), (7, 3, 6)):
            stepper.steps(t, totals[lo:hi])
        return stepper.x.tobytes(), stepper.wind.tobytes(), totals.tobytes()

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref


@pytest.fixture(scope="module")
def default_clone_library(default_clone_build):
    """The run functions of the kernel built without target clones."""
    lib, proc = default_clone_build
    assert proc.returncode == 0, proc.stderr
    return _native.bind(ctypes.CDLL(str(lib)))


@pytest.fixture
def default_clone(default_clone_library, monkeypatch):
    """Every run in the test steps through the default clone; the loader picks the
    SIMD clone wherever the machine has it, so no other test reaches this one."""
    monkeypatch.setattr(_native, "kernel", lambda: default_clone_library)


@pytest.mark.parametrize("n", SIZES)
def test_default_clone_equals_numpy_across_sizes(n, default_clone, monkeypatch):
    steps, stride = _shape(n)

    def runs():
        rng = np.random.default_rng(n)
        out = []
        for lattice in (True, False):
            cfg, params = _ring(n, lattice, rng)
            out.append(_summary_bytes(run(cfg, params, steps, CoinStream(n),
                                          snapshot_stride=stride)))
        for make in (_obstacle_ring, _obstacle_line):
            cfg, field = make(n, rng)
            out.append(_obstacle_bytes(cfg, ProcessParams(0.6, 1.5), field, steps=steps,
                                       seed=n, stride=stride))
        return out

    fused, ref = _both_paths(monkeypatch, runs)
    assert fused == ref


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_default_clone_equals_numpy_with_deterministic_coins(p, default_clone, monkeypatch):
    def runs():
        out = []
        for lattice in (True, False):
            cfg, _ = _ring(101, lattice, np.random.default_rng(5))
            params = ProcessParams(p, 2 if lattice else 1.25)
            out.append(_summary_bytes(run(cfg, params, 30, CoinStream(6), snapshot_stride=7)))
        cfg, field = _obstacle_ring(64, np.random.default_rng(8))
        return out + [_obstacle_bytes(cfg, ProcessParams(p, 2.5), field)]

    fused, ref = _both_paths(monkeypatch, runs)
    assert fused == ref


def test_default_clone_equals_numpy_on_step_chains(default_clone, monkeypatch):
    # a step copies its input's rows into fresh ones inside the run function
    def walk():
        rng, out = np.random.default_rng(7), []
        cases = [(*_ring(101, lattice, rng), None) for lattice in (True, False)]
        cfg, field = _obstacle_ring(64, rng)
        cases.append((cfg, ProcessParams(0.6, 1.5), field))
        for cfg, params, field in cases:
            state, coins = cfg, CoinStream(3)
            for t in range(20):
                state = step(state, params, coins, t, field=field)
            out.append((state.positions.tobytes(), state.winding.tobytes()))
        return out

    fused, ref = _both_paths(monkeypatch, walk)
    assert fused == ref


def test_default_clone_equals_numpy_on_coupled_runs(default_clone, monkeypatch):
    cfg_a, cfg_b = _het_pair(100, np.random.default_rng(100))
    params = ProcessParams(0.6, 1.5)

    def runs():
        out = [_coupled_bytes(coupled_run(cfg_a, cfg_b, params, params, 41 * 3 + 7,
                                          CoinStream(100)))]
        for name in sorted(COUPLED_PAIRS):
            a, b, params_a, params_b, scale = COUPLED_PAIRS[name]
            out.append(_coupled_bytes(coupled_run(a, b, params_a, params_b, 60,
                                                  CoinStream(11), scale)))
        return out

    fused, ref = _both_paths(monkeypatch, runs)
    assert fused == ref


def _coin_walk(n):
    """Runs of n particles that draw coins: a lattice and a continuum ring on one thread
    and, past 128 particles, split across two, and a coupled pair."""
    rng, out = np.random.default_rng(n), []
    for lattice in (True, False):
        cfg, params = _ring(n, lattice, rng)
        for threads in (1, 2) if n > 128 else (1,):
            stepper, totals = _Stepper(cfg, params, CoinStream(n)), np.zeros(20)
            stepper.steps(0, totals, threads=threads)
            out.append((stepper.x.tobytes(), stepper.wind.tobytes(), totals.tobytes()))
    cfg_a, cfg_b = _het_pair(n, rng)
    params = ProcessParams(0.6, 1.5)
    return out + [_coupled_bytes(coupled_run(cfg_a, cfg_b, params, params, 20, CoinStream(n)))]


# every size up to 40, off and on the AVX-512 body's groups of 32 coins, then sizes
# around a block of 512 particles and one past the split rule's count
@pytest.mark.parametrize("n", [*range(1, 41), 511, 512, 513, 4097])
def test_coin_bodies_agree(n, default_clone_library, monkeypatch):
    """The library's runs, whose coin body on a machine of x86-64-v4 is the AVX-512 one,
    equal the default clone's, whose body is the portable one, and the numpy stepper,
    on one thread and on forced split calls."""
    if _native.kernel() is None:
        pytest.skip("the fused kernel cannot be built here")
    simd = _coin_walk(n)
    monkeypatch.setattr(_native, "kernel", lambda: default_clone_library)
    assert _coin_walk(n) == simd
    monkeypatch.setattr(_native, "kernel", lambda: None)
    assert _coin_walk(n) == simd
