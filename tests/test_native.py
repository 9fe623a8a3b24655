"""The fused C run kernel: it builds where a compiler exists, survives a cold-cache
race, and repeats the numpy stepper bit for bit."""

from __future__ import annotations

import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest

from tasep import LINE, CoinStream, Configuration, ProcessParams, Ring, run, step
from tasep import _native
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


def test_unwritable_cache_falls_back(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory should be")
    assert _native.load(blocker / "sub") is None


def _ring(n, lattice, rng):
    L = 2 * n + 3
    pos = np.sort(rng.choice(L, n, replace=False))
    if lattice:
        return Configuration(Ring(L), pos.astype(np.int64), 0.0), ProcessParams(0.5, 2)
    return Configuration(Ring(L * 1.7), pos * 1.7, 0.3), ProcessParams(0.5, 1.25)


# sizes around the 4-word coin blocks and the 8-lane and 128-element blocks of
# numpy's pairwise sum, which the reproducibility cases (n <= 120) do not reach
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 127, 129, 257, 1031])
@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuum"])
def test_kernel_equals_numpy_across_sizes(n, lattice, monkeypatch):
    cfg, params = _ring(n, lattice, np.random.default_rng(n))
    fused, ref = _both_paths(
        monkeypatch, lambda: _summary_bytes(run(cfg, params, 40, CoinStream(n), snapshot_stride=9)))
    assert fused == ref


@pytest.mark.parametrize("p", [0.0, 1.0, 1 - 2.0**-53])
def test_kernel_equals_numpy_on_a_line_at_edge_probabilities(p, monkeypatch):
    cfg = Configuration(LINE, np.cumsum(np.random.default_rng(3).uniform(0.5, 2.0, 50)),
                        np.random.default_rng(4).uniform(0.0, 0.25, 50))
    fused, ref = _both_paths(
        monkeypatch, lambda: _summary_bytes(run(cfg, ProcessParams(p, 1.5), 30, CoinStream(2))))
    assert fused == ref


def test_kernel_equals_numpy_on_a_stream_above_2_63(monkeypatch):
    # numpy rounds such a key word through float64; the kernel uses the key numpy stores
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
