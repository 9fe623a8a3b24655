"""Synchronous one-step updates, trajectory runs and statically coupled runs.

Every particle draws an independent coin each step; a successful coin moves
the particle to min(x_i + v, bound_i) where the bound comes entirely from the
time-t state, so the update is a pure synchronous map.  Coins are produced by
a counter-based generator keyed by (seed, stream, t) with the i-th variate of
a step belonging to particle i, which makes runs reproducible and lets two
processes share their randomness exactly (static coupling).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from . import _native
from .configuration import (
    Configuration,
    LineWindow,
    ProcessParams,
    Ring,
    _bounds,
    _integer,
    _uint64,
    _UINT64,
    _Value,
    density,
)

__all__ = [
    "CoinStream",
    "CoupledRun",
    "ObstacleField",
    "TrajectorySummary",
    "coupled_run",
    "run",
    "step",
]

# positions per side that coupled_run steps before it compares the sides
_CHUNK_ELEMENTS = 4096
# a zero-length ctypes type: its from_buffer takes any writable buffer, empty ones too
_NO_BYTES = ctypes.c_char * 0
# particles from which _Stepper places its arrays on cache lines (4 KB of positions)
_ALIGNED_FROM = 512


@dataclass(frozen=True)
class CoinStream:
    """Reproducible Bernoulli coin source: coin(i, t) = uniforms(t, n)[i] < p.

    The generator is numpy's ``Philox(key=[seed, stream])``, whose key numpy
    converts through float64 when a word is 2**63 or more: such words lose
    their low bits, so ``CoinStream(1, 2**63 + 5)`` and ``CoinStream(1, 2**63 + 6)``
    draw the same coins.  About half of all ``derive()`` substreams are affected.
    This is the coin contract of the current version; the fused kernel keys its
    Philox with the key numpy stores, so it keeps the contract too.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _uint64(name, getattr(self, name)))

    def _philox(self, t: int) -> Philox:
        """The generator of step t: counter [0, t, 0, 0] under the key (seed, stream)."""
        # numpy splits an int counter into words exactly; a list goes through float64
        return Philox(counter=_uint64("time index", t) << 64, key=[self.seed, self.stream])

    def uniforms(self, t: int, n: int) -> np.ndarray:
        """The n uniform variates of step t, independent across (i, t)."""
        return next(self._words(n, t)) * 2.0**-53

    @functools.cached_property
    def _key(self) -> tuple[int, int]:
        """The two key words numpy's Philox stores for (seed, stream)."""
        return tuple(int(k) for k in self._philox(0).state["state"]["key"])

    def _words(self, n: int, start: int = 0):
        """The 53-bit coin words k of steps start, start + 1, ...: uniforms(t, n) == k * 2**-53.

        One generator serves them all.  Step t leaves its counter at
        [ceil(n/4), t, 0, 0]; advancing by 2**64 - ceil(n/4) carries it to
        [0, t + 1, 0, 0] with an empty buffer, where step t + 1 starts.
        """
        bit_gen = self._philox(start)
        skip = _UINT64 - math.ceil(n / 4)
        while True:
            yield bit_gen.random_raw(n) >> 11
            bit_gen.advance(skip)

    def derive(self, *ids: int) -> "CoinStream":
        """Independent substream for an (experiment, replica, ...) tuple."""
        entropy = (self.seed, self.stream) + tuple(_uint64("substream id", i) for i in ids)
        child = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
        return CoinStream(self.seed, child)


def _as_coins(coins_or_seed) -> CoinStream:
    if isinstance(coins_or_seed, CoinStream):
        return coins_or_seed
    return CoinStream(coins_or_seed)


@dataclass(frozen=True, eq=False)
class ObstacleField(_Value):
    """Static stopping points; sorted positions, on a ring within [0, L)."""

    geometry: Ring | LineWindow
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 1:
            raise ValueError("obstacle positions must be a 1-d sequence")
        if not np.all(np.isfinite(pos)):
            raise ValueError("obstacle positions must be finite")
        if len(pos) > 1 and np.any(np.diff(pos) <= 0):
            raise ValueError("obstacle positions must be strictly increasing")
        if isinstance(self.geometry, Ring) and len(pos):
            L = self.geometry.circumference
            if pos[0] < 0 or pos[-1] >= L:
                raise ValueError(f"ring obstacles must lie in [0, {L})")
        self._freeze(positions=pos)

    @property
    def n(self) -> int:
        return len(self.positions)

    density = density  # the rule of configuration.density, as a method


def _address(arr: np.ndarray) -> int:
    """The data address of a writable C-contiguous array; ``arr.ctypes.data`` builds a
    helper object each time and costs about three times as much."""
    return ctypes.addressof(_NO_BYTES.from_buffer(arr))


def _kernel_arrays(positions: np.ndarray, winding: np.ndarray, dtype):
    """A copy of the positions in dtype (8 bytes a value), and a 2 x n float64 buffer
    holding a copy of the winding and a row of zeros.

    From _ALIGNED_FROM particles on the two are cut from one allocation so that each
    starts a 64-byte cache line: the positions at 0 and the buffer at 2048 bytes mod
    4096, so the streams the kernel reads and writes together do not collide in 4 KB
    steps, and a split call, which divides the particles between its threads at a
    multiple of 8, gives each thread whole cache lines.  Smaller arrays lie within a
    page or two, where their placement did not show in timings and the cut would add
    a twentieth to a step() call at 100 particles.
    """
    n = len(positions)
    if n < _ALIGNED_FROM:
        x, buf = positions.astype(dtype), np.zeros((2, n))
    else:
        raw = np.empty(3 * n + 1024, np.float64)
        i = -_address(raw) % 4096 // 8
        j = i + n + (256 - n) % 512
        x, buf = raw[i:i + n].view(dtype), raw[j:j + 2 * n].reshape(2, n)
        x[...] = positions
        buf[1] = 0.0
    buf[0] = winding
    return x, buf


def _tiled_obstacles(field: ObstacleField) -> np.ndarray:
    """Obstacles extended over the ring window [0, 2L) particles can occupy."""
    z = field.positions
    if isinstance(field.geometry, Ring):
        L = field.geometry.circumference
        return np.concatenate([z, z + L, z + 2 * L])
    return z


def _next_obstacle(x: np.ndarray, tiled: np.ndarray) -> np.ndarray:
    """First obstacle strictly beyond each position (inf when none remains)."""
    idx = np.searchsorted(tiled, x, side="right")
    out = np.full(len(x), np.inf)
    inside = idx < len(tiled)
    out[inside] = tiled[idx[inside]]
    return out


class _Stepper:
    """The one-step map of one run, its input checked and invariants fixed once.

    Owns the run's coins and its own copies of the positions ``x`` and the
    winding ``wind``, which every step updates in place; ``disp`` holds the last
    step's displacements.  Arithmetic is exact int64 when the configuration
    is_lattice, the jump is integral and no obstacles are present, float64
    otherwise.
    """

    def __init__(self, cfg: Configuration, params: ProcessParams, coins: CoinStream,
                 field: ObstacleField | None = None) -> None:
        if field is not None:
            if cfg.n and np.any(cfg.radii != 0):
                raise ValueError("obstacle dynamics is defined for radius-0 particles")
            if field.geometry != cfg.geometry:
                raise ValueError("obstacle field geometry must match the configuration")
        rr, seam = cfg._terms
        if params.space == "lattice" and (rr.dtype.kind != "i" or field is not None):
            raise ValueError("lattice process needs integral positions, ring length and "
                             "r_i + r_{i+1}, and no obstacle field")
        cfg._admissible  # rejects inadmissible input, once per configuration
        if rr.dtype.kind == "i" and (field is not None or not float(params.v).is_integer()):
            rr, seam = rr.astype(np.float64), None if seam is None else float(seam)
            rr.setflags(write=False)
        self.rr, self.seam = rr, seam
        self.cfg = cfg
        self.coins = coins
        n = cfg.n
        # the winding and the last step's displacements are rows of one buffer
        self.x, buf = _kernel_arrays(cfg.positions, cfg.winding, rr.dtype)
        self.wind, self.disp = buf[0], buf[1]
        self.v = int(params.v) if rr.dtype.kind == "i" else float(params.v)
        # k * 2**-53 < p exactly when k < ceil(p * 2**53); the product is exact
        self.cut = math.ceil(params.p * 2**53)
        self.tiled = None if field is None else _tiled_obstacles(field)
        # the run's fixed kernel arguments, converted once; the addresses stay valid, as
        # these arrays live with the stepper and are never rebound
        fused = _native.kernel()
        self._fused = None
        if fused is not None:
            fn, args = fused[rr.dtype.kind if field is None else "obstacles"]
            obs = (None, 0) if field is None else (self.tiled.ctypes.data, len(self.tiled))
            wind = _address(buf)
            self._fused = functools.partial(fn, ctypes.byref(args(
                n, *coins._key, self.cut, _address(self.x), rr.ctypes.data,
                seam is not None, seam or 0, self.v, wind, wind + 8 * n, *obs)))
        self._t = None  # the step the numpy word stream stands at

    def bounds(self) -> np.ndarray:
        return _bounds(self.x, self.rr, self.seam)

    def advance(self, words: np.ndarray) -> np.ndarray:
        """One synchronous update under 53-bit coin words; returns the displacements."""
        x = self.x
        target = np.minimum(x + self.v, self.bounds())
        if self.tiled is not None:
            target = np.minimum(target, _next_obstacle(x, self.tiled))
        # never move left: an ulp-scale overlap exposed by a window shift must not
        # turn into backward motion
        target = np.maximum(target, x)
        moved = np.where(words < self.cut, target, x)
        np.subtract(moved, x, out=self.disp)
        self.wind += self.disp
        if self.seam is not None and len(moved) and moved[0] >= self.seam:
            moved -= self.seam
        x[...] = moved
        return self.disp

    def steps(self, t: int, totals: np.ndarray, xs: np.ndarray | None = None,
              ds: np.ndarray | None = None, threads: int = 1) -> None:
        """Steps t, t + 1, ..., one per entry of totals, each set to its step's total displacement.

        totals is a contiguous float64 array.  When xs and ds are given (C-contiguous,
        n columns, at least len(totals) rows, xs of the run's dtype and ds float64),
        row i of each receives the positions and the displacements after step t + i.
        The fused kernel runs the steps in one call when it is loaded, split across
        ``threads`` threads when they are more than one and no rows are recorded; the
        bits are the same on any number.  Otherwise ``advance`` runs them on the
        stepper's one word stream, which is rebuilt only when a call does not start
        where the last one stopped.
        """
        if self._fused is not None:
            rows = (None, None) if xs is None else (_address(xs), _address(ds))
            self._fused(t, len(totals), _address(totals), *rows, threads)
            return
        if t != self._t:
            self._words = self.coins._words(len(self.x), t)
        for i, w in zip(range(len(totals)), self._words):
            totals[i] = self.advance(w).sum()
            if xs is not None:
                xs[i] = self.x
                ds[i] = self.disp
        self._t = t + len(totals)

    def configuration(self) -> Configuration:
        """The current state, on copies of the stepper's arrays."""
        return Configuration._of_state(self.cfg, self.x.copy(), self.wind.copy(),
                                       (self.rr, self.seam))


def step(
    cfg: Configuration,
    params: ProcessParams,
    coins: CoinStream,
    t: int,
    field: ObstacleField | None = None,
) -> Configuration:
    """One synchronous step of the exclusion process.

    With static obstacles (``field``, point particles only) each particle also
    stops at the first obstacle strictly beyond it, so an obstacle costs
    exactly one step to pass.
    """
    t = _uint64("time index", t)
    stepper = _Stepper(cfg, params, coins, field)
    stepper.steps(t, np.zeros(1))
    # the stepper ends here, so the state takes its arrays rather than copies
    return Configuration._of_state(cfg, stepper.x, stepper.wind, (stepper.rr, stepper.seam))


@dataclass(frozen=True, eq=False)
class TrajectorySummary(_Value):
    """What a run records: totals, a per-step series and sampled snapshots.

    The summary takes its two arrays and makes them read-only in place, so a run
    hands over its own arrays without a copy.
    """

    steps: int
    n_particles: int
    displacement: np.ndarray
    step_total_displacement: np.ndarray
    snapshots: tuple[tuple[int, Configuration], ...]
    final: Configuration

    def __post_init__(self) -> None:
        self._own(displacement=np.asarray(self.displacement, dtype=np.float64),
                  step_total_displacement=np.asarray(self.step_total_displacement,
                                                     dtype=np.float64))


def _summary(cfg: Configuration, stepper: _Stepper, totals, snaps) -> TrajectorySummary:
    return TrajectorySummary(
        steps=len(totals),
        n_particles=cfg.n,
        displacement=stepper.wind - cfg.winding,
        step_total_displacement=totals,
        snapshots=tuple(snaps),
        final=snaps[-1][1],
    )


def run(
    cfg: Configuration,
    params: ProcessParams,
    steps: int,
    coins_or_seed,
    field: ObstacleField | None = None,
    snapshot_stride: int | None = None,
) -> TrajectorySummary:
    """Iterate the one-step map, recording displacement totals and snapshots.

    Snapshots are taken at t = 0, stride, 2*stride, ... and after the final
    step; ``snapshot_stride=None`` keeps only the initial and final states.
    Every snapshot, the one at t = 0 included, has the run's dtype.
    """
    steps = _integer("steps", steps, 1)
    if snapshot_stride is not None:
        snapshot_stride = _integer("snapshot stride", snapshot_stride, 1)
    stepper = _Stepper(cfg, params, _as_coins(coins_or_seed), field)
    totals = np.zeros(steps)
    snaps = [(0, stepper.configuration())]
    stride = snapshot_stride or steps
    for t in range(0, steps, stride):
        chunk = totals[t:t + stride]
        stepper.steps(t, chunk, threads=_native.threads(cfg.n, len(chunk)))
        snaps.append((min(t + stride, steps), stepper.configuration()))
    return _summary(cfg, stepper, totals, snaps)


@dataclass(frozen=True, eq=False)
class CoupledRun(_Value):
    """Two runs driven by identical coins, with per-step divergence tracking.

    The value takes its two divergence arrays and makes them read-only in place.
    """

    a: TrajectorySummary
    b: TrajectorySummary
    max_gap_divergence: np.ndarray
    max_displacement_divergence: np.ndarray

    def __post_init__(self) -> None:
        self._own(max_gap_divergence=np.asarray(self.max_gap_divergence, dtype=np.float64),
                  max_displacement_divergence=np.asarray(self.max_displacement_divergence,
                                                         dtype=np.float64))


def _max_abs_difference(b: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """max_i |b_i - sa_i| of each row, computed in place in the fresh array sa."""
    np.subtract(b, sa, out=sa)
    return np.abs(sa, out=sa).max(axis=1)


def coupled_run(
    cfg_a: Configuration,
    cfg_b: Configuration,
    params_a: ProcessParams,
    params_b: ProcessParams,
    steps: int,
    coins_or_seed,
    displacement_scale: float = 1.0,
) -> CoupledRun:
    """Advance two equal-size processes on one coin stream, comparing each step.

    Divergences track max_i |gap_b - scale*gap_a| and
    max_i |disp_b - scale*disp_a| per step (scale 1 for conjugate couplings,
    scale u for spatial similarity checks).
    """
    if cfg_a.n != cfg_b.n:
        raise ValueError("statically coupled runs need equal particle counts")
    steps = _integer("steps", steps, 1)
    coins = _as_coins(coins_or_seed)
    a, b = _Stepper(cfg_a, params_a, coins), _Stepper(cfg_b, params_b, coins)
    n = cfg_a.n
    # a line has no gap ahead of its last particle
    n_gaps = n if cfg_a.is_ring else max(n - 1, 0)
    gap_div = np.zeros(steps)
    disp_div = np.zeros(steps)
    totals = np.zeros((2, steps))
    scale = float(displacement_scale)
    # each side records a chunk of steps (about 4096 positions), then the chunk is
    # compared at once; a one-step chunk is the sides' own state, so it copies nothing
    chunk = max(1, min(steps, _CHUNK_ELEMENTS // max(n, 1)))
    if chunk > 1:
        xs = [np.empty((chunk, n), side.x.dtype) for side in (a, b)]
        ds = [np.empty((chunk, n)) for _ in (a, b)]
        rows = list(zip(xs, ds))
    else:
        xs, ds = [side.x[None] for side in (a, b)], [side.disp[None] for side in (a, b)]
        rows = [(), ()]
    for t in range(0, steps, chunk):
        k = min(chunk, steps - t)
        for i, side in enumerate((a, b)):
            side.steps(t, totals[i, t:t + k], *rows[i])
        if n_gaps:
            ga, gb = (_bounds(x[:k], side.rr, side.seam) for x, side in zip(xs, (a, b)))
            ga -= xs[0][:k]
            gb -= xs[1][:k]
            gap_div[t:t + k] = _max_abs_difference(gb[:, :n_gaps], scale * ga[:, :n_gaps])
        if n:
            disp_div[t:t + k] = _max_abs_difference(ds[1][:k], scale * ds[0][:k])
    return CoupledRun(_summary(cfg_a, a, totals[0], [(steps, a.configuration())]),
                      _summary(cfg_b, b, totals[1], [(steps, b.configuration())]),
                      gap_div, disp_div)
