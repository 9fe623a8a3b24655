"""Synchronous one-step updates, trajectory runs and statically coupled runs.

Every particle draws an independent coin each step; a successful coin moves
the particle to min(x_i + v, bound_i) where the bound comes entirely from the
time-t state, so the update is a pure synchronous map.  Coins are produced by
a counter-based generator keyed by (seed, stream, t) with the i-th variate of
a step belonging to particle i, which makes runs reproducible and lets two
processes share their randomness exactly (static coupling).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _native
from .configuration import (
    Configuration,
    LineWindow,
    ProcessParams,
    Ring,
    _bound_terms,
    _bounds,
    _checked_gaps,
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

_UINT64 = 2**64


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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < _UINT64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    def _philox(self, t: int) -> Philox:
        """The generator of step t: counter [0, t, 0, 0] under the key (seed, stream)."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        return Philox(counter=[0, t, 0, 0], key=[self.seed, self.stream])

    def uniforms(self, t: int, n: int) -> np.ndarray:
        """The n uniform variates of step t, independent across (i, t)."""
        return Generator(self._philox(t)).random(n)

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
        entropy = (self.seed, self.stream) + tuple(int(i) for i in ids)
        child = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
        return CoinStream(self.seed, child)


def _as_coins(coins_or_seed) -> CoinStream:
    if isinstance(coins_or_seed, CoinStream):
        return coins_or_seed
    return CoinStream(coins_or_seed)


@dataclass(frozen=True)
class ObstacleField:
    """Static stopping points; sorted positions, on a ring within [0, L)."""

    geometry: Ring | LineWindow
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 1:
            raise ValueError("obstacle positions must be a 1-d sequence")
        if len(pos) > 1 and np.any(np.diff(pos) <= 0):
            raise ValueError("obstacle positions must be strictly increasing")
        if isinstance(self.geometry, Ring) and len(pos):
            L = self.geometry.circumference
            if pos[0] < 0 or pos[-1] >= L:
                raise ValueError(f"ring obstacles must lie in [0, {L})")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)

    def density(self) -> float:
        if isinstance(self.geometry, Ring):
            return self.n / self.geometry.circumference
        if self.n < 2:
            raise ValueError("line obstacle density needs at least 2 obstacles")
        return (self.n - 1) / float(self.positions[-1] - self.positions[0])


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

    Holds the current positions and winding.  Arithmetic is exact int64 when
    the configuration is_lattice, the jump is integral and no obstacles are
    present, float64 otherwise.
    """

    def __init__(
        self, cfg: Configuration, params: ProcessParams, field: ObstacleField | None = None
    ) -> None:
        if field is not None:
            if cfg.n and np.any(cfg.radii != 0):
                raise ValueError("obstacle dynamics is defined for radius-0 particles")
            if field.geometry != cfg.geometry:
                raise ValueError("obstacle field geometry must match the configuration")
        exact = (field is None and cfg.positions.dtype.kind in "iu"
                 and float(params.v).is_integer())
        L = cfg.circumference if cfg.is_ring else None
        self.rr, self.seam = _bound_terms(cfg.radii, L, exact)
        if params.space == "lattice" and self.rr.dtype.kind != "i":
            raise ValueError("lattice process needs integral positions, ring length and "
                             "r_i + r_{i+1}, and no obstacle field")
        self.cfg = cfg
        self.x = cfg.positions if field is None else cfg.positions.astype(np.float64)
        self.wind = cfg.winding
        self.v = int(params.v) if self.rr.dtype.kind == "i" else float(params.v)
        # k * 2**-53 < p exactly when k < ceil(p * 2**53); the product is exact
        self.cut = math.ceil(params.p * 2**53)
        self.tiled = None if field is None else _tiled_obstacles(field)
        self.fused = None if field is not None else _native.kernel()
        _checked_gaps(self.x, self.bounds(), self.seam)  # rejects inadmissible input

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
        disp = moved - x
        self.wind = self.wind + disp
        if self.seam is not None and len(moved) and moved[0] >= self.seam:
            moved = moved - self.seam
        self.x = moved
        return disp

    def steps(self, coins: CoinStream, t: int, totals: np.ndarray, words) -> None:
        """Steps t, t + 1, ..., one per entry of totals, each set to its step's total displacement.

        totals is a contiguous float64 array.  The fused kernel runs the steps in
        one call when it is loaded and no obstacle field is present.  Otherwise
        ``advance`` runs them on ``words``, the word stream of ``coins`` from step t.
        """
        if self.fused is None:
            for i, w in zip(range(len(totals)), words):
                totals[i] = self.advance(w).sum()
            return
        n = len(self.x)
        x = self.x.astype(self.rr.dtype)  # copies, since the kernel writes in place
        wind = self.wind.astype(np.float64)
        scratch = np.empty(2 * n + 4)  # bound to a name so that it outlives the call
        self.fused[self.rr.dtype.kind](
            n, len(totals), t, *coins._key, self.cut, x.ctypes.data, self.rr.ctypes.data,
            self.seam is not None, self.seam or 0, self.v, wind.ctypes.data,
            totals.ctypes.data, scratch.ctypes.data)
        self.x, self.wind = x, wind

    def configuration(self) -> Configuration:
        return Configuration(self.cfg.geometry, self.x, self.cfg.radii, self.wind)


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
    if t < 0:
        raise ValueError("time index must be nonnegative")
    stepper = _Stepper(cfg, params, field)
    stepper.steps(coins, t, np.zeros(1), coins._words(cfg.n, t))
    return stepper.configuration()


@dataclass(frozen=True)
class TrajectorySummary:
    """What a run records: totals, a per-step series and sampled snapshots."""

    steps: int
    n_particles: int
    displacement: np.ndarray
    step_total_displacement: np.ndarray
    snapshots: tuple[tuple[int, Configuration], ...]
    snapshot_densities: np.ndarray
    final: Configuration


def _summary(cfg: Configuration, stepper: _Stepper, totals, snaps) -> TrajectorySummary:
    densities = np.array([density(c) for _, c in snaps]) if cfg.n else np.zeros(len(snaps))
    return TrajectorySummary(
        steps=len(totals),
        n_particles=cfg.n,
        displacement=stepper.wind - cfg.winding,
        step_total_displacement=totals,
        snapshots=tuple(snaps),
        snapshot_densities=densities,
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
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValueError(f"snapshot stride {snapshot_stride} must be at least 1")
    coins = _as_coins(coins_or_seed)
    stepper = _Stepper(cfg, params, field)
    totals = np.zeros(steps)
    snaps = [(0, stepper.configuration())]
    words = coins._words(cfg.n)
    stride = snapshot_stride or steps
    for t in range(0, steps, stride):
        stepper.steps(coins, t, totals[t:t + stride], words)
        snaps.append((min(t + stride, steps), stepper.configuration()))
    return _summary(cfg, stepper, totals, snaps)


@dataclass(frozen=True)
class CoupledRun:
    """Two runs driven by identical coins, with per-step divergence tracking."""

    a: TrajectorySummary
    b: TrajectorySummary
    max_gap_divergence: np.ndarray
    max_displacement_divergence: np.ndarray


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
    if steps < 1:
        raise ValueError("need at least one step")
    coins = _as_coins(coins_or_seed)
    sides = (_Stepper(cfg_a, params_a), _Stepper(cfg_b, params_b))
    n = cfg_a.n
    # a line has no gap ahead of its last particle
    n_gaps = n if cfg_a.is_ring else max(n - 1, 0)
    gap_div = np.zeros(steps)
    disp_div = np.zeros(steps)
    totals = np.zeros((2, steps))
    scale = float(displacement_scale)
    for t, words in zip(range(steps), coins._words(n)):
        disp_a, disp_b = (side.advance(words) for side in sides)
        totals[:, t] = disp_a.sum(), disp_b.sum()
        if n:
            ga, gb = ((side.bounds() - side.x)[:n_gaps] for side in sides)
            gap_div[t] = np.abs(gb - scale * ga).max() if n_gaps else 0.0
            disp_div[t] = np.abs(disp_b - scale * disp_a).max()
    a, b = (
        _summary(cfg, side, tot, [(steps, side.configuration())])
        for cfg, side, tot in zip((cfg_a, cfg_b), sides, totals)
    )
    return CoupledRun(a, b, gap_div, disp_div)
