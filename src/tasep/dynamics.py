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

from . import _native
from .configuration import (
    _INT_CAP,
    Configuration,
    LineWindow,
    ProcessParams,
    Ring,
    _bounds,
    _integer,
    _positive,
    _uint64,
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

# a zero-length ctypes type: its from_buffer takes any writable buffer, empty ones too
_NO_BYTES = ctypes.c_char * 0
# what step() finds on a state no step() returned: no plan and no rows
_NO_CHAIN = (None, None, 0, 0)
_FLOAT64 = np.dtype(np.float64)


# Philox4x32-10 (Salmon et al., SC'11): the round multipliers and the Weyl increments of
# the key
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LOW32 = 0xFFFFFFFF
# the time indices and particle counts the counter block [i // 4, t, ...] holds exactly
_TIMES = 2**32
_PARTICLES = 2**34
# the coins one numpy pass of CoinStream._words computes at most, a chunk of steps at a time
_PASS_COINS = 2**16


def _time_index(t) -> int:
    """t as an int when it is an integer in [0, 2**32) and not a bool; ValueError otherwise."""
    # a plain int in range passes at once, as step() checks its time index on every call
    if t.__class__ is int and 0 <= t < _TIMES:
        return t
    return _integer("time index", t, 0, _TIMES)


@dataclass(frozen=True)
class CoinStream:
    """Reproducible Bernoulli coin source: coin(i, t) = uniforms(t, n)[i] < p.

    The generator is Philox4x32-10 (Salmon et al., SC'11) under the key (seed low,
    seed high), the two 32-bit halves of the seed.  Particle i's coin at step t is word
    i mod 4 of counter block [i // 4, t, stream low, stream high], a 32-bit k with
    ``uniforms(t, n)[i] == k * 2**-32``.  A particle moves when k < ceil(p * 2**32), so p
    acts as if rounded up to a multiple of 2**-32, a bias below 2.33e-10, and p = 0 or
    1 decides every coin without drawing a word.  Key and counter hold (seed, stream, t,
    i) exactly for time indices t < 2**32 and at most 2**34 particles; a time index or
    particle count outside them raises ValueError.  This is the coin contract of
    version 0.3; the fused kernel draws the same words.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _uint64(name, getattr(self, name)))

    def uniforms(self, t: int, n: int) -> np.ndarray:
        """The n uniform variates of step t, independent across (i, t)."""
        return next(self._words(n, t, 1)) * 2.0**-32

    def _blocks(self, t: int, k: int, m: int) -> np.ndarray:
        """Counter blocks [b, t + s, stream low, stream high] for s < k and b < m under
        Philox4x32-10, word j in [s, b, j] of a (k, m, 4) uint64 array.  Each product of
        two 32-bit words is exact in uint64; every round works in place."""
        c = np.empty((4, k, m), np.uint64)
        c[0] = np.arange(m, dtype=np.uint64)
        c[1] = np.arange(t, t + k, dtype=np.uint64)[:, None]
        c[2], c[3] = self.stream & _LOW32, self.stream >> 32
        c0, c1, c2, c3 = c
        p0, p1 = np.empty((2, k, m), np.uint64)
        key = [self.seed & _LOW32, self.seed >> 32]
        for _ in range(10):
            np.multiply(c0, _PHILOX_M[0], out=p0)
            np.multiply(c2, _PHILOX_M[1], out=p1)
            np.right_shift(p1, 32, out=c0)
            c0 ^= c1
            c0 ^= key[0]
            np.bitwise_and(p1, _LOW32, out=c1)
            np.right_shift(p0, 32, out=c2)
            c2 ^= c3
            c2 ^= key[1]
            np.bitwise_and(p0, _LOW32, out=c3)
            key = [(key[j] + _PHILOX_W[j]) & _LOW32 for j in (0, 1)]
        return c.transpose(1, 2, 0)

    def _words(self, n: int, t: int, k: int):
        """The 32-bit coins of steps t, t + 1, ..., t + k - 1, one uint64 array of n per
        step, which uniforms scales by 2**-32.

        Each numpy pass computes a chunk of steps, as many as _PASS_COINS coins allow:
        at small n a pass costs about the same for one step as for hundreds.
        """
        n = _integer("particle count", n, 0, _PARTICLES + 1)
        t = _time_index(t)
        if k:
            _time_index(t + k - 1)
        m = -(-n // 4)
        chunk = max(1, _PASS_COINS // max(4 * m, 1))
        for start in range(t, t + k, chunk):
            size = min(chunk, t + k - start)
            # word j of block b is coin 4 b + j
            coins = self._blocks(start, size, m).reshape(size, 4 * m)
            yield from coins[:, :n]

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


def _kernel_rows(positions: np.ndarray, winding: np.ndarray, rr: np.ndarray):
    """A stepper's four rows of n slots in rr's dtype, cut from one allocation: copies of
    the positions, of the bound terms rr and of the winding's bits, and a row for the
    displacements, which a step writes before anything reads it.  Returns the rows and
    the addresses of all four, in the order of the kernel's arguments.

    Each row starts a 64-byte cache line, the rows at 0, 1024, 2048 and 3072 bytes mod
    4096, so the streams the kernel reads and writes together do not collide in 4 KB
    steps, and a split call, which divides the particles between its threads at a
    multiple of 8, gives each thread whole cache lines.
    """
    n = len(positions)
    wind = winding if rr.dtype.kind == "f" else winding.view(rr.dtype)
    # rows of stride = 128 (mod 512) slots from a 4096-byte boundary
    stride = n + (128 - n) % 512
    raw = np.empty(4 * stride + 511, rr.dtype)
    start = _address(raw)
    i = -start % 4096 // 8
    rows, base = raw[i:i + 4 * stride].reshape(4, stride)[:, :n], start + 8 * i
    rows[0], rows[1], rows[2] = positions, rr, wind
    step = 8 * stride
    return rows, (base, base + step, base + 2 * step, base + 3 * step)


def _float_view(row: np.ndarray) -> np.ndarray:
    """A float64 row of _kernel_rows (the winding or the displacements) as float64: itself,
    or its bits when the rows are int64."""
    # a dtype instance spares view() a conversion that costs a step() call 2 %
    return row if row.dtype.kind == "f" else row.view(_FLOAT64)


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


class _Plan:
    """What every step of one run repeats, checked and fixed once: the bound terms, the
    jump and the coin cut in the run's dtype, the tiled obstacles and, when the fused
    kernel is loaded, its function.

    Arithmetic is exact int64 when the configuration is_lattice, the jump is integral
    and no obstacles are present, float64 otherwise.  Building a plan rejects a
    mismatched field, a space="lattice" that rule does not allow and an inadmissible
    configuration; the last check runs once per configuration.  A ``_Stepper`` holds
    the plan of its run, and ``step`` keeps its plan on each state it returns.
    """

    def __init__(self, cfg: Configuration, params: ProcessParams, coins: CoinStream,
                 field: ObstacleField | None) -> None:
        if field is not None:
            if cfg.n and np.any(cfg.radii != 0):
                raise ValueError("obstacle dynamics is defined for radius-0 particles")
            if field.geometry != cfg.geometry:
                raise ValueError("obstacle field geometry must match the configuration")
        terms = cfg._terms
        kind = terms[0].dtype.kind
        if params.space == "lattice" and (kind != "i" or field is not None):
            raise ValueError("lattice process needs integral positions, ring length and "
                             "r_i + r_{i+1}, and no obstacle field")
        cfg._admissible  # rejects inadmissible input, once per configuration
        if kind == "i" and (field is not None or not float(params.v).is_integer()):
            rr, seam = terms
            terms, kind = (rr.astype(np.float64), None if seam is None else float(seam)), "f"
            terms[0].setflags(write=False)
        self.params, self.coins, self.field = params, coins, field
        # the configuration's own terms unless the run converts them
        self.terms = terms
        self.rr, self.seam = terms
        self.v = int(params.v) if kind == "i" else float(params.v)
        if kind == "i" and self.seam is not None:
            # no bound lies more than the seam ahead on a ring, so the capped jump moves
            # each particle as far, and x + v stays within int64
            self.v = min(self.v, int(self.seam))
        # k * 2**-32 < p exactly when k < ceil(p * 2**32); the product is exact
        self.cut = math.ceil(params.p * 2**32)
        self.tiled = None if field is None else _tiled_obstacles(field)
        self.n = _integer("particle count", cfg.n, 0, _PARTICLES + 1)
        fused = _native.kernel()
        self.run = None if fused is None else fused[kind if field is None else "obstacles"]

    def own_args(self, rr_address: int) -> bytes:
        """The run's own fields of the kernel's ARGS (_native.OWN_ARGS), its terms rr read
        at rr_address; a call's fields follow them."""
        obs = (0, 0) if self.tiled is None else (self.tiled.ctypes.data, len(self.tiled))
        return _native.OWN_ARGS[self.rr.dtype.kind].pack(
            self.n, self.coins.seed, self.coins.stream, self.cut, rr_address,
            self.seam is not None,
            self.seam or 0, self.v, *obs)

    def check_reach(self, x: np.ndarray, steps: int) -> None:
        """Reject a call of ``steps`` steps from positions x on a line whose last particle
        could pass its int64 sentinel bound, where it would stop without a word, or
        overflow float64.  A ring's window bounds its positions, so a ring passes."""
        if self.seam is not None or not len(x):
            return
        if self.rr.dtype.kind == "i":
            fits = int(x[-1]) + steps * self.v <= _INT_CAP - int(self.rr[-1])
        else:
            fits = math.isfinite(float(x[-1]) + steps * self.v)
        if not fits:
            raise ValueError(f"line positions up to {x[-1]} with maximal jump v={self.v} "
                             f"could leave the exact range within steps={steps}")

    @functools.cached_property
    def step_args(self) -> bytes:
        """The run's own fields of ARGS for step(), which reads rr where it lies."""
        return self.own_args(self.rr.ctypes.data)


class _Stepper:
    """The one-step map of one run: its ``_Plan`` and its own rows.

    Owns copies of the positions ``x`` and the winding ``wind``, which every step
    updates in place; ``disp`` holds the last step's displacements.  A stepper of a
    line first checks that its run of ``steps`` steps stays in range (check_reach).
    """

    def __init__(self, cfg: Configuration, params: ProcessParams, coins: CoinStream,
                 field: ObstacleField | None = None, steps: int = 1) -> None:
        self.plan = _Plan(cfg, params, coins, field)
        # before the kernel's arguments pack a jump that may not fit them
        self.plan.check_reach(cfg.positions, steps)
        self.cfg = cfg
        # the addresses stay valid, as the rows live with the stepper and are never rebound
        self._rows, (x, rr, wind, disp) = _kernel_rows(cfg.positions, cfg.winding,
                                                       self.plan.rr)
        self._own = None if self.plan.run is None else self.plan.own_args(rr)
        self._addresses = x, wind, disp
        self.x, self.wind = self._rows[0], _float_view(self._rows[2])

    @functools.cached_property
    def disp(self) -> np.ndarray:
        """The last step's displacements, in place in the stepper's rows."""
        return _float_view(self._rows[3])

    def bounds(self) -> np.ndarray:
        return _bounds(self.x, self.plan.rr, self.plan.seam)

    def advance(self, words: np.ndarray) -> np.ndarray:
        """One synchronous update under 32-bit coins (CoinStream._words); returns the
        displacements."""
        x, plan = self.x, self.plan
        target = np.minimum(x + plan.v, self.bounds())
        if plan.tiled is not None:
            target = np.minimum(target, _next_obstacle(x, plan.tiled))
        # never move left: an ulp-scale overlap exposed by a window shift must not
        # turn into backward motion
        target = np.maximum(target, x)
        moved = np.where(words < plan.cut, target, x)
        np.subtract(moved, x, out=self.disp)
        self.wind += self.disp
        if plan.seam is not None and len(moved) and moved[0] >= plan.seam:
            moved -= plan.seam
        x[...] = moved
        return self.disp

    def args(self, t: int, k: int, totals: int, threads: int) -> bytes:
        """The kernel's packed ARGS of a call of steps t .. t + k - 1 on the stepper's rows,
        with the address of the totals (0 for a coupled call, which writes its own)."""
        return self._own + _native.CALL_ARGS.pack(*self._addresses, t, k, totals, threads, 0, 0)

    def steps(self, t: int, totals: np.ndarray | None = None, threads: int = 1) -> None:
        """Steps t, t + 1, ..., one per entry of totals, each set to its step's total
        displacement; step t alone, its total not kept, when totals is None.

        totals is a contiguous float64 array, a slot of scratch when totals is None: every
        call writes its totals.  The fused kernel runs the steps in one call when it is
        loaded, split across ``threads`` threads when they are more than one; the bits
        are the same on any number.  Otherwise ``advance`` runs them on the call's words
        from ``CoinStream._words``.
        """
        if totals is None:
            totals = np.empty(1)
        if self.plan.run is not None:
            self.plan.run(self.args(t, len(totals), _address(totals), threads))
            return
        for i, w in enumerate(self.plan.coins._words(len(self.x), t, len(totals))):
            totals[i] = self.advance(w).sum()

    def configuration(self) -> Configuration:
        """The current state, on read-only copies of the stepper's arrays."""
        x, wind = self.x.copy(), self.wind.copy()
        x.setflags(write=False)
        wind.setflags(write=False)
        return Configuration._of_state(self.cfg, x, wind, self.plan.terms)


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

    The state comes back on fresh arrays, and ``cfg`` is only read: a loop of
    ``step`` calls never writes into a state it returned before.  With the fused
    kernel one call copies the input's rows into a fresh buffer and steps them
    there.  A returned state keeps the step's ``_Plan`` and the addresses of its
    own rows, so the next ``step`` under the same params, coins and field checks
    nothing again and passes those rows to the kernel as they are.
    """
    t = _time_index(t)
    if _native.kernel() is None:
        stepper = _Stepper(cfg, params, coins, field)
        stepper.steps(t)
        return stepper.configuration()
    plan, _, x_src, wind_src = vars(cfg).get("_step_chain") or _NO_CHAIN
    # a plan serves the very params, coins and field it was built for, immutable values
    if plan is None or not (params is plan.params and coins is plan.coins
                            and field is plan.field):
        plan = _Plan(cfg, params, coins, field)
        # integral positions a float64 run takes are converted; the local keeps the copy
        # alive through the kernel call
        source = cfg.positions.astype(plan.rr.dtype, copy=False), cfg.winding
        x_src, wind_src = source[0].ctypes.data, source[1].ctypes.data
    if plan.seam is None:  # check_reach passes a ring; its chain of steps skips the call
        plan.check_reach(cfg.positions, 1)
    n = plan.n
    # x and wind, then disp and the step's total, which nothing reads
    rows = np.empty(3 * n + 1, plan.rr.dtype)
    x = _address(rows)
    wind = x + 8 * n
    disp = wind + 8 * n
    plan.run(plan.step_args + _native.CALL_ARGS.pack(x, wind, disp, t, 1, disp + 8 * n, 1,
                                                      x_src, wind_src))
    # one flag makes both of the state's arrays read-only
    rows.setflags(write=False)
    # the chain holds the rows, so their addresses stay valid while it lives
    return Configuration._of_state(cfg, rows[:n], _float_view(rows[n:2 * n]), plan.terms,
                                   (plan, rows, x, wind))


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
    """The run's summary as the constructor leaves it, built without it: the run's arrays
    are float64 already, and the constructor's frozen field stores cost a 100-particle
    run of 300 steps about 1 %."""
    summary = object.__new__(TrajectorySummary)
    summary._own(displacement=stepper.wind - cfg.winding, step_total_displacement=totals)
    vars(summary).update(steps=len(totals), n_particles=cfg.n, snapshots=tuple(snaps),
                         final=snaps[-1][1])
    return summary


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
    Every snapshot, the one at t = 0 included, has the run's dtype; the one at
    t = 0 is ``cfg`` itself when ``cfg`` has that dtype and the run its terms.
    """
    steps = _integer("steps", steps, 1, _TIMES + 1)
    if snapshot_stride is not None:
        snapshot_stride = _integer("snapshot stride", snapshot_stride, 1)
    stepper = _Stepper(cfg, params, _as_coins(coins_or_seed), field, steps)
    totals = np.empty(steps)  # the kernel or the numpy stepper writes every entry
    # a start in the run's dtype under its own terms is its own snapshot, as it is immutable
    as_is = cfg.positions.dtype is stepper.x.dtype and stepper.plan.terms is cfg._terms
    snaps = [(0, cfg if as_is else stepper.configuration())]
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
    scale u for spatial similarity checks), with gap_i = bound_i - x_i over a's
    gaps: n on a ring, n - 1 on a line.  The sides may differ in dtype, p and v.
    The fused kernel runs all the steps in one call and draws each coin word
    once for both sides; otherwise the sides advance step by step on one word
    stream.  Each side has the bits of its own ``run``.  A displacement scale that
    is not positive and finite raises ValueError before any step.
    """
    if cfg_a.n != cfg_b.n:
        raise ValueError("statically coupled runs need equal particle counts")
    steps = _integer("steps", steps, 1, _TIMES + 1)
    scale = float(_positive("displacement_scale", displacement_scale))
    coins = _as_coins(coins_or_seed)
    a, b = (_Stepper(cfg, params, coins, steps=steps)
            for cfg, params in ((cfg_a, params_a), (cfg_b, params_b)))
    n = cfg_a.n
    # a line has no gap ahead of its last particle
    n_gaps = n if cfg_a.is_ring else max(n - 1, 0)
    # rows: each side's step totals, then the gap and the displacement divergences
    out = np.zeros((4, steps))
    if a.plan.run is not None:
        kinds = 2 * (a.plan.rr.dtype.kind == "f") + (b.plan.rr.dtype.kind == "f")
        # both sides' call arguments: steps 0 .. steps - 1, which the kernel reads from a's
        a_args, b_args = (side.args(0, steps, 0, 1) for side in (a, b))
        _native.kernel()["coupled"][kinds](a_args, b_args, n_gaps, scale, _address(out))
    else:
        for t, w in enumerate(coins._words(n, 0, steps)):
            out[0, t], out[1, t] = a.advance(w).sum(), b.advance(w).sum()
            if n_gaps:
                ga, gb = ((side.bounds() - side.x)[:n_gaps] for side in (a, b))
                out[2, t] = np.abs(gb - scale * ga).max()
            if n:
                out[3, t] = np.abs(b.disp - scale * a.disp).max()
    return CoupledRun(_summary(cfg_a, a, out[0], [(steps, a.configuration())]),
                      _summary(cfg_b, b, out[1], [(steps, b.configuration())]),
                      out[2], out[3])
