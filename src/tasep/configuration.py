"""Particle configurations on a ring or a line window.

A configuration is an ordered tuple of hard balls: sorted center positions,
per-particle radii and a cumulative-displacement counter per particle.  On a
ring the stored positions live in the half-open window [x_0, x_0 + L) with
x_0 in [0, L); dynamics never rotates particle indices, which keeps statically
coupled runs aligned, and the window is renormalized by subtracting L whenever
the whole configuration has drifted past the seam (an exact operation in both
integer and floating-point arithmetic).

Lattice configurations keep int64 positions so lattice invariants are exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import IO, Sequence, Union

import numpy as np

from ._rows import CHUNK_ROWS, write_rows

__all__ = [
    "AdmissibilityError",
    "AdmissibilityReport",
    "Configuration",
    "LINE",
    "LineWindow",
    "ProcessParams",
    "Ring",
    "check_admissible",
    "decode_word",
    "density",
    "encode_word",
    "even_lattice_ring",
    "evenly_spaced_ring",
    "gaps",
    "radius_conjugate",
    "read_configuration_csv",
    "scale_shift",
    "successor_bounds",
    "validate_word",
    "write_configuration_csv",
]

_UINT64 = 2**64

# Sentinel successor for the last particle on a line; headroom so that
# bound + v never overflows int64 in any realistic run.
_INT_CAP = np.iinfo(np.int64).max // 4

# Overlap smaller than a few ulps of the state scale is floating-point noise
# (a touching contact re-read after the ring window shifts by L), not a real
# violation; integer lattices use exact zero tolerance.
_REL_SLACK = 32 * np.finfo(np.float64).eps


def _integer(name: str, v, lo: int, hi: float = math.inf) -> int:
    """v as an int when it is an integer in [lo, hi) and not a bool; ValueError otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v < hi:
        span = f"in {lo}..{hi - 1}" if hi < math.inf else f"of at least {lo}"
        raise ValueError(f"{name} must be an integer {span}, got {v!r}")
    return int(v)


def _uint64(name: str, v) -> int:
    """v as an int when it is an integer in [0, 2**64) and not a bool; ValueError otherwise."""
    return _integer(name, v, 0, _UINT64)


def _probability(name: str, p):
    """p when it is a movement probability in (0, 1]; ValueError otherwise."""
    if not 0 < p <= 1:
        raise ValueError(f"movement probability {name}={p} outside (0, 1]")
    return p


def _positive(name: str, x):
    """x when it is positive and finite; ValueError otherwise."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name}={x} must be positive and finite")
    return x


def _nonnegative(name: str, x):
    """x when it is nonnegative and finite; ValueError otherwise."""
    if not 0 <= x < math.inf:
        raise ValueError(f"{name}={x} must be nonnegative and finite")
    return x


def _free_density(rho, r) -> float:
    """rho / (1 - 2 r rho): the density of the gap-preserving point image of balls of
    radius r at density rho, math.inf at close packing 2 r rho = 1; ValueError beyond it."""
    packing = 2 * _nonnegative("radius r", r) * _positive("density rho", rho)
    if packing > 1:
        raise ValueError(f"2*r*rho = {packing} > 1 is denser than close packing")
    return math.inf if packing == 1 else rho / (1 - packing)


class _Value:
    """Frozen dataclass values, equal when every field is (arrays by content) and unhashable.
    Pickle, ``copy.copy`` and ``copy.deepcopy`` rebuild one through its constructor from
    its ``init`` fields, so a copy is validated and frozen like any other construction."""

    __hash__ = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def _freeze(self, **arrays: np.ndarray) -> None:
        """Set each named field to a read-only copy of its array."""
        self._own(**{name: arr.copy() for name, arr in arrays.items()})

    def _own(self, **arrays: np.ndarray) -> None:
        """Set each named field to its array, made read-only in place: the value takes it."""
        for arr in arrays.values():
            arr.setflags(write=False)
        vars(self).update(arrays)


class AdmissibilityError(ValueError):
    """An operation required an admissible configuration and got overlap."""

    def __init__(self, message: str, indices: Sequence[int] = ()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


@dataclass(frozen=True)
class Ring:
    """Periodic geometry with the given circumference (length units)."""

    circumference: float

    def __post_init__(self) -> None:
        _positive("ring circumference", self.circumference)


@dataclass(frozen=True)
class LineWindow:
    """A finite window of the infinite line; the last particle is unobstructed."""


LINE = LineWindow()

Geometry = Union[Ring, LineWindow]


@dataclass(frozen=True)
class ProcessParams:
    """Movement probability p, maximal jump v and the space the process acts on.

    ``space="lattice"`` asserts that a run keeps exact int64 arithmetic (see
    Configuration.is_lattice); a run rejects it otherwise or with an obstacle
    field.  p = 0 is admitted as the degenerate frozen process (the identity
    map); measure constructions require p > 0.
    """

    p: float
    v: float
    space: str = "continuum"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"movement probability p={self.p} outside [0, 1]")
        _positive("maximal jump v", self.v)
        if self.space not in ("lattice", "continuum"):
            raise ValueError(f"unknown space tag {self.space!r}")
        if self.space == "lattice" and not float(self.v).is_integer():
            raise ValueError(f"lattice process needs integer v, got {self.v}")


def _as_positions(positions) -> np.ndarray:
    arr = np.asarray(positions)
    if arr.ndim != 1:
        raise ValueError("positions must be a 1-d sequence")
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64)
    return arr.astype(np.float64)


@dataclass(frozen=True, eq=False)
class Configuration(_Value):
    """Ordered particles with radii and per-particle displacement counters."""

    geometry: Geometry
    positions: np.ndarray
    radii: np.ndarray
    winding: np.ndarray | None = None

    def __post_init__(self) -> None:
        pos = _as_positions(self.positions)
        n = len(pos)
        if np.isscalar(self.radii) or np.ndim(self.radii) == 0:
            rad = np.full(n, float(self.radii))
        else:
            rad = np.asarray(self.radii, dtype=np.float64)
        if len(rad) != n:
            raise ValueError("radii length must match positions")
        if n and rad.min() < 0:
            raise ValueError("radii must be nonnegative")
        if self.winding is None:
            wind = np.zeros(n, dtype=np.float64)
        else:
            wind = np.asarray(self.winding, dtype=np.float64)
            if len(wind) != n:
                raise ValueError("winding length must match positions")
        for name, arr in (("positions", pos), ("radii", rad), ("winding", wind)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if n and np.any(np.diff(pos) < 0):
            raise ValueError("positions must be sorted in particle order")
        if isinstance(self.geometry, Ring) and n:
            L = self.geometry.circumference
            if not (0 <= pos[0] < L):
                raise ValueError(f"first ring position {pos[0]} outside [0, {L})")
            if pos[-1] > pos[0] + L:
                raise ValueError("ring positions exceed one circumference window")
        self._freeze(positions=pos, radii=rad, winding=wind)

    @classmethod
    def _of_state(cls, source: "Configuration", positions, winding, terms) -> "Configuration":
        """A state the one-step map produced from the checked ``source``; it takes the
        arrays ``positions`` and ``winding`` and makes them read-only in place.

        The map keeps every invariant ``__post_init__`` checks and admissibility (see
        ``_bounds``), and changes neither the geometry nor the radii, so the state shares
        them, takes the run's bound terms and carries the admissible verdict.
        """
        cfg = object.__new__(cls)
        vars(cfg).update(geometry=source.geometry, radii=source.radii, _terms=terms,
                         _admissible=True)
        cfg._own(positions=positions, winding=winding)
        return cfg

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def is_ring(self) -> bool:
        return isinstance(self.geometry, Ring)

    @property
    def circumference(self) -> float:
        if not isinstance(self.geometry, Ring):
            raise ValueError("not a ring configuration")
        return self.geometry.circumference

    @property
    def is_lattice(self) -> bool:
        """Integral positions, r_i + r_{i+1} and ring length: a run with integral v is int64.

        ``space="lattice"`` asserts this rule; a run rejects it with an obstacle field.
        """
        return self._terms[0].dtype.kind == "i"

    @functools.cached_property
    def _terms(self):
        """The successor bound's state-independent terms: read-only rr_i = r_i + r_{i+1}
        and the seam L (None on a line), which makes x_0 + L the last particle's
        successor; int64 when positions, every pair sum and L are integral, else float64.
        """
        rad = self.radii
        rr = rad + np.concatenate((rad[1:], rad[:1]))  # np.roll costs 5x more on small rings
        L = self.geometry.circumference if self.is_ring else None
        # a line has no wrap pair: its last rr only offsets the unobstructed sentinel
        pairs = rr if L is not None else rr[:-1]
        exact = (self.positions.dtype.kind in "iu" and np.all(pairs == np.rint(pairs))
                 and (L is None or float(L).is_integer()))
        rr = rr.astype(np.int64 if exact else np.float64, copy=False)
        rr.setflags(write=False)
        return rr, None if L is None else (int if exact else float)(L)

    @functools.cached_property
    def _admissible(self) -> bool:
        """True once no neighbour pair overlaps, under the slack of the terms' dtype;
        AdmissibilityError otherwise.  Checked at the first run or step from this
        configuration; the states a run or a step returns carry it (see ``_of_state``)."""
        gaps(self)
        return True

    @property
    def uniform_radius(self) -> float | None:
        """The common radius, or None for genuinely heterogeneous configurations."""
        if self.n == 0:
            return 0.0
        r0 = self.radii[0]
        return float(r0) if np.all(self.radii == r0) else None

    def __repr__(self) -> str:
        geom = f"Ring(L={self.geometry.circumference})" if self.is_ring else "Line"
        return f"Configuration({geom}, n={self.n})"


def _bounds(pos: np.ndarray, rr: np.ndarray, seam) -> np.ndarray:
    """Rightmost admissible position for each particle, from its successor.

    bound_i = succ_i - rr_i with succ_i = x_{i+1}; the last particle's
    successor is x_0 + seam on a ring and an unobstructed sentinel on a line.
    Dynamics and admissibility checks share this expression so that the
    one-step map preserves admissibility exactly, including in floating point.
    A 2-d ``pos`` holds one state per row.
    """
    succ = np.empty(pos.shape, dtype=rr.dtype)
    # the transposes put particles on the first axis of 1-d and 2-d pos alike;
    # on 1-d this is cheaper than indexing the last axis with ...
    s, p = succ.T, pos.T
    if len(p):
        s[:-1] = p[1:]
        if seam is not None:
            s[-1] = p[0] + seam
        else:
            s[-1] = _INT_CAP if rr.dtype.kind == "i" else np.inf
    succ -= rr
    return succ


def successor_bounds(cfg: Configuration) -> np.ndarray:
    """Rightmost admissible position of each particle given its successor."""
    return _bounds(cfg.positions, *cfg._terms)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of check_admissible; index i names the pair (i, i+1 mod N)."""

    ok: bool
    violations: tuple[int, ...] = ()
    radius_sum_exceeds: bool = False


def check_admissible(cfg: Configuration) -> AdmissibilityReport:
    """Report overlapping neighbor pairs and, on rings, excess total diameter."""
    _, bad = _gaps_and_overlaps(cfg)
    mass = cfg.is_ring and 2.0 * float(cfg.radii.sum()) > cfg.circumference
    return AdmissibilityReport(ok=(len(bad) == 0 and not mass),
                               violations=tuple(int(i) for i in bad),
                               radius_sum_exceeds=mass)


def gaps(cfg: Configuration) -> np.ndarray:
    """Free distance ahead of each particle (between ball boundaries).

    Rings include the wrap gap (length N); a line yields N-1 gaps.  Raises
    AdmissibilityError naming the first overlapping pair.
    """
    g, bad = _gaps_and_overlaps(cfg)
    if len(bad):
        i = int(bad[0])
        raise AdmissibilityError(
            f"inadmissible configuration: balls {i} and {(i + 1) % cfg.n} overlap", bad
        )
    return np.maximum(g, g.dtype.type(0))


def _gaps_and_overlaps(cfg: Configuration):
    """bounds - positions, less a line's last entry, and the overlapping pairs: the one rule."""
    pos, seam = cfg.positions, cfg._terms[1]
    g = successor_bounds(cfg) - pos
    g = g if seam is not None else g[:-1]
    slack = 0.0 if pos.dtype.kind in "iu" else _REL_SLACK * max(
        1.0, float(np.abs(pos).max(initial=0.0)), seam or 0.0)
    return g, np.nonzero(g < -slack)[0]


def density(cfg) -> float:
    """Points per unit length of a configuration or an obstacle field: N/L on a ring,
    (N-1)/span on a line window."""
    n = len(cfg.positions)
    if isinstance(cfg.geometry, Ring):
        return n / cfg.geometry.circumference
    if n < 2:
        raise ValueError("line-window density needs at least 2 points")
    span = float(cfg.positions[-1] - cfg.positions[0])
    if span == 0:
        raise ValueError("line-window density undefined for zero span")
    return (n - 1) / span


def _wrap_start(pos: np.ndarray, circumference: float) -> np.ndarray:
    """Shift all positions by a multiple of L so the first lands in [0, L)."""
    if len(pos) == 0:
        return pos
    k = math.floor(pos[0] / circumference)
    if k == 0:
        return pos
    if pos.dtype.kind in "iu" and float(circumference).is_integer():
        return pos - k * int(circumference)
    return pos - k * circumference


def radius_conjugate(cfg: Configuration, r_new: float) -> Configuration:
    """Replace all radii by r_new while preserving the gap sequence.

    Positions telescope from the anchor x_0; on a ring the circumference
    shrinks or grows by 2*(sum r_i - N*r_new).  The gaps are kept exactly on
    integer lattices; a float rebuild rounds its running sum, by up to 3.5e-9
    in a gap at 10^4 particles with r_new = 0.1.  Coupled runs of a
    configuration and its conjugate make identical moves step for step.
    """
    _nonnegative("radius r_new", r_new)
    g = gaps(cfg)
    n = cfg.n
    int_ok = cfg.positions.dtype.kind in "iu" and float(2 * r_new).is_integer()
    if cfg.is_ring:
        L_new = cfg.circumference - 2.0 * (float(cfg.radii.sum()) - n * r_new)
        geometry = Ring(int(L_new) if int_ok and float(L_new).is_integer() else L_new)
    else:
        geometry = LINE
    if n == 0:
        return Configuration(geometry, cfg.positions, np.empty(0), cfg.winding)
    steps = g[: n - 1] + 2 * r_new
    if int_ok and np.all(steps == np.rint(steps)):
        pos = np.empty(n, dtype=np.int64)
        pos[0] = cfg.positions[0]
        pos[1:] = pos[0] + np.cumsum(steps.astype(np.int64))
    else:
        pos = np.empty(n, dtype=np.float64)
        pos[0] = cfg.positions[0]
        pos[1:] = pos[0] + np.cumsum(steps)
        if isinstance(geometry, Ring):
            # the rounded sum can overshoot the seam (by 3.6e-12 for 10^4 point
            # particles stacked across it); clamp to a seam gap of at least 0
            np.minimum(pos, pos[0] + (geometry.circumference - 2.0 * r_new), out=pos)
    if isinstance(geometry, Ring):
        pos = _wrap_start(pos, geometry.circumference)
    return Configuration(geometry, pos, np.full(n, float(r_new)), cfg.winding)


def scale_shift(cfg: Configuration, u: float, w: float = 0.0) -> Configuration:
    """Spatial change of variables x -> u*x + w (radii and circumference scale by u)."""
    _positive("scale factor u", u)
    if not -math.inf < w < math.inf:
        raise ValueError(f"shift w={w} must be finite")
    int_ok = (
        cfg.positions.dtype.kind in "iu"
        and float(u).is_integer()
        and float(w).is_integer()
    )
    if int_ok:
        pos = cfg.positions * int(u) + int(w)
    else:
        pos = cfg.positions * float(u) + float(w)
    rad = cfg.radii * u
    wind = cfg.winding * u
    if cfg.is_ring:
        L_new = cfg.circumference * u
        if int_ok and float(L_new).is_integer():
            L_new = int(L_new)
        pos = _wrap_start(pos, L_new)
        return Configuration(Ring(L_new), pos, rad, wind)
    return Configuration(LINE, pos, rad, wind)


def validate_word(word: str) -> str:
    """The word when it is a nonempty string over {0, 1}; ValueError otherwise."""
    if not word or word.count("0") + word.count("1") != len(word):
        raise ValueError(f"word must be a nonempty 0/1 string, got {word!r}")
    return word


def encode_word(cfg: Configuration) -> str:
    """Occupancy word of a lattice ring with balls of radius 1/2.

    Site k maps to letter '1' iff some particle sits at k (mod L).
    """
    if not cfg.is_ring:
        raise ValueError("encode_word needs a ring configuration")
    if not cfg.is_lattice:
        raise ValueError("encode_word needs integer positions on an integer ring")
    if cfg.n and not np.all(cfg.radii == 0.5):
        raise ValueError("encode_word expects uniform radius 1/2")
    letters = np.zeros(int(cfg.circumference), np.uint8)
    letters[np.mod(cfg.positions, len(letters))] = 1
    if np.count_nonzero(letters) != cfg.n:
        raise ValueError("duplicate lattice sites cannot be encoded")
    return (letters + ord("0")).tobytes().decode("ascii")


def decode_word(word: str) -> Configuration:
    """Inverse of encode_word: a lattice ring with particles at the '1' sites."""
    pos = np.flatnonzero(np.frombuffer(validate_word(word).encode(), np.uint8) == ord("1"))
    return Configuration(Ring(len(word)), pos, np.full(len(pos), 0.5))


def evenly_spaced_ring(n_particles: int, rho: float, radius: float = 0.0) -> Configuration:
    """Ring of n particles at exact density rho, spacing 1/rho; at 2*r*rho = 1 balls touch."""
    n_particles = _integer("n_particles", n_particles, 1)
    _free_density(rho, radius)  # rho, radius and their packing
    spacing = 1.0 / rho
    pos = np.arange(n_particles, dtype=np.float64) * spacing
    return Configuration(Ring(n_particles * spacing), pos, np.full(n_particles, float(radius)))


def even_lattice_ring(n_sites: int, n_particles: int, radius: float = 0.5) -> Configuration:
    """Lattice ring with n particles spread as evenly as integer sites allow."""
    n_sites = _integer("n_sites", n_sites, 1)
    n_particles = _integer("n_particles", n_particles, 0, n_sites + 1)
    j = np.arange(n_sites, dtype=np.int64)
    occupied = (j + 1) * n_particles // n_sites > j * n_particles // n_sites
    pos = j[occupied]
    return Configuration(Ring(n_sites), pos, np.full(len(pos), float(radius)))


def write_configuration_csv(cfg: Configuration, stream: IO[str]) -> None:
    """Columns index,position,radius with a geometry comment line."""
    if cfg.is_ring:
        L = cfg.circumference
        ltxt = repr(int(L)) if float(L).is_integer() else repr(L)
        stream.write(f"# geometry=ring circumference={ltxt}\n")
    else:
        stream.write("# geometry=line\n")
    # the table's lines end in "\r\n", the csv module's line end; the comment's in "\n"
    stream.write("index,position,radius\r\n")
    pos, rad, size = cfg.positions, cfg.radii, CHUNK_ROWS
    write_rows(stream, "%d,%r,%r\r\n", chain.from_iterable(
        zip(range(k, k + size), pos[k:k + size].tolist(), rad[k:k + size].tolist())
        for k in range(0, cfg.n, size)
    ))


def read_configuration_csv(stream: IO[str]) -> Configuration:
    """Read a configuration written by write_configuration_csv: comment lines, the
    column line, then one index,position,radius line per particle."""
    geometry: Geometry | None = None
    positions, radii = [], []
    for line in map(str.strip, stream):
        if line.startswith("#"):
            if "geometry=ring" in line:
                geometry = Ring(float(line.split("circumference=")[1]))
            elif "geometry=line" in line:
                geometry = LINE
        elif line and line != "index,position,radius":
            _, x, r = line.split(",")
            positions.append(x)
            radii.append(float(r))
    if geometry is None:
        raise ValueError("missing geometry comment line")
    all_int = all("." not in x and "e" not in x.lower() for x in positions)
    return Configuration(geometry, np.array([(int if all_int else float)(x) for x in positions]),
                         np.array(radii))
