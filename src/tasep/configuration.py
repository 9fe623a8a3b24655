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

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

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
    "write_configuration_csv",
]

# Sentinel successor for the last particle on a line; headroom so that
# bound + v never overflows int64 in any realistic run.
_INT_CAP = np.iinfo(np.int64).max // 4

# Overlap smaller than a few ulps of the state scale is floating-point noise
# (a touching contact re-read after the ring window shifts by L), not a real
# violation; integer lattices use exact zero tolerance.
_REL_SLACK = 32 * np.finfo(np.float64).eps


def _overlap_slack(pos: np.ndarray, circumference: float | None) -> float:
    if pos.dtype.kind in "iu":
        return 0.0
    scale = max(1.0, float(np.abs(pos).max(initial=0.0)), circumference or 0.0)
    return _REL_SLACK * scale


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
        if not 0 < self.circumference < math.inf:
            raise ValueError("ring circumference must be positive and finite")


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
        if not 0 < self.v < math.inf:
            raise ValueError(f"maximal jump v={self.v} must be positive and finite")
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
class Configuration:
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
        self._freeze(pos, rad, wind)

    def _freeze(self, pos: np.ndarray, rad: np.ndarray, wind: np.ndarray) -> None:
        for name, arr in (("positions", pos), ("radii", rad), ("winding", wind)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _of_state(cls, geometry, positions, radii, winding) -> "Configuration":
        """A copy of a state the one-step map produced from a checked configuration.

        The map keeps every invariant ``__post_init__`` checks, and positions are
        already int64 or float64, so the arrays are only copied and frozen.
        """
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "geometry", geometry)
        cfg._freeze(positions, radii, winding)
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
        L = self.circumference if self.is_ring else None
        return _bound_terms(self.radii, L, self.positions.dtype.kind in "iu")[0].dtype.kind == "i"

    @property
    def uniform_radius(self) -> float | None:
        """The common radius, or None for genuinely heterogeneous configurations."""
        if self.n == 0:
            return 0.0
        r0 = self.radii[0]
        return float(r0) if np.all(self.radii == r0) else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.radii, other.radii)
            and np.array_equal(self.winding, other.winding)
        )

    def __repr__(self) -> str:
        geom = f"Ring(L={self.geometry.circumference})" if self.is_ring else "Line"
        return f"Configuration({geom}, n={self.n})"


def _bound_terms(rad: np.ndarray, circumference: float | None, exact: bool):
    """The state-independent terms of the successor bound: rr and the seam.

    rr_i = r_i + r_{i+1}; the seam L makes x_0 + L the successor of the last
    particle on a ring (None on a line).  Both are int64 when ``exact``
    (integer positions; for a run also an integral jump and no obstacles),
    every rr and the ring length are integral; otherwise both are float64.
    """
    rr = rad + np.concatenate((rad[1:], rad[:1]))  # np.roll costs 5x more on small rings
    # a line has no wrap pair: its last rr only offsets the unobstructed sentinel
    pairs = rr if circumference is not None else rr[:-1]
    if exact and np.all(pairs == np.rint(pairs)) and (
        circumference is None or float(circumference).is_integer()
    ):
        return rr.astype(np.int64), None if circumference is None else int(circumference)
    return rr, None if circumference is None else float(circumference)


def _bounds(pos: np.ndarray, rr: np.ndarray, seam) -> np.ndarray:
    """Rightmost admissible position for each particle, from its successor.

    bound_i = succ_i - rr_i with succ_i = x_{i+1}; the last particle's
    successor is x_0 + seam on a ring and an unobstructed sentinel on a line.
    Dynamics and admissibility checks share this expression so that the
    one-step map preserves admissibility exactly, including in floating point.
    """
    succ = np.empty(len(pos), dtype=rr.dtype)
    if len(pos):
        succ[:-1] = pos[1:]
        if seam is not None:
            succ[-1] = pos[0] + seam
        else:
            succ[-1] = _INT_CAP if rr.dtype.kind == "i" else np.inf
    return succ - rr


def successor_bounds(cfg: Configuration) -> np.ndarray:
    """Rightmost admissible position of each particle given its successor."""
    L = cfg.circumference if cfg.is_ring else None
    rr, seam = _bound_terms(cfg.radii, L, cfg.positions.dtype.kind in "iu")
    return _bounds(cfg.positions, rr, seam)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of check_admissible; index i names the pair (i, i+1 mod N)."""

    ok: bool
    violations: tuple[int, ...] = ()
    radius_sum_exceeds: bool = False


def check_admissible(cfg: Configuration) -> AdmissibilityReport:
    """Report overlapping neighbor pairs and, on rings, excess total diameter."""
    if cfg.n == 0:
        return AdmissibilityReport(ok=True)
    _, bad = _gaps_and_overlaps(cfg.positions, successor_bounds(cfg),
                                cfg.circumference if cfg.is_ring else None)
    mass = False
    if cfg.is_ring:
        mass = 2.0 * float(cfg.radii.sum()) > cfg.circumference
    return AdmissibilityReport(ok=(len(bad) == 0 and not mass),
                               violations=tuple(int(i) for i in bad),
                               radius_sum_exceeds=mass)


def gaps(cfg: Configuration) -> np.ndarray:
    """Free distance ahead of each particle (between ball boundaries).

    Rings include the wrap gap (length N); a line yields N-1 gaps.  Raises
    AdmissibilityError naming the first overlapping pair.
    """
    if cfg.n == 0:
        return cfg.positions.copy()
    g = _checked_gaps(cfg.positions, successor_bounds(cfg),
                      cfg.circumference if cfg.is_ring else None)
    return np.maximum(g, g.dtype.type(0))


def _gaps_and_overlaps(pos: np.ndarray, bounds: np.ndarray, circumference):
    """bounds - pos, less a line's last entry, and the overlapping pairs: the one rule."""
    g = bounds - pos if circumference is not None else (bounds - pos)[:-1]
    return g, np.nonzero(g < -_overlap_slack(pos, circumference))[0]


def _checked_gaps(pos: np.ndarray, bounds: np.ndarray, circumference) -> np.ndarray:
    """bounds - pos, less a line's last entry; AdmissibilityError on overlap."""
    g, bad = _gaps_and_overlaps(pos, bounds, circumference)
    if len(bad):
        i = int(bad[0])
        raise AdmissibilityError(
            f"inadmissible configuration: balls {i} and {(i + 1) % len(pos)} overlap", bad
        )
    return g


def density(cfg: Configuration) -> float:
    """Particles per unit length: N/L on a ring, (N-1)/span on a line window."""
    if cfg.is_ring:
        return cfg.n / cfg.circumference
    if cfg.n < 2:
        raise ValueError("line-window density needs at least 2 particles")
    span = float(cfg.positions[-1] - cfg.positions[0])
    if span == 0:
        raise ValueError("line-window density undefined for zero span")
    return (cfg.n - 1) / span


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
    """Replace all radii by r_new while preserving the gap sequence exactly.

    Positions telescope from the anchor x_0; on a ring the circumference
    shrinks or grows by 2*(sum r_i - N*r_new).  Coupled runs of a
    configuration and its conjugate make identical moves step for step.
    """
    if r_new < 0:
        raise ValueError("r_new must be nonnegative")
    g = gaps(cfg)
    n = cfg.n
    int_ok = cfg.positions.dtype.kind in "iu" and float(2 * r_new).is_integer()
    if cfg.is_ring:
        L_new = cfg.circumference - 2.0 * (float(cfg.radii.sum()) - n * r_new)
        if L_new <= 0:
            raise ValueError("radius conjugation would need a nonpositive circumference")
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
        pos = _wrap_start(pos, geometry.circumference)
    return Configuration(geometry, pos, np.full(n, float(r_new)), cfg.winding)


def scale_shift(cfg: Configuration, u: float, w: float = 0.0) -> Configuration:
    """Spatial change of variables x -> u*x + w (radii and circumference scale by u)."""
    if not u > 0:
        raise ValueError("scale factor u must be positive")
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


def encode_word(cfg: Configuration) -> str:
    """Occupancy word of a lattice ring with balls of radius 1/2.

    Site k maps to letter '1' iff some particle sits at k (mod L).
    """
    if not cfg.is_ring:
        raise ValueError("encode_word needs a ring configuration")
    if not cfg.is_lattice:
        raise ValueError("encode_word needs integer positions on an integer ring")
    n_sites = int(cfg.circumference)
    if cfg.n and not np.all(cfg.radii == 0.5):
        raise ValueError("encode_word expects uniform radius 1/2")
    sites = np.mod(cfg.positions, n_sites)
    if len(np.unique(sites)) != cfg.n:
        raise ValueError("duplicate lattice sites cannot be encoded")
    letters = np.zeros(n_sites, dtype=np.uint8)
    letters[sites] = 1
    return "".join("1" if b else "0" for b in letters)


def decode_word(word: str, geometry: Ring | None = None) -> Configuration:
    """Inverse of encode_word: a lattice ring with particles at the '1' sites."""
    if not word or set(word) - {"0", "1"}:
        raise ValueError("word must be a nonempty string over {0, 1}")
    n_sites = len(word)
    if geometry is None:
        geometry = Ring(n_sites)
    elif not (isinstance(geometry, Ring) and float(geometry.circumference) == n_sites):
        raise ValueError("geometry must be a ring whose circumference is the word length")
    pos = np.array([k for k, ch in enumerate(word) if ch == "1"], dtype=np.int64)
    return Configuration(geometry, pos, np.full(len(pos), 0.5))


def evenly_spaced_ring(n_particles: int, rho: float, radius: float = 0.0) -> Configuration:
    """Ring of n particles at exact density rho, spacing 1/rho (continuum)."""
    if n_particles < 1 or rho <= 0:
        raise ValueError("need n_particles >= 1 and rho > 0")
    if 2 * radius * rho > 1:
        raise ValueError(f"2*r*rho = {2 * radius * rho} > 1 leaves no admissible spacing")
    spacing = 1.0 / rho
    pos = np.arange(n_particles, dtype=np.float64) * spacing
    return Configuration(Ring(n_particles * spacing), pos, np.full(n_particles, float(radius)))


def even_lattice_ring(n_sites: int, n_particles: int, radius: float = 0.5) -> Configuration:
    """Lattice ring with n particles spread as evenly as integer sites allow."""
    if not 0 <= n_particles <= n_sites:
        raise ValueError("need 0 <= n_particles <= n_sites")
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
    writer = csv.writer(stream)
    writer.writerow(["index", "position", "radius"])
    for i in range(cfg.n):
        p = cfg.positions[i]
        ptxt = repr(int(p)) if cfg.positions.dtype.kind in "iu" else repr(float(p))
        writer.writerow([i, ptxt, repr(float(cfg.radii[i]))])


def read_configuration_csv(stream: IO[str]) -> Configuration:
    """Read a configuration written by write_configuration_csv."""
    geometry: Geometry | None = None
    rows: list[tuple[str, str]] = []
    reader = csv.reader(line for line in stream if line.strip())
    for row in reader:
        if row[0].startswith("#"):
            text = ",".join(row)
            if "geometry=ring" in text:
                geometry = Ring(float(text.split("circumference=")[1]))
            elif "geometry=line" in text:
                geometry = LINE
            continue
        if row[0] == "index":
            continue
        rows.append((row[1], row[2]))
    if geometry is None:
        raise ValueError("missing geometry comment line")
    all_int = all("." not in p and "e" not in p.lower() for p, _ in rows)
    positions = np.array([int(p) if all_int else float(p) for p, _ in rows])
    radii = np.array([float(r) for _, r in rows])
    return Configuration(geometry, positions, radii)
