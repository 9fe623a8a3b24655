"""Closed-form average velocities, the obstacle extension, Monte Carlo
velocity estimation, fundamental diagrams and stochastic-stability sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import (
    Configuration,
    ProcessParams,
    Ring,
    _free_density,
    _integer,
    _positive,
    _probability,
    density,
    even_lattice_ring,
    evenly_spaced_ring,
    scale_shift,
)
from .dynamics import CoinStream, ObstacleField, TrajectorySummary, coupled_run, run
from .measures import (
    build_invariant_matrix,
    lattice_density,
    markov_automaton,
    sample_ring_configuration,
)

__all__ = [
    "FundamentalDiagramRow",
    "SimilarityReport",
    "StabilityRow",
    "VelocityEstimate",
    "diagram_point",
    "estimate_velocity",
    "extend_obstacles",
    "fundamental_diagram",
    "initial_ring",
    "measure_distance",
    "similarity_check",
    "stability_sweep",
    "theoretical_velocity",
    "theoretical_velocity_obstacles",
]


def _free_velocity(rho: float, p: float, v: float) -> float:
    # [1 + v*rho - sqrt((1 + v*rho)^2 - 4*p*v*rho)] / (2*rho), written in the
    # cancellation-free form; the radicand is (1 - v*rho)^2 + 4*v*rho*(1-p) >= 0
    # but can round a hair below zero near v*rho = p = 1.
    a = 1 + v * rho
    return 2 * p * v / (a + math.sqrt(max(a * a - 4 * p * v * rho, 0.0)))


def theoretical_velocity(rho: float, p: float, v: float = 1.0, r: float = 0.0) -> float:
    """Stationary average velocity at density rho for jump v and ball radius r.

    Radius enters only through the gap-preserving change to point particles at
    the free density rho/(1 - 2*r*rho); a fully packed ring returns 0.
    """
    p, v = _probability("p", p), _positive("maximal jump v", v)
    rho_free = _free_density(rho, r)
    return 0.0 if rho_free == math.inf else _free_velocity(rho_free, p, v)


def theoretical_velocity_obstacles(rho_particles: float, rho_extended: float, p: float) -> float:
    """Average velocity among obstacles, from the two densities only.

    ``rho_extended`` is the density of the obstacle configuration after
    inserting virtual obstacles every v; with rho_extended = 1/v this reduces
    algebraically to the obstacle-free formula.
    """
    _probability("p", p)
    s = _positive("rho_particles", rho_particles) + _positive("rho_extended", rho_extended)
    return 2 * p / (s + math.sqrt(max(s * s - 4 * p * rho_particles * rho_extended, 0.0)))


def extend_obstacles(field: ObstacleField, v: float) -> ObstacleField:
    """Insert floor(gap/v) virtual obstacles at spacing v into every gap.

    A virtual obstacle falling exactly onto the next real one is dropped, so
    exact-multiple gaps do not create duplicates.  On a ring the wrap gap is
    extended as well.
    """
    _positive("maximal jump v", v)
    z = field.positions
    if len(z) == 0:
        return field
    is_ring = isinstance(field.geometry, Ring)
    if is_ring:
        succ = np.append(z[1:], z[0] + field.geometry.circumference)
    else:
        succ = z[1:]
    pieces = [z]
    for i in range(len(succ)):
        gap = succ[i] - z[i]
        k = int(math.floor(gap / v + 1e-9))
        if k < 1:
            continue
        cand = z[i] + v * np.arange(1, k + 1)
        cand = cand[np.abs(cand - succ[i]) > 1e-9 * max(v, 1.0)]
        pieces.append(cand)
    merged = np.concatenate(pieces)
    if is_ring:
        L = field.geometry.circumference
        merged = np.where(merged >= L, merged - L, merged)
    return ObstacleField(field.geometry, np.sort(merged))


@dataclass(frozen=True)
class VelocityEstimate:
    """Post-burn-in mean displacement per particle per step, with batch stderr."""

    value: float
    stderr: float
    n_particles: int
    steps: int
    burn_in: int


def estimate_velocity(
    summary: TrajectorySummary, burn_in: int | None = None, batches: int = 20
) -> VelocityEstimate:
    """Velocity and batch-means standard error from a trajectory summary."""
    steps = summary.steps
    burn_in = steps // 4 if burn_in is None else _integer("burn_in", burn_in, 0, steps)
    batches = _integer("batches", batches, 2)
    # average the totals, then divide by N once: a constant total T gives exactly T / N
    post = summary.step_total_displacement[burn_in:]
    n = max(summary.n_particles, 1)
    if len(post) < batches:
        raise ValueError(f"{len(post)} post-burn-in steps cannot fill {batches} batches")
    value = float(post.mean() / n)
    # np.array_split's batches: the first r hold q + 1 steps, the rest q.  A row mean
    # sums its contiguous row pairwise, as the mean of a 1-d chunk does, so the bits agree.
    q, r = divmod(len(post), batches)
    cut = r * (q + 1)
    batch_means = np.concatenate((post[:cut].reshape(r, q + 1).mean(axis=1),
                                  post[cut:].reshape(batches - r, q).mean(axis=1))) / n
    stderr = float(batch_means.std(ddof=1) / math.sqrt(batches))
    return VelocityEstimate(value, stderr, summary.n_particles, steps, burn_in)


def initial_ring(rho: float, v: float, r: float, n_particles: int) -> tuple[Configuration, str]:
    """Deterministic exact-density ring start and the matching space tag.

    Hard-core radii 1/2 with integer v get an integer-lattice occupancy spread
    as evenly as possible; anything else gets an evenly spaced continuum ring.
    """
    if r == 0.5 and float(v).is_integer():
        n = _integer("n_particles", n_particles, 1)
        n_sites = int(round(n / _positive("density rho", rho)))
        k = int(round(rho * n_sites))
        return even_lattice_ring(n_sites, k), "lattice"
    return evenly_spaced_ring(n_particles, rho, radius=r), "continuum"


@dataclass(frozen=True)
class FundamentalDiagramRow:
    rho: float
    p: float
    v: float
    r: float
    v_theory: float
    v_hat: float
    stderr: float
    flux: float


def diagram_point(
    rho: float,
    p: float,
    v: float,
    r: float,
    n_particles: int,
    steps: int,
    seed: int,
    index: int = 0,
    burn_in: int | None = None,
    initial: str = "even",
) -> FundamentalDiagramRow:
    """One grid point of the fundamental diagram; ``index`` keys the substream.

    ``initial="even"`` starts from an evenly spaced exact-density ring;
    ``initial="sampled"`` draws the start from the transported invariant
    measure, whose particle count fluctuates, so the row then reports the
    realized density and the theory value at that density.
    """
    rho_lat = lattice_density(rho, v, r)  # checks rho, v, r and 2*r*rho < 1
    if initial == "even":
        cfg, space = initial_ring(rho, v, r, n_particles)
        rho_run = float(rho)
    elif initial == "sampled":
        n_sites = max(2, int(round(_integer("n_particles", n_particles, 1) / rho_lat)))
        cfg = sample_ring_configuration(
            rho, p, v=v, r=r, n_sites=n_sites,
            seed=np.random.default_rng(np.random.SeedSequence((seed, index))),
        )
        space = "lattice" if cfg.is_lattice and float(v).is_integer() else "continuum"
        rho_run = density(cfg)
    else:
        raise ValueError(f"unknown initial condition kind {initial!r}")
    theory = theoretical_velocity(rho_run, p, v, r)
    summary = run(cfg, ProcessParams(p=p, v=v, space=space), steps, CoinStream(seed).derive(index))
    est = estimate_velocity(summary, burn_in=burn_in)
    return FundamentalDiagramRow(
        rho=rho_run, p=p, v=v, r=r,
        v_theory=theory, v_hat=est.value, stderr=est.stderr,
        flux=rho_run * est.value,
    )


def fundamental_diagram(
    rho_grid,
    p: float,
    v: float,
    r: float,
    n_particles: int = 10_000,
    steps: int = 20_000,
    seed: int = 0,
    burn_in: int | None = None,
    initial: str = "even",
) -> list[FundamentalDiagramRow]:
    """Theory and simulation velocity across a density grid, one row per rho."""
    return [
        diagram_point(rho, p, v, r, n_particles, steps, seed, k, burn_in, initial)
        for k, rho in enumerate(rho_grid)
    ]


def measure_distance(rho_lat: float, p: float, max_length: int = 4) -> float:
    """Max cylinder-measure gap to the deterministic measure, words up to max_length."""
    mu_p, mu_1 = (markov_automaton(build_invariant_matrix(rho_lat, q)).table(max_length)
                  for q in (p, 1.0))
    return float(np.abs(mu_p - mu_1).max())


@dataclass(frozen=True)
class StabilityRow:
    p: float
    v_theory: float
    v_hat: float
    stderr: float
    measure_dist: float


def stability_sweep(
    rho: float,
    v: float,
    r: float,
    p_values,
    n_particles: int = 2_000,
    steps: int = 4_000,
    seed: int = 0,
    burn_in: int | None = None,
) -> list[StabilityRow]:
    """Velocities and measure distances along p -> 1; row k is diagram_point(..., index=k)."""
    rows = []
    for k, p in enumerate(p_values):
        pt = diagram_point(rho, p, v, r, n_particles, steps, seed, k, burn_in)
        dist = measure_distance(lattice_density(rho, v, r), p) if p < 1 else 0.0
        rows.append(StabilityRow(float(p), pt.v_theory, pt.v_hat, pt.stderr, dist))
    return rows


@dataclass(frozen=True)
class SimilarityReport:
    """Coupled check of the spatial similarity x -> u*x, v -> u*v."""

    u: float
    steps: int
    density: float
    density_scaled: float
    max_displacement_error: float
    max_gap_error: float


def similarity_check(
    cfg: Configuration, params: ProcessParams, u: float, steps: int, seed
) -> SimilarityReport:
    """Run (x, v) against (u*x, u*v) on shared coins; displacements must scale by u."""
    if cfg.n and np.any(cfg.radii != 0):
        raise ValueError("the similarity transform applies to radius-0 particles")
    scaled = scale_shift(cfg, u, 0.0)
    params_scaled = ProcessParams(p=params.p, v=u * params.v, space="continuum")
    params_plain = ProcessParams(p=params.p, v=params.v, space="continuum")
    cfg_plain = Configuration(cfg.geometry, cfg.positions.astype(np.float64), cfg.radii, cfg.winding)
    result = coupled_run(
        cfg_plain, scaled, params_plain, params_scaled, steps, seed, displacement_scale=u
    )
    return SimilarityReport(
        u=u,
        steps=steps,
        density=density(cfg) if cfg.n else 0.0,
        density_scaled=density(scaled) if cfg.n else 0.0,
        max_displacement_error=float(result.max_displacement_divergence.max()),
        max_gap_error=float(result.max_gap_divergence.max()),
    )
