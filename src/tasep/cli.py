"""Command-line front door: seeded experiments written as CSV artifacts.

Every output file starts with a comment header carrying the package version,
the seed and the full flag set, so any artifact can be replayed exactly.
Exit codes: 0 success or verified, 1 usage error, 2 domain error,
3 verification failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__, _native
from ._rows import write_rows
from .configuration import (
    Configuration,
    ProcessParams,
    Ring,
    _integer,
    radius_conjugate,
    write_configuration_csv,
)
from .dynamics import CoinStream, ObstacleField, coupled_run, run
from .invariance import verify_invariance, write_pushforward_csv
from .measures import (
    TransitionStructure,
    _periodic_words,
    all_words,
    build_invariant_matrix,
    markov_automaton,
    parry_matrix,
    periodic_point_count,
    sample_ring_configuration,
    sample_ring_word,
)
from .velocity import (
    diagram_point,
    estimate_velocity,
    extend_obstacles,
    initial_ring,
    similarity_check,
    stability_sweep,
    theoretical_velocity_obstacles,
)

USAGE_ERROR, DOMAIN_ERROR, VERIFY_FAILED = 1, 2, 3

_STRUCTURES = {
    "no-11": TransitionStructure.no_adjacent_ones,
    "no-00": TransitionStructure.no_adjacent_zeros,
    "full": TransitionStructure.full_shift,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _positive(text: str) -> int:
    """An integer of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def parse_grid(text: str) -> list[float]:
    """start:stop:step (inclusive of stop up to rounding) or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step_ = (float(x) for x in parts)
    if not (0 < step_ < math.inf and -math.inf < start <= stop < math.inf):
        raise ValueError(f"bad grid {text!r}")
    n = int(round((stop - start) / step_))
    values = [start + k * step_ for k in range(n + 1)]
    return [v for v in values if v <= stop + 1e-9 * step_]


def _header(args: argparse.Namespace, command: str) -> str:
    fields = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in ("func", "outdir", "command") and v is not None
    )
    return f"# tasep={__version__} command={command} {fields}\n"


def _outpath(args, name: str) -> Path:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_csv(args, name: str, header: str, columns: str, template: str, rows) -> int:
    """Write the artifact: header, column line, then the rows through ``template``
    in bounded chunks; returns the number of rows, counted as they stream."""
    with open(_outpath(args, name), "w") as fh:
        fh.write(header + columns + "\n")
        return write_rows(fh, template, rows)


def _evenly_spaced(ring: float, count: int) -> np.ndarray:
    """count points at k * ring / count; count * (1 / rho) can miss the ring by an ulp."""
    return np.arange(_integer("points on the ring", count, 1)) * (ring / count)


def _cmd_simulate(args) -> int:
    rho = args.particles / args.ring
    cfg, space = initial_ring(rho, args.v, args.r, args.particles)
    if space == "continuum":
        cfg = Configuration(Ring(args.ring), _evenly_spaced(args.ring, args.particles), args.r)
    elif cfg.circumference != args.ring or cfg.n != args.particles:
        raise ValueError(
            "the lattice process needs an integer ring holding exactly the particles: "
            f"--ring {args.ring} --particles {args.particles} would run "
            f"{cfg.n} particles on {cfg.circumference} sites"
        )
    params = ProcessParams(p=args.p, v=args.v, space=space)
    summary = run(cfg, params, args.steps, CoinStream(args.seed),
                  snapshot_stride=args.snapshot_stride)
    est = estimate_velocity(summary, burn_in=args.burn_in)
    header = _header(args, "simulate")
    traj_rows = chain.from_iterable(
        zip(repeat(t), range(snap.n), snap.positions.tolist(), snap.winding.tolist())
        for t, snap in summary.snapshots
    )
    _write_csv(args, "trajectory.csv", header, "t,particle,position,displacement",
               "%d,%d,%.12g,%.12g\n", traj_rows)
    _write_csv(args, "velocity.csv", header, "v_hat,stderr,particles,steps,burn_in",
               "%.12g,%.12g,%d,%d,%d\n",
               [(est.value, est.stderr, est.n_particles, est.steps, est.burn_in)])
    print(f"v_hat={est.value:.6f} stderr={est.stderr:.2g}")
    return 0


def _cmd_fundamental_diagram(args) -> int:
    grid = parse_grid(args.rho)
    # diagram_point's positional arguments, one column per parameter
    columns = (
        grid, repeat(args.p), repeat(args.v), repeat(args.r), repeat(args.particles),
        repeat(args.steps), repeat(args.seed), range(len(grid)), repeat(args.burn_in),
        repeat(args.initial),
    )
    if args.jobs > 1:
        # each worker runs its points on one thread, as its siblings hold the other CPUs
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_native.one_thread) as pool:
            rows = list(pool.map(diagram_point, *columns))
    else:
        rows = list(map(diagram_point, *columns))
    _write_csv(
        args, "fd.csv", _header(args, "fundamental-diagram"),
        "rho,p,v,r,V_theory,V_hat,stderr,flux", "%.12g," * 7 + "%.12g\n",
        [(w.rho, w.p, w.v, w.r, w.v_theory, w.v_hat, w.stderr, w.flux) for w in rows],
    )
    return 0


def _cmd_verify_invariance(args) -> int:
    m = build_invariant_matrix(args.rho, args.p)
    report = verify_invariance(m, args.p, args.max_len, args.tol)
    path = _outpath(args, "invariance.csv")
    with open(path, "w") as fh:
        fh.write(_header(args, "verify-invariance"))
        write_pushforward_csv(report, fh)
    verdict = "stationary" if report.stationary else "NON-STATIONARY"
    print(f"{verdict}: max |mu' - mu| = {report.max_abs_error:.3e} over words "
          f"up to length {args.max_len}, worst cylinder {report.worst_word}")
    return 0 if report.stationary else VERIFY_FAILED


def _cmd_measure(args) -> int:
    header = _header(args, f"measure-{args.what}")
    m = build_invariant_matrix(args.rho, args.p)
    if args.what == "matrix":
        _write_csv(args, "matrix.csv", header, "p00,p01,p10,p11", "%.12g,%.12g,%.12g,%.12g\n",
                   [(m.p00, m.p01, m.p10, m.p11)])
        print(f"p00={m.p00:.6f} p01={m.p01:.6f} p10={m.p10:.6f} p11={m.p11:.6f}")
    elif args.what == "cylinder":
        rows = zip(all_words(args.max_len), markov_automaton(m).table(args.max_len).tolist())
        _write_csv(args, "cylinders.csv", header, "word,measure", "%s,%.12g\n", rows)
    else:  # sample
        if args.configuration:
            cfg = sample_ring_configuration(
                args.rho, args.p, v=args.v, r=args.r,
                n_sites=args.sites, seed=args.seed,
                randomize_offset=args.randomize_offset,
            )
            with open(_outpath(args, "sample.csv"), "w") as fh:
                fh.write(header)
                write_configuration_csv(cfg, fh)
        else:
            word = sample_ring_word(m, args.sites, args.seed)
            _write_csv(args, "sample.csv", header, "word", "%s\n", [(word,)])
            print(word)
    return 0


def _cmd_periodic_points(args) -> int:
    ts = _STRUCTURES[args.structure]()
    count = periodic_point_count(ts, args.n)
    header = _header(args, "periodic-points")
    if args.count_only:
        _write_csv(args, "periodic_counts.csv", header, "n,count", "%d,%d\n", [(args.n, count)])
    else:
        written = _write_csv(args, "periodic_points.csv", header, "word", "%s\n",
                             zip(_periodic_words(ts, args.n)))
        if written != count:
            raise RuntimeError(f"enumeration wrote {written} words, trace count is {count}")
    pm = parry_matrix(ts)
    print(f"n={args.n} count={count} parry_p11={pm.p11:.6f} entropy={ts.entropy:.6f}")
    return 0


def _cmd_stability_sweep(args) -> int:
    p_values = [float(x) for x in args.p_list.split(",")]
    rows = stability_sweep(args.rho, args.v, args.r, p_values,
                           args.particles, args.steps, args.seed, args.burn_in)
    _write_csv(
        args, "sweep.csv", _header(args, "stability-sweep"),
        "p,V_theory,V_hat,stderr,measure_dist", "%.12g," * 4 + "%.12g\n",
        [(w.p, w.v_theory, w.v_hat, w.stderr, w.measure_dist) for w in rows],
    )
    return 0


def _cmd_obstacles(args) -> int:
    if args.obstacles_csv:
        z = np.loadtxt(args.obstacles_csv, delimiter=",", ndmin=1)
        field = ObstacleField(Ring(args.ring), z)
    else:
        field = ObstacleField(Ring(args.ring), _evenly_spaced(args.ring, args.count))
    extended = extend_obstacles(field, args.v)
    rho_ext = extended.density()
    n_particles = int(round(args.rho_x * args.ring))
    cfg = Configuration(Ring(args.ring), _evenly_spaced(args.ring, n_particles), 0.0)
    params = ProcessParams(p=args.p, v=args.v, space="continuum")
    summary = run(cfg, params, args.steps, CoinStream(args.seed), field=field)
    est = estimate_velocity(summary, burn_in=args.burn_in)
    theory = theoretical_velocity_obstacles(n_particles / args.ring, rho_ext, args.p)
    _write_csv(
        args, "obstacles.csv", _header(args, "obstacles"),
        "rho_x,rho_extended,p,v,V_theory,V_hat,stderr", "%.12g," * 6 + "%.12g\n",
        [(n_particles / args.ring, rho_ext, args.p, args.v, theory, est.value, est.stderr)],
    )
    print(f"rho_ext={rho_ext:.6f} V_theory={theory:.6f} V_hat={est.value:.6f}")
    return 0


def _cmd_couple_check(args) -> int:
    tol = args.tol
    coins = CoinStream(args.seed)
    rng = np.random.default_rng(args.seed)
    if args.mode == "radius":
        cfg_a, space = initial_ring(args.rho, args.v, 0.5, args.particles)
        cfg_b = radius_conjugate(cfg_a, 0.0)
        params = ProcessParams(p=args.p, v=args.v, space=space)
        result = coupled_run(cfg_a, cfg_b, params, params, args.steps, coins)
        worst = float(result.max_gap_divergence.max())
        label = "gap divergence"
    elif args.mode == "heterogeneous":
        n = args.particles
        radii = rng.uniform(0.0, 0.4, n)
        spacing = 1.0 / args.rho
        pos = np.arange(n) * spacing
        cfg_a = Configuration(Ring(n * spacing), pos, radii)
        cfg_b = radius_conjugate(cfg_a, float(radii.mean()))
        params = ProcessParams(p=args.p, v=args.v, space="continuum")
        result = coupled_run(cfg_a, cfg_b, params, params, args.steps, coins)
        worst = float(result.max_displacement_divergence.max())
        label = "displacement divergence"
    else:  # similarity
        cfg, _ = initial_ring(args.rho, args.v, 0.0, args.particles)
        params = ProcessParams(p=args.p, v=args.v, space="continuum")
        report = similarity_check(cfg, params, args.u, args.steps, coins)
        worst = report.max_displacement_error
        label = f"scaled displacement divergence (u={args.u})"
    _write_csv(args, "couple.csv", _header(args, "couple-check"), "mode,max_divergence,tol",
               "%s,%.12g,%.12g\n", [(args.mode, worst, tol)])
    print(f"{label}: {worst:.3e} (tol {tol:.1e})")
    return 0 if worst <= tol else VERIFY_FAILED


@cache
def build_parser() -> _Parser:
    """The parser, built on first use and shared for the rest of the process."""
    parser = _Parser(prog="tasep", description=__doc__)
    parser.add_argument("--outdir", default=None,
                        help="output directory (default $TASEP_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_run(q, particles=10_000, steps=5_000):
        q.add_argument("--p", type=float, default=1.0)
        q.add_argument("--v", type=float, default=1.0)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--steps", type=int, default=steps)
        q.add_argument("--particles", type=int, default=particles)
        q.add_argument("--burn-in", type=int, default=None)

    q = sub.add_parser("simulate", help="run one seeded trajectory")
    q.add_argument("--ring", type=float, required=True, help="ring circumference")
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--snapshot-stride", type=int, default=None)
    common_run(q, particles=500)
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("fundamental-diagram", help="velocity vs density grid")
    q.add_argument("--rho", required=True, help="grid start:stop:step or value")
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--jobs", type=_positive, default=1,
                   help="worker processes, one grid point each at a time (default 1)")
    q.add_argument("--initial", choices=["even", "sampled"], default="even")
    common_run(q, steps=20_000)
    q.set_defaults(func=_cmd_fundamental_diagram)

    q = sub.add_parser("verify-invariance", help="exact cylinder pushforward check")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--max-len", type=int, default=6)
    q.add_argument("--tol", type=float, default=1e-10)
    q.set_defaults(func=_cmd_verify_invariance)

    q = sub.add_parser("measure", help="emit matrices, cylinder tables or samples")
    q.add_argument("what", choices=["matrix", "cylinder", "sample"])
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--max-len", type=int, default=4)
    q.add_argument("--sites", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--v", type=float, default=1.0)
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--configuration", action="store_true",
                   help="sample a transported ring configuration instead of a word")
    q.add_argument("--randomize-offset", action="store_true")
    q.set_defaults(func=_cmd_measure)

    q = sub.add_parser("periodic-points", help="cyclic words of a subshift")
    q.add_argument("--structure", choices=list(_STRUCTURES), default="no-11")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--count-only", action="store_true")
    q.set_defaults(func=_cmd_periodic_points)

    q = sub.add_parser("stability-sweep", help="p -> 1 velocities and measure distances")
    q.add_argument("--rho", type=float, required=True)
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--p-list", default="0.9,0.99,0.999")
    common_run(q, particles=2_000, steps=4_000)
    q.set_defaults(func=_cmd_stability_sweep)

    q = sub.add_parser("obstacles", help="velocity among static obstacles")
    q.add_argument("--ring", type=float, required=True)
    q.add_argument("--rho-x", dest="rho_x", type=float, required=True,
                   help="particle density; the count is rho_x * ring")
    q.add_argument("--count", type=int, default=100, help="evenly spaced obstacles")
    q.add_argument("--obstacles-csv", default=None)
    q.add_argument("--p", type=float, default=1.0)
    q.add_argument("--v", type=float, default=1.0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--steps", type=int, default=20_000)
    q.add_argument("--burn-in", type=int, default=None)
    q.set_defaults(func=_cmd_obstacles)

    q = sub.add_parser("couple-check", help="exactness of statically coupled runs")
    q.add_argument("--mode", choices=["radius", "heterogeneous", "similarity"],
                   default="radius")
    q.add_argument("--rho", type=float, default=0.3)
    q.add_argument("--u", type=float, default=2.0)
    q.add_argument("--tol", type=float, default=1e-9)
    common_run(q, particles=1_000, steps=1_000)
    q.set_defaults(func=_cmd_couple_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.outdir is None:  # read per call: the parser outlives the environment
        args.outdir = os.environ.get("TASEP_OUTDIR", ".")
    try:
        return args.func(args)
    except ValueError as exc:  # AdmissibilityError is a ValueError
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
