"""The three workloads: inputs from the seed, the timed ops and their oracles.

Each builder returns a Workload whose ``ops`` are the fixed library and CLI
calls of one round.  Every expected value comes from ``oracles`` (computed
without tasep) or from an exact identity the program must satisfy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from harness import Op, Tracer

# --------------------------------------------------------------------------
# sizes


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; ``TINY`` is the smoke test's scale."""

    fd_particles: int = 10_000
    fd_steps: int = 200
    ring_sites: int = 200
    ring_steps: int = 300
    lattice_rings: int = 24
    continuum_rings: int = 12
    cli_snapshot_stride: int = 30
    # exact_cylinders times short calls (tens of ms) and runs the full-size
    # calls once per run, as checked operations outside the timed rounds
    verify_max_len: int = 8
    periodic_n: int = 18
    sample_sites: int = 10_000
    full_verify_max_len: int = 12
    full_periodic_n: int = 24
    full_sample_sites: int = 100_000


FULL = Sizes()
TINY = Sizes(
    fd_particles=300,
    fd_steps=40,
    ring_sites=40,
    ring_steps=40,
    lattice_rings=24,
    continuum_rings=12,
    cli_snapshot_stride=10,
    verify_max_len=4,
    periodic_n=8,
    sample_sites=2000,
    full_verify_max_len=6,
    full_periodic_n=10,
    full_sample_sites=4000,
)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # ops run once per run, checked but not timed
    once_ops: list[Op] = field(default_factory=list)
    # checks that need the results of several ops; run once after round 1
    joint_checks: list[tuple[str, Callable[[], list[str]]]] = field(default_factory=list)
    # library calls equivalent to each CLI op, for cli.overhead.s
    cli_equivalents: dict[str, Callable[[], Any]] = field(default_factory=dict)
    # inputs the traced run reuses for its per-layer split
    layer_inputs: dict[str, Any] = field(default_factory=dict)
    # particle-steps done by one round (library and CLI)
    particle_steps: int = 0


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def conservation_problems(tp, cfg0, final, displacement, v: float, steps: int) -> list[str]:
    """Particle count, order, admissibility and 0 <= displacement <= v*steps."""
    out = []
    if final.n != cfg0.n:
        out.append(f"particle count {cfg0.n} -> {final.n}")
    if final.n and np.any(np.diff(final.positions) < 0):
        out.append("particle order broken")
    if not tp.check_admissible(final).ok:
        out.append("final configuration inadmissible")
    if final.n and (displacement.min() < 0 or displacement.max() > v * steps):
        out.append(f"displacement outside [0, {v * steps}]")
    return out


class CliRunner:
    """Runs ``tasep.cli.main`` in-process with artifacts in a scratch directory."""

    def __init__(self, tp, tr: Tracer, outdir: Path):
        self.tp, self.tr, self.outdir = tp, tr, outdir
        self.bytes_written = 0

    def __call__(self, subdir: str, argv: list[str]) -> tuple[int, str, Path]:
        out = self.outdir / subdir
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tr.call("cli.main", self.tp.cli.main, ["--outdir", str(out)] + argv)
        self.bytes_written += sum(f.stat().st_size for f in out.iterdir())
        return code, buf.getvalue(), out


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the comment header and the column line."""
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


class _FirstResults:
    """Read-only view of each op's first result, for checks that compare ops."""

    def __init__(self, ops: list[Op]):
        self._ops = {op.name: op for op in ops}

    def __getitem__(self, name: str):
        return self._ops[name].first


def _coupled_digest(res) -> bytes:
    return res.a.final.positions.tobytes() + res.b.final.positions.tobytes()


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


# --------------------------------------------------------------------------
# fd_n1e4


def fd_points() -> list[tuple[float, float, int, float]]:
    """(rho, p, v, r): both sides of the jam for r in {1/2, 0}, v in {1, 2}."""
    sides = {(0.5, 1): (0.3, 0.7), (0.5, 2): (0.2, 0.5),
             (0.0, 1): (0.5, 1.5), (0.0, 2): (0.25, 0.75)}
    return [
        (rho, p, v, r)
        for (r, v), rhos in sides.items()
        for p in (0.5, 0.8)
        for rho in rhos
    ]


FD_DETERMINISTIC = [(0.3, 1.0, 1, 0.5), (0.7, 1.0, 1, 0.5)]
# the CLI grid and the same densities as parse_grid computes them (start + k * step)
FD_CLI_RHO = "0.2:0.8:0.2"
FD_CLI_GRID = [0.2 + k * 0.2 for k in range(4)]


def fd_band(v: float, stderr: float) -> tuple[float, float]:
    """Allowed v_hat - V: the even-start relaxation offset above, 5 sigma both sides.

    From the even start at 200 steps (burn-in 50) the estimate sits above the
    closed form by 0.003 v to 0.010 v (README.md); 0.02 v covers it.  The
    relaxation never pulls the estimate below V, so the band below is narrow.
    """
    return -(0.002 * v + 5.0 * stderr), 0.02 * v + 5.0 * stderr


def build_fd(tp, seed: int, sizes: Sizes, tr: Tracer, cli: CliRunner) -> Workload:
    N, steps = sizes.fd_particles, sizes.fd_steps
    ops: list[Op] = []
    starts = {}
    for k, (rho, p, v, r) in enumerate(fd_points() + FD_DETERMINISTIC):
        cfg, space = tp.velocity.initial_ring(rho, v, r, N)
        starts[k] = (cfg, space, rho, p, v, r)
        realized = cfg.n / cfg.circumference

        def call(rho=rho, p=p, v=v, r=r, k=k):
            return tr.call("velocity.diagram_point", tp.velocity.diagram_point,
                           rho, p, v, r, N, steps, seed, k, _work=N * steps)

        if p < 1:
            theory = oracles.closed_form_velocity(realized, p, v, r)
            # the row's theory column is the closed form at the nominal density
            nominal = oracles.closed_form_velocity(rho, p, v, r)

            def check(row, theory=theory, nominal=nominal, v=v):
                low, high = fd_band(v, row.stderr)
                err = row.v_hat - theory
                out = [] if low <= err <= high else [
                    f"v_hat - V = {err:.3g} outside [{low:.3g}, {high:.3g}]"]
                if abs(row.v_theory - nominal) > 1e-12:
                    out.append(f"v_theory {row.v_theory!r} != closed form {nominal!r}")
                return out
        else:
            L, n = int(cfg.circumference), cfg.n
            exact = 1.0 if n / L < 0.5 else (L - n) / n

            def check(row, exact=exact):
                # the estimator averages per-step ratios, so allow a few ulps
                ok = abs(row.v_hat - exact) <= 4 * math.ulp(exact)
                return [] if ok else [f"v_hat {row.v_hat!r} != {exact!r}"]

        ops.append(Op(f"diagram_point[rho={rho},p={p},v={v},r={r}]", "lib", call, check,
                      lambda row: (row.v_hat, row.stderr)))

    grid = FD_CLI_GRID
    argv = ["fundamental-diagram", "--rho", FD_CLI_RHO,
            "--p", "0.5", "--v", "1", "--r", "0.5", "--particles", str(N),
            "--steps", str(steps), "--seed", str(seed), "--jobs", "1"]

    def lib_rows():
        return tp.velocity.fundamental_diagram(grid, 0.5, 1.0, 0.5, N, steps, seed)

    def cli_call():
        code, _, out = cli("fd", argv)
        return code, _data_rows(out / "fd.csv")

    def cli_check(result):
        code, rows = result
        want = [[_fmt12(x) for x in (w.rho, w.p, w.v, w.r, w.v_theory, w.v_hat, w.stderr, w.flux)]
                for w in lib_rows()]
        out = [] if code == 0 else [f"exit code {code}"]
        if rows != want:
            out.append("fd.csv rows differ from the library rows for the same seed")
        return out

    ops.append(Op("cli.fundamental-diagram", "cli", cli_call, cli_check, lambda r: r))
    wl = Workload("fd_n1e4", ops, cli_equivalents={"cli.fundamental-diagram": lib_rows})
    wl.particle_steps = (len(starts) + len(grid)) * N * steps
    wl.layer_inputs = {
        "fd_starts": [
            (cfg, tp.ProcessParams(p=p, v=v, space=space), tp.CoinStream(seed).derive(k), space)
            for k, (cfg, space, rho, p, v, r) in starts.items()
        ],
        "steps": steps,
    }
    return wl


# --------------------------------------------------------------------------
# rings_n100

RING_PARAMS = [(0.5, 0.5), (0.35, 0.8), (0.65, 0.3)]  # (lattice density, p)
T_BOUND = 6.0


def sampled_lattice_ring(tp, tr: Tracer, rho: float, p: float, n_sites: int, rng):
    """Exact stationary start: a cyclic Markov word decoded to a lattice ring."""
    m = tp.build_invariant_matrix(rho, p)
    word = tr.call("measures.sample_ring_word", tp.sample_ring_word, m, n_sites, rng,
                   _work=n_sites)
    return tp.decode_word(word)


def build_rings(tp, seed: int, sizes: Sizes, tr: Tracer, cli: CliRunner) -> Workload:
    rng = np.random.default_rng(seed)
    L, steps = sizes.ring_sites, sizes.ring_steps
    root = tp.CoinStream(seed)
    ops: list[Op] = []
    deviations: list[float] = []  # (v_hat - V) / v of every ring with an exact V

    def ring_op(name, cfg0, params, coins, expected, field=None, with_estimate=True):
        span = "dynamics.run" if field is None else "dynamics.run(field)"

        def call():
            summary = tr.call(span, tp.run, cfg0, params, steps, coins, field=field,
                              _work=cfg0.n * steps)
            est = (tr.call("velocity.estimate_velocity", tp.estimate_velocity, summary, burn_in=0)
                   if with_estimate else None)
            return summary, est

        def check(result):
            summary, est = result
            if expected is not None:
                deviations.append((est.value - expected) / params.v)
            return conservation_problems(tp, cfg0, summary.final, summary.displacement,
                                         params.v, steps)

        def digest(result):
            summary, _ = result
            return summary.final.positions.tobytes(), summary.displacement.tobytes()

        ops.append(Op(name, "lib", call, check, digest))

    lattice, continuum = [], []
    for i in range(sizes.lattice_rings):
        rho, p = RING_PARAMS[i % len(RING_PARAMS)]
        cfg = sampled_lattice_ring(tp, tr, rho, p, L, rng)
        params = tp.ProcessParams(p=p, v=1, space="lattice")
        lattice.append((cfg, params, root.derive(1, i)))
        ring_op(f"run.lattice[{i}]", cfg, params, root.derive(1, i),
                oracles.finite_ring_velocity(L, cfg.n, p))
    for i in range(sizes.continuum_rings):
        rho, p = RING_PARAMS[i % len(RING_PARAMS)]
        word_cfg = sampled_lattice_ring(tp, tr, rho, p, L, rng)
        # scale-2 image of the point-particle conjugate, on the offset lattice 0.5 + 2Z
        cfg = tp.scale_shift(tp.radius_conjugate(word_cfg, 0.0), 2.0, 0.5)
        params = tp.ProcessParams(p=p, v=2.0, space="continuum")
        continuum.append((cfg, params, root.derive(2, i)))
        ring_op(f"run.continuum[{i}]", cfg, params, root.derive(2, i),
                2.0 * oracles.finite_ring_velocity(L, word_cfg.n, p))

    def pooled_t() -> list[str]:
        d = np.array(deviations)
        t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
        return [] if abs(t) <= T_BOUND else [f"pooled t = {t:.2f} over {len(d)} rings"]

    # coupled runs: lattice radius conjugacy must be exact
    for j in range(2):
        cfg_a, params, _ = lattice[j]
        cfg_b = tp.radius_conjugate(cfg_a, 0.0)
        coins = root.derive(3, j)

        def call(cfg_a=cfg_a, cfg_b=cfg_b, params=params, coins=coins):
            return tr.call("dynamics.coupled_run", tp.coupled_run, cfg_a, cfg_b, params, params,
                           steps, coins, _work=2 * cfg_a.n * steps)

        def check(res, cfg_a=cfg_a, params=params):
            out = [] if res.max_gap_divergence.max() == 0 else ["radius-conjugate gaps diverge"]
            if not np.array_equal(res.a.displacement, res.b.displacement):
                out.append("radius-conjugate displacements differ")
            return out + conservation_problems(tp, cfg_a, res.a.final, res.a.displacement,
                                               params.v, steps)

        ops.append(Op(f"coupled_run.radius[{j}]", "lib", call, check, _coupled_digest))

    # spatial similarity with u = 2 is exact in binary floating point
    sim_cfg = tp.scale_shift(tp.radius_conjugate(lattice[0][0], 0.0), 1.0, 0.25)
    sim_params = tp.ProcessParams(p=0.6, v=1.0, space="continuum")

    def sim_call():
        return tr.call("velocity.similarity_check", tp.similarity_check, sim_cfg, sim_params,
                       2.0, steps, root.derive(4), _work=2 * sim_cfg.n * steps)

    def sim_check(rep):
        return [] if rep.max_displacement_error == 0 else [
            f"similarity displacement error {rep.max_displacement_error}"]

    ops.append(Op("similarity_check[u=2]", "lib", sim_call, sim_check,
                  lambda rep: (rep.max_displacement_error, rep.max_gap_error)))

    # heterogeneous radii conjugated to their mean radius
    n_het = max(2, L // 2)
    radii = rng.uniform(0.0, 0.4, n_het)
    het_a = tp.Configuration(tp.Ring(2.0 * n_het), np.arange(n_het) * 2.0, radii)
    het_b = tp.radius_conjugate(het_a, float(radii.mean()))
    het_params = tp.ProcessParams(p=0.7, v=1.0, space="continuum")

    def het_call():
        return tr.call("dynamics.coupled_run", tp.coupled_run, het_a, het_b, het_params,
                       het_params, steps, root.derive(5), _work=2 * n_het * steps)

    def het_check(res):
        worst = max(res.max_gap_divergence.max(), res.max_displacement_divergence.max())
        return [] if worst <= 1e-9 else [f"heterogeneous divergence {worst:.3g} > 1e-9"]

    ops.append(Op("coupled_run.heterogeneous", "lib", het_call, het_check, _coupled_digest))

    # obstacles: point particles among random static stopping points
    obstacle_runs = []
    for j, p in enumerate((0.5, 0.9)):
        ring = tp.Ring(float(L))
        n_obs = max(2, L // 5)
        z = np.sort(rng.choice(np.arange(L) * 1.0 + 0.5, size=n_obs, replace=False))
        field_ = tp.ObstacleField(ring, z)
        cfg = tp.Configuration(ring, np.arange(L // 2) * 2.0, 0.0)
        params = tp.ProcessParams(p=p, v=1.0, space="continuum")
        obstacle_runs.append((cfg, params, root.derive(6, j), field_))
        ring_op(f"run.obstacles[p={p}]", cfg, params, root.derive(6, j), None, field=field_,
                with_estimate=False)

    # a loop of bare step calls must reproduce run on the same coins
    step_cfg, step_params, step_coins = lattice[0]

    def step_call():
        cfg = step_cfg
        for t in range(steps):
            cfg = tr.call("dynamics.step", tp.step, cfg, step_params, step_coins, t,
                          _work=step_cfg.n)
        return cfg

    def step_check(final):
        ref = first["run.lattice[0]"][0].final
        out = [] if _same(final.positions, ref.positions) else [
            "step loop positions differ from run"]
        if not _same(final.winding, ref.winding):
            out.append("step loop windings differ from run")
        return out

    ops.append(Op("step.loop", "lib", step_call, step_check,
                  lambda cfg: cfg.positions.tobytes() + cfg.winding.tobytes()))
    first = _FirstResults(ops)

    # CLI: a trajectory with snapshots and a radius coupling check
    n_cli = L // 2
    stride = sizes.cli_snapshot_stride
    sim_argv = ["simulate", "--ring", str(L), "--particles", str(n_cli), "--r", "0.5",
                "--p", "0.5", "--v", "1", "--steps", str(steps), "--snapshot-stride", str(stride),
                "--seed", str(seed)]

    def sim_lib():
        cfg, space = tp.velocity.initial_ring(n_cli / L, 1.0, 0.5, n_cli)
        summary = tp.run(cfg, tp.ProcessParams(p=0.5, v=1.0, space=space), steps,
                         tp.CoinStream(seed), snapshot_stride=stride)
        return summary, tp.estimate_velocity(summary)

    def sim_cli():
        code, _, out = cli("simulate", sim_argv)
        return code, _data_rows(out / "trajectory.csv"), _data_rows(out / "velocity.csv")

    def sim_cli_check(result):
        code, traj, vel = result
        summary, est = sim_lib()
        out = [] if code == 0 else [f"exit code {code}"]
        want = [[str(t), str(i), _fmt12(float(c.positions[i])), _fmt12(float(c.winding[i]))]
                for t, c in summary.snapshots for i in range(c.n)]
        if traj != want:
            out.append("trajectory.csv differs from the library run")
        if vel[0][:2] != [_fmt12(est.value), _fmt12(est.stderr)]:
            out.append("velocity.csv differs from the library estimate")
        return out

    ops.append(Op("cli.simulate", "cli", sim_cli, sim_cli_check, lambda r: r))

    couple_argv = ["couple-check", "--mode", "radius", "--rho", "0.5", "--p", "0.5",
                   "--particles", str(n_cli), "--steps", str(steps), "--seed", str(seed)]

    def couple_lib():
        cfg_a, space = tp.velocity.initial_ring(0.5, 1.0, 0.5, n_cli)
        params = tp.ProcessParams(p=0.5, v=1.0, space=space)
        return tp.coupled_run(cfg_a, tp.radius_conjugate(cfg_a, 0.0), params, params, steps,
                              tp.CoinStream(seed))

    def couple_cli():
        code, _, out = cli("couple", couple_argv)
        return code, _data_rows(out / "couple.csv")

    def couple_check(result):
        code, rows = result
        out = [] if code == 0 else [f"exit code {code}"]
        if float(rows[0][1]) != 0.0:
            out.append(f"couple-check divergence {rows[0][1]}")
        return out

    ops.append(Op("cli.couple-check", "cli", couple_cli, couple_check, lambda r: r))

    wl = Workload("rings_n100", ops, joint_checks=[("pooled_velocity_t", pooled_t)],
                  cli_equivalents={"cli.simulate": sim_lib, "cli.couple-check": couple_lib})
    n_lat = sum(c.n for c, _, _ in lattice)
    n_con = sum(c.n for c, _, _ in continuum)
    wl.particle_steps = steps * (
        n_lat + n_con + 2 * (lattice[0][0].n + lattice[1][0].n) + 2 * sim_cfg.n + 2 * n_het
        + sum(c.n for c, _, _, _ in obstacle_runs) + step_cfg.n + n_cli + 2 * n_cli
    )
    wl.layer_inputs = {"n100_runs": lattice + continuum, "obstacle_runs": obstacle_runs,
                       "steps": steps}
    return wl


# --------------------------------------------------------------------------
# exact_cylinders


def build_exact(tp, seed: int, sizes: Sizes, tr: Tracer, cli: CliRunner) -> Workload:
    rng = np.random.default_rng(seed)
    # parameters drawn from the seed, rounded so that CLI flags carry them exactly
    rho_s, p_s = round(rng.uniform(0.2, 0.8), 3), round(rng.uniform(0.3, 0.95), 3)
    rho_sparse, rho_dense = round(rng.uniform(0.15, 0.45), 3), round(rng.uniform(0.55, 0.85), 3)
    sample_seed = int(rng.integers(2**31))
    m_s = tp.build_invariant_matrix(rho_s, p_s)
    m_sparse = tp.build_invariant_matrix(rho_sparse, 1.0)
    m_dense = tp.build_invariant_matrix(rho_dense, 1.0)

    def exact_ops(n_len: int, periodic_n: int, n_sites: int, tag: str):
        """The round's ops at one size; ``tag`` keeps op names and CLI dirs apart."""
        ops: list[Op] = []

        def verify_check(rep, tol):
            out = []
            if not rep.stationary or rep.max_abs_error > tol:
                out.append(f"max_abs_error {rep.max_abs_error:.3g} > {tol:g}")
            if len(rep.rows) != oracles.word_count(n_len):
                out.append(f"{len(rep.rows)} cylinders, expected {oracles.word_count(n_len)}")
            by_len: dict[int, list[float]] = {}
            for row in rep.rows:
                by_len.setdefault(len(row.word), []).append(row.mu_pushed)
            for n, masses in by_len.items():
                if len(masses) != 2**n or abs(math.fsum(masses) - 1.0) > 1e-9:
                    out.append(f"pushed masses of length {n} sum to {math.fsum(masses)!r}")
            return out

        for label, m, p, tol in (("stochastic", m_s, p_s, 1e-10), ("sparse", m_sparse, 1.0, 1e-12),
                                 ("dense", m_dense, 1.0, 1e-12)):
            def call(m=m, p=p):
                return tr.call("invariance.verify_invariance", tp.verify_invariance, m, p, n_len,
                               _work=oracles.word_count(n_len))

            ops.append(Op(f"verify_invariance.{label}{tag}", "lib", call,
                          lambda rep, tol=tol: verify_check(rep, tol),
                          lambda rep: (rep.max_abs_error, len(rep.rows))))

            def markov_call(m=m):
                return tr.call("invariance.markov_identity_check", tp.markov_identity_check, m)

            ops.append(Op(f"markov_identity_check.{label}{tag}", "lib", markov_call,
                          lambda rep: [] if rep.is_markov else [
                              f"residual {rep.max_abs_residual:.3g}"],
                          lambda rep: rep.max_abs_residual))

        def negative_call():
            return tr.call("invariance.one_step_cylinder_pushforward",
                           tp.one_step_cylinder_pushforward, tp.MarkovMatrix.bernoulli(0.5),
                           "11", 0.5)

        ops.append(Op(f"negative_control{tag}", "lib", negative_call,
                      lambda x: [] if x == 15 / 64 else [f"Bernoulli(1/2) pushed on 11 = {x!r}"],
                      lambda x: x))

        p_seq = (0.9, 0.99, 0.999)

        def distance_call():
            return [tr.call("velocity.measure_distance", tp.velocity.measure_distance, rho_s, p)
                    for p in p_seq]

        def distance_check(d):
            return [] if all(a > b for a, b in zip(d, d[1:])) else [f"not decreasing: {d}"]

        ops.append(Op(f"measure_distance{tag}", "lib", distance_call, distance_check, lambda d: d))

        no11 = tp.TransitionStructure.no_adjacent_ones()

        def periodic_call():
            return tr.call("measures.periodic_points", tp.periodic_points, no11, periodic_n,
                           _work=oracles.lucas(periodic_n))

        def periodic_check(points):
            n = periodic_n
            out = []
            if len(points) != oracles.lucas(n):
                out.append(f"{len(points)} periodic points, Lucas number is {oracles.lucas(n)}")
            if len(set(points)) != len(points):
                out.append("repeated periodic point")
            if any(len(w) != n or oracles.cyclic_count(w, "11") for w in points):
                out.append("periodic point contains a cyclic 11")
            if abs(no11.entropy - math.log(oracles.GOLDEN_RATIO)) > 1e-12:
                out.append(f"entropy {no11.entropy!r} != log(golden ratio)")
            return out

        ops.append(Op(f"periodic_points[n={periodic_n}]{tag}", "lib", periodic_call, periodic_check,
                      lambda pts: (len(pts), hash(tuple(pts)))))

        def sample_call():
            return tr.call("measures.sample_ring_word", tp.sample_ring_word, m_s, n_sites,
                           sample_seed, _work=n_sites)

        def sample_check(word):
            pi1, pi11 = oracles.markov_letter_frequencies(m_s.p00, m_s.p01, m_s.p10, m_s.p11)
            lam = 1.0 - m_s.p01 - m_s.p10
            pi0 = 1.0 - pi1
            sd1 = math.sqrt(pi0 * pi1 * (1 + lam) / (1 - lam) / n_sites)
            sd11 = math.sqrt((pi11 * (1 - pi11) + 2 * pi0 * pi1 * m_s.p11**2 / (1 - lam)) / n_sites)
            f1 = word.count("1") / n_sites
            f11 = oracles.cyclic_count(word, "11") / n_sites
            out = []
            if abs(f1 - pi1) > 6 * sd1:
                out.append(f"frequency of 1 is {f1:.5f}, expected {pi1:.5f} +- {sd1:.1e}")
            if abs(f11 - pi11) > 6 * sd11:
                out.append(f"frequency of 11 is {f11:.5f}, expected {pi11:.5f} +- {sd11:.1e}")
            return out

        ops.append(Op(f"sample_ring_word.stochastic{tag}", "lib", sample_call, sample_check,
                      lambda w: w))

        def sparse_call():
            return tr.call("measures.sample_ring_word", tp.sample_ring_word, m_sparse, n_sites,
                           sample_seed, _work=n_sites)

        ops.append(Op(f"sample_ring_word.sparse{tag}", "lib", sparse_call,
                      lambda w: ["p = 1 sparse sample has a cyclic 11"]
                      if oracles.cyclic_count(w, "11") else [], lambda w: w))

        # CLI
        verify_argv = ["verify-invariance", "--rho", str(rho_s), "--p", str(p_s),
                       "--max-len", str(n_len)]

        def verify_cli():
            code, text, out = cli(f"verify{tag}", verify_argv)
            lines = (out / "invariance.csv").read_text().splitlines()
            return code, text, lines

        def verify_cli_check(result):
            code, text, lines = result
            out = [] if code == 0 else [f"exit code {code}"]
            rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
            if len(rows) != oracles.word_count(n_len):
                out.append(f"invariance.csv has {len(rows)} rows")
            if not lines[-1].endswith("verdict=stationary") or not text.startswith("stationary"):
                out.append("CLI verdict is not stationary")
            return out

        ops.append(Op(f"cli.verify-invariance{tag}", "cli", verify_cli, verify_cli_check,
                      lambda r: (r[0], len(r[2]))))

        periodic_argv = ["periodic-points", "--n", str(periodic_n)]

        def periodic_cli():
            code, _, out = cli(f"periodic{tag}", periodic_argv)
            return code, [r[0] for r in _data_rows(out / "periodic_points.csv")]

        def periodic_cli_check(result):
            code, words = result
            out = [] if code == 0 else [f"exit code {code}"]
            return out + periodic_check(words)

        ops.append(Op(f"cli.periodic-points{tag}", "cli", periodic_cli, periodic_cli_check,
                      lambda r: (r[0], len(r[1]))))

        sample_argv = ["measure", "sample", "--rho", str(rho_s), "--p", str(p_s),
                       "--sites", str(n_sites), "--seed", str(sample_seed)]

        def sample_cli():
            code, _, out = cli(f"sample{tag}", sample_argv)
            return code, _data_rows(out / "sample.csv")[0][0]

        def sample_cli_check(result):
            code, word = result
            out = [] if code == 0 else [f"exit code {code}"]
            if word != first[f"sample_ring_word.stochastic{tag}"]:
                out.append("CLI sample differs from the library sample for the same seed")
            return out

        ops.append(Op(f"cli.measure-sample{tag}", "cli", sample_cli, sample_cli_check, lambda r: r))
        first = _FirstResults(ops)

        equivalents = {
            f"cli.verify-invariance{tag}": lambda: tp.verify_invariance(m_s, p_s, n_len),
            f"cli.periodic-points{tag}": lambda: tp.periodic_points(no11, periodic_n),
            f"cli.measure-sample{tag}": lambda: tp.sample_ring_word(m_s, n_sites, sample_seed),
        }
        return ops, equivalents

    ops, equivalents = exact_ops(sizes.verify_max_len, sizes.periodic_n, sizes.sample_sites, "")
    full_ops, _ = exact_ops(sizes.full_verify_max_len, sizes.full_periodic_n,
                            sizes.full_sample_sites, "@full")
    wl = Workload("exact_cylinders", ops, once_ops=full_ops, cli_equivalents=equivalents)
    wl.layer_inputs = {"matrices": [(m_s, p_s), (m_sparse, 1.0), (m_dense, 1.0)],
                       "max_len": sizes.verify_max_len,
                       "sample": (m_s, sizes.sample_sites, sample_seed),
                       "periodic_n": sizes.periodic_n, "rho_s": rho_s}
    return wl


BUILDERS = {"fd_n1e4": build_fd, "rings_n100": build_rings, "exact_cylinders": build_exact}
