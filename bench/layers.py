"""Per-layer metrics of the traced run.

Spans recorded around the benchmark's own calls give each public function's
time and work.  ``run`` has no public boundary inside, so its split into
coins, bounds and advance is measured from outside on the same inputs:
``CoinStream.uniforms`` over the run's (t, n) sequence, ``successor_bounds``
on configurations the run passes through, and the remainder as advance.

A workload that does not call a layer still reports its metrics, from a
small fixed probe marked ``"probe"`` in the result file (README.md).
"""

from __future__ import annotations

import itertools
import statistics

import numpy as np

import oracles
from harness import Tracer, clock, op_time

REPEATS = 3  # each outside measurement is the minimum of this many
CLI_PAIRS = 5  # alternating (CLI, same library calls) timings behind cli.overhead.s


def _once(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def _best(fn, *args, **kwargs) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = clock()
        fn(*args, **kwargs)
        times.append(clock() - t0)
    return min(times)


def _run_split(tp, runs, steps: int) -> dict[str, float]:
    """Seconds spent in run, coins and bounds for (cfg, params, coins) runs."""
    total = {"run": 0.0, "coins": 0.0, "bounds": 0.0, "gaps": 0.0, "config": 0.0,
             "work": 0.0, "cfg_calls": 0}
    for cfg, params, coins in runs:
        n = cfg.n
        total["run"] += _best(tp.run, cfg, params, steps, coins)
        total["coins"] += _best(lambda: [coins.uniforms(t, n) for t in range(steps)])
        stride = max(1, steps // 10)
        snaps = [c for _, c in tp.run(cfg, params, steps, coins, snapshot_stride=stride).snapshots]
        b = sum(_best(tp.configuration.successor_bounds, c) for c in snaps)
        total["bounds"] += b * steps / len(snaps)
        total["gaps"] += sum(_best(tp.gaps, c) for c in snaps) * steps / len(snaps)
        total["config"] += sum(
            _best(tp.Configuration, c.geometry, c.positions, c.radii, c.winding) for c in snaps
        )
        total["cfg_calls"] += len(snaps)
        total["work"] += n * steps
    return total


def _default_inputs(tp, seed: int) -> dict:
    """Small fixed inputs for layers the workload itself does not call."""
    rng = np.random.default_rng(seed)
    root = tp.CoinStream(seed)
    lat = tp.velocity.initial_ring(0.3, 1, 0.5, 10_000)[0]
    con = tp.velocity.initial_ring(0.5, 1, 0.0, 10_000)[0]
    rings = []
    for i in range(4):
        m = tp.build_invariant_matrix(0.5, 0.5)
        cfg = tp.decode_word(tp.sample_ring_word(m, 200, rng))
        rings.append((cfg, tp.ProcessParams(p=0.5, v=1, space="lattice"), root.derive(7, i)))
    ring = tp.Ring(200.0)
    field = tp.ObstacleField(ring, np.arange(40) * 5.0 + 0.5)
    obstacle = (tp.Configuration(ring, np.arange(100) * 2.0, 0.0),
                tp.ProcessParams(p=0.5, v=1.0, space="continuum"), root.derive(8), field)
    m = tp.build_invariant_matrix(0.3, 0.5)
    return {
        "fd_starts": [
            (lat, tp.ProcessParams(p=0.5, v=1, space="lattice"), root.derive(9), "lattice"),
            (con, tp.ProcessParams(p=0.5, v=1, space="continuum"), root.derive(10), "continuum"),
        ],
        "fd_steps": 50,
        "n100_runs": rings, "obstacle_runs": [obstacle], "ring_steps": 300,
        "matrices": [(m, 0.5)], "max_len": 8, "sample": (m, 10_000, seed),
        "periodic_n": 16, "rho_s": 0.3,
    }


def per_layer(tp, tr: Tracer, wl, rounds: int, cli, seed: int) -> dict[str, tuple[float, str]]:
    spans = tr.self_times()
    traced_rounds = max(1, rounds // 2)
    given = wl.layer_inputs
    default = _default_inputs(tp, seed)
    source: dict[str, str] = {}
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, src):
        out[name] = (float(value), unit)
        source[name] = src

    def inputs(key):
        if key in given:
            return given[key], "workload"
        return default[key], "probe"

    # --- dynamics and configuration: the run split at n = 10^4 and n ~ 100
    fd_runs, src = inputs("fd_starts")
    fd_steps = given["steps"] if src == "workload" else default["fd_steps"]
    for space in ("lattice", "continuum"):
        runs = [(c, p, k) for c, p, k, s in fd_runs if s == space]
        split = _run_split(tp, runs, fd_steps)
        w = split["work"]
        put(f"dynamics.run.{space}_ns_per_particle_step", 1e9 * split["run"] / w, "ns", src)
        put(f"configuration.successor_bounds.{space}_ns_per_particle",
            1e9 * split["bounds"] / w, "ns", src)
        if space == "lattice":
            big = split
    n100, src100 = inputs("n100_runs")
    ring_steps = given["steps"] if src100 == "workload" else default["ring_steps"]
    small = _run_split(tp, n100, ring_steps)
    put("dynamics.run.n100_ns_per_particle_step", 1e9 * small["run"] / small["work"], "ns", src100)

    # coins, advance, gaps and Configuration on the workload's own scale
    main, msrc = (small, src100) if wl.name == "rings_n100" else (big, src)
    put("dynamics.coins.ns_per_particle_step", 1e9 * main["coins"] / main["work"], "ns", msrc)
    put("dynamics.advance.ns_per_particle_step",
        1e9 * (main["run"] - main["coins"] - main["bounds"]) / main["work"], "ns", msrc)
    put("configuration.gaps.ns_per_particle", 1e9 * main["gaps"] / main["work"], "ns", msrc)
    put("configuration.Configuration.us_per_call", 1e6 * main["config"] / main["cfg_calls"], "us",
        msrc)
    all_work = big["work"] + small["work"]
    put("dynamics.particle_steps_per_s", all_work / (big["run"] + small["run"]), "1/s", src)

    def span_or_probe(name, fn, work=1.0):
        """(seconds per call, work per call, source) from round spans or a probe."""
        row = spans.get(name)
        if row and row["calls"]:
            return row["total_s"] / row["calls"], (row["work"] / row["calls"]) or work, "workload"
        return _best(fn), work, "probe"

    # step, coupled_run, obstacles
    cfg, params, coins = n100[0]
    t, _, s = span_or_probe("dynamics.step", lambda: tp.step(cfg, params, coins, 0))
    put("dynamics.step.us_per_call", 1e6 * t, "us", s)
    cfg_b = tp.radius_conjugate(cfg, 0.0)
    t, w, s = span_or_probe("dynamics.coupled_run",
                            lambda: tp.coupled_run(cfg, cfg_b, params, params, ring_steps, coins),
                            2 * cfg.n * ring_steps)
    put("dynamics.coupled_run.ns_per_particle_step", 1e9 * t / w, "ns", s)
    ocfg, oparams, ocoins, ofield = inputs("obstacle_runs")[0][0]
    t, w, s = span_or_probe("dynamics.run(field)",
                            lambda: tp.run(ocfg, oparams, ring_steps, ocoins, field=ofield),
                            ocfg.n * ring_steps)
    put("dynamics.obstacles.ns_per_particle_step", 1e9 * t / w, "ns", s)

    # measures and invariance
    m, p = inputs("matrices")[0][0]
    max_len = inputs("max_len")[0]
    words = ["".join(b) for n in range(1, max_len + 1)
             for b in itertools.product("01", repeat=n)]
    wsrc = inputs("max_len")[1]
    t0 = clock()
    for word in words:
        tp.cylinder_measure(m, word)
    put("measures.cylinder_measure.us_per_word", 1e6 * (clock() - t0) / len(words), "us", wsrc)
    t0 = clock()
    for word in words:
        tp.one_step_cylinder_pushforward(m, word, p)
    put("invariance.pushforward.us_per_word", 1e6 * (clock() - t0) / len(words), "us", wsrc)
    sm, sites, sseed = inputs("sample")[0]
    t, w, s = span_or_probe("measures.sample_ring_word",
                            lambda: tp.sample_ring_word(sm, sites, sseed), sites)
    put("measures.sample_ring_word.ns_per_site", 1e9 * t / w, "ns", s)
    pn = inputs("periodic_n")[0]
    no11 = tp.TransitionStructure.no_adjacent_ones()
    t, w, s = span_or_probe("measures.periodic_points", lambda: tp.periodic_points(no11, pn),
                            oracles.lucas(pn))
    put("measures.periodic_points.us_per_point", 1e6 * t / w, "us", s)
    t, w, s = span_or_probe("invariance.verify_invariance",
                            lambda: tp.verify_invariance(m, p, max_len),
                            oracles.word_count(max_len))
    put("invariance.verify_invariance.s", t, "s", s)
    row = spans.get("invariance.verify_invariance")
    put("invariance.words_evaluated", row["work"] / traced_rounds if row else w, "count", s)
    t, _, s = span_or_probe("invariance.markov_identity_check",
                            lambda: tp.markov_identity_check(m))
    put("invariance.markov_identity_check.ms", 1e3 * t, "ms", s)

    # velocity
    t, _, s = span_or_probe("velocity.diagram_point",
                            lambda: tp.velocity.diagram_point(0.3, 0.5, 1, 0.5, 10_000, 50, seed))
    put("velocity.diagram_point.s", t, "s", s)
    summary = tp.run(cfg, params, ring_steps, coins)
    t, _, s = span_or_probe("velocity.estimate_velocity", lambda: tp.estimate_velocity(summary))
    put("velocity.estimate_velocity.us_per_call", 1e6 * t, "us", s)
    rho_s = inputs("rho_s")[0]
    t, _, s = span_or_probe("velocity.measure_distance",
                            lambda: tp.velocity.measure_distance(rho_s, 0.9))
    put("velocity.measure_distance.ms", 1e3 * t, "ms", s)

    # cli: time per round, and what it adds over the same library calls, timed
    # alternately so that both see the same machine state
    cli_row = spans.get("cli.main", {"total_s": 0.0})
    put("cli.main.s", cli_row["total_s"] / traced_rounds, "s", "workload")
    put("cli.bytes_written", cli.bytes_written / rounds, "B", "workload")
    overhead = 0.0
    for op in wl.ops:
        if op.kind == "cli":
            equivalent = wl.cli_equivalents[op.name]
            overhead += statistics.median(_once(op.call) - _once(equivalent)
                                          for _ in range(CLI_PAIRS))
    put("cli.overhead.s", overhead, "s", "workload")

    # work counts and tracing overhead
    steps_done = wl.particle_steps * rounds + all_work * REPEATS
    put("dynamics.particle_steps", steps_done, "count", "workload")
    untraced = sum(op_time(op.samples, op.refs) for op in wl.ops)
    traced = sum(op_time(op.traced_samples, op.traced_refs) for op in wl.ops)
    put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%", "workload")
    put("trace.spans_per_round", len(tr.spans) / traced_rounds, "count", "workload")
    wl.layer_sources = source
    return out
