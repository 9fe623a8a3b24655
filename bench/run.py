"""Benchmark of the tasep package: three workloads, oracle-checked outputs.

Run from the repository root:

    python3 bench/run.py --workload fd_n1e4 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A summary with every op's samples goes to ``.bench_out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4  # extra set-ups in fresh processes; setup_s is the median with this one
# Set-up is mostly imports, whose speed drifts with the machine; each set-up is
# paired with this fixed import in a fresh interpreter, counted as REFERENCE_S.
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); "
                    "import numpy, json, argparse, subprocess, tempfile, csv; "
                    "print(time.perf_counter() - t)")
REFERENCE_S = 0.1


def import_tasep():
    """The tasep package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        tp = importlib.import_module("tasep")
        importlib.import_module("tasep.cli")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import tasep from {src}: {exc}")
    if not Path(tp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: tasep imported from {tp.__file__}, not from {src}")
    return tp


def warm_up(tp) -> None:
    """One tiny call through each layer, so lazy initialisation is set-up work."""
    cfg = tp.even_lattice_ring(20, 10)
    params = tp.ProcessParams(p=0.5, v=1, space="lattice")
    summary = tp.run(cfg, params, 40, 0)
    tp.estimate_velocity(summary)
    tp.step(cfg, params, tp.CoinStream(0), 0)
    tp.coupled_run(cfg, tp.radius_conjugate(cfg, 0.0), params, params, 2, 0)
    m = tp.build_invariant_matrix(0.5, 0.5)
    tp.verify_invariance(m, 0.5, 2)
    tp.markov_identity_check(m, 1)
    tp.sample_ring_word(m, 10, 0)
    tp.periodic_points(tp.TransitionStructure.no_adjacent_ones(), 4)


def setup(args, tp, sizes, tr, outdir):
    """Build the workload; returns it, the CLI runner and the set-up time."""
    import workloads

    cli = workloads.CliRunner(tp, tr, outdir)
    wl = workloads.BUILDERS[args.workload](tp, args.seed, sizes, tr, cli)
    warm_up(tp)
    return wl, cli, time.perf_counter() - T_START


def _python(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_samples(args, own: float) -> list[list[float]]:
    """[set-up, reference import] pairs: this process, then fresh ones, one at a time."""
    setups = [own]
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        setups.append(float(_python(
            [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"] + (["--tiny"] if args.tiny else []))))
    return [[s, float(_python(["-c", REFERENCE_IMPORT]))] for s in setups]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fd_n1e4", "rings_n100", "exact_cylinders"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tp = import_tasep()
    import workloads
    from harness import Outcome, Tracer, guarded, op_time, peak_rss_mb, run_rounds

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tr = Tracer(bool(args.trace))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl, cli, setup_own = setup(args, tp, sizes, tr, outdir)
        if args.setup_only:
            print(repr(setup_own))
            return 0
        outcome = Outcome()
        rounds = run_rounds(wl.ops, args.seconds, outcome, tracer=tr)
        tracing, tr.enabled = tr.enabled, False  # full-size checks are neither timed nor traced
        run_rounds(wl.once_ops, 0.0, outcome, tr)
        tr.enabled = tracing
        for name, check in wl.joint_checks:
            outcome.record(name, guarded(check))
        if args.trace:
            import layers

            metrics = layers.per_layer(tp, tr, wl, rounds, cli, args.seed)
        else:
            setups = setup_samples(args, setup_own)
            metrics = {
                kind_metric: (sum(op_time(op.samples, op.refs) for op in wl.ops if op.kind == kind),
                              "s")
                for kind_metric, kind in (("round_s", "lib"), ("cli_s", "cli"))
            }
            setup_ratio = statistics.median(s / ref for s, ref in setups)
            metrics["setup_s"] = (setup_ratio * REFERENCE_S, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for msg in outcome.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "failures": outcome.messages,
        "ops": {op.name: {"kind": op.kind, "samples": op.samples, "refs": op.refs,
                          "traced_samples": op.traced_samples, "traced_refs": op.traced_refs}
                for op in wl.ops},
        "metrics": metrics,
        "raw_median_sums_s": {kind: sum(statistics.median(op.samples) for op in wl.ops
                                        if op.kind == kind) for kind in ("lib", "cli")},
        "layer_sources": getattr(wl, "layer_sources", {}),
    }
    if not args.trace:
        detail["setup_and_reference_s"] = setups
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1, default=str))
    if args.trace:
        (results / name.replace(".json", "-spans.json")).write_text(json.dumps(tr.spans))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
