"""Smoke test of the benchmark: every workload at tiny sizes, every check on.

    python3 -m pytest bench/test_smoke.py -q     # or: python3 bench/test_smoke.py

A broken oracle, a failed operation or a missing metric shows here in a few
seconds, without a full run.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_every_check(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_finite_ring_velocity_matches_enumeration():
    """p E[k] / N against a brute-force sum over all rings with weight (1-p)^#11."""
    for L, N, p in [(8, 3, 0.3), (9, 5, 0.7), (10, 4, 0.5)]:
        num = den = 0.0
        for occupied in itertools.combinations(range(L), N):
            word = "".join("1" if i in occupied else "0" for i in range(L))
            w = (1 - p) ** oracles.cyclic_count(word, "11")
            num += w * oracles.cyclic_count(word, "10")  # one cluster front per "10"
            den += w
        assert math.isclose(oracles.finite_ring_velocity(L, N, p), p * num / den / N, rel_tol=1e-12)


def test_small_oracles():
    assert [oracles.lucas(n) for n in range(1, 8)] == [1, 3, 4, 7, 11, 18, 29]
    assert oracles.lucas(24) == 103682
    assert oracles.word_count(12) == 8190
    # the free-flow limit: a lone particle moves v with probability p
    assert math.isclose(oracles.closed_form_velocity(1e-9, 0.5, 2, 0.0), 1.0, rel_tol=1e-6)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
