"""The exhaustive gap chain of every hard-core lattice ring of at most 10 sites
(tests/_chain.py) as an exact referee: the reference stepper repeats its closed-form
update, its stationary velocity is finite_ring_velocity at v = 1 and the sum of
finite_ring_velocity over the v channel rings at v = 2 and 3, and the run kernel's
step totals at p = 1 are its sites moved, exactly.  Criterion 14 checks the channel
map itself through run: on the recurrent support a v-jump ring's channels are v rings
of jump 1 on the same coins."""

from __future__ import annotations

import numpy as np
import pytest

from _chain import channels, chain, gaps_of, ring_of, states, stepper_table, table, velocity
from tasep import CoinStream, ProcessParams, run
from tasep.velocity import finite_ring_velocity

# every ring of L <= 10 sites with at least one particle and one free site
RINGS = [(n, L - n) for L in range(2, 11) for n in range(1, L)]


@pytest.mark.parametrize("v", [1, 2, 3])
def test_the_stepper_repeats_the_closed_form_chain(v):
    for n, free in RINGS:
        succ, f = table(n, free, v)
        got_succ, got_f = stepper_table(n, free, v)
        assert np.array_equal(got_succ, succ), (n, free)
        assert np.array_equal(got_f, f), (n, free)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
def test_the_chain_velocity_is_finite_ring_velocity(p):
    for n, free in RINGS:
        P, h = chain(*table(n, free, 1), n, p)
        assert np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        exact = finite_ring_velocity(n + free, n, p)
        assert abs(velocity(P, h, n) - exact) <= 1e-12, (n, free, p)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("v", [2, 3])
def test_the_chain_velocity_is_the_channel_sum(v, p):
    # a v-jump ring is v coupled v = 1 rings: channel j has the gaps floor((g_i + j) / v),
    # so N particles and floor((F + j) / v) free sites, and a particle's move is the sum
    # of its channel moves under one coin
    for n, free in RINGS:
        P, h = chain(*table(n, free, v), n, p)
        channels = sum(finite_ring_velocity(n + (free + j) // v, n, p) for j in range(v))
        assert abs(velocity(P, h, n) - channels) <= 1e-12, (n, free, v, p)


@pytest.mark.parametrize("v", [1, 2])
def test_fused_step_totals_at_p_1_are_the_sites_moved(v):
    # at p = 1 every coin moves, the last pattern: a two-step run from each state
    # totals f along the chain's path, as integers, and ends on its gap vector
    params = ProcessParams(1.0, v, space="lattice")
    for n, free in RINGS:
        g, (succ, f) = states(n, free), table(n, free, v)
        every = 2**n - 1
        for s, gaps in enumerate(g):
            summary = run(ring_of(gaps), params, 2, CoinStream(0))
            s1 = succ[s, every]
            assert summary.step_total_displacement.tolist() == [f[s, every], f[s1, every]]
            assert np.array_equal(gaps_of(summary.final.positions, n + free),
                                  g[succ[s1, every]])


def _channel_mismatches(rng, remainders: int) -> int:
    """Random v-jump rings (v in {2, 3, 4}) whose gaps are multiples of v except for
    ``remainders`` chosen gaps, which get a remainder below v (possibly 0 when there is
    one such gap, at least 1 when there are more): how many, after a run of up to 60
    steps, have a channel that is not the jump-1 run of that channel's start on the same
    seed."""
    mismatches = 0
    for _ in range(150):
        v, n = int(rng.integers(2, 5)), int(rng.integers(2, 400))
        g = v * rng.integers(0, 4, n)
        g[rng.choice(n, remainders, replace=False)] += rng.integers(remainders > 1, v,
                                                                    remainders)
        p, steps = float(rng.uniform(0.05, 0.95)), int(rng.integers(1, 61))
        seed = int(rng.integers(2**63))
        end = run(ring_of(g), ProcessParams(p, v, "lattice"), steps, seed).final.positions
        got = channels(gaps_of(end, n + int(g.sum())), v)
        for h, want in zip(channels(g, v), got):
            one = run(ring_of(h), ProcessParams(p, 1, "lattice"), steps, seed).final.positions
            if not np.array_equal(gaps_of(one, n + int(h.sum())), want):
                mismatches += 1
                break
    return mismatches


def test_criterion_14_the_channels_of_a_v_ring_are_jump_1_rings():
    # ROADMAP item 2: on the support, where every gap is a multiple of v but at most one,
    # which carries F mod v, the channel map intertwines v-jump steps with jump-1 steps
    # under one coin per particle, exactly
    assert _channel_mismatches(np.random.default_rng(14), remainders=1) == 0
    # the check tells the support apart: with two remainders the map breaks
    assert _channel_mismatches(np.random.default_rng(14), remainders=2) > 0
