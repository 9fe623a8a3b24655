"""The exhaustive gap chain of every hard-core lattice ring of at most 10 sites
(tests/_chain.py) as an exact referee: the reference stepper repeats its closed-form
update, its stationary velocity is finite_ring_velocity at v = 1 and the sum of
finite_ring_velocity over the v channel rings at v = 2 and 3, and the run kernel's
step totals at p = 1 are its sites moved, exactly.  Criterion 14 checks the channel
map itself through run: on the recurrent support a v-jump ring's channels are v rings
of jump 1 on the same coins.  The asymptotic variance sigma^2 of the sites moved, from
the fundamental matrix, is the limit of Var(S_T) / T from the powers of P, at the rate
1/T, and its ratio to Var_pi(f) grows with the ring as ROADMAP item 16 tabulates."""

from __future__ import annotations

import numpy as np
import pytest

from _chain import (
    chain,
    channels,
    gaps_of,
    moments,
    ring_of,
    sigma2,
    states,
    stationary,
    stepper_table,
    table,
    variance_rates,
    velocity,
)
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


def _variance(n, free, v, p):
    """(sigma^2, Var(S_T) / T for T = 1 .. 2000, Var_pi(f)) of a ring's chain."""
    succ, f = table(n, free, v)
    (P, h), (q, h2) = chain(succ, f, n, p), moments(succ, f, n, p)
    pi = stationary(P)
    return sigma2(P, h, q, h2), variance_rates(P, h, q, h2, 2000), pi @ h2 - (pi @ h) ** 2


@pytest.mark.parametrize("v, p", [(1, 0.25), (1, 0.5), (1, 0.9), (2, 0.5)])
def test_sigma2_is_the_limit_of_var_s_t_over_t(v, p):
    # Var(S_T) / T = sigma^2 - 2 sum_k k c_k / T + o(1 / T), c_k decaying geometrically,
    # so T (Var(S_T) / T - sigma^2) is the same at T = 1000 and 2000; a sigma^2 off by d
    # would part the two by 1000 d, so the bound pins sigma^2 to 1e-8
    for n, free in RINGS:
        s2, rates, var = _variance(n, free, v, p)
        assert s2 > 0 and var > 0, (n, free)
        offset = [T * (rates[T - 1] - s2) for T in (1000, 2000)]
        assert abs(offset[0] - offset[1]) <= 1e-5, (n, free, offset)


def test_the_variance_rate_converges_at_rate_1_over_t():
    # L = 10, N = 5, p = 1/2: T (Var(S_T) / T - sigma^2) from T = 250 on
    s2, rates, _ = _variance(5, 5, 1, 0.5)
    offsets = [T * (rates[T - 1] - s2) for T in (250, 500, 1000, 2000)]
    assert [round(o, 5) for o in offsets] == [-2.17645] * 4


def test_sigma2_over_var_f_grows_as_item_16_tabulates():
    # v = 1, rho = 1/2, p = 1/2: the KPZ growth of the current's variance (ROADMAP item 16)
    ratios = []
    for L in (4, 6, 8, 10):
        s2, _, var = _variance(L // 2, L // 2, 1, 0.5)
        ratios.append(round(s2 / var, 3))
    assert ratios == [1.286, 1.469, 1.640, 1.798]
