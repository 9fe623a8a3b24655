"""The exhaustive gap chain of every hard-core lattice ring of at most 10 sites
(tests/_chain.py) as an exact referee: the reference stepper repeats its closed-form
update, its stationary velocity is finite_ring_velocity at v = 1 and the sum of
finite_ring_velocity over the v channel rings at v = 2 and 3, and the run kernel's
step totals at p = 1 are its sites moved, exactly."""

from __future__ import annotations

import numpy as np
import pytest

from _chain import chain, gaps_of, ring_of, states, stepper_table, table, velocity
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
