"""Closed-form velocities, obstacle extension, estimators, sweeps, similarity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tasep import (
    LINE,
    CoinStream,
    ObstacleField,
    ProcessParams,
    Ring,
    build_invariant_matrix,
    estimate_velocity,
    evenly_spaced_ring,
    extend_obstacles,
    finite_ring_velocity,
    fundamental_diagram,
    run,
    similarity_check,
    stability_sweep,
    theoretical_velocity,
    theoretical_velocity_obstacles,
)
from tasep.dynamics import TrajectorySummary
from tasep.velocity import initial_ring, lattice_density, measure_distance


class TestFiniteRingVelocity:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_equals_an_exhaustive_sum_over_cyclic_words(self, p):
        """p E[clusters] / N with every cyclic word of L <= 12 sites weighted (1-p)^#11;
        a cluster's front particle is an occupied site followed by an empty one."""
        for L in range(1, 13):
            bits = np.arange(2**L)[:, None] >> np.arange(L) & 1
            ahead = np.roll(bits, -1, axis=1)
            weight = (1 - p) ** (bits & ahead).sum(axis=1)
            fronts = (bits & (1 - ahead)).sum(axis=1)
            count = bits.sum(axis=1)
            for N in range(1, L + 1):
                w, k = weight[count == N], fronts[count == N]
                exact = p * math.fsum(w * k) / math.fsum(w) / N
                assert math.isclose(finite_ring_velocity(L, N, p), exact, rel_tol=1e-12), (L, N)

    def test_is_finite_on_criterion_size_rings(self):
        # a direct sum of weights overflows here: C(999, k-1)^2 passes 1e308 at k = 117
        v = finite_ring_velocity(2000, 1000, 0.5)
        assert math.isfinite(v) and 0 < v < 1
        assert math.isfinite(finite_ring_velocity(10**4, 3000, 0.8))

    def test_approaches_the_infinite_ring_as_one_over_n(self):
        """0 < (V_L - V) N <= 0.3 with V the closed form at the realized density N/L.
        Measured before the bound was set: (V_L - V) N rises to its limit from below
        or falls to it from above, largest 0.2642 at L = 50, rho = 1/2, p = 0.99, and
        0.3003 at L = 20 there; its limits lie between 0.0123 and 0.2476."""
        for rho in (0.3, 0.5, 0.7):
            for p in (0.3, 0.5, 0.8, 0.99):
                for L in (50, 200, 1000, 5000):
                    N = round(rho * L)
                    scaled = (finite_ring_velocity(L, N, p)
                              - theoretical_velocity(N / L, p, 1.0, 0.5)) * N
                    assert 0 < scaled <= 0.3, (rho, p, L, scaled)

    def test_p_one_is_the_limit_of_its_law(self):
        for L, N in ((10, 3), (10, 5), (10, 7), (9, 9)):
            assert finite_ring_velocity(L, N, 1.0) == min(N, L - N) / N
            assert finite_ring_velocity(L, N, 1 - 1e-9) == pytest.approx(min(N, L - N) / N,
                                                                         abs=1e-7)

    @pytest.mark.parametrize("args, fragment", [((0, 1, 0.5), "n_sites"),
                                                ((10, 0, 0.5), "n_particles"),
                                                ((10, 11, 0.5), "n_particles"),
                                                ((10.0, 3, 0.5), "n_sites"),
                                                ((10, 3, 0.0), "movement probability"),
                                                ((10, 3, math.nan), "movement probability")])
    def test_bad_arguments_rejected(self, args, fragment):
        with pytest.raises(ValueError, match=fragment):
            finite_ring_velocity(*args)


class TestTheoreticalVelocity:
    def test_symmetric_hard_core_point(self):
        v = theoretical_velocity(0.5, 0.5, 1.0, 0.5)
        assert v == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)

    def test_deterministic_point_particles_hit_the_min(self):
        for rho in (0.1, 0.4, 0.9, 2.0):
            for v in (0.5, 1.0, 3.0):
                got = theoretical_velocity(rho, 1.0, v, 0.0)
                assert got == pytest.approx(min(1 / rho, v), abs=1e-9)

    def test_long_jump_point_particles(self):
        got = theoretical_velocity(0.25, 0.5, 2.0, 0.0)
        assert got == pytest.approx((1.5 - math.sqrt(1.25)) / 0.5, abs=1e-12)

    def test_dense_deterministic_hard_core(self):
        assert theoretical_velocity(0.75, 1.0, 1.0, 0.5) == pytest.approx(1 / 3, abs=1e-12)

    def test_fully_packed_returns_zero(self):
        assert theoretical_velocity(1.0, 0.7, 1.0, 0.5) == 0.0

    def test_overpacked_rejected(self):
        with pytest.raises(ValueError):
            theoretical_velocity(1.2, 0.7, 1.0, 0.5)

    def test_bounds_on_a_grid(self):
        for rho in np.linspace(0.05, 0.95, 10):
            for p in np.linspace(0.1, 1.0, 10):
                for v in (0.5, 1.0, 2.0):
                    for r in (0.0, 0.5):
                        V = theoretical_velocity(rho, p, v, r)
                        assert 0 <= V <= min(p * v, 1 / rho - 2 * r) + 1e-12

    def test_monotonicity(self):
        rhos = np.linspace(0.05, 0.95, 20)
        ps = np.linspace(0.05, 1.0, 20)
        vs = np.linspace(0.2, 3.0, 20)
        for r in (0.0, 0.4):
            for v in (0.7, 1.5):
                col = [theoretical_velocity(rho, 0.6, v, r) for rho in rhos]
                assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))
            for rho in (0.3, 0.8):
                col = [theoretical_velocity(rho, p, 1.2, r) for p in ps]
                assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))
                col = [theoretical_velocity(rho, 0.6, v, r) for v in vs]
                assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))

    def test_matches_jump_rate_of_the_invariant_matrix(self):
        # velocity = p * p10 for the unit-jump hard-core lattice family
        for rho in np.linspace(0.1, 0.9, 9):
            for p in (0.3, 0.6, 0.95, 1.0):
                m = build_invariant_matrix(rho, p)
                got = theoretical_velocity(rho, p, 1.0, 0.5)
                assert got == pytest.approx(p * m.p10, abs=1e-12)

    def test_hard_core_matches_gap_conjugate_chain(self):
        # direct symmetric closed form vs the chain through point particles
        for rho in np.linspace(0.05, 0.95, 19):
            for p in (0.4, 0.8, 1.0):
                direct = (1 - math.sqrt(1 - 4 * p * rho * (1 - rho))) / (2 * rho)
                assert theoretical_velocity(rho, p, 1.0, 0.5) == pytest.approx(direct, abs=1e-12)


class TestObstacleFormula:
    def test_value(self):
        got = theoretical_velocity_obstacles(0.25, 1.0, 0.5)
        assert got == pytest.approx(0.4384471871911697, abs=1e-12)

    def test_deterministic_limit_is_the_min_of_inverses(self):
        for rx, rz in [(0.25, 1.0), (0.5, 0.8), (2.0, 1.2)]:
            got = theoretical_velocity_obstacles(rx, rz, 1.0)
            assert got == pytest.approx(min(1 / rx, 1 / rz), abs=1e-9)

    def test_reduces_to_free_formula_when_extended_density_is_inverse_v(self):
        for rho in np.linspace(0.05, 0.95, 10):
            for p in np.linspace(0.1, 1.0, 10):
                for v in (0.5, 1.0, 2.0):
                    lhs = theoretical_velocity_obstacles(rho, 1 / v, p)
                    rhs = theoretical_velocity(rho, p, v, 0.0)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theoretical_velocity_obstacles(0.0, 1.0, 0.5)


class TestExtendObstacles:
    def test_ring_with_wrap_gap(self):
        field = ObstacleField(Ring(5.0), [0.0, 3.5])
        out = extend_obstacles(field, 1.0)
        assert np.allclose(out.positions, [0.0, 1.0, 2.0, 3.0, 3.5, 4.5])
        assert out.density() == pytest.approx(1.2)

    def test_small_gaps_unchanged(self):
        field = ObstacleField(Ring(2.0), [0.0, 0.6, 1.2, 1.8])
        out = extend_obstacles(field, 1.0)
        assert np.array_equal(out.positions, field.positions)

    def test_exact_multiple_gap_deduplicates(self):
        field = ObstacleField(LINE, [0.0, 3.0])
        out = extend_obstacles(field, 1.0)
        assert np.allclose(out.positions, [0.0, 1.0, 2.0, 3.0])

    def test_extension_idempotent_when_dense(self):
        field = ObstacleField(Ring(10.0), np.arange(0, 10, 0.5))
        out = extend_obstacles(field, 1.0)
        assert np.array_equal(out.positions, field.positions)


class TestEstimateVelocity:
    def _summary(self, totals, n):
        cfg = evenly_spaced_ring(n, 0.1)
        return TrajectorySummary(
            steps=len(totals), n_particles=n,
            displacement=np.zeros(n), step_total_displacement=np.asarray(totals, float),
            snapshots=((0, cfg),), final=cfg,
        )

    def test_plain_arithmetic(self):
        summary = self._summary([1.2] * 10, 4)
        est = estimate_velocity(summary, burn_in=0, batches=2)
        assert est.value == pytest.approx(12.0 / (4 * 10))

    def test_jammed_has_zero_error(self):
        est = estimate_velocity(self._summary([0.0] * 40, 5), burn_in=0)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_constant_total_is_exact(self):
        # p = 1 from the even start moves exactly L - N = 4286 particles every step
        cfg, space = initial_ring(0.7, 1.0, 0.5, 10_000)
        summary = run(cfg, ProcessParams(p=1.0, v=1, space=space), 100, CoinStream(0))
        assert np.all(summary.step_total_displacement == 4286)
        assert estimate_velocity(summary).value == 0.4286

    def test_insufficient_steps_rejected(self):
        with pytest.raises(ValueError):
            estimate_velocity(self._summary([1.0] * 10, 2), burn_in=9)

    @pytest.mark.parametrize("kw", [{"batches": 2.5}, {"batches": True}, {"batches": "4"},
                                    {"batches": np.float64(4)}, {"burn_in": True},
                                    {"burn_in": 2.0}, {"burn_in": 40}],
                             ids=lambda kw: repr(kw).replace(" ", ""))
    def test_non_integer_arguments_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            estimate_velocity(self._summary(np.arange(40.0), 3), **kw)

    def test_numpy_integer_arguments_accepted(self):
        summary = self._summary(np.arange(40.0), 3)
        assert (estimate_velocity(summary, burn_in=np.int32(5), batches=np.int64(7))
                == estimate_velocity(summary, burn_in=5, batches=7))

    def test_batch_means_are_the_array_split_means(self):
        """The two row reductions give every batch mean bit for bit as the mean of its
        np.array_split chunk: every length up to 600 with up to 8 batches, and every
        batch count that fits on lengths around numpy's pairwise-sum blocks."""

        def reference(post, batches, n):  # the batch means as they were first written
            means = np.array([chunk.mean() for chunk in np.array_split(post, batches)]) / n
            return float(post.mean() / n), float(means.std(ddof=1) / math.sqrt(batches))

        rng = np.random.default_rng(15)
        every = {*range(2, 41), 127, 128, 129, 257, 300, 599}
        for length in range(2, 601):
            totals = rng.uniform(0.0, 97.3, length + 3)
            totals[::5] = np.rint(totals[::5])  # lattice runs move whole sites
            summary = self._summary(totals, 7)
            for batches in range(2, (length if length in every else min(length, 8)) + 1):
                est = estimate_velocity(summary, burn_in=3, batches=batches)
                assert (est.value, est.stderr) == reference(totals[3:], batches, 7), (
                    length, batches)

    def test_monte_carlo_against_theory(self):
        cfg, space = initial_ring(0.5, 1.0, 0.5, 2000)
        summary = run(cfg, ProcessParams(p=0.5, v=1, space=space), 4000, CoinStream(42))
        est = estimate_velocity(summary)
        theory = theoretical_velocity(0.5, 0.5, 1.0, 0.5)
        assert abs(est.value - theory) < 5e-3
        assert 0 <= est.value <= 0.5 * 1.0 + 4 * est.stderr


class TestFundamentalDiagram:
    def test_deterministic_kink(self):
        rows = fundamental_diagram([0.25, 0.5, 0.75], 1.0, 1.0, 0.5,
                                   n_particles=600, steps=800, seed=1)
        theory = [row.v_theory for row in rows]
        assert theory == pytest.approx([1.0, 1.0, 1 / 3], abs=1e-12)
        for row in rows:
            assert abs(row.v_hat - row.v_theory) < 0.02
            assert row.flux == pytest.approx(row.rho * row.v_hat)
            assert np.isfinite([row.v_theory, row.v_hat, row.stderr, row.flux]).all()

    def test_flux_symmetry_of_theory(self):
        for p in (0.3, 0.6, 0.9):
            for rho in np.linspace(0.05, 0.45, 9):
                a = rho * theoretical_velocity(rho, p, 1.0, 0.5)
                b = (1 - rho) * theoretical_velocity(1 - rho, p, 1.0, 0.5)
                assert a == pytest.approx(b, abs=1e-12)

    def test_slower_coins_slower_curve(self):
        for rho in np.linspace(0.1, 0.9, 9):
            slow = theoretical_velocity(rho, 0.5, 1.0, 0.5)
            fast = theoretical_velocity(rho, 1.0, 1.0, 0.5)
            assert slow < fast

    def test_overpacked_grid_point_rejected(self):
        with pytest.raises(ValueError):
            fundamental_diagram([1.1], 0.5, 1.0, 0.5, n_particles=100, steps=100, seed=0)

    def test_sampled_initial_reports_realized_density(self):
        rows = fundamental_diagram([0.4], 0.6, 1.0, 0.5, n_particles=400,
                                   steps=600, seed=5, initial="sampled")
        row = rows[0]
        assert abs(row.rho - 0.4) < 0.08  # count fluctuates around the target
        assert row.v_theory == pytest.approx(
            theoretical_velocity(row.rho, 0.6, 1.0, 0.5), abs=1e-12
        )
        assert abs(row.v_hat - row.v_theory) < 0.05


class TestStabilitySweep:
    def test_velocity_and_distance_approach_the_deterministic_limit(self):
        rows = stability_sweep(0.5, 1.0, 0.0, [0.9, 0.99, 0.999, 1.0],
                               n_particles=400, steps=600, seed=3)
        err = [abs(row.v_theory - 1.0) for row in rows]
        assert err[0] > err[1] > err[2] > err[3] == 0.0
        dist = [row.measure_dist for row in rows[:3]]
        assert dist[0] > dist[1] > dist[2] > 0
        assert rows[3].measure_dist == 0.0
        assert rows[3].v_theory == theoretical_velocity(0.5, 1.0, 1.0, 0.0)

    def test_example_value(self):
        rows = stability_sweep(0.5, 1.0, 0.0, [0.999], n_particles=300, steps=400, seed=5)
        assert rows[0].v_theory == pytest.approx(1.5 - math.sqrt(0.252), abs=1e-12)

    def test_lattice_density_mapping(self):
        # v=1, r=1/2 maps to itself; point particles map through rho/(1+rho)
        assert lattice_density(0.4, 1.0, 0.5) == pytest.approx(0.4, abs=1e-12)
        assert lattice_density(0.5, 1.0, 0.0) == pytest.approx(1 / 3, abs=1e-12)
        assert measure_distance(0.4, 1.0) == 0.0

    @pytest.mark.parametrize("max_length", [0, 13])
    def test_measure_distance_length_guard(self, max_length):
        with pytest.raises(ValueError, match="1..12"):
            measure_distance(0.3, 0.9, max_length)


class TestSimilarity:
    def test_doubling_is_exact(self):
        cfg = evenly_spaced_ring(50, 0.25)
        report = similarity_check(cfg, ProcessParams(p=1.0, v=1.0), 2.0, 200, CoinStream(7))
        assert report.max_displacement_error == 0.0
        assert report.density_scaled == pytest.approx(report.density / 2)

    def test_identity_scale(self):
        cfg = evenly_spaced_ring(30, 0.4)
        report = similarity_check(cfg, ProcessParams(p=0.6, v=1.0), 1.0, 100, CoinStream(9))
        assert report.max_displacement_error == 0.0
        assert report.max_gap_error == 0.0

    def test_general_scale_within_float_slop(self):
        cfg = evenly_spaced_ring(40, 0.5)
        report = similarity_check(cfg, ProcessParams(p=0.7, v=1.0), 1.7, 150, CoinStream(11))
        assert report.max_displacement_error < 1e-9

    def test_radius_rejected(self):
        cfg = evenly_spaced_ring(10, 0.2, radius=0.3)
        with pytest.raises(ValueError):
            similarity_check(cfg, ProcessParams(p=0.5, v=1.0), 2.0, 10, CoinStream(0))
