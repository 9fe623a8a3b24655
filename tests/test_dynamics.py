"""One-step dynamics, obstacle variant, runs, coupling, conservation laws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tasep import (
    LINE,
    CoinStream,
    Configuration,
    ObstacleField,
    ProcessParams,
    Ring,
    check_admissible,
    coupled_run,
    density,
    even_lattice_ring,
    radius_conjugate,
    run,
    step,
)
from tasep.dynamics import _Stepper

DET = ProcessParams(p=1.0, v=1.0)


def ring(L, positions, radii):
    return Configuration(Ring(L), positions, radii)


class TestStep:
    def test_hand_applied_ring(self):
        cfg = ring(10.0, [0.0, 0.5, 3.0], 0.0)
        out = step(cfg, DET, CoinStream(0), 0)
        assert np.array_equal(out.positions, [0.5, 1.5, 4.0])

    def test_single_free_particle_jumps_v(self):
        cfg = Configuration(LINE, [0.0], 0.0)
        out = step(cfg, ProcessParams(p=1.0, v=2.5), CoinStream(0), 0)
        assert np.array_equal(out.positions, [2.5])

    def test_p_zero_is_identity(self):
        cfg = ring(12.0, [0.0, 1.0, 3.5], 0.4)
        out = step(cfg, ProcessParams(p=0.0, v=1.0), CoinStream(3), 7)
        assert out == cfg

    def test_blocked_particle_stops_at_contact(self):
        cfg = Configuration(LINE, [0.0, 1.2], 0.5)
        out = step(cfg, DET, CoinStream(0), 0)
        # follower can only close the gap; leader escapes by v
        assert np.allclose(out.positions, [0.2, 2.2])

    def test_heterogeneous_radii_in_the_bound(self):
        cfg = Configuration(LINE, [0.0, 2.0], [0.3, 0.7])
        out = step(cfg, DET, CoinStream(0), 0)
        assert out.positions[0] == pytest.approx(1.0)  # 2.0 - (0.3 + 0.7)

    def test_ring_wrap_bound_and_window(self):
        cfg = ring(4, np.array([1, 3]), 0.5)
        out = step(cfg, ProcessParams(p=1.0, v=2, space="lattice"), CoinStream(1), 0)
        # particle 1 is bounded by particle 0 through the seam: 1 + 4 - 1 = 4
        assert np.array_equal(out.positions, [2, 4])
        out2 = step(out, ProcessParams(p=1.0, v=2, space="lattice"), CoinStream(1), 1)
        # window renormalizes once the first particle passes L
        assert out2.positions[0] < 4
        assert check_admissible(out2).ok

    def test_lattice_positions_stay_integer(self):
        cfg = even_lattice_ring(20, 7)
        params = ProcessParams(p=0.6, v=1, space="lattice")
        for t in range(10):
            cfg = step(cfg, params, CoinStream(9), t)
            assert cfg.positions.dtype.kind == "i"

    def test_lattice_needs_integral_radius_sums(self):
        # every diameter is integral, but r_0 + r_1 = 1/2 would leave the lattice;
        # obstacles stop particles at float positions
        cases = [
            (ring(10, np.array([0, 1, 5]), [0.5, 0.0, 0.5]), None),
            (ring(20, np.arange(0, 20, 4), 0.0), ObstacleField(Ring(20), [2.0])),
        ]
        for cfg, field in cases:
            with pytest.raises(ValueError, match="r_i"):
                run(cfg, ProcessParams(p=1.0, v=1, space="lattice"), 3, CoinStream(0),
                    field=field)

    @pytest.mark.parametrize("cfg, lattice", [
        (ring(10, np.array([0, 3, 6]), 0.5), True),
        (ring(10, np.array([0, 3, 6]), 0.3), False),
        (ring(10, np.array([0, 1, 5]), [0.5, 0.0, 0.5]), False),
        (ring(10, [0.0, 3.0, 6.0], 0.5), False),
        (ring(10.5, np.array([0, 3, 6]), 0.5), False),
        (Configuration(LINE, np.array([0, 2, 5]), 0.5), True),
        # a line has no wrap pair r_2 + r_0 = 1/2
        (Configuration(LINE, np.array([0, 2, 5]), [0.25, 0.75, 0.25]), True),
        (ring(10, np.array([], dtype=np.int64), 0.5), True),
    ], ids=["radius_0.5", "radius_0.3", "mixed_radii", "float_positions",
            "non_integral_ring", "line_window", "line_mixed_radii", "empty_ring"])
    def test_is_lattice_is_the_run_rule(self, cfg, lattice):
        final = run(cfg, ProcessParams(p=0.6, v=1), 3, CoinStream(2)).final.positions
        try:
            run(cfg, ProcessParams(p=0.6, v=1, space="lattice"), 3, CoinStream(2))
            accepted = True
        except ValueError:
            accepted = False
        assert cfg.is_lattice == (final.dtype == np.int64) == accepted == lattice

    def test_winding_accumulates_displacement(self):
        cfg = ring(6.0, [0.0, 3.0], 0.0)
        out = step(cfg, DET, CoinStream(0), 0)
        assert np.allclose(out.winding, [1.0, 1.0])

    def test_fractional_jump_on_integer_positions_is_not_truncated(self):
        cfg = ring(20, np.array([0, 10]), 0.0)
        out = step(cfg, ProcessParams(p=1.0, v=2.5), CoinStream(0), 0)
        assert np.allclose(out.positions, [2.5, 12.5])
        summary = run(cfg, ProcessParams(p=1.0, v=2.5), 3, CoinStream(0))
        assert np.allclose(summary.displacement, 7.5)


class TestStepObstacles:
    def test_obstacle_delays_exactly_one_step(self):
        cfg = Configuration(LINE, [0.2], 0.0)
        field = ObstacleField(LINE, [1.0])
        params = ProcessParams(p=1.0, v=2.0)
        out = step(cfg, params, CoinStream(0), 0, field=field)
        assert np.array_equal(out.positions, [1.0])
        out = step(out, params, CoinStream(0), 1, field=field)
        assert np.array_equal(out.positions, [3.0])

    def test_empty_field_reduces_to_plain_step(self):
        cfg = ring(9.0, [0.0, 2.0, 4.5], 0.0)
        params = ProcessParams(p=0.7, v=1.0)
        a = step(cfg, params, CoinStream(4), 2, field=ObstacleField(Ring(9.0), []))
        b = step(cfg, params, CoinStream(4), 2)
        assert a == b

    def test_each_obstacle_costs_one_stop(self):
        cfg = Configuration(LINE, [0.0], 0.0)
        field = ObstacleField(LINE, [0.5, 0.7])
        params = ProcessParams(p=1.0, v=1.0)
        seen = []
        for t in range(3):
            cfg = step(cfg, params, CoinStream(0), t, field=field)
            seen.append(float(cfg.positions[0]))
        assert seen == [0.5, 0.7, 1.7]

    def test_nonzero_radius_rejected(self):
        cfg = Configuration(LINE, [0.0], 0.5)
        with pytest.raises(ValueError):
            step(cfg, DET, CoinStream(0), 0, field=ObstacleField(LINE, [1.0]))

    def test_ring_wraparound_obstacle(self):
        cfg = ring(5.0, [4.8], 0.0)
        field = ObstacleField(Ring(5.0), [0.5])
        out = step(cfg, ProcessParams(p=1.0, v=2.0), CoinStream(0), 0, field=field)
        # next obstacle beyond 4.8 is 0.5 + L = 5.5
        assert out.positions[0] == pytest.approx(5.5 - 5.0)


class TestObstacleField:
    def test_must_increase(self):
        with pytest.raises(ValueError):
            ObstacleField(LINE, [1.0, 1.0])

    def test_ring_bounds(self):
        with pytest.raises(ValueError):
            ObstacleField(Ring(2.0), [0.0, 2.0])


class TestRun:
    def test_free_flow_every_particle_every_step(self):
        cfg = ring(40.0, np.arange(10) * 4.0, 0.0)  # rho = 0.25 < 1/v
        summary = run(cfg, ProcessParams(p=1.0, v=2.0), 25, CoinStream(0))
        assert np.allclose(summary.displacement, 25 * 2.0)
        assert np.allclose(summary.step_total_displacement, 10 * 2.0)

    def test_fully_packed_ring_is_jammed(self):
        cfg = even_lattice_ring(12, 12)
        summary = run(cfg, ProcessParams(p=1.0, v=1, space="lattice"), 30, CoinStream(5))
        assert np.all(summary.displacement == 0)
        assert summary.final == cfg

    def test_same_seed_reproduces_summary(self):
        cfg = ring(30.0, np.arange(9) * 3.3, 0.4)
        params = ProcessParams(p=0.5, v=1.0)
        a = run(cfg, params, 50, CoinStream(123), snapshot_stride=10)
        b = run(cfg, params, 50, CoinStream(123), snapshot_stride=10)
        assert np.array_equal(a.displacement, b.displacement)
        assert np.array_equal(a.step_total_displacement, b.step_total_displacement)
        assert a.final == b.final
        c = run(cfg, params, 50, CoinStream(124))
        assert not np.array_equal(a.displacement, c.displacement)

    def test_snapshots_and_density_series(self):
        cfg = ring(20.0, np.arange(5) * 4.0, 0.0)
        summary = run(cfg, ProcessParams(p=0.8, v=1.0), 40, CoinStream(7), snapshot_stride=10)
        assert [t for t, _ in summary.snapshots] == [0, 10, 20, 30, 40]
        assert [density(c) for _, c in summary.snapshots] == [0.25] * 5

    def test_every_snapshot_has_the_run_dtype(self):
        # integer positions with r_i + r_{i+1} = 0.6 run in float64, from t = 0 on
        cfg = ring(40, np.arange(0, 40, 4), 0.3)
        summary = run(cfg, ProcessParams(p=0.5, v=1), 20, CoinStream(3), snapshot_stride=5)
        assert cfg.positions.dtype == np.int64
        assert [c.positions.dtype for _, c in summary.snapshots] == [np.dtype(np.float64)] * 5
        assert summary.snapshots[0][1] == cfg

    @pytest.mark.parametrize("cfg", [
        Configuration(LINE, [0.5], 0.2),
        Configuration(LINE, [1.0, 1.0], 0.0),
    ], ids=["one_particle", "zero_span"])
    def test_line_without_a_density_runs(self, cfg):
        summary = run(cfg, ProcessParams(p=0.5, v=1.5), 10, CoinStream(1), snapshot_stride=1)
        assert len(summary.snapshots) == 11
        assert summary.final == step(summary.snapshots[-2][1], ProcessParams(p=0.5, v=1.5),
                                     CoinStream(1), 9)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_snapshot_stride_below_one_rejected(self, stride):
        cfg = ring(20.0, np.arange(5) * 4.0, 0.0)
        with pytest.raises(ValueError, match="stride"):
            run(cfg, ProcessParams(p=0.8, v=1.0), 10, CoinStream(7), snapshot_stride=stride)

    def test_ring_density_conserved_and_admissible(self):
        cfg = ring(15.0, np.sort(np.random.default_rng(2).uniform(0, 14, 8)), 0.0)
        summary = run(cfg, ProcessParams(p=0.65, v=1.3), 200, CoinStream(11))
        assert summary.final.n == 8
        assert density(summary.final) == pytest.approx(8 / 15)
        assert check_admissible(summary.final).ok


class TestCoinStream:
    def test_reproducible_and_time_keyed(self):
        s = CoinStream(42)
        assert np.array_equal(s.uniforms(3, 10), s.uniforms(3, 10))
        assert not np.array_equal(s.uniforms(3, 10), s.uniforms(4, 10))

    def test_prefix_stability(self):
        # particle i's coin at time t does not depend on how many others exist
        s = CoinStream(7)
        assert np.array_equal(s.uniforms(5, 4), s.uniforms(5, 9)[:4])

    def test_derive_gives_distinct_streams(self):
        s = CoinStream(1)
        a, b = s.derive(0), s.derive(1)
        assert a != b
        assert not np.array_equal(a.uniforms(0, 8), b.uniforms(0, 8))
        assert a == s.derive(0)

    @pytest.mark.parametrize("bad", [1.5, -0.5, "3", True, np.float64(2.0), -1, 2**64])
    def test_non_integer_or_out_of_range_seed_rejected(self, bad):
        with pytest.raises(ValueError):
            CoinStream(bad)
        with pytest.raises(ValueError):
            CoinStream(0, bad)
        with pytest.raises(ValueError):
            run(even_lattice_ring(20, 5), ProcessParams(0.5, 1.0), 5, bad)

    def test_numpy_integer_seeds_stored_as_python_ints(self):
        s = CoinStream(np.uint64(2**64 - 1), np.int32(4))
        assert type(s.seed) is int and type(s.stream) is int
        assert s == CoinStream(2**64 - 1, 4)

    def test_range(self):
        u = CoinStream(9).uniforms(0, 1000)
        assert u.min() >= 0 and u.max() < 1
        assert abs(u.mean() - 0.5) < 0.05

    def test_streams_above_2_63_collide(self):
        # today's coin contract, pinned: numpy's Philox rounds a key word of 2**63
        # or more through float64, so these two streams draw the same coins
        a, b = CoinStream(1, 2**63 + 5), CoinStream(1, 2**63 + 6)
        assert np.array_equal(a.uniforms(3, 64), b.uniforms(3, 64))
        assert a._key == b._key == (1, 2**63)
        cfg, params = even_lattice_ring(40, 15), ProcessParams(0.5, 1)
        assert run(cfg, params, 30, a).final == run(cfg, params, 30, b).final
        assert not np.array_equal(a.uniforms(3, 64), CoinStream(1, 5).uniforms(3, 64))

    @pytest.mark.parametrize("n", [1, 100, 101, 10_000])
    def test_run_words_are_the_uniforms(self, n):
        # one generator per run, jumped to counter [0, t, 0, 0] each step
        s = CoinStream(5).derive(2)
        words = s._words(n)
        for t in range(20):
            k = next(words)
            assert k.dtype == np.uint64
            assert np.array_equal(k.astype(np.float64), s.uniforms(t, n) * 2.0**53)

    @pytest.mark.parametrize("p", [1.0, 1 - 2.0**-53, 0.5, 5e-324])
    def test_word_cut_is_the_uniform_compare(self, p):
        cut = math.ceil(p * 2**53)
        edges = np.array([0, cut - 1, cut, cut + 1, 2**53 - 1]).clip(0, 2**53 - 1)
        words = np.concatenate([edges, next(CoinStream(8)._words(1000))]).astype(np.uint64)
        u = words.astype(np.float64) * 2.0**-53
        assert np.array_equal(words < cut, u < p)
        # the stepper moves exactly the particles whose coin falls below p
        free = Configuration(LINE, np.arange(len(words)) * 10, 0.5)
        disp = _Stepper(free, ProcessParams(p=p, v=1), CoinStream(8)).advance(words)
        assert np.array_equal(disp == 1, u < p)


class TestCoupledRun:
    def test_identical_configurations_identical_trajectories(self):
        cfg = ring(24.0, np.arange(8) * 3.0, 0.5)
        params = ProcessParams(p=0.5, v=1.0)
        result = coupled_run(cfg, cfg, params, params, 100, CoinStream(3))
        assert result.max_gap_divergence.max() == 0
        assert result.max_displacement_divergence.max() == 0

    def test_radius_conjugate_coupling_shares_gaps(self):
        cfg = even_lattice_ring(40, 13)
        conj = radius_conjugate(cfg, 0.0)
        pa = ProcessParams(p=0.7, v=1, space="lattice")
        result = coupled_run(cfg, conj, pa, pa, 300, CoinStream(17))
        assert result.max_gap_divergence.max() == 0  # exact on the lattice

    def test_heterogeneous_vs_mean_radius_displacements(self):
        rng = np.random.default_rng(8)
        radii = rng.uniform(0.0, 0.4, 30)
        g = rng.uniform(0.2, 1.5, 30)
        pos = np.concatenate([[0.0], np.cumsum(g[:-1] + radii[:-1] + radii[1:])])
        L = g.sum() + 2 * radii.sum()
        cfg = Configuration(Ring(L), pos, radii)
        partner = radius_conjugate(cfg, float(radii.mean()))
        assert partner.circumference == pytest.approx(L, abs=1e-9)
        params = ProcessParams(p=0.6, v=1.0)
        result = coupled_run(cfg, partner, params, params, 400, CoinStream(23))
        assert result.max_displacement_divergence.max() <= 1e-10

    @pytest.mark.parametrize("space", ["lattice", "continuum"])
    def test_different_p_on_shared_coins_equals_two_runs(self, space):
        cfg = even_lattice_ring(60, 25) if space == "lattice" else ring(
            41.5, np.arange(25) * 1.66, 0.3)
        pa, pb = ProcessParams(p=0.35, v=1), ProcessParams(p=0.8, v=2)
        coins = CoinStream(13).derive(4)
        both = coupled_run(cfg, cfg, pa, pb, 50, coins)
        for side, params in ((both.a, pa), (both.b, pb)):
            alone = run(cfg, params, 50, coins)
            assert side.final == alone.final
            assert np.array_equal(side.displacement, alone.displacement)
            assert np.array_equal(side.step_total_displacement, alone.step_total_displacement)

    def test_particle_count_mismatch_rejected(self):
        a = ring(10.0, [0.0, 5.0], 0.0)
        b = ring(10.0, [0.0], 0.0)
        with pytest.raises(ValueError):
            coupled_run(a, b, DET, DET, 5, CoinStream(0))


class TestConservationSuite:
    """Seeded randomized invariant checks (small version of the acceptance sweep)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_invariants_hold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        p = float(rng.uniform(0.05, 1.0))
        variant = seed % 4
        if variant == 0:  # lattice hard-core
            n_sites = int(rng.integers(2 * n, 4 * n + 4))
            cfg = even_lattice_ring(n_sites, n)
            params = ProcessParams(p=p, v=int(rng.integers(1, 3)), space="lattice")
            field = None
        elif variant == 1:  # continuum heterogeneous
            radii = rng.uniform(0, 0.4, n)
            g = rng.uniform(0.0, 2.0, n)
            pos = np.concatenate([[0.0], np.cumsum(g[:-1] + radii[:-1] + radii[1:])])
            cfg = Configuration(Ring(g.sum() + 2 * radii.sum() + 1e-9), pos, radii)
            params = ProcessParams(p=p, v=float(rng.uniform(0.5, 2.5)))
            field = None
        elif variant == 2:  # zero-range with obstacles
            pos = np.sort(rng.uniform(0, 10, n))
            cfg = Configuration(Ring(10.0), pos, 0.0)
            z = np.sort(rng.choice(np.arange(0.25, 10, 0.25), 5, replace=False))
            field = ObstacleField(Ring(10.0), z)
            params = ProcessParams(p=p, v=1.0)
        else:  # sub-lattice membership, dyadic spacing, offset in [0, v)
            v = float(rng.choice([0.5, 1.0, 2.0]))
            w = float(rng.integers(0, 4)) / 4 * v
            k = np.sort(rng.choice(np.arange(3 * n), n, replace=False))
            cfg = Configuration(Ring(3 * n * v), k * v + w, 0.0)
            params = ProcessParams(p=p, v=v)
            field = None
        T = int(rng.integers(5, 30))
        summary = run(cfg, params, T, CoinStream(seed), field=field)
        assert summary.final.n == n
        assert check_admissible(summary.final).ok
        assert np.all(np.diff(summary.final.positions) >= 0)
        assert np.all(summary.displacement >= 0)
        assert np.all(summary.displacement <= params.v * T * (1 + 1e-12))
        assert density(summary.final) == pytest.approx(density(cfg))
        if variant == 3:
            resid = (summary.final.positions - w) / params.v
            assert np.allclose(resid, np.rint(resid), atol=0)  # exact membership
