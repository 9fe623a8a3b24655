"""One-step dynamics, obstacle variant, runs, coupling, conservation laws."""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from tasep import (
    LINE,
    AdmissibilityError,
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
from test_reproducibility import BACKEND_CASES, CASES, backend  # noqa: F401 (a fixture)

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

    @pytest.mark.parametrize("geometry, positions", [
        (Ring(10.0), [1.0, np.nan]),
        (Ring(10.0), [np.nan]),
        (LINE, [1.0, np.inf]),
        (LINE, [-np.inf, 1.0]),
    ], ids=["ring_nan", "ring_only_nan", "line_inf", "line_minus_inf"])
    def test_non_finite_positions_rejected(self, geometry, positions):
        # a NaN obstacle used to be accepted, and a run among it returned NaN positions
        with pytest.raises(ValueError, match="finite"):
            ObstacleField(geometry, positions)


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

    @pytest.mark.parametrize("kw", [{"steps": 2.5}, {"steps": True}, {"steps": "10"},
                                    {"snapshot_stride": True}, {"snapshot_stride": 2.0}],
                             ids=lambda kw: repr(kw).replace(" ", ""))
    def test_non_integer_counts_rejected(self, kw):
        cfg = ring(20.0, np.arange(5) * 4.0, 0.0)
        args = {"steps": 10, "snapshot_stride": None, **kw}
        with pytest.raises(ValueError, match=next(iter(kw)).replace("_", " ")):
            run(cfg, ProcessParams(p=0.8, v=1.0), args["steps"], CoinStream(7),
                snapshot_stride=args["snapshot_stride"])

    def test_numpy_integer_counts_accepted(self):
        cfg = ring(20.0, np.arange(5) * 4.0, 0.0)
        params = ProcessParams(p=0.8, v=1.0)
        plain = run(cfg, params, 10, CoinStream(7), snapshot_stride=3)
        assert run(cfg, params, np.int64(10), CoinStream(7), snapshot_stride=np.int32(3)) == plain

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

    @pytest.mark.parametrize("bad", [1.5, True, "3", np.float64(2.0), -1, 2**64])
    def test_derive_ids_checked_as_seeds_are(self, bad):
        with pytest.raises(ValueError):
            CoinStream(1).derive(bad)
        with pytest.raises(ValueError):
            CoinStream(1).derive(0, bad)

    def test_integer_ids_keep_their_streams(self):
        s = CoinStream(1)
        assert s.derive(np.uint64(3), np.int32(4)) == s.derive(3, 4)
        assert s.derive(2**64 - 1) != s.derive(1)

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

    def test_streams_above_2_63_keep_their_own_keys(self):
        # seed and stream enter Philox as their exact 32-bit halves, the seed as the key
        # and the stream as counter words 2 and 3, so no two of them share their coins
        a, b = CoinStream(1, 2**63 + 5), CoinStream(1, 2**63 + 6)
        assert not np.array_equal(a.uniforms(3, 64), b.uniforms(3, 64))
        cfg, params = even_lattice_ring(40, 15), ProcessParams(0.5, 1)
        assert run(cfg, params, 30, a).final != run(cfg, params, 30, b).final
        # the seed's high half is a key word of its own
        assert not np.array_equal(CoinStream(2**32 + 1).uniforms(0, 8),
                                  CoinStream(1).uniforms(0, 8))

    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_random123_known_answer(self, backend):
        # Random123's known-answer vector of Philox4x32-10: counter and key zero
        words = CoinStream(0).uniforms(0, 4) * 2**32
        assert words.tolist() == [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]
        # at p = 1/2 only particle 0 draws a word below 2**31
        free = Configuration(LINE, np.arange(4) * 10, 0.5)
        moved = step(free, ProcessParams(0.5, 1), CoinStream(0), 0).winding
        assert moved.tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 100, 101, 10_000])
    def test_run_words_are_the_uniforms(self, n):
        # a run's words come a chunk of steps per numpy pass; each is its step's uniforms
        s = CoinStream(5).derive(2)
        words = list(s._words(n, 0, 20))
        assert len(words) == 20
        for t, k in enumerate(words):
            assert k.dtype == np.uint64 and len(k) == n and k.max() < 2**32
            assert np.array_equal(k.astype(np.float64), s.uniforms(t, n) * 2.0**32)
        # a chunk that starts mid-run has the same words
        assert all(np.array_equal(a, b) for a, b in zip(s._words(n, 7, 5), words[7:12]))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 10_000])
    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_coin_i_is_word_i_mod_4_of_block_i_over_4(self, n, backend):
        # the contract, against Philox4x32-10 computed here with Python integers: particle
        # i's coin is word i mod 4 of counter block [i // 4, t, stream low, stream high]
        # under the key (seed low, seed high)
        s = CoinStream(5).derive(3)
        free = Configuration(LINE, np.arange(n) * 10, 0.5)
        words = s._words(n, 0, 3)
        for t in (0, 1, 2, 2**32 - 1):
            blocks = [_philox4x32([b, t, s.stream & 0xFFFFFFFF, s.stream >> 32],
                                  [s.seed & 0xFFFFFFFF, s.seed >> 32])
                      for b in range(-(-n // 4))]
            coins = np.array([blocks[i // 4][i % 4] for i in range(n)], dtype=np.uint64)
            if t < 3:
                assert np.array_equal(next(words), coins)
            assert np.array_equal(s.uniforms(t, n), coins * 2.0**-32)
            moved = step(free, ProcessParams(0.5, 1), s, t).winding == 1
            assert np.array_equal(moved, coins < 2**31)

    @pytest.mark.parametrize("p", [1.0, 1 - 2.0**-53, 1 - 2.0**-32, 0.5, 2.0**-32, 5e-324])
    def test_word_cut_is_the_uniform_compare(self, p):
        cut = math.ceil(p * 2**32)
        # p within 2**-32 of 1 decides every coin, as p = 1 does; the least p moves k = 0
        assert cut == {1 - 2.0**-53: 2**32, 5e-324: 1}.get(p, cut)
        edges = np.array([0, cut - 1, cut, cut + 1, 2**32 - 1]).clip(0, 2**32 - 1)
        words = np.concatenate([edges, next(CoinStream(8)._words(1000, 0, 1))]).astype(np.uint64)
        u = words.astype(np.float64) * 2.0**-32
        assert np.array_equal(words < cut, u < p)
        # the stepper moves exactly the particles whose coin falls below p
        free = Configuration(LINE, np.arange(len(words)) * 10, 0.5)
        disp = _Stepper(free, ProcessParams(p=p, v=1), CoinStream(8)).advance(words)
        assert np.array_equal(disp == 1, u < p)

    def test_particle_counts_past_2_34_rejected(self):
        # block i // 4 is a 32-bit counter word: 2**34 particles fill it
        with pytest.raises(ValueError, match="particle count"):
            CoinStream(3).uniforms(0, 2**34 + 1)
        with pytest.raises(ValueError, match="particle count"):
            next(CoinStream(3)._words(-1, 0, 1))


def _philox4x32(counter: list[int], key: list[int]) -> list[int]:
    """Philox4x32-10 of one counter block, in Python integers (Salmon et al., SC'11)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B9) % 2**32, (k1 + 0xBB67AE85) % 2**32
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 % 2**32, (p0 >> 32) ^ c3 ^ k1, p0 % 2**32
    return [c0, c1, c2, c3]


class TestTimeIndex:
    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    @pytest.mark.parametrize("bad", [2**64, -1, 1.5, True, np.float64(1.0), "3", 2**32,
                                     np.uint64(2**32)])
    def test_non_integer_or_out_of_range_rejected(self, bad, backend):
        with pytest.raises(ValueError, match="time index"):
            step(even_lattice_ring(20, 5), ProcessParams(0.5, 1), CoinStream(3), bad)
        with pytest.raises(ValueError, match="time index"):
            CoinStream(3).uniforms(bad, 4)

    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_step_t_moves_on_uniforms_t_up_to_2_32(self, backend):
        # t is counter word 1: every t below 2**32 has its own coins
        free, coins = Configuration(LINE, np.arange(64) * 10, 0.5), CoinStream(3)
        ts = [0, 1, 2**31, 2**32 - 2, np.uint64(2**32 - 1)]
        moves = [step(free, ProcessParams(0.5, 1), coins, t).winding == 1 for t in ts]
        for t, moved in zip(ts, moves):
            assert np.array_equal(moved, coins.uniforms(t, 64) < 0.5)
        assert len({m.tobytes() for m in moves}) == len(ts)

    def test_steps_past_2_32_rejected(self):
        # a run's last step would be t = 2**32; it fails before any step
        cfg, params = even_lattice_ring(20, 5), ProcessParams(0.5, 1)
        with pytest.raises(ValueError, match="steps"):
            run(cfg, params, 2**32 + 1, 3)
        with pytest.raises(ValueError, match="steps"):
            coupled_run(cfg, cfg, params, params, 2**32 + 1, 3)
        with pytest.raises(ValueError, match="time index"):
            next(CoinStream(3)._words(4, 2**32 - 1, 2))


def _terms_are_fresh(cfg: Configuration) -> bool:
    """cfg carries the bound terms a validated copy computes; its arrays are read-only."""
    (rr, seam), (rr0, seam0) = cfg._terms, Configuration(
        cfg.geometry, cfg.positions, cfg.radii, cfg.winding)._terms
    return (np.array_equal(rr, rr0) and rr.dtype == rr0.dtype and seam == seam0
            and type(seam) is type(seam0)
            and not rr.flags.writeable and not cfg.radii.flags.writeable)


class TestBoundTerms:
    @pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
    def test_every_state_carries_fresh_terms(self, name, backend):
        cfg, params, field, steps, seed = CASES[name]
        coins = CoinStream(seed)
        states = [c for _, c in run(cfg, params, steps, coins, field=field,
                                    snapshot_stride=7).snapshots]
        state = cfg
        for t in range(5):
            state = step(state, params, coins, t, field=field)
            states.append(state)
        assert all(map(_terms_are_fresh, states))

    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_integral_input_runs_in_float64_when_the_run_cannot_stay_exact(self, backend):
        cfg = ring(20, np.arange(0, 20, 4), 0.0)
        field = ObstacleField(Ring(20), [2.0])
        assert cfg.is_lattice
        for params, f in ((ProcessParams(0.5, 1.5), None), (ProcessParams(0.5, 1), field)):
            final = run(cfg, params, 5, CoinStream(1), field=f).final
            assert final.positions.dtype == final._terms[0].dtype == np.float64
            assert type(final._terms[1]) is float and _terms_are_fresh(final)
        assert cfg._terms[0].dtype == np.int64
        with pytest.raises(ValueError, match="integer v"):
            ProcessParams(0.5, 1.5, "lattice")
        with pytest.raises(ValueError, match="r_i"):
            run(cfg, ProcessParams(0.5, 1, "lattice"), 5, CoinStream(1), field=field)


class TestAdmissibleVerdict:
    """A configuration checks admissibility once, at its first run or step; the states a
    run or a step returns carry the verdict, so they are not checked again."""

    @pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
    def test_every_state_of_a_run_or_a_step_is_admissible(self, name, backend):
        cfg, params, field, steps, seed = CASES[name]
        coins = CoinStream(seed)
        states = [c for _, c in run(cfg, params, steps, coins, field=field,
                                    snapshot_stride=1).snapshots]
        state = cfg
        for t in range(steps):
            state = step(state, params, coins, t, field=field)
            states.append(state)
        assert len(states) == 2 * steps + 1
        assert all(check_admissible(c).ok for c in states)
        assert all(vars(c)["_admissible"] is True for c in states[1:])

    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_overlap_built_by_the_user_is_rejected(self, backend):
        bad = ring(10.0, [0.0, 0.5, 3.0], 0.5)  # balls 0 and 1 overlap
        good = ring(10.0, [0.0, 2.0, 5.0], 0.5)
        params = ProcessParams(p=0.5, v=1.0)
        for _ in range(2):  # a failed check leaves no verdict behind
            with pytest.raises(AdmissibilityError, match="balls 0 and 1"):
                step(bad, params, CoinStream(1), 0)
            with pytest.raises(AdmissibilityError):
                run(bad, params, 5, CoinStream(1))
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(AdmissibilityError):
                    coupled_run(a, b, params, params, 5, CoinStream(1))
        assert "_admissible" not in vars(bad)

    @pytest.mark.parametrize("copy_of", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy,
                                         copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_a_rebuilt_state_is_checked_afresh(self, copy_of):
        params = ProcessParams(0.5, 1)
        state = step(even_lattice_ring(20, 5), params, CoinStream(1), 0)
        assert vars(state)["_admissible"] is True
        fresh = copy_of(state)
        assert "_admissible" not in vars(fresh)
        step(fresh, params, CoinStream(1), 1)
        assert vars(fresh)["_admissible"] is True
        # an overlap put in behind the state's back is trusted by the state, which carries
        # its verdict, and found in every copy, which is rebuilt without it
        object.__setattr__(state, "positions", np.array([0, 0, 8, 12, 16]))
        step(state, params, CoinStream(1), 1)
        with pytest.raises(AdmissibilityError, match="balls 0 and 1"):
            step(copy_of(state), params, CoinStream(1), 1)

    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    @pytest.mark.parametrize("field", [None, ObstacleField(Ring(20), [2.0, 9.5])],
                             ids=["plain", "obstacles"])
    def test_a_step_result_owns_read_only_arrays(self, field, backend):
        cfg = ring(20, np.arange(0, 20, 4), 0.0)
        params, coins = ProcessParams(0.5, 1), CoinStream(4)
        first = step(cfg, params, coins, 0, field=field)
        second = step(first, params, coins, 1, field=field)
        for arr in (first.positions, first.winding):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        for other in (cfg, first, second):
            for a in (first.positions, first.winding):
                for b in (other.positions, other.winding):
                    assert a is b or not np.shares_memory(a, b)


def _state_bytes(cfg: Configuration) -> tuple[bytes, ...]:
    return (cfg.positions.tobytes(), cfg.winding.tobytes(), cfg.radii.tobytes(),
            cfg._terms[0].tobytes())


class TestStepChain:
    @pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
    def test_a_step_chain_never_writes_into_an_earlier_state(self, name, backend):
        """Every state of a 50-step loop, its start included, still has the bytes it had
        when step returned it; the loop moves, so the check is not vacuous."""
        cfg, params, field, _, seed = CASES[name]
        coins = CoinStream(seed)
        states, recorded = [cfg], [_state_bytes(cfg)]
        for t in range(50):
            states.append(step(states[-1], params, coins, t, field=field))
            recorded.append(_state_bytes(states[-1]))
        assert [_state_bytes(c) for c in states] == recorded
        assert len({b[0] for b in recorded[1:]}) > 1


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

    @pytest.mark.parametrize("steps", [2.5, True, 0])
    def test_steps_must_be_a_positive_integer(self, steps):
        cfg = ring(24.0, np.arange(8) * 3.0, 0.5)
        params = ProcessParams(p=0.5, v=1.0)
        with pytest.raises(ValueError, match="steps"):
            coupled_run(cfg, cfg, params, params, steps, CoinStream(1))

    def test_particle_count_mismatch_rejected(self):
        a = ring(10.0, [0.0, 5.0], 0.0)
        b = ring(10.0, [0.0], 0.0)
        with pytest.raises(ValueError):
            coupled_run(a, b, DET, DET, 5, CoinStream(0))


# jumps at and past 2**63: an int64 ring takes x + v, which int64 cannot hold, and a line
# packs v for the kernel, which a 64-bit field cannot hold
HUGE_JUMPS = [float(2**63 - 1024), float(2**63), 1e19]


class TestJumpsPastInt64:
    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("v", HUGE_JUMPS)
    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_a_ring_moves_as_its_float64_copy(self, v, p, backend):
        # no bound lies more than the ring's length ahead, so every jump past it moves
        # each particle to its bound, in int64 as in float64
        cfg = even_lattice_ring(4000, 2)
        copy = Configuration(Ring(4000.0), cfg.positions.astype(np.float64), 0.5)
        exact, floats = ProcessParams(p, v, "lattice"), ProcessParams(p, v)
        got, want = run(cfg, exact, 5, 1), run(copy, floats, 5, 1)
        assert got.final.positions.dtype == np.int64
        assert got.final.positions.tolist() == want.final.positions.tolist()
        assert np.array_equal(got.step_total_displacement, want.step_total_displacement)
        assert got.step_total_displacement.sum() > 0
        # at p = 1 both particles reach their bounds, 1999 sites ahead, in the first step
        assert p < 1 or got.step_total_displacement[0] == 3998
        one = step(cfg, exact, CoinStream(1), 0)
        assert one.positions.tolist() == step(copy, floats, CoinStream(1), 0).positions.tolist()
        both = coupled_run(cfg, copy, exact, floats, 5, 1)
        assert np.array_equal(both.a.step_total_displacement, want.step_total_displacement)
        assert both.max_gap_divergence.max() == 0 == both.max_displacement_divergence.max()

    @pytest.mark.parametrize("v", HUGE_JUMPS)
    @pytest.mark.parametrize("backend", ["default", "numpy"], indirect=True)
    def test_a_line_rejects_them_before_any_step(self, v, backend):
        line = Configuration(LINE, np.array([0, 5]), 0.5)
        huge, unit = ProcessParams(1.0, v, "lattice"), ProcessParams(1.0, 1, "lattice")
        for call in (lambda: run(line, huge, 1, 1),
                     lambda: step(line, huge, CoinStream(1), 0),
                     lambda: coupled_run(line, line, unit, huge, 1, 1),
                     lambda: coupled_run(line, line, huge, unit, 1, 1)):
            with pytest.raises(ValueError, match="could leave the exact range"):
                call()


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
