"""Markov matrices, cylinder weights, exact cyclic sampling, subshift machinery."""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import tasep
from tasep import (
    MarkovMatrix,
    TransitionStructure,
    build_invariant_matrix,
    cylinder_measure,
    decode_word,
    density,
    empirical_cylinder_frequency,
    gaps,
    markov_identity_check,
    parry_matrix,
    periodic_point_count,
    periodic_points,
    sample_ring_configuration,
    sample_ring_word,
    solve_parameter,
)
from tasep.measures import _closure_sums, _periodic_words, all_words, markov_automaton

LAMBDA = (1 + math.sqrt(5)) / 2


class TestSolveParameter:
    def test_symmetric_point(self):
        a = solve_parameter(0.5, 0.5)
        assert a == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        # round trip through the density identity
        assert a * (1 - 0.5 * a) / (1 - 0.5 * a * a) == pytest.approx(0.5, abs=1e-12)

    def test_empty_limit(self):
        for p in (0.2, 0.7, 1.0):
            assert solve_parameter(1e-9, p) == pytest.approx(0.0, abs=1e-8)

    def test_deterministic_simplification(self):
        assert solve_parameter(0.25, 1.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_dense_deterministic_degenerates_to_one(self):
        assert solve_parameter(0.75, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_parameter(0.0, 0.5)
        with pytest.raises(ValueError):
            solve_parameter(0.5, 0.0)


class TestBuildInvariantMatrix:
    def test_symmetric_point_entries(self):
        m = build_invariant_matrix(0.5, 0.5)
        a = 2 - math.sqrt(2)
        assert m.p01 == pytest.approx(a, abs=1e-12)
        assert m.p00 == pytest.approx(1 - a, abs=1e-12)
        assert m.p10 == pytest.approx(a, abs=1e-12)
        assert m.p11 == pytest.approx(1 - a, abs=1e-12)
        assert m.p00 * m.p11 == pytest.approx(0.5 * m.p10 * m.p01, abs=1e-12)

    def test_deterministic_sparse_branch(self):
        m = build_invariant_matrix(0.25, 1.0)
        assert (m.p00, m.p01, m.p10, m.p11) == pytest.approx((2 / 3, 1 / 3, 1.0, 0.0))

    def test_deterministic_dense_branch(self):
        m = build_invariant_matrix(0.75, 1.0)
        assert (m.p00, m.p01, m.p10, m.p11) == pytest.approx((0.0, 1.0, 1 / 3, 2 / 3))
        assert m.stationary == pytest.approx((0.25, 0.75))

    def test_half_density_deterministic_checkerboard(self):
        m = build_invariant_matrix(0.5, 1.0)
        assert (m.p00, m.p01, m.p10, m.p11) == (0.0, 1.0, 1.0, 0.0)

    def test_identity_residual_on_grid(self):
        for rho in np.linspace(0.1, 0.9, 9):
            for p in np.linspace(0.1, 0.9, 9):
                m = build_invariant_matrix(rho, p)
                resid = m.p00 * m.p11 - (1 - p) * m.p10 * m.p01
                assert abs(resid) <= 1e-12

    def test_density_recovery(self):
        for rho in np.linspace(0.05, 0.95, 19):
            for p in (0.3, 0.8, 1.0):
                m = build_invariant_matrix(rho, p)
                assert m.stationary[1] == pytest.approx(rho, abs=1e-12)

    def test_stochastic_stability_of_entries(self):
        # p10 -> 1 and p11 -> 0 monotonically as p -> 1 at fixed sparse density
        ps = [0.9, 0.99, 0.999, 1.0]
        p10s = [build_invariant_matrix(0.2, p).p10 for p in ps]
        p11s = [build_invariant_matrix(0.2, p).p11 for p in ps]
        assert all(a < b for a, b in zip(p10s, p10s[1:]))
        assert all(a > b for a, b in zip(p11s, p11s[1:]))
        assert p10s[-1] == 1.0 and p11s[-1] == 0.0


class TestStationaryVector:
    def test_symmetric(self):
        assert build_invariant_matrix(0.5, 0.5).stationary == pytest.approx((0.5, 0.5))

    def test_identity_like_rejected(self):
        with pytest.raises(ValueError):
            MarkovMatrix(1.0, 0.0, 0.0, 1.0).stationary

    def test_sparse_family_mass(self):
        m = MarkovMatrix.from_rows([[2 / 3, 1 / 3], [1.0, 0.0]])
        assert m.stationary == pytest.approx((0.75, 0.25))

    def test_fixed_point(self):
        m = build_invariant_matrix(0.37, 0.62)
        pi = np.array(m.stationary)
        assert np.allclose(pi @ m.matrix(), pi, atol=1e-12)
        # detailed balance of the two-state chain
        assert pi[0] * m.p01 == pytest.approx(pi[1] * m.p10, abs=1e-12)


class TestCylinderMeasure:
    def test_word_10(self):
        m = build_invariant_matrix(0.5, 0.5)
        assert cylinder_measure(m, "10") == pytest.approx(0.2928932188134524, abs=1e-12)

    def test_single_letter_is_stationary_mass(self):
        m = build_invariant_matrix(0.5, 0.5)
        assert cylinder_measure(m, "1") == pytest.approx(0.5, abs=1e-12)

    def test_forbidden_word_has_zero_mass(self):
        m = build_invariant_matrix(0.25, 1.0)
        assert cylinder_measure(m, "11") == 0.0

    def test_additivity(self):
        m = build_invariant_matrix(0.3, 0.7)
        for n in range(1, 10):
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                lhs = cylinder_measure(m, w + "0") + cylinder_measure(m, w + "1")
                assert lhs == pytest.approx(cylinder_measure(m, w), abs=1e-12)

    def test_markov_identity_for_constructed_matrices(self):
        for rho, p in [(0.2, 0.4), (0.5, 0.5), (0.8, 0.9), (0.25, 1.0), (0.75, 1.0)]:
            report = markov_identity_check(build_invariant_matrix(rho, p))
            assert report.max_abs_residual <= 1e-12

    def test_word_validation(self):
        m = build_invariant_matrix(0.5, 0.5)
        with pytest.raises(ValueError):
            cylinder_measure(m, "")
        with pytest.raises(ValueError):
            cylinder_measure(m, "102")


def _loop_law(m: MarkovMatrix, n_sites: int):
    """The per-site sampler's law on a ring of n_sites: the probability that the first
    letter is 0, and zero_after(first, cur, k), the probability that letter k is 0
    given the first letter and letter k - 1 = cur, from the held letter's closure
    weight."""
    p = ((m.p00, m.p01), (m.p10, m.p11))
    lam = 1.0 - m.p01 - m.p10
    g = np.concatenate(([0.0], np.cumsum(lam ** np.arange(n_sites)))).tolist()
    tr = 1.0 + lam**n_sites
    d = [[p[a][first] - (a == first) for a in (0, 1)] for first in (0, 1)]

    def zero_after(first: int, cur: int, k: int) -> float:
        j = n_sites - k + 1
        return (p[cur][0] * ((first == 0) + g[j - 1] * d[first][0])
                / ((cur == first) + g[j] * d[first][cur]))

    return (1.0 + g[n_sites] * (m.p00 - 1.0)) / tr, zero_after


def _reference_ring_word(m: MarkovMatrix, n_sites: int, rng: np.random.Generator) -> str:
    """The per-site sampler: one conditional draw per letter, from _loop_law.
    ``sample_ring_word`` must give its words bit for bit."""
    first_zero, zero_after = _loop_law(m, n_sites)
    u = rng.random(n_sites).tolist()
    first = int(u[0] >= first_zero)
    letters = [first]
    cur = first
    for k in range(1, n_sites):
        cur = int(u[k] >= zero_after(first, cur, k))
        letters.append(cur)
    return "".join("01"[b] for b in letters)


ORACLE_MATRICES = {
    "p < 1": build_invariant_matrix(0.3, 0.6),
    "p = 1 sparse": build_invariant_matrix(0.25, 1.0),
    "p = 1 dense": build_invariant_matrix(0.75, 1.0),
    "bernoulli(0)": MarkovMatrix.bernoulli(0.0),
    "bernoulli(0.4)": MarkovMatrix.bernoulli(0.4),
    "bernoulli(1)": MarkovMatrix.bernoulli(1.0),
    "identity": MarkovMatrix(1.0, 0.0, 0.0, 1.0),
    "swap": MarkovMatrix(0.0, 1.0, 1.0, 0.0),
    "near identity": MarkovMatrix(1 - 1e-12, 1e-12, 1e-12, 1 - 1e-12),
}


class TestSampleRingWord:
    @pytest.mark.parametrize("m", [build_invariant_matrix(0.5, 0.5), *ORACLE_MATRICES.values()],
                             ids=["p = 1/2", *ORACLE_MATRICES.keys()])
    def test_exhaustive_cyclic_weights_match_the_per_site_law(self, m):
        """Every 4-site word: the per-site loop's law, the product of its conditional
        probabilities, is the cyclic weight prod_i P[w_i, w_{i+1 mod 4}] normalized.
        TestSampleRingWordOracle pins the sampler to that loop bit for bit."""
        p = m.matrix()
        weights = {}
        for bits in itertools.product((0, 1), repeat=4):
            w = 1.0
            for i in range(4):
                w *= p[bits[i], bits[(i + 1) % 4]]
            weights[bits] = w
        total = sum(weights.values())
        first_zero, zero_after = _loop_law(m, 4)
        laws = {}
        for bits, w in weights.items():
            law = first_zero if bits[0] == 0 else 1.0 - first_zero
            for k in range(1, 4):
                if law == 0.0:
                    break  # an impossible prefix; its conditionals may divide by zero
                zero = zero_after(bits[0], bits[k - 1], k)
                law *= zero if bits[k] == 0 else 1.0 - zero
            laws[bits] = law
            assert abs(law - w / total) <= 1e-12, bits
        assert abs(sum(laws.values()) - 1.0) <= 1e-12

    def test_deterministic_family_never_emits_a_blocked_pair(self):
        m = MarkovMatrix.from_rows([[2 / 3, 1 / 3], [1.0, 0.0]])
        for seed in range(50):
            word = sample_ring_word(m, 17, seed)
            assert "11" not in word + word[0]

    def test_letter_frequency_tracks_density(self):
        m = build_invariant_matrix(0.3, 0.6)
        rng = np.random.default_rng(7)
        n, draws = 64, 400
        ones = sum(sample_ring_word(m, n, rng).count("1") for _ in range(draws))
        freq = ones / (n * draws)
        se = math.sqrt(0.3 * 0.7 / (n * draws))  # crude independent-letter scale
        assert abs(freq - 0.3) <= 4 * se + 1 / n

    def test_degenerate_matrix_rejected(self):
        checker = MarkovMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            sample_ring_word(checker, 5, 0)  # odd ring has no admissible word


class TestSampleRingWordOracle:
    """The whole-array sampler against the per-site loop: the same word and the same
    generator state afterwards, on both sides of every chunk boundary."""

    @pytest.mark.parametrize("m", ORACLE_MATRICES.values(), ids=ORACLE_MATRICES.keys())
    def test_words_equal_the_per_site_loop(self, m):
        sizes = [(n, seed) for n in range(2, 41) for seed in range(3)]
        sizes += [(n, seed) for n in (4095, 4096, 4097, 4098, 8193) for seed in (0, 1)]
        sizes += [(10**5, 3)]
        for n, seed in sizes:
            if m == ORACLE_MATRICES["swap"] and n % 2:
                continue  # no cyclic word of odd length has positive weight
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_ring_word(m, n, rng) == _reference_ring_word(m, n, ref_rng), (n, seed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, seed)

    def test_swap_at_odd_length_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            sample_ring_word(ORACLE_MATRICES["swap"], 9, 0)


# 2001 values spread over (-1, 1), then the edges: 0, +-1, +-1e-300, +-(1 - 1e-6)
CLOSURE_LAMBDAS = np.linspace(-1.0, 1.0, 2003)[1:-1].tolist() + [
    0.0, 1.0, -1.0, 1e-300, -1e-300, 1 - 1e-6, -(1 - 1e-6)]


class TestClosureSums:
    """The closure table that stops taking powers against the full expression."""

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 4097, 10**5])
    def test_table_equals_the_full_expression(self, n):
        # at 10^5 sites a power costs about 9 ms, so every 16th value and the edges
        lams = CLOSURE_LAMBDAS if n < 10**5 else CLOSURE_LAMBDAS[::16] + CLOSURE_LAMBDAS[-7:]
        for lam in lams:
            full = np.concatenate(([0.0], np.cumsum(lam ** np.arange(n))))
            assert _closure_sums(lam, n).tobytes() == full.tobytes(), (lam, n)


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [10.5, 8.0, True, 1, "8"])
    def test_sample_ring_word_sites(self, bad):
        with pytest.raises(ValueError, match="n_sites"):
            sample_ring_word(build_invariant_matrix(0.3, 0.6), bad, 0)

    @pytest.mark.parametrize("bad", [8.0, True, 0, 13])
    def test_table_length(self, bad):
        with pytest.raises(ValueError, match="1..12"):
            markov_automaton(build_invariant_matrix(0.3, 0.6)).table(bad)

    @pytest.mark.parametrize("bad", [4.0, True, 0, 25])
    def test_periodic_points_period(self, bad):
        with pytest.raises(ValueError, match="period"):
            periodic_points(TransitionStructure.no_adjacent_ones(), bad)

    def test_numpy_integers_are_integers(self):
        m = build_invariant_matrix(0.3, 0.6)
        assert sample_ring_word(m, np.int64(40), 3) == sample_ring_word(m, 40, 3)
        ts = TransitionStructure.no_adjacent_ones()
        assert periodic_points(ts, np.int32(6)) == periodic_points(ts, 6)


class TestParry:
    def test_sparse_shift(self):
        m = parry_matrix(TransitionStructure.no_adjacent_ones())
        assert m.p00 == pytest.approx(1 / LAMBDA, abs=1e-12)
        assert m.p01 == pytest.approx(1 / LAMBDA**2, abs=1e-12)
        assert m.p10 == pytest.approx(1.0, abs=1e-12)
        assert m.p11 == pytest.approx(0.0, abs=1e-12)

    def test_dense_shift_is_the_letter_flip(self):
        m = parry_matrix(TransitionStructure.no_adjacent_zeros())
        assert m.p00 == pytest.approx(0.0, abs=1e-12)
        assert m.p01 == pytest.approx(1.0, abs=1e-12)
        assert m.p10 == pytest.approx(1 / LAMBDA**2, abs=1e-12)  # ~0.381966
        assert m.p11 == pytest.approx(1 / LAMBDA, abs=1e-12)  # ~0.618034

    def test_full_shift_is_fair(self):
        ts = TransitionStructure.full_shift()
        m = parry_matrix(ts)
        assert (m.p00, m.p01, m.p10, m.p11) == pytest.approx((0.5,) * 4)
        assert ts.entropy == pytest.approx(math.log(2))

    def test_eigendata(self):
        ts = TransitionStructure.no_adjacent_ones()
        assert ts.eigenvalue == pytest.approx(LAMBDA, abs=1e-12)
        assert np.allclose(ts.matrix @ ts.eigenvector, ts.eigenvalue * ts.eigenvector, atol=1e-12)
        assert ts.eigenvector.sum() == pytest.approx(1.0)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            TransitionStructure([[1, 1], [0, 1]])


class TestPeriodicPoints:
    def test_period_four_enumeration(self):
        ts = TransitionStructure.no_adjacent_ones()
        points = periodic_points(ts, 4)
        assert set(points) == {"0000", "0001", "0010", "0100", "1000", "0101", "1010"}
        assert periodic_point_count(ts, 4) == 7

    def test_period_one(self):
        ts = TransitionStructure.no_adjacent_ones()
        assert periodic_points(ts, 1) == ["0"]

    def test_lucas_count_at_five(self):
        assert periodic_point_count(TransitionStructure.no_adjacent_ones(), 5) == 11

    def test_enumeration_matches_trace(self):
        # lengths 1..16 cover the plain extension and the head x tail split
        words = {n: ["".join(bits) for bits in itertools.product("01", repeat=n)]
                 for n in range(1, 17)}
        for ts in (TransitionStructure.no_adjacent_ones(), TransitionStructure.no_adjacent_zeros(),
                   TransitionStructure.full_shift()):
            forbidden = [f"{a}{b}" for a in (0, 1) for b in (0, 1) if not ts.matrix[a, b]]
            for n, candidates in words.items():
                brute = [w for w in candidates if not any(f in w + w[0] for f in forbidden)]
                points = periodic_points(ts, n)
                assert points == brute, (ts.matrix.tolist(), n)
                assert len(points) == periodic_point_count(ts, n)
        assert list(all_words(16)) == [w for n in range(1, 17) for w in words[n]]

    def test_range_guard(self):
        with pytest.raises(ValueError):
            periodic_points(TransitionStructure.no_adjacent_ones(), 25)


class TestPeriodicPointCount:
    def test_lucas_and_powers_of_two_in_exact_integers(self):
        lucas = [1, 3]
        while len(lucas) < 200:
            lucas.append(lucas[-1] + lucas[-2])
        for n in range(1, 201):
            assert periodic_point_count(TransitionStructure.no_adjacent_ones(), n) == lucas[n - 1]
            assert periodic_point_count(TransitionStructure.no_adjacent_zeros(), n) == lucas[n - 1]
            assert periodic_point_count(TransitionStructure.full_shift(), n) == 2**n

    def test_count_is_the_enumeration_length(self):
        for ts in (TransitionStructure.no_adjacent_ones(), TransitionStructure.no_adjacent_zeros(),
                   TransitionStructure.full_shift()):
            for n in range(1, 21):
                assert periodic_point_count(ts, n) == sum(1 for _ in _periodic_words(ts, n))
        for n in range(1, 21):
            ts = TransitionStructure.no_adjacent_ones()
            assert periodic_point_count(ts, n) == len(periodic_points(ts, n))

    @pytest.mark.parametrize("bad", [0, -3, 2.0, True, "5"])
    def test_bad_period_rejected(self, bad):
        with pytest.raises(ValueError, match="period"):
            periodic_point_count(TransitionStructure.no_adjacent_ones(), bad)


class TestEmpiricalFrequency:
    def test_letter_frequency_period_four(self):
        points = periodic_points(TransitionStructure.no_adjacent_ones(), 4)
        # 7 words, 8 ones among 28 letter slots
        assert empirical_cylinder_frequency(points, "1") == pytest.approx(8 / 28)

    def test_forbidden_word(self):
        points = periodic_points(TransitionStructure.no_adjacent_ones(), 6)
        assert empirical_cylinder_frequency(points, "11") == 0.0

    def test_converges_to_parry_mass(self):
        ts = TransitionStructure.no_adjacent_ones()
        points = periodic_points(ts, 14)
        target = 1 - LAMBDA / math.sqrt(5)
        assert abs(empirical_cylinder_frequency(points, "1") - target) < 0.05

    def test_cylinder_longer_than_period_rejected(self):
        with pytest.raises(ValueError):
            empirical_cylinder_frequency(["01", "10"], "010")


class TestSampleRingConfiguration:
    def test_unit_jump_hard_core_roundtrip_density(self):
        cfg = sample_ring_configuration(0.4, 0.6, v=1.0, r=0.5, n_sites=400, seed=3)
        assert cfg.is_lattice
        assert cfg.uniform_radius == 0.5
        assert float(cfg.circumference) == 400
        assert abs(density(cfg) - 0.4) < 0.1

    def test_transported_geometry_is_exact(self):
        # lattice sites -> point particles -> jump v -> radius r keeps the
        # target density relation L = N/rho exactly up to the sampled count
        cfg = sample_ring_configuration(0.25, 0.5, v=2.0, r=0.25, n_sites=600, seed=9)
        assert cfg.uniform_radius == 0.25
        assert density(cfg) == pytest.approx(cfg.n / cfg.circumference)
        rho = density(cfg)
        assert 2 * 0.25 * rho < 1
        g = gaps(cfg)
        assert g.min() >= 0

    def test_offset_randomization_shifts_sublattice(self):
        a = sample_ring_configuration(0.3, 0.7, v=2.0, n_sites=50, seed=11)
        b = sample_ring_configuration(0.3, 0.7, v=2.0, n_sites=50, seed=11, randomize_offset=True)
        resid_a = np.mod(a.positions, 2.0)
        assert np.allclose(resid_a, 0.0)
        resid_b = np.mod(b.positions, 2.0)
        assert np.allclose(resid_b, resid_b[0])
        assert resid_b[0] != 0.0

    def test_word_decode_matches_encoding(self):
        m = build_invariant_matrix(0.5, 0.5)
        word = sample_ring_word(m, 30, 5)
        cfg = decode_word(word)
        assert cfg.n == word.count("1")


def test_exact_layer_imports_nothing_of_the_simulator():
    src = Path(tasep.__file__).parent
    for name in ("measures.py", "invariance.py"):
        tree = ast.parse((src / name).read_text())
        modules = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert modules <= {"configuration", "measures", "_rows"}, (name, modules)
