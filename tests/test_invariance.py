"""Exact pushforward verification, cross-checked against a brute-force oracle.

The oracle below enumerates every occupancy window and every coin assignment
explicitly and never shares code with the production automaton.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np
import pytest

from tasep import (
    MarkovMatrix,
    build_invariant_matrix,
    cylinder_measure,
    markov_identity_check,
    one_step_cylinder_pushforward,
    parry_matrix,
    verify_invariance,
)
from tasep.invariance import CylinderComparison, _image_automaton, write_pushforward_csv
from tasep.measures import TransitionStructure, markov_automaton


def _post_letter(window, k, coins):
    stays = window[k] == 1 and (window[k + 1] == 1 or coins[k] == 0)
    arrives = window[k - 1] == 1 and window[k] == 0 and coins[k - 1] == 1
    return 1 if (stays or arrives) else 0


def pushforward_oracle(measure_fn, word, p):
    """Sum over all length-(n+2) windows and all coins of the window particles."""
    n = len(word)
    target = tuple(int(ch) for ch in word)
    total = 0.0
    for window in itertools.product((0, 1), repeat=n + 2):
        mu = measure_fn("".join(map(str, window)))
        if mu == 0.0:
            continue
        # the last window site's coin cannot influence sites 1..n
        coin_sites = [k for k in range(n + 1) if window[k] == 1]
        for bits in itertools.product((0, 1), repeat=len(coin_sites)):
            coins = [0] * (n + 2)
            prob = 1.0
            for site, bit in zip(coin_sites, bits):
                coins[site] = bit
                prob *= p if bit else 1.0 - p
            post = tuple(_post_letter(window, k, coins) for k in range(1, n + 1))
            if post == target:
                total += mu * prob
    return total


def all_words(max_len):
    for n in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


MATRICES = [
    (build_invariant_matrix(0.2, 0.3), 0.3),
    (build_invariant_matrix(0.5, 0.5), 0.5),
    (build_invariant_matrix(0.8, 0.7), 0.7),
    (build_invariant_matrix(0.25, 1.0), 1.0),
    (build_invariant_matrix(0.75, 1.0), 1.0),
    (MarkovMatrix.bernoulli(0.5), 0.5),
    (MarkovMatrix.from_rows([[0.7, 0.3], [0.6, 0.4]]), 0.45),  # off the manifold
]


class TestPushforwardAgainstOracle:
    @pytest.mark.parametrize("case", range(len(MATRICES)))
    def test_matches_bruteforce(self, case):
        m, p = MATRICES[case]
        ev = lambda w: cylinder_measure(m, w)
        for word in all_words(4):
            fast = one_step_cylinder_pushforward(m, word, p)
            slow = pushforward_oracle(ev, word, p)
            assert fast == pytest.approx(slow, abs=1e-14)

    def test_single_site_identity(self):
        # mu'([1]) = p1 (p11 + (1-p) p10 + p p10) = p1 for every stochastic matrix
        for m, p in MATRICES:
            p1 = m.stationary[1]
            assert one_step_cylinder_pushforward(m, "1", p) == pytest.approx(p1, abs=1e-14)

    def test_invariant_point_word_10(self):
        m = build_invariant_matrix(0.5, 0.5)
        mu = cylinder_measure(m, "10")
        assert mu == pytest.approx(0.2928932188134524, abs=1e-12)
        assert one_step_cylinder_pushforward(m, "10", 0.5) == pytest.approx(mu, abs=1e-12)

    def test_product_measure_is_not_stationary(self):
        m = MarkovMatrix.bernoulli(0.5)
        pushed = one_step_cylinder_pushforward(m, "11", 0.5)
        assert pushed == pytest.approx(15 / 64, abs=1e-15)
        assert cylinder_measure(m, "11") == pytest.approx(1 / 4, abs=1e-15)

    def test_mass_conservation(self):
        for m, p in MATRICES:
            for n in range(1, 7):
                total = sum(
                    one_step_cylinder_pushforward(m, "".join(bits), p)
                    for bits in itertools.product("01", repeat=n)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_refinement_consistency(self):
        m, p = build_invariant_matrix(0.4, 0.6), 0.6
        mm = MarkovMatrix.from_rows([[0.55, 0.45], [0.25, 0.75]])
        for mat, prob in ((m, p), (mm, 0.35)):
            for word in all_words(5):
                parent = one_step_cylinder_pushforward(mat, word, prob)
                split = sum(
                    one_step_cylinder_pushforward(mat, word + b, prob) for b in "01"
                )
                assert split == pytest.approx(parent, abs=1e-12)

    def test_translation_covariance(self):
        # extending the base on the left and marginalizing changes nothing
        m, p = build_invariant_matrix(0.6, 0.45), 0.45
        for word in all_words(4):
            left = sum(one_step_cylinder_pushforward(m, b + word, p) for b in "01")
            assert left == pytest.approx(one_step_cylinder_pushforward(m, word, p), abs=1e-12)


class TestCylinderTable:
    @pytest.mark.parametrize("case", range(len(MATRICES)))
    def test_single_word_equals_its_table_entry(self, case):
        # both automata, bit for bit: each word alone and all words in one table
        m, p = MATRICES[case]
        for row in verify_invariance(m, p, 8).rows:
            assert cylinder_measure(m, row.word) == row.mu
            assert one_step_cylinder_pushforward(m, row.word, p) == row.mu_pushed

    def test_tables_equal_the_state_order_loop(self):
        # the reference adds each state's term in turn, in state order, with elementwise
        # products and sums only; a numpy change to its reduction order fails here
        def loop_table(a, n):
            both = a.transfer.reshape(len(a.initial), -1)
            rows, out = a.initial[None], []
            for _ in range(n):
                level = rows[:, :1] * both[0]
                for j in range(1, len(both)):
                    level += rows[:, j : j + 1] * both[j]
                rows = level.reshape(-1, len(a.initial))
                out.append(sum(rows.T))
            return np.concatenate(out)

        rng = np.random.default_rng(25)
        for k in range(100):
            rho, p = rng.uniform(0.02, 0.98), 1.0 if k % 10 == 0 else rng.uniform(0.02, 1)
            m = build_invariant_matrix(rho, p)
            for a in (markov_automaton(m), _image_automaton(m, p)):
                want = loop_table(a, 10)
                for n in range(1, 11):
                    assert a.table(n).tobytes() == want[: 2 ** (n + 1) - 2].tobytes(), (rho, p, n)

    @pytest.mark.parametrize("case", range(len(MATRICES)))
    def test_repeat_calls_keep_their_bits(self, case):
        # each matrix builds its automata once; a repeat call and a fresh equal matrix
        # give the same bits, and a bad p still raises on every call
        m, p = MATRICES[case]
        fresh = MarkovMatrix(m.p00, m.p01, m.p10, m.p11, m.movement_p)
        for word in ("0", "1", "10", "0110", "1011001"):
            first = (cylinder_measure(m, word), one_step_cylinder_pushforward(m, word, p))
            assert (cylinder_measure(m, word), one_step_cylinder_pushforward(m, word, p)) == first
            assert (cylinder_measure(fresh, word),
                    one_step_cylinder_pushforward(fresh, word, p)) == first
        assert markov_automaton(m) is markov_automaton(m)
        assert _image_automaton(m, p) is _image_automaton(m, p)
        assert _image_automaton(m, 0.25) is not _image_automaton(m, p)
        for _ in range(2):
            with pytest.raises(ValueError, match="movement probability"):
                one_step_cylinder_pushforward(m, "10", 1.5)


class TestReportValues:
    def test_cylinder_comparison_surface(self):
        row = CylinderComparison("011", 0.25, 0.75)
        assert CylinderComparison._fields == ("word", "mu", "mu_pushed")
        assert (row.word, row.mu, row.mu_pushed) == tuple(row) == ("011", 0.25, 0.75)
        assert row.abs_err == 0.5
        with pytest.raises(AttributeError):
            row.mu = 0.5
        assert row == CylinderComparison("011", 0.25, 0.75)
        assert hash(row) == hash(CylinderComparison("011", 0.25, 0.75))

    def test_reports_compare_by_value(self):
        m = build_invariant_matrix(0.4, 0.6)
        report = verify_invariance(m, 0.6, 5)
        assert type(report.rows) is tuple
        assert all(type(row) is CylinderComparison for row in report.rows)
        assert report == verify_invariance(m, 0.6, 5)
        assert report != verify_invariance(m, 0.6, 4)
        assert report != verify_invariance(m, 0.6, 5, tol=1e-3)


class TestVerifyInvariance:
    def test_invariant_family_is_stationary(self):
        for rho in (0.2, 0.5, 0.8):
            for p in (0.3, 0.7):
                report = verify_invariance(build_invariant_matrix(rho, p), p, 6, tol=1e-10)
                assert report.stationary, (rho, p)

    def test_deterministic_families_at_tight_tolerance(self):
        cases = [
            MarkovMatrix.from_rows([[2 / 3, 1 / 3], [1.0, 0.0]]),
            parry_matrix(TransitionStructure.no_adjacent_ones()),
            build_invariant_matrix(0.6, 1.0),
            build_invariant_matrix(0.75, 1.0),
        ]
        for m in cases:
            report = verify_invariance(m, 1.0, 6, tol=1e-12)
            assert report.stationary

    def test_perturbation_off_the_manifold_is_caught(self):
        m = build_invariant_matrix(0.5, 0.5)
        perturbed = MarkovMatrix(m.p00, m.p01, m.p10 - 0.01, m.p11 + 0.01)
        report = verify_invariance(perturbed, 0.5, 4, tol=1e-10)
        assert not report.stationary
        assert report.max_abs_error > 1e-4

    def test_report_shape_and_csv(self):
        report = verify_invariance(build_invariant_matrix(0.5, 0.5), 0.5, 3)
        assert len(report.rows) == 2 + 4 + 8
        buf = io.StringIO()
        write_pushforward_csv(report, buf)
        text = buf.getvalue()
        assert text.startswith("cylinder,mu,mu_pushed,abs_err")
        assert "verdict=stationary" in text

    def test_worst_word_is_the_first_largest_error(self):
        m = build_invariant_matrix(0.5, 0.5)
        perturbed = MarkovMatrix(m.p00, m.p01, m.p10 - 0.01, m.p11 + 0.01)
        for matrix in (perturbed, m, MarkovMatrix.bernoulli(0.5)):
            report = verify_invariance(matrix, 0.5, 5)
            errs = [row.abs_err for row in report.rows]
            assert report.worst_word == report.rows[errs.index(max(errs))].word
            assert report.max_abs_error == max(errs)

    def test_length_guard(self):
        for max_length in (0, 13, 8.0, True):
            with pytest.raises(ValueError):
                verify_invariance(build_invariant_matrix(0.5, 0.5), 0.5, max_length)

    def test_verdict_matches_the_algebraic_identity_on_a_grid(self):
        # both directions of the stationarity criterion at p = 0.5
        p = 0.5
        grid = np.linspace(0.05, 0.95, 20)
        for q01 in grid:
            for q10 in grid:
                m = MarkovMatrix.from_rows([[1 - q01, q01], [q10, 1 - q10]])
                resid = abs(m.p00 * m.p11 - (1 - p) * m.p10 * m.p01)
                verdict = verify_invariance(m, p, 4, tol=1e-9).stationary
                assert verdict == (resid <= 1e-9), (q01, q10, resid)

    def test_on_manifold_points_verify(self):
        # the forward direction on exactly constructed members
        for rho in np.linspace(0.1, 0.9, 9):
            m = build_invariant_matrix(rho, 0.5)
            assert verify_invariance(m, 0.5, 4, tol=1e-9).stationary


def _reference_identity_check(measure, max_context):
    """The per-triple loop: each residual from four word lookups, a MarkovMatrix
    through a dict of its table.  ``markov_identity_check`` must give its report
    bit for bit."""
    ev = measure
    if isinstance(measure, MarkovMatrix):
        n = 2 * max_context + 1
        ev = dict(zip(all_words(n), markov_automaton(measure).table(n).tolist())).__getitem__
    contexts = [""] + list(all_words(max_context))
    triples = [(a, b, c) for b in "01" for a in contexts for c in contexts]
    resid = [abs(ev(b) * ev(a + b + c) - ev(a + b) * ev(b + c)) for a, b, c in triples]
    k = max(range(len(triples)), key=resid.__getitem__)  # the first largest
    return resid[k], triples[k] if resid[k] else ("", "", ""), len(triples)


def _mixture(word):
    def bern(theta):
        out = 1.0
        for ch in word:
            out *= theta if ch == "1" else 1 - theta
        return out

    return 0.5 * bern(0.2) + 0.5 * bern(0.8)


class TestMarkovIdentityOracle:
    """The one-table check against the per-triple loop, at every context length."""

    @pytest.mark.parametrize("max_context", [1, 2, 3, 4, 5])
    def test_reports_equal_the_per_triple_loop(self, max_context):
        rng = np.random.default_rng(max_context)
        measures = [MarkovMatrix.from_rows([[1 - a, a], [b, 1 - b]])
                    for a, b in rng.uniform(0, 1, (100, 2))]
        measures += [build_invariant_matrix(0.3, 0.8), build_invariant_matrix(0.25, 1.0),
                     MarkovMatrix.bernoulli(0.3), _mixture]
        for m in measures:
            report = markov_identity_check(m, max_context)
            got = (report.max_abs_residual, report.worst_triple, report.n_checked)
            assert got == _reference_identity_check(m, max_context), m
            assert type(report.max_abs_residual) is float

    @pytest.mark.parametrize("max_context", [1, 2, 3, 4, 5])
    def test_a_callable_is_called_once_per_word(self, max_context):
        calls = []

        def measure(word):
            calls.append(word)
            return 0.5 ** len(word)

        assert markov_identity_check(measure, max_context).is_markov
        assert calls == list(all_words(2 * max_context + 1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.0, -0.25])
    def test_a_callable_that_is_not_a_measure_is_rejected(self, value):
        # one bad word among good ones, named in the message
        def measure(word):
            return value if word == "0110" else 0.5 ** len(word)

        with pytest.raises(ValueError, match="'0110'"):
            markov_identity_check(measure)

    @pytest.mark.parametrize("max_context", [3.0, True, "3"])
    def test_context_must_be_an_integer(self, max_context):
        with pytest.raises(ValueError, match="1..5"):
            markov_identity_check(build_invariant_matrix(0.3, 0.8), max_context)


class TestMarkovIdentity:
    def test_markov_measures_pass(self):
        report = markov_identity_check(build_invariant_matrix(0.3, 0.8))
        assert report.max_abs_residual <= 1e-12
        assert report.is_markov

    def test_bernoulli_product_passes(self):
        report = markov_identity_check(MarkovMatrix.bernoulli(0.3))
        assert report.max_abs_residual <= 1e-15

    def test_mixture_fails(self):
        assert _mixture("1") * _mixture("111") == pytest.approx(0.13)
        assert _mixture("11") * _mixture("11") == pytest.approx(0.1156)
        report = markov_identity_check(_mixture)
        assert not report.is_markov
        assert report.max_abs_residual >= 0.13 - 0.1156 - 1e-12

    @pytest.mark.parametrize("max_context", [-1, 0, 6])
    def test_context_guard(self, max_context):
        # contexts need one letter; the identity's words reach 2*5 + 1 = 11 letters
        for measure in (build_invariant_matrix(0.3, 0.8), lambda word: 0.5 ** len(word)):
            with pytest.raises(ValueError, match="1..5"):
                markov_identity_check(measure, max_context)
