"""Exact one-step pushforward of translation-invariant Markov measures under
the synchronous unit-jump hard-core lattice update, and stationarity verdicts.

The image measure of a length-n cylinder is a finite sum over occupancy
windows of n+2 sites (one site of context on each end) and over the Bernoulli
coins of the particles in the window: after one step a site is occupied iff
its particle was blocked or its coin failed, or the left neighbor's particle
moved in.  The sum is evaluated by a weighted automaton that scans the window
left to right; its state is the (occupancy, coin) content of the last two
sites, so the whole computation is O(n) per cylinder instead of
O(4^n) and verifying all cylinders up to length 12 stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import IO, Callable, Union

from .measures import MarkovMatrix, all_words, cylinder_measure, validate_word

__all__ = [
    "CylinderComparison",
    "MarkovIdentityReport",
    "PushforwardReport",
    "markov_identity_check",
    "one_step_cylinder_pushforward",
    "verify_invariance",
    "write_pushforward_csv",
]

MeasureLike = Union[MarkovMatrix, Callable[[str], float]]

# Site states of the scanning automaton: empty, occupied with a winning coin,
# occupied with a losing coin.
_EMPTY, _HEADS, _TAILS = 0, 1, 2
_STATES = (_EMPTY, _HEADS, _TAILS)


def _occupied(s: int) -> int:
    return 1 if s != _EMPTY else 0


def _post_letter(s_left: int, s_here: int, occ_right: int) -> int:
    """Occupancy of a site after the step, from its window neighborhood."""
    if s_here != _EMPTY:
        return 1 if (occ_right or s_here == _TAILS) else 0
    return 1 if s_left == _HEADS else 0


def one_step_cylinder_pushforward(m: MarkovMatrix, word: str, p: float) -> float:
    """Measure of the cylinder ``word`` after one synchronous step.

    ``m`` supplies the pre-step measure through its stationary vector and
    transition products; ``p`` is the movement probability of the step.
    """
    validate_word(word)
    if not 0 < p <= 1:
        raise ValueError(f"movement probability p={p} outside (0, 1]")
    target = [int(ch) for ch in word]
    n = len(target)
    trans = m.matrix()
    pi = m.stationary
    coin_w = {_EMPTY: 1.0, _HEADS: p, _TAILS: 1.0 - p}

    # weights over the (previous site, current site) automaton state
    weights: dict[tuple[int, int], float] = {}
    for s0, s1 in product(_STATES, repeat=2):
        w = pi[_occupied(s0)] * coin_w[s0] * trans[_occupied(s0), _occupied(s1)] * coin_w[s1]
        if w:
            weights[(s0, s1)] = weights.get((s0, s1), 0.0) + w
    for emit in target:
        new_weights: dict[tuple[int, int], float] = {}
        for (s_prev, s_cur), w in weights.items():
            for s_next in _STATES:
                if _post_letter(s_prev, s_cur, _occupied(s_next)) != emit:
                    continue
                wn = w * trans[_occupied(s_cur), _occupied(s_next)] * coin_w[s_next]
                if wn:
                    key = (s_cur, s_next)
                    new_weights[key] = new_weights.get(key, 0.0) + wn
        weights = new_weights
    return float(sum(weights.values()))


@dataclass(frozen=True)
class CylinderComparison:
    word: str
    mu: float
    mu_pushed: float

    @property
    def abs_err(self) -> float:
        return abs(self.mu_pushed - self.mu)


@dataclass(frozen=True)
class PushforwardReport:
    """Per-cylinder measure vs image measure, with a stationarity verdict."""

    max_length: int
    tolerance: float
    rows: tuple[CylinderComparison, ...]
    max_abs_error: float
    stationary: bool


def verify_invariance(
    m: MarkovMatrix, p: float, max_length: int, tol: float = 1e-10
) -> PushforwardReport:
    """Compare mu and its one-step image on every cylinder up to max_length."""
    if not 1 <= max_length <= 12:
        raise ValueError("max_length must lie in 1..12")
    rows = []
    worst = 0.0
    for word in all_words(max_length):
        mu = cylinder_measure(m, word)
        pushed = one_step_cylinder_pushforward(m, word, p)
        rows.append(CylinderComparison(word, mu, pushed))
        worst = max(worst, abs(pushed - mu))
    return PushforwardReport(
        max_length=max_length,
        tolerance=tol,
        rows=tuple(rows),
        max_abs_error=worst,
        stationary=worst <= tol,
    )


def write_pushforward_csv(report: PushforwardReport, stream: IO[str]) -> None:
    stream.write("cylinder,mu,mu_pushed,abs_err\n")
    for row in report.rows:
        stream.write(
            f"{row.word},{float(row.mu):.17g},{float(row.mu_pushed):.17g},"
            f"{float(row.abs_err):.3g}\n"
        )
    verdict = "stationary" if report.stationary else "non-stationary"
    stream.write(f"# max_abs_error={report.max_abs_error:.3g} verdict={verdict}\n")


def _as_evaluator(measure: MeasureLike) -> Callable[[str], float]:
    if isinstance(measure, MarkovMatrix):
        return lambda word: cylinder_measure(measure, word)
    return measure


@dataclass(frozen=True)
class MarkovIdentityReport:
    """Residuals of mu([b]) mu([AbC]) = mu([Ab]) mu([bC]) over short contexts."""

    max_abs_residual: float
    worst_triple: tuple[str, str, str]
    n_checked: int

    @property
    def is_markov(self) -> bool:
        return self.max_abs_residual <= 1e-12


def markov_identity_check(measure: MeasureLike, max_context: int = 3) -> MarkovIdentityReport:
    """Test the conditional-independence identity on all contexts up to max_context."""
    ev = _as_evaluator(measure)
    contexts = [""] + list(all_words(max_context))
    worst = 0.0
    worst_triple = ("", "", "")
    checked = 0
    for b in "01":
        mu_b = ev(b)
        for a in contexts:
            mu_ab = ev(a + b)
            for c in contexts:
                lhs = mu_b * ev(a + b + c)
                rhs = mu_ab * ev(b + c)
                checked += 1
                resid = abs(lhs - rhs)
                if resid > worst:
                    worst = resid
                    worst_triple = (a, b, c)
    return MarkovIdentityReport(worst, worst_triple, checked)
