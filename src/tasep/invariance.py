"""Exact one-step pushforward of translation-invariant Markov measures under
the synchronous unit-jump hard-core lattice update, and stationarity verdicts.

The image measure of a length-n cylinder is a finite sum over occupancy
windows of n+2 sites (one site of context on each end) and over the Bernoulli
coins of the particles in the window: after one step a site is occupied iff
its particle was blocked or its coin failed, or the left neighbor's particle
moved in.  The sum is a weighted automaton whose state is the (occupancy,
coin) content of the last two window sites, so one table pass of it and of
the measure's own automaton compares all cylinders up to length 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import IO, Callable

import numpy as np

from ._rows import write_rows
from .measures import MarkovMatrix, WeightedAutomaton, all_words, markov_automaton

__all__ = [
    "CylinderComparison",
    "MarkovIdentityReport",
    "PushforwardReport",
    "markov_identity_check",
    "one_step_cylinder_pushforward",
    "verify_invariance",
    "write_pushforward_csv",
]

# Site states of the image automaton: empty, occupied with a winning coin,
# occupied with a losing coin.
_EMPTY, _HEADS, _TAILS = 0, 1, 2


def _post_letter(s_left: int, s_here: int, occ_right: int) -> int:
    """Occupancy of a site after the step, from its window neighborhood."""
    if s_here != _EMPTY:
        return 1 if (occ_right or s_here == _TAILS) else 0
    return 1 if s_left == _HEADS else 0


def _image_automaton(m: MarkovMatrix, p: float) -> WeightedAutomaton:
    """The measure's one-step image; state 3*s0 + s1 holds the last two sites.

    Reading letter e moves (s0, s1) to (s1, s2), weighted by the new site's
    transition and coin, when site s1 holds e after the step.
    """
    if not 0 < p <= 1:
        raise ValueError(f"movement probability p={p} outside (0, 1]")
    occ, coin = (0, 1, 1), (1.0, p, 1.0 - p)
    trans, pi = m.matrix(), m.stationary
    initial, transfer = np.zeros(9), np.zeros((9, 2, 9))
    for s0, s1 in product(range(3), repeat=2):
        initial[3 * s0 + s1] = pi[occ[s0]] * coin[s0] * trans[occ[s0], occ[s1]] * coin[s1]
        for s2 in range(3):
            e = _post_letter(s0, s1, occ[s2])
            transfer[3 * s0 + s1, e, 3 * s1 + s2] = trans[occ[s1], occ[s2]] * coin[s2]
    return WeightedAutomaton(initial, transfer)


def one_step_cylinder_pushforward(m: MarkovMatrix, word: str, p: float) -> float:
    """Measure of the cylinder ``word`` after one synchronous step.

    ``m`` supplies the pre-step measure through its stationary vector and
    transition products; ``p`` is the movement probability of the step.
    """
    return _image_automaton(m, p).weight(word)


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
    """Per-cylinder measure vs image measure, with a stationarity verdict;
    ``worst_word`` is the first cylinder whose error is ``max_abs_error``."""

    max_length: int
    tolerance: float
    rows: tuple[CylinderComparison, ...]
    max_abs_error: float
    stationary: bool
    worst_word: str


def verify_invariance(
    m: MarkovMatrix, p: float, max_length: int, tol: float = 1e-10
) -> PushforwardReport:
    """Compare mu and its one-step image on every cylinder up to max_length."""
    mu = markov_automaton(m).table(max_length)
    pushed = _image_automaton(m, p).table(max_length)
    rows = tuple(map(CylinderComparison, all_words(max_length), mu.tolist(), pushed.tolist()))
    err = np.abs(pushed - mu)
    k = int(err.argmax())  # the first largest
    worst = float(err[k])
    return PushforwardReport(max_length, tol, rows, worst, worst <= tol, rows[k].word)


def write_pushforward_csv(report: PushforwardReport, stream: IO[str]) -> None:
    stream.write("cylinder,mu,mu_pushed,abs_err\n")
    write_rows(stream, "%s,%.17g,%.17g,%.3g\n",
               map(attrgetter("word", "mu", "mu_pushed", "abs_err"), report.rows))
    verdict = "stationary" if report.stationary else "non-stationary"
    stream.write(f"# max_abs_error={report.max_abs_error:.3g} verdict={verdict}\n")


@dataclass(frozen=True)
class MarkovIdentityReport:
    """Residuals of mu([b]) mu([AbC]) = mu([Ab]) mu([bC]) over short contexts."""

    max_abs_residual: float
    worst_triple: tuple[str, str, str]
    n_checked: int

    @property
    def is_markov(self) -> bool:
        return self.max_abs_residual <= 1e-12


def markov_identity_check(
    measure: MarkovMatrix | Callable[[str], float], max_context: int = 3
) -> MarkovIdentityReport:
    """Test the conditional-independence identity on all contexts up to max_context.

    The identity reads words of up to 2*max_context + 1 letters, so max_context
    lies in 1..5; a MarkovMatrix is read from one table of those words.
    """
    if not 1 <= max_context <= 5:
        raise ValueError(f"max_context must lie in 1..5, got {max_context}")
    ev = measure
    if isinstance(measure, MarkovMatrix):
        n = 2 * max_context + 1
        ev = dict(zip(all_words(n), markov_automaton(measure).table(n).tolist())).__getitem__
    contexts = [""] + list(all_words(max_context))
    triples = [(a, b, c) for b in "01" for a in contexts for c in contexts]
    resid = [abs(ev(b) * ev(a + b + c) - ev(a + b) * ev(b + c)) for a, b, c in triples]
    k = max(range(len(triples)), key=resid.__getitem__)  # the first largest
    return MarkovIdentityReport(resid[k], triples[k] if resid[k] else ("", "", ""), len(triples))
