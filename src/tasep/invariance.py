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
from itertools import islice, product
from operator import attrgetter
from typing import IO, Callable, NamedTuple

import numpy as np

from ._rows import write_rows
from .configuration import _integer, _nonnegative, _probability
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
    transition and coin, when site s1 holds e after the step.  The matrix keeps
    the automaton of each p it is asked for; p is checked on every call.
    """
    image = m._images.get(_probability("p", p))
    if image is not None:
        return image
    occ, coin = (0, 1, 1), (1.0, p, 1.0 - p)
    trans, pi = m.matrix(), m.stationary
    initial, transfer = np.zeros(9), np.zeros((9, 2, 9))
    for s0, s1 in product(range(3), repeat=2):
        initial[3 * s0 + s1] = pi[occ[s0]] * coin[s0] * trans[occ[s0], occ[s1]] * coin[s1]
        for s2 in range(3):
            e = _post_letter(s0, s1, occ[s2])
            transfer[3 * s0 + s1, e, 3 * s1 + s2] = trans[occ[s1], occ[s2]] * coin[s2]
    image = m._images[p] = WeightedAutomaton(initial, transfer)
    return image


def one_step_cylinder_pushforward(m: MarkovMatrix, word: str, p: float) -> float:
    """Measure of the cylinder ``word`` after one synchronous step.

    ``m`` supplies the pre-step measure through its stationary vector and
    transition products; ``p`` is the movement probability of the step.
    """
    return _image_automaton(m, p).weight(word)


class CylinderComparison(NamedTuple):
    """One cylinder's measure and its one-step image measure.  A report holds
    up to 8190 rows, and a named tuple builds in under half the time of a
    frozen dataclass."""

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
    """Compare mu and its one-step image on every cylinder up to max_length;
    the measure is stationary when no cylinder differs by more than ``tol``,
    a finite tolerance of at least 0."""
    _nonnegative("tolerance tol", tol)
    mu = markov_automaton(m).table(max_length)
    pushed = _image_automaton(m, p).table(max_length)
    rows = tuple(map(CylinderComparison._make,
                     zip(all_words(max_length), mu.tolist(), pushed.tolist())))
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
    lies in 1..5.  Either kind of measure is read from one table of those words
    in ``all_words`` order: a MarkovMatrix's automaton table, or the callable
    called once per word, whose values must be finite and lie in [0, 1].  The
    triples (A, b, C) run over b, then A, then C, with contexts "" and then
    ``all_words(max_context)``; each word's table index comes from its length
    and binary value, so every residual is one array expression, and the worst
    triple is the first largest.
    """
    k = _integer("max_context", max_context, 1, 6)
    n = 2 * k + 1
    if isinstance(measure, MarkovMatrix):
        table = markov_automaton(measure).table(n)
    else:
        table = np.fromiter(map(measure, all_words(n)), np.float64, 2 ** (n + 1) - 2)
        bad = ~((table >= 0) & (table <= 1))
        if bad.any():
            i = int(bad.argmax())
            word = next(islice(all_words(n), i, None))
            raise ValueError(f"measure of {word!r} is {float(table[i])!r}, "
                             "not a probability in [0, 1]")
    # the word of length l and value v sits at 2^l - 2 + v in the table, and context i
    # ("" first) has length l and value i + 1 - 2^l; b, A and C run along axes 0, 1, 2
    length = np.repeat(np.arange(k + 1), 1 << np.arange(k + 1))
    value = np.arange(len(length)) + 1 - (1 << length)
    la, va, b = length[:, None], value[:, None], np.arange(2)[:, None, None]
    v_bc = (b << length) + value
    i_abc = (2 << (la + length)) - 2 + (va << (1 + length)) + v_bc
    i_ab = (2 << la) - 2 + 2 * va + b
    i_bc = (2 << length) - 2 + v_bc
    resid = np.abs(table[b] * table[i_abc] - table[i_ab] * table[i_bc])
    w = np.unravel_index(resid.argmax(), resid.shape)  # the first largest
    if not resid[w]:
        return MarkovIdentityReport(0.0, ("", "", ""), resid.size)
    contexts = ["", *all_words(k)]
    triple = (contexts[w[1]], "01"[w[0]], contexts[w[2]])
    return MarkovIdentityReport(float(resid[w]), triple, resid.size)
