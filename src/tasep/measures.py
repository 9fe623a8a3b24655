"""Markov measures on binary sequences: the stochastic invariant family, the
maximal-entropy (Parry) family of subshifts, cylinder weights, exact cyclic
sampling and periodic-point enumeration.

Cylinders are plain strings over {0, 1}; the weight of a word a_1...a_n is
stationary(a_1) * prod transition(a_i, a_{i+1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .configuration import (
    Configuration,
    _free_density,
    _integer,
    _positive,
    _probability,
    _Value,
    decode_word,
    radius_conjugate,
    scale_shift,
    validate_word,
)

__all__ = [
    "MarkovMatrix",
    "TransitionStructure",
    "WeightedAutomaton",
    "all_words",
    "build_invariant_matrix",
    "cylinder_measure",
    "empirical_cylinder_frequency",
    "lattice_density",
    "markov_automaton",
    "parry_matrix",
    "periodic_point_count",
    "periodic_points",
    "sample_ring_configuration",
    "sample_ring_word",
    "solve_parameter",
    "validate_word",
]

_TOL = 1e-12
_SITE_CHUNK = 4096  # sites per whole-array pass of sample_ring_word


def _extended(n: int, pairs):
    """The words of length n whose adjacent pairs all lie in ``pairs``, in
    lexicographic order: each length extends the previous one by 0, then 1,
    through chained generators that never hold a whole length in memory."""
    words = iter(("0", "1"))
    for _ in range(n - 1):
        words = (w + a for w in words for a in "01" if w[-1] + a in pairs)
    return words


def _words(n: int, pairs, closing):
    """The words of length n whose adjacent pairs lie in ``pairs`` and whose
    closing pair w[-1] + w[0] lies in ``closing``, in lexicographic order.

    From 6 letters on, where it is the faster, a word is a head of n - n//2
    letters and a tail of n//2: the tails are listed once, by the head letter
    they may follow and the letter they close to, and each head is extended by
    its list.  The stream holds one tail table, never a whole length."""
    if n < 6:
        return (w for w in _extended(n, pairs) if w[-1] + w[0] in closing)
    tails = list(_extended(n // 2, pairs))
    table = {(a, b): [t for t in tails if a + t[0] in pairs and t[-1] + b in closing]
             for a in "01" for b in "01"}
    return chain.from_iterable(map(h.__add__, table[h[-1], h[0]])
                               for h in _extended(n - n // 2, pairs))


def all_words(max_length: int):
    """Every 0/1 word of length 1..max_length, shortest first, each length in
    lexicographic order; ``_words`` with all four pairs."""
    pairs = {"00", "01", "10", "11"}
    for n in range(1, max_length + 1):
        yield from _words(n, pairs, pairs)


@dataclass(frozen=True, eq=False)
class WeightedAutomaton(_Value):
    """Word weights initial @ T[a_1] @ ... @ T[a_n] @ 1, with T[a] = transfer[:, a, :].

    The automaton takes its two arrays and makes them read-only in place.
    """

    initial: np.ndarray
    transfer: np.ndarray

    def __post_init__(self) -> None:
        self._own(initial=np.asarray(self.initial, dtype=np.float64),
                  transfer=np.asarray(self.transfer, dtype=np.float64))

    def _levels(self, blocks):
        """State weights after each block of letters; [T[0] | T[1]] extends every
        word by 0, then by 1.  Elementwise products and sums in state order give
        a word the same bits alone and in a table, which matmul need not."""
        rows = self.initial[None]
        for t in blocks:
            out = rows[:, :1] * t[0]
            for j in range(1, len(t)):
                out += rows[:, j : j + 1] * t[j]
            rows = out.reshape(-1, len(self.initial))
            yield rows

    def weight(self, word: str) -> float:
        *_, rows = self._levels(self.transfer[:, int(ch)] for ch in validate_word(word))
        return float(sum(rows[0]))

    def table(self, max_length: int) -> np.ndarray:
        """Weights of every word of length 1..max_length, in ``all_words`` order."""
        max_length = _integer("max_length", max_length, 1, 13)  # the table holds every word
        both = self.transfer.reshape(len(self.initial), -1)
        return np.concatenate([sum(rows.T) for rows in self._levels([both] * max_length)])


@dataclass(frozen=True)
class MarkovMatrix:
    """2x2 stochastic matrix; rows are transition distributions out of 0 and 1.

    ``movement_p`` tags matrices built to be stationary for the lattice process
    with that movement probability, which enforces the invariance identity
    p00*p11 = (1-p)*p10*p01 at construction.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    movement_p: float | None = None

    def __post_init__(self) -> None:
        for name in ("p00", "p01", "p10", "p11"):
            e = getattr(self, name)
            if not -_TOL <= e <= 1 + _TOL:
                raise ValueError(f"entry {name}={e} outside [0, 1]")
        if abs(self.p00 + self.p01 - 1) > _TOL or abs(self.p10 + self.p11 - 1) > _TOL:
            raise ValueError("rows must sum to 1")
        if self.movement_p is not None:
            q = 1 - _probability("movement_p", self.movement_p)
            resid = self.p00 * self.p11 - q * self.p10 * self.p01
            if abs(resid) > _TOL:
                raise ValueError(
                    f"matrix violates the invariance identity (residual {resid:.3e})"
                )

    @classmethod
    def from_rows(cls, rows, movement_p: float | None = None) -> "MarkovMatrix":
        (a, b), (c, d) = rows
        return cls(float(a), float(b), float(c), float(d), movement_p)

    @classmethod
    def bernoulli(cls, theta: float) -> "MarkovMatrix":
        """Product measure with P(1) = theta, seen as a Markov matrix."""
        return cls(1 - theta, theta, 1 - theta, theta)

    def matrix(self) -> np.ndarray:
        return np.array([[self.p00, self.p01], [self.p10, self.p11]])

    @property
    def stationary(self) -> tuple[float, float]:
        s = self.p01 + self.p10
        if s == 0:
            raise ValueError("stationary vector undefined for the identity-like matrix")
        return (self.p10 / s, self.p01 / s)


def solve_parameter(rho: float, p: float) -> float:
    """The transition parameter a = p01 placing stationary mass rho on 1.

    Root of rho = a*(1-p*a)/(1-p*a^2), taken on the branch with a in (0, 1].
    At p = 1 every rho >= 1/2 collapses to a = 1 (degenerate matrix); callers
    wanting a measure there should use build_invariant_matrix, which switches
    to the deterministic dense branch.
    """
    if not 0 < rho < 1:
        raise ValueError(f"density rho={rho} outside (0, 1)")
    disc = max(1 - 4 * _probability("p", p) * rho * (1 - rho), 0.0)
    return 2 * rho / (1 + math.sqrt(disc))


def build_invariant_matrix(rho: float, p: float) -> MarkovMatrix:
    """Markov matrix whose measure has density rho and is stationary at movement p.

    For p < 1 a single positive-entry family covers all rho in (0, 1); at
    p = 1 the family splits at rho = 1/2 into the sparse branch (no two
    adjacent 1s) and the dense branch (no two adjacent 0s).
    """
    a = solve_parameter(rho, p)  # checks rho and p; the p = 1 branches do not read a
    if p == 1:
        if rho < 0.5:
            a = rho / (1 - rho)
            return MarkovMatrix(1 - a, a, 1.0, 0.0, movement_p=1.0)
        b = (1 - rho) / rho
        return MarkovMatrix(0.0, 1.0, b, 1 - b, movement_p=1.0)
    p10 = (1 - a) / (1 - p * a)
    return MarkovMatrix(1 - a, a, p10, 1 - p10, movement_p=p)


def markov_automaton(m: MarkovMatrix) -> WeightedAutomaton:
    """The measure as a 3-state automaton: a start state, then the last letter.

    Each product has one nonzero term, so a weight equals the left-to-right
    product stationary(a_1) * prod transition(a_i, a_{i+1}) bit for bit.
    """
    t = np.zeros((3, 2, 3))  # reading letter a moves to state 1 + a
    t[0, [0, 1], [1, 2]] = m.stationary
    t[1:, [0, 1], [1, 2]] = m.matrix()
    return WeightedAutomaton(np.array([1.0, 0.0, 0.0]), t)


def cylinder_measure(m: MarkovMatrix, word: str) -> float:
    """Weight of the cylinder fixing the letters of ``word`` at consecutive sites."""
    return markov_automaton(m).weight(word)


def lattice_density(rho: float, v: float, r: float) -> float:
    """Density of the unit-jump hard-core lattice image of a (rho, v, r) process."""
    rho_free = _free_density(rho, r)
    if rho_free == math.inf:
        raise ValueError(f"2*r*rho = 1 at rho={rho}, r={r} is close packing: no lattice image")
    return _positive("maximal jump v", v) * rho_free / (1 + v * rho_free)


def sample_ring_word(m: MarkovMatrix, n_sites: int, seed) -> str:
    """Exact draw from the cyclically wrapped Markov weight on n_sites letters.

    P(w) is proportional to prod_i p(w_i, w_{i+1 mod n}).  The first letter is
    drawn from the diagonal of P^n over its trace, then each next letter from
    the conditional given the remaining closure weight, so no rejection or
    burn-in is involved.  The closure weights come in closed form,
    P^j = I + g_j (P - I) with g_j = 1 + lam + ... + lam^(j-1) and
    lam = 1 - p01 - p10, which needs no stationary vector: the identity
    matrix samples a constant word.

    The closure table g is cumsum(lam^j) with a 0 in front, and its powers are
    taken only until one is at most 2^-56 of the running sum (``_closure_sums``):
    below half the spacing of the doubles next to the sum, a term rounds away
    under round-to-nearest, and every later term is smaller, so the rest of the
    table repeats that sum with the bits of the full expression.  Near |lam| = 1,
    where no term gets that small within n_sites, the table is the full expression.

    The conditional at a site depends only on the held letter, so each site
    maps the held letter by a constant, the identity or a flip, computed for
    both held letters at once.  A letter is then the last constant before it,
    flipped once per flip since: a running maximum and a running parity over
    chunks of ``_SITE_CHUNK`` sites, each starting from the letter held before.
    """
    n_sites = _integer("n_sites", n_sites, 2)
    rng = np.random.default_rng(seed)
    p = ((m.p00, m.p01), (m.p10, m.p11))
    lam = 1.0 - m.p01 - m.p10
    g = _closure_sums(lam, n_sites)  # g[j] = g_j
    tr = 1.0 + lam**n_sites  # trace of P^n
    if tr <= 0:
        raise ValueError("degenerate matrix: no cyclic word has positive weight")
    u = rng.random(n_sites)  # the same doubles as n_sites scalar draws
    first = int(u[0] >= (1.0 + float(g[n_sites]) * (m.p00 - 1.0)) / tr)
    # column `first` of P - I; P^j[a, first] = (a == first) + g_j * d[a]
    d = [p[a][first] - (a == first) for a in (0, 1)]
    # row c of each column belongs to held letter c
    p_c0, held_first, d_c = np.array([[p[c][0], c == first, d[c]] for c in (0, 1)]).T[..., None]
    letters = np.empty(n_sites, np.uint8)
    letters[0] = first
    # an unreachable letter's closure weight can be 0; its row is never read
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(1, n_sites, _SITE_CHUNK):
            e = min(s + _SITE_CHUNK, n_sites)
            # site k closes over j = n_sites - k + 1 edges, around the seam to letter 0
            g_j = g[n_sites - e + 2 : n_sites - s + 2][::-1]
            num = (first == 0) + g[n_sites - e + 1 : n_sites - s + 1][::-1] * d[0]
            # rows: the next letter under held 0 and under held 1, then row 1
            # becomes whether they agree (a constant map); column 0 is the letter
            # held before the chunk, as a constant map
            b = np.empty((2, e - s + 1), bool)
            b[:, 0] = letters[s - 1], True
            np.greater_equal(u[s:e], p_c0 * num / (held_first + g_j * d_c), out=b[:, 1:])
            np.equal(b[0, 1:], b[1, 1:], out=b[1, 1:])
            to, const = b  # `to` is the constant, or 1 for a flip and 0 for the identity
            last = np.maximum.accumulate(const * np.arange(e - s + 1))
            parity = np.bitwise_xor.accumulate(to)
            # a letter is the xor of `to` from the last constant map up to its site
            letters[s:e] = (parity ^ (parity ^ to)[last])[1:]
    return (letters + ord("0")).tobytes().decode("ascii")


def _closure_sums(lam: float, n: int) -> np.ndarray:
    """``np.concatenate(([0.0], np.cumsum(lam ** np.arange(n))))``, bit for bit,
    with powers taken only up to the first term j that is at most 2^-56 of the sum
    before it; from there on the sum cannot change, so the table repeats it.

    The partial sums never fall below 1 - |lam|, so term j is that small once
    |lam|^j <= (1 - |lam|) 2^-57, and the first k terms reach it, one to spare.
    Of the first min(k, n) powers, then, none is that small only when k >= n, and
    they are the full expression."""
    a = abs(lam)
    k = n
    if a < 2.0**-57:
        k = 2
    elif a < 1:
        k = math.ceil((57 - math.log2(1 - a)) / -math.log2(a)) + 2
    terms = lam ** np.arange(min(k, n))
    sums = np.cumsum(terms)
    stops = np.abs(terms[1:]) <= np.abs(sums[:-1]) * 2.0**-56
    j = int(stops.argmax()) + 1 if stops.any() else len(sums)
    return np.concatenate(([0.0], sums[:j], np.full(n - j, sums[j - 1])))


def sample_ring_configuration(
    rho: float,
    p: float,
    v: float = 1.0,
    r: float = 0.0,
    n_sites: int = 1000,
    seed=0,
    randomize_offset: bool = False,
) -> Configuration:
    """Ring configuration drawn from the transported invariant measure.

    Samples an occupancy word for the unit-jump hard-core lattice process at
    the transported density, then moves it to jump v and radius r by the
    gap-preserving and scaling conjugacies.  ``randomize_offset`` additionally
    shifts the sub-lattice by a uniform offset in [0, v), which realizes the
    offset-mixture measure operationally.
    """
    rng = np.random.default_rng(seed)
    word = sample_ring_word(build_invariant_matrix(lattice_density(rho, v, r), p), n_sites, rng)
    cfg = decode_word(word)
    cfg = radius_conjugate(cfg, 0.0)
    offset = float(rng.random() * v) if randomize_offset else 0.0
    cfg = scale_shift(cfg, v, offset)
    if r > 0:
        cfg = radius_conjugate(cfg, r)
    return cfg


@dataclass(frozen=True, eq=False)
class TransitionStructure(_Value):
    """Irreducible 2x2 transition matrix over {0, 1} with its leading eigendata."""

    matrix: np.ndarray
    eigenvalue: float = field(init=False)
    eigenvector: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix)
        if arr.shape != (2, 2) or not np.all((arr == 0) | (arr == 1)):
            raise ValueError("transition structure must be a 2x2 matrix over {0, 1}")
        arr = arr.astype(np.int64, copy=False)
        if arr[0, 1] == 0 or arr[1, 0] == 0:
            raise ValueError("transition structure must be irreducible")
        lam = (arr[0, 0] + arr[1, 1] + math.sqrt((arr[0, 0] - arr[1, 1]) ** 2 + 4)) / 2
        vec = np.array([float(arr[0, 1]), lam - arr[0, 0]])
        object.__setattr__(self, "eigenvalue", lam)
        self._freeze(matrix=arr, eigenvector=vec / vec.sum())

    @classmethod
    def no_adjacent_ones(cls) -> "TransitionStructure":
        """The golden-mean shift: words never contain 11."""
        return cls([[1, 1], [1, 0]])

    @classmethod
    def no_adjacent_zeros(cls) -> "TransitionStructure":
        """Letter-flipped golden-mean shift: words never contain 00."""
        return cls([[0, 1], [1, 1]])

    @classmethod
    def full_shift(cls) -> "TransitionStructure":
        return cls([[1, 1], [1, 1]])

    @property
    def entropy(self) -> float:
        return math.log(self.eigenvalue)


def parry_matrix(ts: TransitionStructure) -> MarkovMatrix:
    """Maximal-entropy Markov matrix of the subshift: p_ij = m_ij m_j / (lam m_i)."""
    m = ts.eigenvector
    lam = ts.eigenvalue
    rows = [
        [ts.matrix[i, j] * m[j] / (lam * m[i]) for j in (0, 1)]
        for i in (0, 1)
    ]
    return MarkovMatrix.from_rows(rows)


def periodic_point_count(ts: TransitionStructure, n: int) -> int:
    """Number of cyclically admissible words of length n, trace(M^n), exactly in
    Python integers for any period n >= 1."""
    n = _integer("period", n, 1)
    (a, b), (c, d) = ts.matrix.tolist()
    (p, q), (r, s) = (1, 0), (0, 1)  # M^k for the bits of n read so far
    for bit in bin(n)[2:]:
        p, q, r, s = p * p + q * r, q * (p + s), r * (p + s), s * s + q * r
        if bit == "1":
            p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return p + s


def periodic_points(ts: TransitionStructure, n: int) -> list[str]:
    """All cyclically admissible words of length n, lexicographically sorted:
    the words ``_words`` admits under the structure's pairs, closing pair
    w[-1] + w[0] included."""
    return list(_periodic_words(ts, n))


def _periodic_words(ts: TransitionStructure, n: int):
    """``periodic_points`` one word at a time; a bad period fails at the call."""
    n = _integer("period", n, 1, 25)  # the enumeration is exhaustive
    pairs = {f"{a}{b}" for a in (0, 1) for b in (0, 1) if ts.matrix[a, b]}
    return _words(n, pairs, pairs)


def empirical_cylinder_frequency(points: list[str], word: str) -> float:
    """Average over points and cyclic offsets of the indicator that word occurs."""
    validate_word(word)
    if not points:
        raise ValueError("need a nonempty list of periodic points")
    n = len(points[0])
    if any(len(w) != n for w in points):
        raise ValueError("periodic points must share one period")
    if len(word) > n:
        raise ValueError("cylinder longer than the period")
    hits = 0
    for w in points:
        doubled = w + w
        for offset in range(n):
            if doubled[offset : offset + len(word)] == word:
                hits += 1
    return hits / (len(points) * n)
