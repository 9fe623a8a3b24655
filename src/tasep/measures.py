"""Markov measures on binary sequences: the stochastic invariant family, the
maximal-entropy (Parry) family of subshifts, cylinder weights, exact cyclic
sampling and periodic-point enumeration.

Cylinders are plain strings over {0, 1}; the weight of a word a_1...a_n is
stationary(a_1) * prod transition(a_i, a_{i+1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration, decode_word, radius_conjugate, scale_shift

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


def validate_word(word: str) -> str:
    if not word or set(word) - {"0", "1"}:
        raise ValueError(f"cylinder word must be a nonempty 0/1 string, got {word!r}")
    return word


def _words(n: int, pairs):
    """The words of length n whose adjacent pairs all lie in ``pairs``, in
    lexicographic order: each length extends the previous one by 0, then 1,
    through chained generators that never hold a whole length in memory."""
    words = iter(("0", "1"))
    for _ in range(n - 1):
        words = (w + a for w in words for a in "01" if w[-1] + a in pairs)
    return words


def all_words(max_length: int):
    """Every 0/1 word of length 1..max_length, shortest first, each length in
    lexicographic order; ``_words`` with all four pairs."""
    for n in range(1, max_length + 1):
        yield from _words(n, {"00", "01", "10", "11"})


@dataclass(frozen=True)
class WeightedAutomaton:
    """Word weights initial @ T[a_1] @ ... @ T[a_n] @ 1, with T[a] = transfer[:, a, :]."""

    initial: np.ndarray
    transfer: np.ndarray

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
        if not 1 <= max_length <= 12:  # the table holds every word in memory
            raise ValueError(f"max_length must lie in 1..12, got {max_length}")
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
            if not 0 < self.movement_p <= 1:
                raise ValueError("movement_p must lie in (0, 1]")
            resid = self.p00 * self.p11 - (1 - self.movement_p) * self.p10 * self.p01
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
    if not 0 < p <= 1:
        raise ValueError(f"movement probability p={p} outside (0, 1]")
    disc = max(1 - 4 * p * rho * (1 - rho), 0.0)
    return 2 * rho / (1 + math.sqrt(disc))


def build_invariant_matrix(rho: float, p: float) -> MarkovMatrix:
    """Markov matrix whose measure has density rho and is stationary at movement p.

    For p < 1 a single positive-entry family covers all rho in (0, 1); at
    p = 1 the family splits at rho = 1/2 into the sparse branch (no two
    adjacent 1s) and the dense branch (no two adjacent 0s).
    """
    if not 0 < rho < 1:
        raise ValueError(f"density rho={rho} outside (0, 1)")
    if not 0 < p <= 1:
        raise ValueError(f"movement probability p={p} outside (0, 1]")
    if p == 1:
        if rho < 0.5:
            a = rho / (1 - rho)
            return MarkovMatrix(1 - a, a, 1.0, 0.0, movement_p=1.0)
        b = (1 - rho) / rho
        return MarkovMatrix(0.0, 1.0, b, 1 - b, movement_p=1.0)
    a = solve_parameter(rho, p)
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
    rho_free = rho / (1 - 2 * r * rho)
    return v * rho_free / (1 + v * rho_free)


def sample_ring_word(m: MarkovMatrix, n_sites: int, seed) -> str:
    """Exact draw from the cyclically wrapped Markov weight on n_sites letters.

    P(w) is proportional to prod_i p(w_i, w_{i+1 mod n}).  The first letter is
    drawn from the diagonal of P^n over its trace, then each next letter from
    the conditional given the remaining closure weight, so no rejection or
    burn-in is involved.  The closure weights come in closed form,
    P^j = I + g_j (P - I) with g_j = 1 + lam + ... + lam^(j-1) and
    lam = 1 - p01 - p10, which needs no stationary vector: the identity
    matrix samples a constant word.
    """
    if n_sites < 2:
        raise ValueError("cyclic sampling needs at least 2 sites")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = ((m.p00, m.p01), (m.p10, m.p11))
    lam = 1.0 - m.p01 - m.p10
    # memoryviews index to Python floats at list speed and 8 bytes per entry
    g = memoryview(np.concatenate(([0.0], np.cumsum(lam ** np.arange(n_sites)))))  # g[j] = g_j
    tr = 1.0 + lam**n_sites  # trace of P^n
    if tr <= 0:
        raise ValueError("degenerate matrix: no cyclic word has positive weight")
    u = memoryview(rng.random(n_sites))  # the same doubles as n_sites scalar draws
    first = int(u[0] >= (1.0 + g[n_sites] * (m.p00 - 1.0)) / tr)
    # column `first` of P - I; P^j[a, first] = (a == first) + g_j * d[a]
    d = [p[a][first] - (a == first) for a in (0, 1)]
    letters = [first]
    cur = first
    for k in range(1, n_sites):
        j = n_sites - k + 1  # edges from letter k-1 around the seam to letter 0
        # closure weight of the held letter only: an unreachable one's can be 0
        prob0 = p[cur][0] * ((first == 0) + g[j - 1] * d[0]) / ((cur == first) + g[j] * d[cur])
        cur = int(u[k] >= prob0)
        letters.append(cur)
    return "".join("01"[b] for b in letters)


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
    if rho <= 0 or (r > 0 and 2 * r * rho >= 1):
        raise ValueError("density incompatible with the ball radius")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    word = sample_ring_word(build_invariant_matrix(lattice_density(rho, v, r), p), n_sites, rng)
    cfg = decode_word(word)
    cfg = radius_conjugate(cfg, 0.0)
    offset = float(rng.random() * v) if randomize_offset else 0.0
    cfg = scale_shift(cfg, v, offset)
    if r > 0:
        cfg = radius_conjugate(cfg, r)
    return cfg


@dataclass(frozen=True)
class TransitionStructure:
    """Irreducible 0/1 transition matrix with its leading eigendata."""

    matrix: np.ndarray
    eigenvalue: float
    eigenvector: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "TransitionStructure":
        arr = np.asarray(m, dtype=np.int64)
        if arr.shape != (2, 2) or not np.all((arr == 0) | (arr == 1)):
            raise ValueError("transition structure must be a 2x2 matrix over {0, 1}")
        if arr[0, 1] == 0 or arr[1, 0] == 0:
            raise ValueError("transition structure must be irreducible")
        lam = (arr[0, 0] + arr[1, 1] + math.sqrt((arr[0, 0] - arr[1, 1]) ** 2 + 4)) / 2
        vec = np.array([float(arr[0, 1]), lam - arr[0, 0]])
        vec = vec / vec.sum()
        arr = arr.copy()
        arr.setflags(write=False)
        vec.setflags(write=False)
        return cls(arr, lam, vec)

    @classmethod
    def no_adjacent_ones(cls) -> "TransitionStructure":
        """The golden-mean shift: words never contain 11."""
        return cls.from_matrix([[1, 1], [1, 0]])

    @classmethod
    def no_adjacent_zeros(cls) -> "TransitionStructure":
        """Letter-flipped golden-mean shift: words never contain 00."""
        return cls.from_matrix([[0, 1], [1, 1]])

    @classmethod
    def full_shift(cls) -> "TransitionStructure":
        return cls.from_matrix([[1, 1], [1, 1]])

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
    """Number of cyclically admissible words of length n, trace(M^n)."""
    if not 1 <= n <= 24:
        raise ValueError("period must lie in 1..24")
    return int(np.trace(np.linalg.matrix_power(ts.matrix, n)))


def periodic_points(ts: TransitionStructure, n: int) -> list[str]:
    """All cyclically admissible words of length n, lexicographically sorted:
    the words ``_words`` admits under the structure's pairs whose closing pair
    w[-1] + w[0] is allowed too."""
    if not 1 <= n <= 24:
        raise ValueError("period must lie in 1..24 (exhaustive enumeration)")
    pairs = {f"{a}{b}" for a in (0, 1) for b in (0, 1) if ts.matrix[a, b]}
    return [w for w in _words(n, pairs) if w[-1] + w[0] in pairs]


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
