"""An exhaustive small-ring gap chain: an exact referee for hard-core lattice rings.

A hard-core (r = 1/2) lattice ring of N particles on L sites has F = L - N free
sites.  Its states are the gap vectors g, g_i the free sites ahead of particle i:
the C(F + N - 1, N - 1) compositions of F into N parts.  Under the coin pattern c
(c_i = 1 when particle i's coin lets it move) particle i moves

    m_i = c_i min(v, g_i),

and the gaps become g'_i = g_i - m_i + m_{i+1}, indices mod N.  A step moves
f = sum_i m_i sites in all.  ``channels`` maps a v-jump ring's gaps to those of v
rings of jump 1.  ``table`` builds the (successor, f) of every state and
pattern from this closed form; ``stepper_table`` builds the same table a second time
through the reference stepper ``_Stepper.advance``.  ``chain`` turns a table into
the transition matrix P and h = E[f | g] at a coin probability p, and ``velocity``
gives the exact stationary velocity pi h / N.

This module is test-side only: the package gains no public name from it.
"""

from __future__ import annotations

import itertools

import numpy as np

from tasep import CoinStream, Configuration, ProcessParams, Ring
from tasep.dynamics import _Stepper

# the words that decide a coin at any p strictly between 2**-32 and 1 - 2**-32:
# 0 moves the particle and 2**32 - 1 keeps it
MOVE, STAY = 0, 2**32 - 1


def states(n: int, free: int) -> np.ndarray:
    """The gap vectors of n particles and ``free`` free sites, one per row, in
    lexicographic order: the compositions of free into n parts."""
    rows = [c for c in itertools.product(range(free + 1), repeat=n) if sum(c) == free]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def patterns(n: int) -> np.ndarray:
    """The 2**n coin patterns of n particles, one per row, 1 for a coin that moves."""
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64).reshape(-1, n)


def _index(gaps: np.ndarray, free: int, base: np.ndarray) -> np.ndarray:
    """The rows of base = states(n, free) equal to the gap vectors in ``gaps`` (last
    axis); ValueError when one is not among them."""
    weights = (free + 1) ** np.arange(gaps.shape[-1] - 1, -1, -1)
    keys = base @ weights
    rows = np.minimum(np.searchsorted(keys, gaps @ weights), len(keys) - 1)
    if not np.array_equal(base[rows], gaps):
        raise ValueError("a successor is not a gap vector of the ring")
    return rows


def table(n: int, free: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, f) from the closed-form gap update: successor[s, c] is the row of
    states(n, free) that state s goes to under pattern c, f[s, c] the sites moved."""
    g, c = states(n, free), patterns(n)
    m = c[None, :, :] * np.minimum(v, g)[:, None, :]
    nxt = g[:, None, :] - m + np.roll(m, -1, axis=2)
    return _index(nxt, free, g), m.sum(axis=2)


def ring_of(gaps: np.ndarray) -> Configuration:
    """The hard-core lattice ring with particle 0 at site 0 and the given gaps."""
    length = len(gaps) + int(gaps.sum())
    pos = np.concatenate([[0], np.cumsum(gaps[:-1] + 1)])
    return Configuration(Ring(length), pos.astype(np.int64), 0.5)


def gaps_of(x: np.ndarray, length: int) -> np.ndarray:
    """The gap vector of sorted lattice positions x on a ring of ``length`` sites."""
    return np.diff(x, append=x[0] + length) - 1


def channels(gaps: np.ndarray, v: int) -> np.ndarray:
    """The v channel gap vectors of a v-jump ring, one per row: h^j_i = floor((g_i + j) / v)
    for j < v.  They sum to g (Hermite's identity), and min(1, h^j_i) summed over j is
    min(v, g_i), so under one coin a particle's move is the sum of its channel moves."""
    return (gaps[None, :] + np.arange(v)[:, None]) // v


def stepper_table(n: int, free: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, f) as ``table`` gives them, from one ``_Stepper.advance`` per state
    and pattern, each coin's word MOVE or STAY."""
    g, c = states(n, free), patterns(n)
    words = np.where(c == 1, MOVE, STAY).astype(np.uint64)
    nxt = np.empty((len(g), len(c), n), np.int64)
    f = np.empty((len(g), len(c)), np.int64)
    params = ProcessParams(0.5, v, space="lattice")
    for s, gaps in enumerate(g):
        cfg = ring_of(gaps)
        stepper = _Stepper(cfg, params, CoinStream(0))
        for k, w in enumerate(words):
            stepper.x[...] = cfg.positions
            disp = stepper.advance(w)
            nxt[s, k] = gaps_of(stepper.x, n + free)
            f[s, k] = int(disp.sum())
    return _index(nxt, free, g), f


def chain(succ: np.ndarray, f: np.ndarray, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, h) of a table at coin probability p: the transition matrix and the mean
    sites moved from each state, h = E[f | g]."""
    movers = patterns(n).sum(axis=1)
    weight = p**movers * (1 - p) ** (n - movers)
    P = np.zeros((len(succ), len(succ)))
    np.add.at(P, (np.arange(len(succ))[:, None], succ), weight)
    return P, f @ weight


def velocity(P: np.ndarray, h: np.ndarray, n: int) -> float:
    """pi h / N, pi the stationary law by least squares on [P^T - I; 1]."""
    size = len(P)
    a = np.vstack([P.T - np.eye(size), np.ones(size)])
    b = np.concatenate([np.zeros(size), [1.0]])
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(pi @ h) / n
