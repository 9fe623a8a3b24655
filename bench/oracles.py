"""Reference values computed apart from the tasep package.

Nothing here imports tasep: every expected value the benchmark checks the
program against comes from the paper's formulas or from exact counting done
in this file.
"""

from __future__ import annotations

import math


def closed_form_velocity(rho: float, p: float, v: float, r: float) -> float:
    """Stationary velocity of the parallel-update process (the paper's formula).

    Radius r enters through the free density rho / (1 - 2 r rho); for point
    particles at free density x with jump v and coin p,
    V = (1 + v x - sqrt((1 + v x)^2 - 4 p v x)) / (2 x).
    """
    x = rho / (1.0 - 2.0 * r * rho)
    a = 1.0 + v * x
    return (a - math.sqrt(a * a - 4.0 * p * v * x)) / (2.0 * x)


def cluster_count_law(n_sites: int, n_particles: int, p: float) -> dict[int, float]:
    """Law of the number k of particle clusters on a stationary finite lattice ring.

    The stationary law of the v = 1 hard-core ring is proportional to
    (1 - p)^(#11); a ring with k clusters has N - k adjacent pairs 11, and
    (L / k) C(N - 1, k - 1) C(L - N - 1, k - 1) cyclic words have k clusters.
    """
    L, N = n_sites, n_particles
    if not 0 < N < L:
        raise ValueError("need 0 < N < L")
    weights = {
        k: (L / k) * math.comb(N - 1, k - 1) * math.comb(L - N - 1, k - 1) * (1.0 - p) ** (N - k)
        for k in range(1, min(N, L - N) + 1)
    }
    total = math.fsum(weights.values())
    return {k: w / total for k, w in weights.items()}


def finite_ring_velocity(n_sites: int, n_particles: int, p: float) -> float:
    """Exact stationary velocity V_L = p E[k] / N of the v = 1 lattice ring.

    Only the front particle of each cluster has an empty site ahead, so the
    expected displacement per step is p times the expected cluster count.
    """
    law = cluster_count_law(n_sites, n_particles, p)
    return p * math.fsum(k * q for k, q in law.items()) / n_particles


def lucas(n: int) -> int:
    """Lucas number L_n (L_1 = 1, L_2 = 3), the count of cyclic no-11 words."""
    a, b = 2, 1  # L_0, L_1
    for _ in range(n):
        a, b = b, a + b
    return a


GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def markov_letter_frequencies(p00: float, p01: float, p10: float, p11: float):
    """(pi_1, pi_1 p_11): stationary frequency of '1' and of '11' for a 2x2 chain."""
    pi1 = p01 / (p01 + p10)
    return pi1, pi1 * p11


def cyclic_count(word: str, pattern: str) -> int:
    """Occurrences of pattern in word read cyclically."""
    doubled = word + word[: len(pattern) - 1]
    return sum(1 for i in range(len(word)) if doubled.startswith(pattern, i))


def word_count(max_length: int) -> int:
    """Number of binary words of lengths 1..max_length."""
    return 2 ** (max_length + 1) - 2
