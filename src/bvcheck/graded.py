"""Permutation and Koszul sign machinery for graded-commutative computations.

Everything here works with plain integers: a degree is an int, a permutation
is a tuple ``sigma`` with the convention that the permuted sequence is
``(v[sigma[0]], v[sigma[1]], ...)`` (0-based).  ``koszul_sign``, which the
bracket kernels only compare with 0, returns the int 1 or -1.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations


class GradedError(ValueError):
    """Domain error in the graded kernel (bad permutation, length mismatch...)."""


@cache
def unshuffles(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All (k, n-k) unshuffles of {0..n-1} in lexicographic order.

    A (k, n-k) unshuffle is a permutation that is increasing on its first k
    positions and on its last n-k positions.  Exactly binomial(n, k) of them
    exist; they are indexed by the subset occupying the first block.  Built
    once per (k, n) and shared, as a tuple so that no caller can change it.
    """
    if k < 1 or k > n:
        raise GradedError(f"unshuffles: need 1 <= k <= n, got k={k}, n={n}")
    universe = range(n)
    return tuple(
        left + tuple(i for i in universe if i not in left)
        for left in combinations(universe, k)
    )


def koszul_sign(degrees, sigma) -> int:
    """Pure Koszul sign epsilon(sigma): (-1)^{|v_i||v_j|} per inversion.

    It is the sign with which homogeneous factors of a graded-commutative
    product are reordered:  a_1 ... a_n = epsilon(sigma) * a_{sigma(1)} ... a_{sigma(n)}.
    """
    if len(degrees) != len(sigma):
        raise GradedError(
            f"koszul_sign: {len(degrees)} degrees for a permutation of {len(sigma)}"
        )
    sign = 1
    n = len(sigma)
    for t in range(n):
        for u in range(t + 1, n):
            if sigma[t] > sigma[u] and degrees[sigma[t]] % 2 and degrees[sigma[u]] % 2:
                sign = -sign
    return sign
