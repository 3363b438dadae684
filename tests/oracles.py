"""Independent reference implementations that the tests compare against.

Each one is written the slow, obvious way and is used only by tests.
"""

from fractions import Fraction

from bvcheck.algebra import Element
from bvcheck.graded import GradedError, koszul_sign, unshuffles


def is_unshuffle(sigma: tuple[int, ...], k: int) -> bool:
    """Predicate form of the unshuffle property, used as a brute-force oracle."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        return False
    for i in range(n - 1):
        if i + 1 == k:
            continue
        if sigma[i] >= sigma[i + 1]:
            return False
    return True


def graded_sign_bubble(degrees, sigma) -> Fraction:
    """Independent graded_sign oracle: accumulate over adjacent transpositions."""
    if len(degrees) != len(sigma):
        raise GradedError("graded_sign_bubble: length mismatch")
    seq = list(sigma)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                da, db = degrees[seq[i]], degrees[seq[i + 1]]
                sign *= -1 if (da * db) % 2 == 0 else 1
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    return Fraction(sign)


def perm_sign(sigma) -> int:
    """Ordinary sign of a permutation."""
    sign = 1
    n = len(sigma)
    for t in range(n):
        for u in range(t + 1, n):
            if sigma[t] > sigma[u]:
                sign = -sign
    return sign


def koszul_bracket_by_unshuffles(D, args) -> Element:
    """The unshuffle expansion of F^n, multiplying left to right per unshuffle.

    F^n(a_1..a_n) = sum_k (-1)^{n-k} sum_{sigma in Sh(k,n-k)} eps(sigma)
        D(a_{sigma(1)} ... a_{sigma(k)}) a_{sigma(k+1)} ... a_{sigma(n)},
    with no product shared between unshuffles.
    """
    n = len(args)
    parities = [a.parity() if a else 0 for a in args]
    out = Element.zero(args[0].table)
    for k in range(1, n + 1):
        for sigma in unshuffles(k, n):
            left = args[sigma[0]]
            for i in sigma[1:k]:
                left = left * args[i]
            term = D.apply(left)
            for i in sigma[k:]:
                term = term * args[i]
            sign = (-1) ** (n - k) * koszul_sign(parities, sigma)
            out = out + term.scale(sign)
    return out
