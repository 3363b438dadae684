"""Independent reference implementations that the tests compare against.

Each one is written the slow, obvious way and is used only by tests.
"""

from fractions import Fraction

from bvcheck.algebra import AlgebraError, Element, GeneratorTable
from bvcheck.graded import koszul_sign, unshuffles


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


def relation_by_expansion(D, n, args) -> Element:
    """The n-th square-zero relation by its definition, brackets of brackets:

    R_n(a_1..a_n) = sum_l sum_{sigma in Sh(l,n-l)} eps(sigma)
        F^{n-l+1}(F^l(a_{sigma(1)}..a_{sigma(l)}), a_{sigma(l+1)}..a_{sigma(n)}),
    each bracket by ``koszul_bracket_by_unshuffles``.
    """
    parities = [a.parity() if a else 0 for a in args]
    out = Element.zero(args[0].table)
    for l in range(1, n + 1):
        for sigma in unshuffles(l, n):
            inner = koszul_bracket_by_unshuffles(D, [args[i] for i in sigma[:l]])
            outer = [inner] + [args[i] for i in sigma[l:]]
            term = koszul_bracket_by_unshuffles(D, outer)
            out = out + term.scale(koszul_sign(parities, sigma))
    return out


# --------------------------------------------------------------------------
# Antibracket oracle on the polyvector model, coded without the operator engine
# --------------------------------------------------------------------------

def _oracle_partial(table: GeneratorTable, i: int, a: Element, side: str) -> Element:
    """Left or right partial derivative, coded from scratch for the oracle path.

    For an odd generator the left derivative picks up one sign per odd factor
    standing in front of it, the right derivative one per odd factor behind.
    """
    n = len(table)
    out: dict = {}
    for mono, c in a.coeffs.items():
        if mono[i] == 0:
            continue
        if table.parity(i):
            if side == "left":
                span = range(i)
            else:
                span = range(i + 1, n)
            cross = 0
            for j in span:
                if table.parity(j) and mono[j]:
                    cross += mono[j]
            factor = c if cross % 2 == 0 else -c
        else:
            factor = c * mono[i]
        new = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
        out[new] = out.get(new, Fraction(0)) + factor
    return Element(table, out)


def schouten_oracle(a: Element, b: Element) -> Element:
    """Odd Poisson bracket of polyvector fields by the antibracket pairing

        (a, b) = sum_i  d^r a/dx_i  d^l b/dxi_i  -  d^r a/dxi_i  d^l b/dx_i

    with right derivatives on the first slot and left on the second, on a
    table laid out as x_1..x_n, xi_1..xi_n.  Inputs must be homogeneous.
    """
    table = a.table
    if table != b.table or len(table) % 2:
        raise AlgebraError("oracle expects both arguments on a polyvector table")
    n = len(table) // 2
    out = Element.zero(table)
    for i in range(n):
        out = out + _oracle_partial(table, i, a, "right") * _oracle_partial(
            table, n + i, b, "left"
        )
        out = out - _oracle_partial(table, n + i, a, "right") * _oracle_partial(
            table, i, b, "left"
        )
    return out


# The odd bracket generated by the Laplacian reproduces the antibracket
# pairing on the nose; the constant records the convention and is tested.
SCHOUTEN_CALIBRATION = 1
