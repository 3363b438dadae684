"""Concrete models: polyvector fields with the odd Laplacian, and weighted
Koszul-type complexes with a negative-degree second-order perturbation.

The polyvector model ships with an independently coded bidifferential oracle
for the odd Poisson bracket so the bracket extracted from the Laplacian can
be cross-checked against a formula that never touches the operator engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, Element, GeneratorTable
from .operators import Operator


@dataclass(frozen=True)
class Model:
    """A generator table with a distinguished odd square-zero operator and,
    when meaningful, its degree +1 differential part."""

    table: GeneratorTable
    D: Operator
    d: Operator


def _zero_multi(table: GeneratorTable) -> tuple:
    return (0,) * len(table)


def polyvector_model(n: int) -> Model:
    """Polynomial polyvector fields on affine n-space.

    Generators x_1..x_n in degree 0 and xi_1..xi_n in degree 1; the operator
    is the odd Laplacian sum_i d^2/(dx_i dxi_i), of degree -1 and order 2,
    with d = 0.
    """
    if n < 1:
        raise AlgebraError("polyvector model needs n >= 1")
    names = [f"x{i+1}" for i in range(n)] + [f"xi{i+1}" for i in range(n)]
    degrees = [0] * n + [1] * n
    table = GeneratorTable(tuple(names), tuple(degrees))
    z = _zero_multi(table)
    delta = Operator.zero(table)
    for i in range(n):
        deriv = tuple(
            1 if j == i or j == n + i else 0 for j in range(2 * n)
        )
        delta = delta + Operator.term(table, 1, z, deriv)
    return Model(table, delta, Operator.zero(table))


# --------------------------------------------------------------------------
# Independent Schouten-type oracle on the polyvector model
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


# --------------------------------------------------------------------------
# Weighted Koszul-type complexes
# --------------------------------------------------------------------------

def koszul_complex_model(weights: list[int]) -> Model:
    """For each weight w: an even generator x of degree 2 and an odd generator
    xi of degree 2w - 1, differential d = sum_i x_i^{w_i} d/dxi_i (degree +1,
    order 1, square zero) and second-order part D2 = sum_i d^2/(dx_i dxi_i)
    of negative odd degree.  D = d + D2 is odd with D o D = 0 exactly.
    """
    if not weights or any(w < 1 for w in weights):
        raise AlgebraError("koszul model needs positive integer weights")
    n = len(weights)
    names = []
    degrees = []
    for i, w in enumerate(weights):
        names.append(f"x{i+1}")
        degrees.append(2)
        names.append(f"xi{i+1}")
        degrees.append(2 * w - 1)
    table = GeneratorTable(tuple(names), tuple(degrees))
    z = _zero_multi(table)
    d = Operator.zero(table)
    d2 = Operator.zero(table)
    for i, w in enumerate(weights):
        mult = tuple(w if j == 2 * i else 0 for j in range(2 * n))
        deriv1 = tuple(1 if j == 2 * i + 1 else 0 for j in range(2 * n))
        d = d + Operator.term(table, 1, mult, deriv1)
        deriv2 = tuple(1 if j in (2 * i, 2 * i + 1) else 0 for j in range(2 * n))
        d2 = d2 + Operator.term(table, 1, z, deriv2)
    return Model(table, d + d2, d)


def exterior_cube_model() -> Model:
    """Exterior algebra on three degree-1 generators with the third-order
    operator d^3/(dxi_1 dxi_2 dxi_3), degree -3, square zero, d = 0."""
    table = GeneratorTable(("xi1", "xi2", "xi3"), (1, 1, 1))
    D = Operator.term(table, 1, (0, 0, 0), (1, 1, 1))
    return Model(table, D, Operator.zero(table))


def mixed_order_model() -> Model:
    """A square-zero odd operator with components of three different orders:

        D = d/dxi1 + d^2/(dxi2 du) + d^3/(deta1 deta2 deta3)

    on generators xi1, xi2 of degree -1, u of degree 2 and eta1..eta3 of
    degree 1, so the components have degrees +1, -1, -3 and orders 1, 2, 3.
    """
    table = GeneratorTable(
        ("xi1", "xi2", "u", "eta1", "eta2", "eta3"), (-1, -1, 2, 1, 1, 1)
    )
    z = _zero_multi(table)
    D = (
        Operator.term(table, 1, z, (1, 0, 0, 0, 0, 0))
        + Operator.term(table, 1, z, (0, 1, 1, 0, 0, 0))
        + Operator.term(table, 1, z, (0, 0, 0, 1, 1, 1))
    )
    d = Operator.term(table, 1, z, (1, 0, 0, 0, 0, 0))
    return Model(table, D, d)


BUILTIN_MODELS = {
    "polyvector2": lambda: polyvector_model(2),
    "polyvector3": lambda: polyvector_model(3),
    "koszul1": lambda: koszul_complex_model([1]),
    "koszul2": lambda: koszul_complex_model([2]),
    "exterior-cube": exterior_cube_model,
    "mixed-order": mixed_order_model,
}
