"""Concrete models: polyvector fields with the odd Laplacian, and weighted
Koszul-type complexes with a negative-degree second-order perturbation.
"""

from __future__ import annotations

from .algebra import AlgebraError, GeneratorTable
from .operators import Operator


class Model:
    """A generator table with a distinguished odd square-zero operator and,
    when meaningful, its degree +1 differential part."""

    def __init__(self, table: GeneratorTable, D: Operator, d: Operator):
        self.table = table
        self.D = D
        self.d = d


def _multi(n: int, exps: dict[int, int]) -> tuple:
    """The multi-index of length n with exponent ``exps[j]`` at each j in
    ``exps`` and 0 elsewhere."""
    return tuple(exps.get(j, 0) for j in range(n))


def polyvector_model(n: int) -> Model:
    """Polynomial polyvector fields on affine n-space.

    Generators x_1..x_n in degree 0 and xi_1..xi_n in degree 1; the operator
    is the odd Laplacian sum_i d^2/(dx_i dxi_i), of degree -1 and order 2,
    with d = 0.
    """
    if n < 1:
        raise AlgebraError("polyvector model needs n >= 1")
    names = [f"x{i+1}" for i in range(n)] + [f"xi{i+1}" for i in range(n)]
    table = GeneratorTable(tuple(names), (0,) * n + (1,) * n)
    z = (0,) * (2 * n)
    delta = {(z, _multi(2 * n, {i: 1, n + i: 1})): 1 for i in range(n)}
    return Model(table, Operator(table, delta), Operator.zero(table))


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
    n = 2 * len(weights)
    names = tuple(f"{p}{i+1}" for i in range(len(weights)) for p in ("x", "xi"))
    table = GeneratorTable(names, tuple(g for w in weights for g in (2, 2 * w - 1)))
    z = (0,) * n
    d = {(_multi(n, {2 * i: w}), _multi(n, {2 * i + 1: 1})): 1 for i, w in enumerate(weights)}
    d2 = {(z, _multi(n, {2 * i: 1, 2 * i + 1: 1})): 1 for i in range(len(weights))}
    return Model(table, Operator(table, d | d2), Operator(table, d))


def exterior_cube_model() -> Model:
    """Exterior algebra on three degree-1 generators with the third-order
    operator d^3/(dxi_1 dxi_2 dxi_3), degree -3, square zero, d = 0."""
    table = GeneratorTable(("xi1", "xi2", "xi3"), (1, 1, 1))
    D = Operator(table, {((0, 0, 0), (1, 1, 1)): 1})
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
    z = (0,) * 6
    d = {(z, (1, 0, 0, 0, 0, 0)): 1}
    D = d | {(z, (0, 1, 1, 0, 0, 0)): 1, (z, (0, 0, 0, 1, 1, 1)): 1}
    return Model(table, Operator(table, D), Operator(table, d))


BUILTIN_MODELS = {
    "polyvector2": lambda: polyvector_model(2),
    "polyvector3": lambda: polyvector_model(3),
    "koszul1": lambda: koszul_complex_model([1]),
    "koszul2": lambda: koszul_complex_model([2]),
    "exterior-cube": exterior_cube_model,
    "mixed-order": mixed_order_model,
}
