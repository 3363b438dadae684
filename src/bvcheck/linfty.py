"""The square-zero relation family of an odd operator.

The n-th relation is defined as

    R_n(a_1,...,a_n) = sum_{l=1..n} sum_{sigma in Sh(l,n-l)}
        eps(sigma) F^{n-l+1}( F^l(a_{sigma(1)},...,a_{sigma(l)}),
                              a_{sigma(l+1)},...,a_{sigma(n)} )

with eps the Koszul sign in unshifted degrees.  For an odd operator D it is
the n-th bracket of D o D (Akman; Voronov), so it vanishes for every n iff
D o D = 0; the n = 1 member is literally D(D a).  The library evaluates that
bracket of the square by the recursion (``akman_bracket``), memoised on
``D.square()``; the tests compare it with the expansion above.
``verify_linfty`` samples each relation on the budget's window, one
``StructReport.sample`` line per n.
"""

from __future__ import annotations

from .algebra import AlgebraError, Element
from .brackets import Budget, akman_bracket, window_elements
from .operators import Operator
from .structures import StructReport


def linfty_relation(D: Operator, n: int, args) -> Element:
    """Left-hand side of the n-th member of the square-zero relation family."""
    args = tuple(args)
    if len(args) != n:
        raise AlgebraError(f"relation index {n} with {len(args)} arguments")
    if not D.is_odd():
        raise AlgebraError("relation family requires an odd operator")
    return akman_bracket(D.square(), args)


def verify_linfty(D: Operator, n_max: int, budget: Budget | None = None) -> StructReport:
    """The relation family for n = 1..n_max, each relation sampled on the
    tuples of the budget's window."""
    if not D.is_odd():
        raise AlgebraError("relation family requires an odd operator")
    if n_max < 1:
        raise AlgebraError(f"relation family needs n >= 1, got {n_max}")
    budget = budget or Budget()
    window = window_elements(D.table, budget)
    report = StructReport("square-zero relation family")
    for n in range(1, n_max + 1):
        report.sample(f"relation n={n}", window, n, budget,
                      lambda args: not linfty_relation(D, n, args).is_zero(), "tuples")
    return report
