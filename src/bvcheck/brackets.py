"""Higher obstruction brackets of a differential operator, two ways.

``akman_bracket`` implements the recursive definition

    F^1(a) = D a
    F^{n+1}(a_1,...,a_n,a_{n+1}) =
        F^n(a_1,...,a_{n-1}, a_n a_{n+1})
      - F^n(a_1,...,a_n) a_{n+1}
      - (-1)^{|a_n| (|a_1|+...+|a_{n-1}| + |D|)} a_n F^n(a_1,...,a_{n-1}, a_{n+1}),

``koszul_bracket`` the coalgebraic unshuffle expansion; the two agree exactly
(tested, not assumed).  On a graded-commutative algebra the brackets are
graded symmetric:  F(..., b, a, ...) = (-1)^{|a||b|} F(..., a, b, ...).

Signs read only parities, so arguments and D are required parity-homogeneous;
degree-homogeneous inputs are the common case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product as iter_product

from .algebra import AlgebraError, Element, enumerate_monomials
from .graded import koszul_sign, unshuffles
from .operators import Operator


def _check_parity(D: Operator) -> None:
    if not D.is_parity_homogeneous():
        raise AlgebraError(
            "bracket of a mixed-parity operator; apply degree_components first"
        )


def _check_args(D: Operator, args) -> tuple[int, list[int]]:
    """Validate a bracket request; return (|D| parity, argument parities).

    Reads D's cached degree set, so the cost does not grow with D's terms.
    """
    if not args:
        raise AlgebraError("bracket needs at least one argument")
    _check_parity(D)
    parities = []
    for a in args:
        if a.is_zero():
            parities.append(0)
            continue
        if a.table is not D.table and a.table != D.table:
            raise AlgebraError("bracket argument over a different table")
        parities.append(a.parity())  # raises on mixed parity
    return (D.parity() if D else 1), parities


def akman_recursion(apply_fn, mul_fn, p_D: int, args, parities):
    """Core recursion, abstract in the operator action and the product.

    ``apply_fn``/``mul_fn`` operate on whatever value type the caller uses
    (Elements here, cohomology classes in the induced-structure checks);
    values must support + and -.  It recurses through itself, not through a
    local closure: a closure that calls itself is a reference cycle, and would
    keep the operator behind ``apply_fn``, with its caches, alive until the
    cyclic garbage collector runs.
    """
    tup, pars = tuple(args), tuple(parities)
    if len(tup) == 1:
        return apply_fn(tup[0])
    a_n, a_np1 = tup[-2], tup[-1]
    p_n = pars[-2]
    head, head_p = tup[:-2], pars[:-2]
    rec = partial(akman_recursion, apply_fn, mul_fn, p_D)
    t1 = rec(head + (mul_fn(a_n, a_np1),), head_p + ((p_n + pars[-1]) % 2,))
    t2 = mul_fn(rec(head + (a_n,), head_p + (p_n,)), a_np1)
    t3 = mul_fn(a_n, rec(head + (a_np1,), head_p + (pars[-1],)))
    if p_n * ((sum(head_p) + p_D) % 2) % 2:
        return t1 - t2 + t3
    return t1 - t2 - t3


def akman_bracket(D: Operator, args) -> Element:
    """The arity-len(args) obstruction bracket, by the recursion."""
    args = tuple(args)
    p_D, parities = _check_args(D, args)
    return akman_recursion(D.apply, lambda a, b: a * b, p_D, args, parities)


def koszul_bracket(D: Operator, args) -> Element:
    """Same bracket via the unshuffle expansion of the coproduct formula.

    F^n(a_1,...,a_n) =
        sum_{k=1..n} (-1)^{n-k} sum_{sigma in Sh(k,n-k)}
            eps(sigma) D(a_{sigma(1)} ... a_{sigma(k)})
                       * a_{sigma(k+1)} ... a_{sigma(n)},
    with eps the Koszul reordering sign in the (unshifted) element degrees.

    Each index-ordered subset product is built once, from the product of the
    subset without its last index; ((a b) c) = (a (b c)) keeps the result
    exactly that of multiplying left to right per unshuffle.
    """
    args = tuple(args)
    _, parities = _check_args(D, args)
    if not D:
        return Element.zero(args[0].table)
    n = len(args)
    products = {(i,): a for i, a in enumerate(args)}
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            products[subset] = products[subset[:-1]] * args[subset[-1]]
    out = Element.zero(args[0].table)
    for k in range(1, n + 1):
        for sigma in unshuffles(k, n):
            negative = ((n - k) % 2 == 1) != (koszul_sign(parities, sigma) < 0)
            term = D.apply(products[sigma[:k]])
            if not term:
                continue
            if k < n:
                term = term * products[sigma[k:]]
            out = out - term if negative else out + term
    return out


def bv_bracket(delta: Operator, a: Element, b: Element) -> Element:
    """Odd bracket induced by a BV-type operator: (-1)^{|a|} F^2(a, b)."""
    val = akman_bracket(delta, (a, b))
    return -val if a and a.parity() else val


@dataclass
class Budget:
    """Enumeration budget for sampled checks; seed makes sampling reproducible."""

    max_degree: int = 3
    max_tuples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_degree < 0 or self.max_tuples < 0:
            raise AlgebraError("budget degree and tuple count must be >= 0")


def monomial_tuples(table, arity: int, budget: Budget):
    """Deterministic tuple stream: full product if small, else seeded sample.

    Lazy and single-pass: a sampled tuple is drawn only when it is consumed.
    ``tuple_count`` gives its length without drawing anything."""
    monos = enumerate_monomials(table, budget.max_degree)
    if len(monos) ** arity <= budget.max_tuples:
        yield from iter_product(monos, repeat=arity)
        return
    rng = random.Random(budget.seed)
    for _ in range(budget.max_tuples):
        yield tuple(monos[rng.randrange(len(monos))] for _ in range(arity))


def tuple_count(table, arity: int, budget: Budget) -> int:
    """How many tuples ``monomial_tuples`` yields."""
    return min(len(enumerate_monomials(table, budget.max_degree)) ** arity, budget.max_tuples)


def first_witness(cases, holds):
    """``(tried, witness)``: the first of ``cases`` that ``holds``, or None, and
    how many cases were tried, the witness included.  Nothing after the witness
    is consumed; wrap ``cases`` in ``islice`` to cap the search."""
    tried = 0
    for case in cases:
        tried += 1
        if holds(case):
            return tried, case
    return tried, None


@dataclass
class OrderCertificate:
    """Machine-checkable evidence that an operator has a given bracket order."""

    claimed_order: int
    tuples_tested: int
    passed: bool
    failure_witness: tuple | None = None
    sharp_witness: tuple | None = None
    degenerate_zero: bool = False
    missed: bool = False  # the normal form has a nonzero bracket no tuple reached

    @property
    def sharp(self) -> bool:
        return self.sharp_witness is not None

    @property
    def status(self) -> str:
        """``fail``, or ``pass``; ``untested`` when no tuple was tried, unless
        the operator is zero and has order 0 by convention, or when the search
        missed a nonzero bracket that the normal form shows."""
        if not self.passed:
            return "fail"
        decided = self.degenerate_zero or (self.tuples_tested and not self.missed)
        return "pass" if decided else "untested"

    def verdict(self) -> str:
        if self.degenerate_zero:
            return "pass (zero operator, order 0 by convention)"
        sharp = "sharp" if self.sharp else "not shown sharp"
        return f"{self.status} ({sharp}, {self.tuples_tested} tuples)"


def bracket_vanishes(P: Operator, n: int) -> bool:
    """Exactly whether ``F^n_P`` is zero on the whole algebra: no term of ``P``
    multiplies without differentiating, and every term has fewer than n
    derivatives (the empty subset is left out of the bracket, so a
    multiplication term shows in every arity)."""
    return all(0 < sum(deriv) < n for _, deriv in P.terms)


def akman_order_check(D: Operator, k: int, budget: Budget | None = None) -> OrderCertificate:
    """Certify order <= k: every enumerated arity-(k+1) bracket vanishes.

    Also records a nonzero arity-k bracket witness when one exists within
    budget (sharpness).  Tuples are monomial tuples; multilinearity makes
    them a spanning test set for the budgeted degree window.  A bracket that
    ``bracket_vanishes`` is not searched: its tuples all pass, and no
    sharpness witness exists.  Brackets are evaluated only to find a witness;
    missing one that the normal form shows exists leaves the claim untested.
    """
    if k < 0:
        raise AlgebraError("order must be >= 0")
    budget = budget or Budget()
    table = D.table
    if D.is_zero():
        return OrderCertificate(k, 0, True, degenerate_zero=True)
    _check_parity(D)

    def nonzero(tup):
        return not akman_bracket(D, [Element.monomial(table, m) for m in tup]).is_zero()

    if bracket_vanishes(D, k + 1):
        tested, failure, missed = tuple_count(table, k + 1, budget), None, False
    else:
        tested, failure = first_witness(monomial_tuples(table, k + 1, budget), nonzero)
        missed = failure is None
    sharp_witness = None
    if failure is None and k >= 1 and not bracket_vanishes(D, k):
        _, sharp_witness = first_witness(monomial_tuples(table, k, budget), nonzero)
    return OrderCertificate(k, tested, failure is None, failure, sharp_witness, missed=missed)
