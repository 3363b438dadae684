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

Both routes sum over integers with ``D.int_image`` and ``monomial_mul`` and
divide once at the output: ``akman_bracket`` runs the recursion on monomial
tuples, ``koszul_bracket`` on products of its argument ``Element``s.  Each
call validates every argument, and reads its parity, scale and integer
coefficients from the form the ``Element`` keeps (``Element.int_form``);
``koszul_bracket`` reads its unshuffles and their signs from a table that
``D`` keeps per pattern of argument parities.  The recursion on ``Element``
values, or on cohomology classes, is evaluated only by the test oracles
(tests/oracles.py).

Signs read only parities, so arguments and D are required parity-homogeneous;
degree-homogeneous inputs are the common case.  ``akman_order_check`` reads
the normal-form rule of ``operators``, and evaluates only to confirm a witness.

Every sampled check draws its arguments the same way: ``window_elements``
builds the budget's window of monomials as ``Element``s once, and
``window_tuples`` streams tuples of them, the whole product or a seeded
sample, which ``StructReport.sample`` searches with ``first_witness``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import prod

from .algebra import (
    AlgebraError, Element, Monomial, enumerate_monomials, monomial_mul,
)
from .graded import koszul_sign, unshuffles
from .operators import Operator, bracket_vanishes, bracket_witness


def _check_parity(D: Operator) -> int:
    """|D| mod 2, 1 for the zero operator, from one pass over D's degrees."""
    parities = {d % 2 for d in D.degrees()}
    if len(parities) > 1:
        raise AlgebraError(
            "bracket of a mixed-parity operator; apply degree_components first"
        )
    return parities.pop() if parities else 1


_ZERO_FORM = (0, 1, {})  # a zero argument: parity 0 and no terms


def _check_args(D: Operator, args) -> tuple[int, list]:
    """Validate a bracket request; return (|D| parity, argument forms), each
    form the argument's ``int_form``, or ``_ZERO_FORM`` for a zero argument.

    Reads D's cached degree set and each argument's kept form, so the cost
    grows with neither D's terms nor the arguments' after their first call;
    the table and parity of every argument are still checked on every call.
    """
    if not args:
        raise AlgebraError("bracket needs at least one argument")
    p_D = _check_parity(D)
    forms = []
    for a in args:
        if a.is_zero():
            forms.append(_ZERO_FORM)
            continue
        if a.table is not D.table and a.table != D.table:
            raise AlgebraError("bracket argument over a different table")
        forms.append(a.int_form())  # raises on mixed parity
    return p_D, forms


def _integral(a: Element, scale: int) -> dict[Monomial, int]:
    """``scale * a`` as {monomial: int}, for a ``scale`` that clears every
    denominator of ``a``."""
    return {m: c.numerator * (scale // c.denominator) for m, c in a.coeffs.items()}


def _akman_on_monomials(D: Operator, p_D: int, monos: tuple, parities: tuple):
    """The module docstring's recursion on monomials, as {monomial: int} over
    ``D.den()``, with ``D.int_image`` at the leaves; the product a_n a_{n+1}
    is a signed monomial, whose sign scales the first term.

    Every value is kept in ``D``'s recursion memo, keyed by ``monos`` alone:
    the parities are those of the monomials and ``p_D`` is ``D``'s.  The
    result is ``D``'s cached dict: read it, never mutate it."""
    if len(monos) == 1:
        return D.int_image(monos[0])
    cached = D._akman.get(monos)
    if cached is not None:
        return cached
    table = D.table
    a_n, a_np1 = monos[-2], monos[-1]
    p_n, p_np1 = parities[-2], parities[-1]
    head, head_p = monos[:-2], parities[:-2]
    out: dict[Monomial, int] = {}
    sm = monomial_mul(table, a_n, a_np1)
    if sm is not None:
        t1 = _akman_on_monomials(D, p_D, head + (sm[1],), head_p + ((p_n + p_np1) % 2,))
        out = {k: sm[0] * v for k, v in t1.items()}
    for k, v in _akman_on_monomials(D, p_D, head + (a_n,), head_p + (p_n,)).items():
        sm = monomial_mul(table, k, a_np1)
        if sm is not None:
            out[sm[1]] = out.get(sm[1], 0) - sm[0] * v
    sign = 1 if p_n * ((sum(head_p) + p_D) % 2) else -1
    for k, v in _akman_on_monomials(D, p_D, head + (a_np1,), head_p + (p_np1,)).items():
        sm = monomial_mul(table, a_n, k)
        if sm is not None:
            out[sm[1]] = out.get(sm[1], 0) + sign * sm[0] * v
    out = D._akman[monos] = {k: v for k, v in out.items() if v}
    return out


def akman_bracket(D: Operator, args) -> Element:
    """The arity-len(args) obstruction bracket, by the recursion on every
    tuple of the arguments' monomials, each weighted by the product of its
    coefficients scaled to integers, as in each argument's ``int_form``."""
    args = tuple(args)
    p_D, forms = _check_args(D, args)
    if not D:
        return Element.zero(args[0].table)
    parities = tuple(f[0] for f in forms)
    out: dict[Monomial, int] = {}
    for choice in iter_product(*(f[2].items() for f in forms)):
        c = prod(n for _, n in choice)
        monos = tuple(m for m, _ in choice)
        for k, v in _akman_on_monomials(D, p_D, monos, parities).items():
            out[k] = out.get(k, 0) + c * v
    den = D.den() * prod(f[1] for f in forms)
    return Element(args[0].table, {k: Fraction(v, den) for k, v in out.items() if v})


def _sign_table(D: Operator, parities: tuple) -> tuple:
    """``(k, sigma, negative)`` for every k = 1..n and every (k, n-k)
    unshuffle sigma, ``negative`` the sign (-1)^{n-k} eps(sigma) of its term
    for these argument parities; built once per parity pattern and kept on
    ``D``, like the recursion memo."""
    table = D._koszul_signs.get(parities)
    if table is None:
        n = len(parities)
        table = D._koszul_signs[parities] = tuple(
            (k, sigma, ((n - k) % 2 == 1) != (koszul_sign(parities, sigma) < 0))
            for k in range(1, n + 1)
            for sigma in unshuffles(k, n)
        )
    return table


def koszul_bracket(D: Operator, args) -> Element:
    """Same bracket via the unshuffle expansion of the coproduct formula.

    F^n(a_1,...,a_n) =
        sum_{k=1..n} (-1)^{n-k} sum_{sigma in Sh(k,n-k)}
            eps(sigma) D(a_{sigma(1)} ... a_{sigma(k)})
                       * a_{sigma(k+1)} ... a_{sigma(n)},
    with eps the Koszul reordering sign in the (unshifted) element degrees.

    Each index-ordered subset product is built once, from the product of the
    subset without its last index; ((a b) c) = (a (b c)) keeps the result
    exactly that of multiplying left to right per unshuffle, and is scaled to
    integers by the product of its arguments' ``int_form`` scales.  The signs
    come from ``D``'s table for the arguments' parities.
    """
    args = tuple(args)
    _, forms = _check_args(D, args)
    table = args[0].table
    if not D:
        return Element.zero(table)
    n = len(args)
    scales = [f[1] for f in forms]
    ints = {(i,): f[2] for i, f in enumerate(forms)}
    products = {(i,): a for i, a in enumerate(args)}
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            p = products[subset] = products[subset[:-1]] * args[subset[-1]]
            ints[subset] = _integral(p, prod(scales[i] for i in subset))
    unit = {(0,) * len(table): 1}
    out: dict[Monomial, int] = {}
    for k, sigma, negative in _sign_table(D, tuple(f[0] for f in forms)):
        right = ints[sigma[k:]] if k < n else unit
        for m, c in ints[sigma[:k]].items():
            if negative:
                c = -c
            for p, v in D.int_image(m).items():
                for r, cr in right.items():
                    sm = monomial_mul(table, p, r)
                    if sm is not None:
                        out[sm[1]] = out.get(sm[1], 0) + sm[0] * c * v * cr
    den = D.den() * prod(scales)
    return Element(table, {m: Fraction(v, den) for m, v in out.items() if v})


def bv_bracket(delta: Operator, a: Element, b: Element) -> Element:
    """Odd bracket induced by a BV-type operator: (-1)^{|a|} F^2(a, b)."""
    val = akman_bracket(delta, (a, b))
    return -val if a and a.parity() else val


class Budget:
    """Enumeration budget for sampled checks; seed makes sampling reproducible."""

    def __init__(self, max_degree: int = 3, max_tuples: int = 200, seed: int = 0):
        if max_degree < 0 or max_tuples < 0:
            raise AlgebraError("budget degree and tuple count must be >= 0")
        self.max_degree = max_degree
        self.max_tuples = max_tuples
        self.seed = seed


def window_elements(table, budget: Budget) -> list[Element]:
    """Each monomial of the budget's window as an ``Element``, in
    ``enumerate_monomials`` order, built once so that every tuple of
    ``window_tuples`` over it shares them: read them, never mutate them."""
    return [Element.monomial(table, m) for m in enumerate_monomials(table, budget.max_degree)]


def window_tuples(window, arity: int, budget: Budget):
    """Deterministic stream of ``arity``-tuples of the items of ``window``:
    their full product if small, else a sample seeded by ``budget.seed``.

    Lazy and single-pass: a sampled tuple is drawn only when it is consumed."""
    if len(window) ** arity <= budget.max_tuples:
        yield from iter_product(window, repeat=arity)
        return
    rng = random.Random(budget.seed)
    for _ in range(budget.max_tuples):
        yield tuple(window[rng.randrange(len(window))] for _ in range(arity))


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


class OrderCertificate:
    """Machine-checkable evidence that an operator has a given bracket order.

    ``tuples_tested`` counts the brackets evaluated to reach the verdict.
    Certificates are equal when every field is."""

    def __init__(self, tuples_tested: int, passed: bool, failure_witness: tuple | None = None,
                 sharp: bool = False, degenerate_zero: bool = False):
        self.tuples_tested = tuples_tested
        self.passed = passed
        self.failure_witness = failure_witness
        self.sharp = sharp  # a passing order k >= 1 with F^k nonzero
        self.degenerate_zero = degenerate_zero

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def verdict(self) -> str:
        """The details of the certificate's report line, empty for a failure,
        which its status and witness say in full."""
        if not self.passed:
            return ""
        if self.degenerate_zero:
            return "pass (zero operator, order 0 by convention)"
        return "exact, sharp" if self.sharp else "exact, not sharp"


def akman_order_check(D: Operator, k: int) -> OrderCertificate:
    """Decide order <= k exactly from the normal form: every arity-(k+1)
    bracket vanishes iff ``bracket_vanishes(D, k + 1)``.

    A pass evaluates no bracket and is sharp when the arity-k bracket does
    not vanish.  A failure carries ``bracket_witness``, confirmed by one
    bracket evaluation.
    """
    if k < 0:
        raise AlgebraError("order must be >= 0")
    if D.is_zero():
        return OrderCertificate(0, True, degenerate_zero=True)
    _check_parity(D)
    if bracket_vanishes(D, k + 1):
        sharp = k >= 1 and not bracket_vanishes(D, k)
        return OrderCertificate(0, True, sharp=sharp)
    witness = bracket_witness(D, k + 1)
    if akman_bracket(D, [Element.monomial(D.table, m) for m in witness]).is_zero():
        raise AssertionError("constructed bracket witness evaluates to zero")
    return OrderCertificate(1, False, witness)
