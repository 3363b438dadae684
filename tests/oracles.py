"""Independent reference implementations that the tests compare against.

Each one is written the slow, obvious way and is used only by tests.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import islice, product as iter_product

from bvcheck.algebra import AlgebraError, Element, GeneratorTable, enumerate_monomials
from bvcheck.brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,
    akman_recursion,
    bv_bracket,
    first_witness,
    monomial_tuples,
)
from bvcheck.graded import koszul_sign, unshuffles
from bvcheck.operators import Operator
from bvcheck.structures import StructReport, _first_tuples, _hom_bilinear


def enumerate_monomials_by_box(table: GeneratorTable, max_degree: int) -> list:
    """``enumerate_monomials`` by filtering the whole exponent box."""
    ranges = []
    for i in range(len(table)):
        cap = 1 if table.parity(i) else max_degree
        ranges.append(range(min(cap, max_degree) + 1))
    monos = [m for m in iter_product(*ranges) if sum(m) <= max_degree]
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def vec_add(a: dict, b: dict, scale: Fraction = Fraction(1)) -> dict:
    """``a + scale * b`` in a new dict, with a ``Fraction(0)`` per entry."""
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + scale * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


class RowSpaceByCopies:
    """``RowSpace`` with a fresh dict for every pivot a reduction meets, and
    every inserted vector reduced again."""

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        for k in sorted(vec):
            if k in vec and k in self.rows:
                vec = vec_add(vec, self.rows[k], -vec[k])
        return vec

    def add(self, vec: dict) -> dict:
        residual = self.reduce(vec)
        if residual:
            pivot = min(residual)
            inv = Fraction(1) / residual[pivot]
            row = {k: v * inv for k, v in residual.items()}
            for p, r in list(self.rows.items()):
                if pivot in r:
                    self.rows[p] = vec_add(r, row, -r[pivot])
            self.rows[pivot] = row
        return residual


def kernel_and_image_by_copies(labels: list, vectors: list[dict]):
    """``kernel_and_image`` on ``RowSpaceByCopies``, reducing each augmented
    vector twice."""
    tracked = RowSpaceByCopies()
    kernel: list[dict] = []
    for label, vec in zip(labels, vectors):
        aug = {(0, k): v for k, v in vec.items()}
        aug[(1, label)] = Fraction(1)
        residual = tracked.reduce(aug)
        if all(k[0] == 1 for k in residual):
            kernel.append({k[1]: v for k, v in residual.items()})
        else:
            tracked.add(residual)
    image = RowSpaceByCopies()
    for (_, pivot), row in tracked.rows.items():
        image.rows[pivot] = {k[1]: v for k, v in row.items() if k[0] == 0}
    return kernel, image


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


def monomial_tuples_eager(table, arity: int, budget: Budget) -> list:
    """``monomial_tuples`` as one list, every sampled tuple drawn up front."""
    monos = enumerate_monomials(table, budget.max_degree)
    if not monos:
        return []
    total = len(monos) ** arity
    if total <= budget.max_tuples:
        return list(iter_product(monos, repeat=arity))
    rng = random.Random(budget.seed)
    return [
        tuple(monos[rng.randrange(len(monos))] for _ in range(arity))
        for _ in range(budget.max_tuples)
    ]


def order_check_by_evaluation(D, k: int, budget: Budget | None = None) -> OrderCertificate:
    """``akman_order_check`` without the normal-form rule: evaluate the
    arity-(k+1) bracket on every budgeted tuple up to the first nonzero one,
    and after a pass search the arity-k tuples for a sharpness witness."""
    budget = budget or Budget()
    table = D.table
    if D.is_zero():
        return OrderCertificate(k, 0, True, degenerate_zero=True)

    def nonzero(tup):
        return not akman_bracket(D, [Element.monomial(table, m) for m in tup]).is_zero()

    tested, failure = first_witness(monomial_tuples(table, k + 1, budget), nonzero)
    sharp_witness = None
    if failure is None and k >= 1:
        _, sharp_witness = first_witness(monomial_tuples(table, k, budget), nonzero)
    return OrderCertificate(k, tested, failure is None, failure, sharp_witness)


def square_by_degree_pairs(D) -> dict:
    """``D o D`` by degree the long way: for each total degree s, the sum of
    ``D_(g) o D_(h)`` over the pairs of degree components with g + h = s.
    Degrees whose sum is zero are left out."""
    comps = D.degree_components()
    by_total: dict = {}
    for g, A in comps.items():
        for h, B in comps.items():
            by_total[g + h] = by_total.get(g + h, Operator.zero(D.table)) + A.compose(B)
    return {s: op for s, op in by_total.items() if not op.is_zero()}


def bracket_derivation_defect(D, X, a, b) -> Element:
    """``X[a,b] - [Xa, b] + (-1)^{|a|} [a, Xb]`` for the bracket
    ``[u,v] = (-1)^{|u|} F^2_D(u,v)`` of ``D``, extended bilinearly over the
    homogeneous parts of its arguments; ``a`` is homogeneous.  It is zero
    exactly where ``X`` is a derivation of ``D``'s bracket at ``(a, b)``."""

    def bracket(u, v):
        out = Element.zero(u.table)
        for cu in u.grade_decompose().values():
            for cv in v.grade_decompose().values():
                out = out + bv_bracket(D, cu, cv)
        return out

    sign = -1 if a.parity() else 1
    return X.apply(bracket(a, b)) - bracket(X.apply(a), b) + sign * bracket(a, X.apply(b))


def gerstenhaber_by_evaluation(
    bracket,
    product,
    elements: list[Element],
    budget: Budget | None = None,
    bracket_degree: int | None = None,
    product_degree: int | None = None,
    title: str = "gerstenhaber axioms",
) -> StructReport:
    """``check_gerstenhaber`` evaluating every axiom: graded antisymmetry,
    Jacobi, Leibniz and degree offsets, the offsets on a head of the elements.

    ``bracket`` takes two homogeneous elements.  Conventions (with unshifted
    element degrees, bracket of odd degree):

        [a,b] = -(-1)^{(|a|+1)(|b|+1)} [b,a]
        [a,[b,c]] = [[a,b],c] + (-1)^{(|a|+1)(|b|+1)} [b,[a,c]]
        [a, b c] = [a,b] c + (-1)^{|b||c|} [a,c] b

    The axioms revisit the same pairs many times, so ``bracket`` and
    ``product`` are memoised for this call (an Element hashes by its support
    and compares by its normal form): each is evaluated once per distinct pair.
    """
    budget = budget or Budget()
    bracket, product = cache(bracket), cache(product)
    report = StructReport(title)
    elems = [e for e in elements if not e.is_zero()]

    def antisymmetry_fails(pair):
        a, b = pair
        # [a,b] = -(-1)^{(|a|+1)(|b|+1)} [b,a]
        sign = -1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 == 0 else 1
        return not (bracket(a, b) - sign * bracket(b, a)).is_zero()

    def jacobi_fails(triple):
        a, b, c = triple
        sign = -1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 else 1
        lhs = _hom_bilinear(bracket, a, bracket(b, c))
        rhs = _hom_bilinear(bracket, bracket(a, b), c)
        rhs = rhs + sign * _hom_bilinear(bracket, b, bracket(a, c))
        return not (lhs - rhs).is_zero()

    def leibniz_fails(triple):
        a, b, c = triple
        sign = -1 if (b.degree() * c.degree()) % 2 else 1
        lhs = _hom_bilinear(bracket, a, product(b, c))
        rhs = product(bracket(a, b), c) + sign * product(bracket(a, c), b)
        return not (lhs - rhs).is_zero()

    for name, arity, fails, unit in (
        ("graded antisymmetry", 2, antisymmetry_fails, "pairs"),
        ("graded Jacobi", 3, jacobi_fails, "triples"),
        ("Leibniz rule", 3, leibniz_fails, "triples"),
    ):
        report.tally(name, *first_witness(_first_tuples(elems, arity, budget), fails), unit)

    head = elems[: max(4, len(elems) // 2)]
    for label, op, offset in (
        ("bracket", bracket, bracket_degree),
        ("product", product, product_degree),
    ):
        if offset is None:
            continue

        def off_degree(pair):
            v = op(*pair)
            return bool(v) and v.degree() != pair[0].degree() + pair[1].degree() + offset

        report.tally(
            f"{label} degree offset {offset:+d}",
            *first_witness(iter_product(head, repeat=2), off_degree),
        )
    return report


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


def induced_items_by_evaluation(H, D2, window_degree: int, budget: Budget) -> StructReport:
    """``induced_bv``'s items after the slice dimensions, every one evaluated
    on the classes of ``H`` with the degree -1 part ``D2``, even when it is 0."""
    table = H.table
    report = StructReport("induced items by evaluation")
    reps = [r for rs in H.representatives.values() for r in rs]
    bad, untested_boundary = None, False
    for row in H.boundary_space.rows.values():
        residual = H.boundary_space.reduce(D2.apply(Element(table, row)).coeffs)
        if any(sum(m) > window_degree for m in residual):
            untested_boundary = True
        elif residual:
            bad = Element(table, row)
            break
    name = "induced map well defined on classes"
    if bad is not None:
        report.add(name, "fail", witness=str(bad))
    elif untested_boundary:
        report.add(name, "untested", "untested at boundary: image leaves the window")
    else:
        report.add(name, "pass", f"{H.boundary_space.dim} boundaries")

    def induced(a):
        return H.reduce(D2.apply(a))

    def induced_product(a, b):
        return H.reduce(a * b)

    def bracket(args):
        return akman_recursion(induced, induced_product, 1, args, tuple(a.parity() for a in args))

    report.tally(
        "induced operator squares to zero on classes",
        *first_witness(reps, lambda r: not induced(induced(r)).is_zero()),
    )
    report.tally(
        "induced operator has order <= 2 on representatives",
        *first_witness(
            islice(iter_product(reps, repeat=3), budget.max_tuples),
            lambda trip: not bracket(trip).is_zero(),
        ),
        "triples",
    )
    g_report = gerstenhaber_by_evaluation(
        lambda a, b: -bracket((a, b)) if a.parity() else bracket((a, b)),
        induced_product,
        reps,
        budget,
    )
    for item in g_report.items:
        report.add("induced bracket: " + item.name, item.status, item.details, item.witness)
    return report
