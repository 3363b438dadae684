"""Independent reference implementations that the tests compare against.

Each one is written the slow, obvious way and is used only by tests.
"""

import random
from fractions import Fraction
from functools import cache, partial
from itertools import islice, product as iter_product
from math import comb, lcm

from bvcheck.algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    enumerate_monomials,
    monomial_mul,
    parse_element,
)
from bvcheck.brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,
    bv_bracket,
    first_witness,
    window_tuples,
)
from bvcheck.graded import koszul_sign, unshuffles
from bvcheck.operators import Operator
from bvcheck.structures import StructReport


def enumerate_monomials_by_box(table: GeneratorTable, max_degree: int) -> list:
    """``enumerate_monomials`` by filtering the whole exponent box."""
    ranges = []
    for i in range(len(table)):
        cap = 1 if table.parity(i) else max_degree
        ranges.append(range(min(cap, max_degree) + 1))
    monos = [m for m in iter_product(*ranges) if sum(m) <= max_degree]
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def count_monomials(table: GeneratorTable, max_degree: int) -> int:
    """``len(enumerate_monomials(table, max_degree))`` in closed form: ``j``
    of the odd generators, and a total exponent of at most ``max_degree - j``
    on the even ones."""
    n_odd = len(table.odd)
    n_even = len(table) - n_odd
    return sum(
        comb(n_odd, j) * comb(n_even + max_degree - j, n_even)
        for j in range(min(max_degree, n_odd) + 1)
    )


def is_homogeneous(a: Element) -> bool:
    """Whether every monomial of ``a`` has one degree (true for 0)."""
    return len({a.table.monomial_degree(m) for m in a.coeffs}) <= 1


def grade_decompose(a: Element) -> dict[int, Element]:
    """``a`` split into homogeneous components, keyed by degree."""
    parts: dict[int, dict] = {}
    for mono, c in a.coeffs.items():
        parts.setdefault(a.table.monomial_degree(mono), {})[mono] = c
    return {d: Element(a.table, cs) for d, cs in sorted(parts.items())}


def witness_elements(table: GeneratorTable, witness: str) -> list[Element]:
    """A report's witness ``(a, b, ...)`` of monomial elements read back with
    ``parse_element``."""
    assert witness.startswith("(") and witness.endswith(")"), witness
    return [parse_element(table, text) for text in witness[1:-1].split(", ")]


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
    """The rational row space that ``RowSpace`` keeps in integers: rows of
    pivot coefficient 1, a fresh dict for every pivot a reduction meets, and
    every inserted vector reduced again.  ``reduce`` returns the residual in
    a new dict, and ``add`` the residual it inserted (empty if in the span)."""

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


def integer_vectors(vectors: list[dict]) -> list[dict]:
    """Rational ``vectors``, every one times the lcm of all their
    denominators, as the integer vectors ``kernel_and_image`` takes; a
    common factor changes neither its kernel nor its image in the
    ``fraction_view``."""
    den = lcm(*(v.denominator for vec in vectors for v in vec.values()))
    return [{k: (v * den).numerator for k, v in vec.items()} for vec in vectors]


def fraction_view(kernel: list, image: dict):
    """``kernel_and_image``'s integer return as the rational elimination gives
    it: each combination divided by its scale, and each image row (or
    ``cohomology``'s boundary row) by its pivot entry, in a
    ``RowSpaceByCopies``."""
    space = RowSpaceByCopies()
    for pivot, row in image.items():
        space.rows[pivot] = {k: Fraction(v, row[pivot]) for k, v in row.items()}
    return [{k: Fraction(v, scale) for k, v in c.items()} for c, scale in kernel], space


def boundary_space(H) -> RowSpaceByCopies:
    """``H.boundaries``, decoded through ``H.unpack``, as the rational fully
    reduced rows over monomials, each integer row divided by its pivot
    entry."""
    unpack = H.unpack
    return fraction_view([], {unpack(p): {unpack(k): v for k, v in row.items()}
                              for p, row in H.boundaries.items()})[1]


def cohomology_by_fractions(table: GeneratorTable, d: Operator, window_degree: int):
    """``cohomology``'s representatives, boundary space and warnings the
    rational way: each slice's ``image_by_fractions`` eliminated by
    ``kernel_and_image_by_copies``, and every kernel combination reduced
    modulo the boundaries and added to a ``RowSpaceByCopies`` in
    ``Fraction``s."""
    warnings: list[str] = []
    growths = [sum(m) - sum(dv) for (m, dv) in d.terms]
    whole = len(table.odd) == len(table) and window_degree >= len(table)
    truncation_risk = bool(growths) and min(growths) <= 0 and not whole

    by_degree: dict[int, list] = {}
    for m in enumerate_monomials(table, window_degree):
        by_degree.setdefault(table.monomial_degree(m), []).append(m)

    boundaries = RowSpaceByCopies()
    kernels: dict[int, list[dict]] = {}
    for g, slice_monos in sorted(by_degree.items()):
        images = [image_by_fractions(d, m) for m in slice_monos]
        kernels[g], image = kernel_and_image_by_copies(slice_monos, images)
        boundaries.rows.update(image.rows)

    representatives: dict[int, list[Element]] = {}
    for g, slice_monos in sorted(by_degree.items()):
        reps: list[Element] = []
        rep_space = RowSpaceByCopies()
        for combo in kernels[g]:
            reduced = boundaries.reduce(combo)
            if rep_space.add(reduced):  # nothing for a boundary
                reps.append(Element(table, reduced))
        if reps:
            representatives[g] = reps
        if truncation_risk and any(
            sum(m) >= window_degree + min(growths) for m in slice_monos
        ):
            warnings.append(
                f"degree {g}: boundaries from outside the window may be missed"
            )
    return representatives, boundaries, warnings


def leibniz_derivative(table: GeneratorTable, i: int, mono):
    """d_i of a monomial: remove each letter i from the letter word in turn,
    with the sign of moving d_i past the odd letters before it.  Returns
    (int coeff, monomial) or None."""
    word = [j for j, e in enumerate(mono) for _ in range(e)]
    total = 0
    for pos, letter in enumerate(word):
        if letter == i:
            odd_before = sum(1 for j in word[:pos] if table.degrees[j] % 2)
            total += -1 if table.degrees[i] % 2 and odd_before % 2 else 1
    if not total:
        return None
    reduced = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
    return total, reduced


def _diff_by_generators(table: GeneratorTable, deriv, mono):
    """d^deriv of a monomial, walking every generator from the highest index
    down: (int coeff, monomial) or None."""
    coeff = 1
    # innermost derivative is the highest generator index
    for i in reversed(range(len(table))):
        for _ in range(deriv[i]):
            d = leibniz_derivative(table, i, mono)
            if d is None:
                return None
            dc, mono = d
            coeff *= dc
    return coeff, mono


def image_by_fractions(D: Operator, mono) -> dict:
    """``D.apply`` of one monomial, summed in ``Fraction`` coefficients."""
    table = D.table
    out = {}
    for (mult, deriv), c in D.terms.items():
        d = _diff_by_generators(table, deriv, mono)
        if d is None:
            continue
        dc, m = d
        sm = monomial_mul(table, mult, m)
        if sm is None:
            continue
        sign, prod = sm
        out[prod] = out.get(prod, 0) + c * (sign * dc)
    return {m: v for m, v in out.items() if v}


def _apply_by_fractions(D: Operator, coeffs: dict) -> dict:
    out = {}
    for mono, c in coeffs.items():
        for m, v in image_by_fractions(D, mono).items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def compose_by_single_derivatives(A: Operator, B: Operator) -> Operator:
    """``A.compose(B)`` by pushing the derivatives of each term of ``A``
    through each term of ``B`` one at a time, from the highest index down, in
    ``Fraction``s: d_i either differentiates the multiplier or passes it into
    the derivative word, with one sign per odd factor it crosses."""
    table = A.table
    n = len(table)
    result: dict = {}
    for (m1, alpha), c1 in A.terms.items():
        for (m2, beta), c2 in B.terms.items():
            # current: normal-form expansion of d^alpha o (m2 . d^beta)
            current = {(m2, beta): Fraction(1)}
            for i in reversed(range(n)):
                odd_i = table.degrees[i] % 2
                for _ in range(alpha[i]):
                    nxt: dict = {}
                    for (m, gamma), c in current.items():
                        d = leibniz_derivative(table, i, m)
                        if d is not None:
                            dc, dm = d
                            nxt[(dm, gamma)] = nxt.get((dm, gamma), 0) + c * dc
                        if odd_i and gamma[i]:
                            continue  # odd derivative squared
                        crossings = 0
                        if odd_i:
                            crossings += sum(m[j] for j in range(n) if table.degrees[j] % 2)
                            crossings += sum(gamma[j] for j in range(i) if table.degrees[j] % 2)
                        key = (m, tuple(e + (j == i) for j, e in enumerate(gamma)))
                        nxt[key] = nxt.get(key, 0) + c * (-1) ** crossings
                    current = {k: v for k, v in nxt.items() if v}
            for (m, gamma), c in current.items():
                sm = monomial_mul(table, m1, m)
                if sm is not None:
                    key = (sm[1], gamma)
                    result[key] = result.get(key, 0) + c1 * c2 * sm[0] * c
    return Operator(table, result)


def square_zero_witness_by_scan(D: Operator):
    """``D.is_square_zero()`` by applying D twice, uncached, to each monomial
    in ``enumerate_monomials`` order up to total exponent 2 * order(D), the
    longest derivative D o D can have: a nonzero normal form moves a monomial
    no longer than its derivatives, so the scan returns the first one moved."""
    table = D.table
    for mono in enumerate_monomials(table, 2 * D.structural_order()):
        if _apply_by_fractions(D, _apply_by_fractions(D, {mono: 1})):
            return False, mono
    return True, None


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


def akman_recursion(apply_fn, mul_fn, p_D: int, args, parities):
    """The recursion of ``akman_bracket``, abstract in the operator action
    and the product.

    ``apply_fn``/``mul_fn`` operate on whatever value type the caller uses
    (``Element``s, or cohomology classes in ``induced_items_by_evaluation``);
    values must support + and -.  It recurses through itself, not through a
    local closure: a closure that calls itself is a reference cycle, and
    would keep the operator behind ``apply_fn``, with its caches, alive until
    the cyclic garbage collector runs.
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


def _first_tuples(elems, arity: int, budget: Budget):
    """The first ``budget.max_tuples`` arity-tuples of ``elems``."""
    return islice(iter_product(elems, repeat=arity), budget.max_tuples)


def akman_bracket_by_elements(D, args) -> Element:
    """``akman_bracket`` by the recursion on ``Element`` values: ``D.apply``
    at every leaf and ``Element`` products at every node.  The parities are
    read off ``D.degrees()`` and with ``Element.parity``, and a mixed-parity
    input raises; the zero operator counts as odd and a zero argument as
    even."""
    args = tuple(args)
    (p_D,) = {g % 2 for g in D.degrees()} or {1}  # unpacking raises on mixed parity
    parities = tuple(a.parity() if a else 0 for a in args)
    return akman_recursion(D.apply, lambda a, b: a * b, p_D, args, parities)


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


def window_tuples_eager(window: list, arity: int, budget: Budget) -> list:
    """``window_tuples`` as one list, every sampled tuple drawn up front."""
    if not window:
        return []
    total = len(window) ** arity
    if total <= budget.max_tuples:
        return list(iter_product(window, repeat=arity))
    rng = random.Random(budget.seed)
    return [
        tuple(window[rng.randrange(len(window))] for _ in range(arity))
        for _ in range(budget.max_tuples)
    ]


def order_check_by_evaluation(D, k: int, budget: Budget | None = None) -> OrderCertificate:
    """``akman_order_check`` without the normal-form rule: evaluate the
    arity-(k+1) bracket on every budgeted tuple up to the first nonzero one,
    and after a pass search the arity-k tuples for a sharpness witness."""
    budget = budget or Budget()
    table = D.table
    if D.is_zero():
        return OrderCertificate(0, True, degenerate_zero=True)

    def nonzero(tup):
        return not akman_bracket(D, [Element.monomial(table, m) for m in tup]).is_zero()

    monos = enumerate_monomials(table, budget.max_degree)
    tested, failure = first_witness(window_tuples(monos, k + 1, budget), nonzero)
    sharp_witness = None
    if failure is None and k >= 1:
        _, sharp_witness = first_witness(window_tuples(monos, k, budget), nonzero)
    return OrderCertificate(tested, failure is None, failure, sharp_witness is not None)


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
        for cu in grade_decompose(u).values():
            for cv in grade_decompose(v).values():
                out = out + bv_bracket(D, cu, cv)
        return out

    sign = -1 if a.parity() else 1
    return X.apply(bracket(a, b)) - bracket(X.apply(a), b) + sign * bracket(a, X.apply(b))


def _hom_bilinear(fn, a: Element, b: Element) -> Element:
    """``fn`` of two homogeneous elements, extended bilinearly over the
    degree components of ``a`` and ``b``."""
    out = Element.zero(a.table)
    for ca in grade_decompose(a).values():
        for cb in grade_decompose(b).values():
            out = out + fn(ca, cb)
    return out


def jacobiator(bracket, a: Element, b: Element, c: Element) -> Element:
    """``[a,[b,c]] - [[a,b],c] - (-1)^{(|a|+1)(|b|+1)} [b,[a,c]]`` for
    homogeneous a, b, c, each outer bracket split over the degree components
    of its inner one."""
    sign = -1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 else 1
    lhs = _hom_bilinear(bracket, a, bracket(b, c))
    rhs = _hom_bilinear(bracket, bracket(a, b), c)
    return lhs - rhs - sign * _hom_bilinear(bracket, b, bracket(a, c))


def leibniz_defect(bracket, product, a: Element, b: Element, c: Element) -> Element:
    """``[a, b c] - [a,b] c - (-1)^{|b||c|} [a,c] b`` for homogeneous a, b, c."""
    sign = -1 if (b.degree() * c.degree()) % 2 else 1
    lhs = _hom_bilinear(bracket, a, product(b, c))
    return lhs - product(bracket(a, b), c) - sign * product(bracket(a, c), b)


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
        return not jacobiator(bracket, *triple).is_zero()

    def leibniz_fails(triple):
        return not leibniz_defect(bracket, product, *triple).is_zero()

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
    """``induced_bv``'s items after its exact identity line, every one evaluated
    on the classes of ``H`` with the degree -1 part ``D2``, even when it is 0."""
    table = H.table
    report = StructReport("induced items by evaluation")
    reps = [r for rs in H.representatives.values() for r in rs]
    space = boundary_space(H)
    bad, untested_boundary = None, False
    for row in space.rows.values():
        residual = space.reduce(D2.apply(Element(table, row)).coeffs)
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
        report.add(name, "pass", f"{len(space.rows)} boundaries")

    def induced(a):
        return Element(table, space.reduce(D2.apply(a).coeffs))

    def induced_product(a, b):
        return Element(table, space.reduce((a * b).coeffs))

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
    # a pass on the first max_tuples of more triples has not seen them all,
    # unless the induced operator is 0 and so is every bracket
    if D2 and len(reps) ** 3 > budget.max_tuples:
        for item in report.items:
            if item.status == "pass" and item.details.endswith(" triples"):
                item.status, item.details = "untested", item.details + ", truncated prefix"
    return report


def induced_identities_on_representatives(H, d, D, budget: Budget) -> StructReport:
    """``induced_bv``'s five items after its boundary line, each identity
    that it reads off evaluated on the algebra at ``H``'s representatives, up
    to the first ``budget.max_tuples`` pairs and triples: D2 o D2 = -d D3 on
    a cycle, for the degree -1 and -3 parts D2 and D3 of D; F^3_{D2} = 0;
    and the Gerstenhaber axioms of D2's bracket.  Unlike
    ``induced_items_by_evaluation`` nothing is reduced modulo the window's
    boundaries, which miss those of the products that leave the window."""
    parts = D.degree_components()
    zero = Operator.zero(D.table)
    D2, D3 = parts.get(-1, zero), parts.get(-3, zero)
    reps = [r for rs in H.representatives.values() for r in rs]
    report = StructReport("induced identities on representatives")
    report.tally("induced operator squares to zero on classes", *first_witness(
        reps, lambda r: D2.apply(D2.apply(r)) != -d.apply(D3.apply(r))))
    report.tally("induced operator has order <= 2 on representatives", *first_witness(
        _first_tuples(reps, 3, budget), lambda t: not akman_bracket(D2, t).is_zero()
    ), "triples")
    axioms = gerstenhaber_by_evaluation(partial(bv_bracket, D2), lambda a, b: a * b, reps, budget)
    for item in axioms.items:
        report.add("induced bracket: " + item.name, item.status, item.details, item.witness)
    return report


def gl_chevalley_eilenberg(n):
    """The Chevalley-Eilenberg operator -sum_{i<j} c^k_ij e_k d/de_i d/de_j of
    gl_n on odd generators E_ab of degree 1, [E_ab, E_ce] = delta_bc E_ae -
    delta_ea E_cb, so that d(e_i e_j) = [e_i, e_j]."""
    basis = [(a, b) for a in range(n) for b in range(n)]
    table = GeneratorTable(tuple(f"e{a + 1}{b + 1}" for a, b in basis), (1,) * n * n)
    unit = [tuple(int(k == i) for k in range(n * n)) for i in range(n * n)]
    terms = {}
    for i, (a, b) in enumerate(basis):
        for j in range(i + 1, n * n):
            c, e = basis[j]
            deriv = tuple(map(sum, zip(unit[i], unit[j])))
            for k, coeff in ((a * n + e, int(b == c)), (c * n + b, -int(e == a))):
                if coeff:
                    key = (unit[k], deriv)
                    terms[key] = terms.get(key, 0) - coeff
    return table, Operator(table, terms)
