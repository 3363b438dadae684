"""Structure-level checkers: Gerstenhaber axioms, order/degree splitting,
derivation lemmas, the homotopy-BV definition, cohomology, and the induced
BV structure on cohomology.

Reports never raise on a failed identity; they collect witnesses.  Domain
errors (violated preconditions) do raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import islice, product as iter_product

from .algebra import AlgebraError, Element, GeneratorTable, enumerate_monomials
from .brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,  # noqa: F401 - unused, but bench/tracer.py wraps this binding
    akman_order_check,
    akman_recursion,
    first_witness,
    tuple_count,
)
from .linalg import RowSpace, kernel_and_image
from .operators import Operator


@dataclass
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "untested"
    details: str = ""
    witness: str | None = None
    tallied: bool = field(default=False, repr=False, compare=False)  # a count of cases

    def line(self) -> str:
        out = f"[{self.status.upper():8}] {self.name}"
        if self.details:
            out += f" - {self.details}"
        if self.witness:
            out += f" (witness: {self.witness})"
        return out


@dataclass
class StructReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, name, status, details="", witness=None):
        self.items.append(CheckItem(name, status, details, witness))

    def tally(self, name, tried, witness, unit="", *, count_failures=False):
        """Fail at ``witness``, or pass with ``tried`` counted in ``unit`` (if
        any); untested when no case was tried.  With ``count_failures`` a
        failure keeps the count too, as the relation-family lines always have.
        """
        count = f"{tried} {unit}" if unit else ""
        if witness is not None:
            self.add(name, "fail", count if count_failures else "", _show(witness))
        else:
            self.items.append(CheckItem(name, "pass" if tried else "untested", count, tallied=True))

    def certify(self, name, cert: OrderCertificate, show=str):
        """An order certificate's verdict, with its failure witness, if any,
        rendered by ``show``."""
        witness = show(cert.failure_witness) if cert.failure_witness else None
        self.add(name, cert.status, cert.verdict(), witness)

    def exhibit(self, name, witness, untested):
        """A failure expected to exist: pass once ``witness`` exhibits it."""
        if witness is not None:
            self.add(name, "pass", "failure witness exhibited", witness=_show(witness))
        else:
            self.add(name, "untested", untested)

    @property
    def passed(self) -> bool:
        return all(i.status != "fail" for i in self.items)

    @property
    def fully_tested(self) -> bool:
        return all(i.status == "pass" for i in self.items)

    def lines(self) -> list[str]:
        return [self.title] + ["  " + i.line() for i in self.items]


def _show(witness) -> str:
    """``(a, b, ...)`` for a tuple of elements, else ``str``."""
    if isinstance(witness, tuple):
        return "(" + ", ".join(str(x) for x in witness) + ")"
    return str(witness)


def as_elements(table: GeneratorTable, monomials: tuple | None) -> tuple | None:
    """A witness of exponent tuples, such as a certificate's, as elements."""
    return monomials and tuple(Element.monomial(table, m) for m in monomials)


def _first_tuples(elems, arity: int, budget: Budget):
    """The first ``budget.max_tuples`` arity-tuples of ``elems``."""
    return islice(iter_product(elems, repeat=arity), budget.max_tuples)


def _hom_bilinear(fn, a: Element, b: Element) -> Element:
    """Extend a bracket requiring homogeneous inputs bilinearly."""
    out = Element.zero(a.table)
    for ca in a.grade_decompose().values():
        for cb in b.grade_decompose().values():
            out = out + fn(ca, cb)
    return out


# --------------------------------------------------------------------------
# Gerstenhaber axioms
# --------------------------------------------------------------------------

def check_gerstenhaber(
    bracket,
    elements: list[Element],
    leibniz: tuple[int, tuple | None],
    budget: Budget | None = None,
    title: str = "gerstenhaber axioms",
) -> StructReport:
    """The Gerstenhaber axioms of an operator's bracket ``[a,b] = (-1)^{|a|}
    F^2(a,b)`` over a graded-commutative product.  Conventions (with unshifted
    element degrees, bracket of odd degree):

        [a,b] = -(-1)^{(|a|+1)(|b|+1)} [b,a]
        [a,[b,c]] = [[a,b],c] + (-1)^{(|a|+1)(|b|+1)} [b,[a,c]]
        [a, b c] = [a,b] c + (-1)^{|b||c|} [a,c] b

    F^2 is graded symmetric, so antisymmetry passes on the window's pair
    count.  The Leibniz defect at (a, b, c) is (-1)^{|a|} F^3(a,b,c), so
    ``leibniz`` is the caller's ``(tried, witness)`` of order <= 2.  Only
    Jacobi is evaluated, with ``bracket`` (of homogeneous elements) memoised
    for this call: an Element hashes by its support and compares by its
    normal form.
    """
    budget = budget or Budget()
    bracket = cache(bracket)
    report = StructReport(title)
    elems = [e for e in elements if not e.is_zero()]

    def jacobi_fails(triple):
        a, b, c = triple
        sign = -1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 else 1
        lhs = _hom_bilinear(bracket, a, bracket(b, c))
        rhs = _hom_bilinear(bracket, bracket(a, b), c)
        rhs = rhs + sign * _hom_bilinear(bracket, b, bracket(a, c))
        return not (lhs - rhs).is_zero()

    report.tally("graded antisymmetry", min(len(elems) ** 2, budget.max_tuples), None, "pairs")
    report.tally(
        "graded Jacobi", *first_witness(_first_tuples(elems, 3, budget), jacobi_fails), "triples"
    )
    report.tally("Leibniz rule", *leibniz, "triples")
    return report


# --------------------------------------------------------------------------
# Order/degree splitting of a square-zero operator
# --------------------------------------------------------------------------

@dataclass
class SplitResult:
    components: list[tuple[int, Operator]]  # (order index n, component)
    certificates: dict[int, OrderCertificate]
    residual_degrees: list[int]


def degree_split(D: Operator, budget: Budget | None = None) -> SplitResult:
    """Split a square-zero operator into components indexed by order n via
    degree 3 - 2n, certifying order <= n for each.

    Components at degrees not of the form 3 - 2n (n >= 1) are listed as
    residual degrees instead of being silently dropped.
    """
    budget = budget or Budget()
    ok, witness = D.is_square_zero()
    if not ok:
        raise AlgebraError(
            f"degree_split requires a square-zero operator; D^2 != 0 at {witness}"
        )
    comps = D.degree_components()
    plus_one = comps.get(1)
    if plus_one is not None and plus_one.structural_order() > 1:
        raise AlgebraError(
            "degree_split hypothesis violated: the degree +1 component must "
            "have order <= 1"
        )
    components: list[tuple[int, Operator]] = []
    residual: list[int] = []
    certificates: dict[int, OrderCertificate] = {}
    for degree, comp in comps.items():
        if (3 - degree) % 2 == 0 and (3 - degree) // 2 >= 1:
            n = (3 - degree) // 2
            components.append((n, comp))
            certificates[n] = akman_order_check(comp, n, budget)
        else:
            residual.append(degree)
    components.sort(key=lambda t: t[0])
    return SplitResult(components, certificates, residual)


# --------------------------------------------------------------------------
# Derivation lemma
# --------------------------------------------------------------------------

def check_derivation_lemma(D: Operator, budget: Budget | None = None) -> StructReport:
    """The odd square-zero operator is a derivation of its own bracket but
    (when it has an order >= 2 part) not of the product, while its degree +1
    part is a derivation of the product but generally not of the bracket.

    Derivation rule for the bracket [a,b] = (-1)^{|a|} F^2(a,b):

        X[a,b] = [Xa, b] - (-1)^{|a|} [a, Xb].

    For X = D odd its defect is (-1)^{|a|} F^2_{D o D}(a,b), so under D^2 = 0
    it holds exactly and passes on the window's pair count; for an odd product
    derivation X it is (-1)^{|a|} F^2_{X o D + D o X}(a,b).  The other clauses
    are read off order certificates, whose searches evaluate only brackets.
    """
    budget = budget or Budget()
    ok, witness = D.is_square_zero()
    if not ok:
        raise AlgebraError(f"derivation lemma requires D^2 = 0; witness {witness}")
    if D and not D.is_odd():
        raise AlgebraError("derivation lemma requires an odd operator")
    report = StructReport("derivation lemma")
    table = D.table

    # (i) D is a derivation of the bracket: its defect is a bracket of D o D = 0
    report.tally("D is a bracket derivation", tuple_count(table, 2, budget), None, "pairs")

    # (ii) product-Leibniz failure witness whenever D has an order >= 2 part
    if not any(sum(d) >= 2 for (_, d) in D.terms):
        report.add("product-Leibniz failure of D", "pass", "vacuous: no order >= 2 part")
    else:
        report.exhibit(
            "product-Leibniz failure of D",
            as_elements(table, akman_order_check(D, 1, budget).failure_witness),
            "no witness within budget",
        )

    # (iii) the degree +1 component is a product derivation
    d1 = D.degree_components().get(1)
    if d1 is None:
        report.add("D1 product Leibniz", "pass", "vacuous: no degree +1 part")
        return report
    cert = akman_order_check(d1, 1, budget)
    witness = as_elements(table, cert.failure_witness)
    report.tally("D1 product Leibniz", cert.tuples_tested, witness, "pairs")
    if cert.missed:
        report.items[-1].status = "untested"

    # (iv) bracket-derivation failure witness for D1, if one exists: its
    # defect is a bracket of [D1, D] only when D1 is a product derivation
    witness = None
    if cert.status == "pass":
        witness = akman_order_check(d1.compose(D) + D.compose(d1), 1, budget).failure_witness
    report.exhibit(
        "D1 bracket-derivation failure",
        as_elements(table, witness),
        "no witness within budget (may hold on this model)",
    )
    return report


# --------------------------------------------------------------------------
# Homotopy-BV definition
# --------------------------------------------------------------------------

def check_bvinfty(d: Operator, D: Operator, budget: Budget | None = None) -> StructReport:
    """Clause-by-clause check of the homotopy-BV triple (A, d, D):
    d a degree +1 differential and derivation, D odd and square zero, every
    degree component of D - d of negative degree.
    """
    budget = budget or Budget()
    report = StructReport("homotopy-BV triple")

    if d.is_zero():
        report.add("d homogeneous of degree +1", "pass", "d = 0, vacuous")
    elif d.is_degree_homogeneous() and d.degree() == 1:
        report.add("d homogeneous of degree +1", "pass")
    else:
        degs = sorted({d.term_degree(k) for k in d.terms})
        report.add("d homogeneous of degree +1", "fail", f"degrees {degs}")

    dd = d.square()
    report.add(
        "d squares to zero",
        "pass" if dd.is_zero() else "fail",
        witness=None if dd.is_zero() else str(dd),
    )

    if d.is_zero():
        report.add("d is a product derivation", "pass", "d = 0, vacuous")
    else:
        report.certify("d is a product derivation", akman_order_check(d, 1, budget))

    report.add("D is odd", "pass" if D.is_odd() else "fail")

    ok, witness = D.is_square_zero()
    report.add(
        "D squares to zero", "pass" if ok else "fail", witness=None if ok else str(witness)
    )

    tail = D - d
    offending = sorted(g for g in tail.degree_components() if g >= 0)
    report.add(
        "degree of D - d is negative",
        "pass" if not offending else "fail",
        "" if not offending else f"non-negative components at degrees {offending}",
    )
    return report


# --------------------------------------------------------------------------
# Cohomology
# --------------------------------------------------------------------------

@dataclass
class CohomologyBasis:
    """Per-degree representatives of ker d / im d on a finite monomial window,
    shared by every caller of ``cohomology`` for one d and window: read it,
    never mutate it."""

    table: GeneratorTable
    representatives: dict[int, list[Element]]
    boundary_space: RowSpace  # all boundaries from window monomials, one space
    warnings: list[str]

    def dims(self) -> dict[int, int]:
        return {g: len(reps) for g, reps in sorted(self.representatives.items())}

    def reduce(self, a: Element) -> Element:
        """Canonical representative of ``a`` modulo window boundaries."""
        residual = self.boundary_space.reduce(a.coeffs)
        return Element(self.table, residual)


def cohomology(
    table: GeneratorTable, d: Operator, window_degree: int = 4
) -> CohomologyBasis:
    """Kernel-mod-image of a square-zero degree-homogeneous d, per degree,
    over the window of monomials with total exponent <= window_degree.
    Built once per window and kept on ``d``: later calls share it.
    """
    if window_degree < 0:
        raise AlgebraError(f"cohomology window must be >= 0, got {window_degree}")
    if d.table is not table and d.table != table:
        raise AlgebraError("differential and window over different tables")
    if not d.square().is_zero():
        raise AlgebraError("cohomology requires d^2 = 0 (exact normal form)")
    if not d.is_zero() and not d.is_degree_homogeneous():
        raise AlgebraError("cohomology requires a degree-homogeneous d")
    if window_degree in d._cohomology:
        return d._cohomology[window_degree]

    warnings: list[str] = []
    # growth of total exponent along d; negative growth can pull boundaries
    # in from outside the window
    growths = [sum(m) - sum(dv) for (m, dv) in d.terms]
    truncation_risk = bool(growths) and min(growths) <= 0

    by_degree: dict[int, list] = {}
    for m in enumerate_monomials(table, window_degree):
        by_degree.setdefault(table.monomial_degree(m), []).append(m)

    # d is homogeneous, so the slices' images span disjoint parts of the boundaries;
    # a negative-degree d maps later slices into earlier ones, so eliminate all first
    boundary_space = RowSpace()
    kernels: dict[int, list[dict]] = {}
    for g, slice_monos in sorted(by_degree.items()):
        images = [d.image(m) for m in slice_monos]
        kernels[g], image = kernel_and_image(slice_monos, images)
        boundary_space.rows.update(image.rows)

    representatives: dict[int, list[Element]] = {}
    for g, slice_monos in sorted(by_degree.items()):
        reps: list[Element] = []
        rep_space = RowSpace()
        for combo in kernels[g]:
            reduced = boundary_space.reduce(combo)
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
    basis = CohomologyBasis(table, representatives, boundary_space, warnings)
    d._cohomology[window_degree] = basis
    return basis


# --------------------------------------------------------------------------
# Induced BV structure on cohomology
# --------------------------------------------------------------------------

def induced_bv(
    table: GeneratorTable,
    d: Operator,
    D: Operator,
    window_degree: int = 4,
    budget: Budget | None = None,
) -> StructReport:
    """Extract the degree -1 part of D, which anticommutes with d, and check
    that it induces a square-zero order-2 operator (hence a BV structure) on
    the d-cohomology representatives.
    """
    budget = budget or Budget()
    pre = check_bvinfty(d, D, budget)
    if not pre.passed:
        raise AlgebraError("induced_bv precondition: homotopy-BV check failed")
    report = StructReport("induced BV structure on cohomology")

    D2 = D.degree_components().get(-1, Operator.zero(table))
    # d has degree +1 (or is 0) and every other component of D is negative, so
    # d D2 + D2 d is the degree 0 part of D o D, which check_bvinfty found 0
    report.add("d D2 + D2 d = 0 (exact operator identity)", "pass")

    H = cohomology(table, d, window_degree)
    # each is reduced from one degree slice's kernel, and only boundaries of
    # that degree touch it, so every representative is homogeneous
    reps = [r for rs in H.representatives.values() for r in rs]
    report.add(
        "cohomology slice dimensions",
        "pass",
        str(H.dims()) + ("; " + "; ".join(H.warnings) if H.warnings else ""),
    )

    # well-definedness: D2 maps window boundaries to boundaries (0 does)
    bad = None
    untested_boundary = False
    for row in H.boundary_space.rows.values() if D2 else ():
        residual = H.boundary_space.reduce(D2.apply(Element(table, row)).coeffs)
        # a residual outside the window is truncation, not a genuine failure
        if any(sum(m) > window_degree for m in residual):
            untested_boundary = True
        elif residual:
            bad = Element(table, row)
            break
    if bad is not None:
        report.add("induced map well defined on classes", "fail", witness=str(bad))
    elif untested_boundary:
        report.add(
            "induced map well defined on classes",
            "untested",
            "untested at boundary: image leaves the window",
        )
    else:
        report.add(
            "induced map well defined on classes", "pass", f"{H.boundary_space.dim} boundaries"
        )

    if not D2:
        # every induced bracket is 0: each item passes on the window's count
        n, cap = len(reps), budget.max_tuples
        for name, tried, unit in (
            ("induced operator squares to zero on classes", n, ""),
            ("induced operator has order <= 2 on representatives", min(n**3, cap), "triples"),
            ("induced bracket: graded antisymmetry", min(n**2, cap), "pairs"),
            ("induced bracket: graded Jacobi", min(n**3, cap), "triples"),
            ("induced bracket: Leibniz rule", min(n**3, cap), "triples"),
        ):
            report.tally(name, tried, None, unit)
        return report

    # memoised for this call only: the checks below revisit the same few
    # classes and pairs many times; Element hashes by its support and
    # compares by its normal form, so same-support classes stay apart
    @cache
    def induced(a: Element) -> Element:
        return H.reduce(D2.apply(a))

    @cache
    def induced_product(a: Element, b: Element) -> Element:
        return H.reduce(a * b)

    p_D2 = 1  # degree -1 component is odd

    def order_exceeds_two(trip) -> bool:
        pars = tuple(a.parity() for a in trip)
        return not akman_recursion(induced, induced_product, p_D2, trip, pars).is_zero()

    report.tally(
        "induced operator squares to zero on classes",
        *first_witness(reps, lambda r: not induced(induced(r)).is_zero()),
    )
    # order <= 2 w.r.t. the induced product: arity-3 brackets vanish; up to
    # sign they are the Leibniz defects of the induced bracket
    order = first_witness(_first_tuples(reps, 3, budget), order_exceeds_two)
    report.tally("induced operator has order <= 2 on representatives", *order, "triples")

    # induced bracket satisfies the Gerstenhaber axioms on the window
    def induced_bracket(a: Element, b: Element) -> Element:
        pars = (a.parity(), b.parity())
        val = akman_recursion(induced, induced_product, p_D2, (a, b), pars)
        return -val if a.parity() else val

    g_report = check_gerstenhaber(
        induced_bracket, reps, order, budget, title="induced bracket axioms"
    )
    for item in g_report.items:
        report.add("induced bracket: " + item.name, item.status, item.details, item.witness)
    return report
