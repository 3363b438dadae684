"""Structure-level checkers: Gerstenhaber axioms, order/degree splitting,
derivation lemmas, the homotopy-BV definition, cohomology, and the induced
BV structure on cohomology.

Reports never raise on a failed identity; they collect witnesses.  Domain
errors (violated preconditions) do raise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import (
    AlgebraError, Element, GeneratorTable, format_element, format_monomial, graded_monomials,
)
from .brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,  # noqa: F401 - unused, but bench/tracer.py wraps this binding
    akman_order_check,
    bracket_vanishes,
    bracket_witness,
    bv_bracket,
    first_witness,
    window_elements,
    window_tuples,
)
from .linalg import RowSpace, _reduce, image_rows, kernel_and_image
from .operators import Operator


class CheckItem:
    """One report line.  Its attributes are exactly the report's JSON item,
    and items are equal when every attribute is."""

    def __init__(self, name: str, status: str, details: str = "", witness: str | None = None):
        self.name = name
        self.status = status  # "pass" | "fail" | "untested"
        self.details = details
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def line(self) -> str:
        out = f"[{self.status.upper():8}] {self.name}"
        if self.details:
            out += f" - {self.details}"
        if self.witness:
            out += f" (witness: {self.witness})"
        return out


class StructReport:
    def __init__(self, title: str, items: list[CheckItem] | None = None):
        self.title = title
        self.items = [] if items is None else items

    def add(self, name, status, details="", witness=None):
        self.items.append(CheckItem(name, status, details, witness))

    def holds(self, name, witness=None):
        """An exactly decided identity: pass, or fail at ``witness``."""
        if witness is None:
            self.add(name, "pass", "exact")
        else:
            self.add(name, "fail", witness=_show(witness))

    def tally(self, name, tried, witness, unit=""):
        """A counted line: fail at ``witness``, else pass with ``tried``
        counted in ``unit`` (if any), or untested when no case was tried."""
        if witness is not None:
            self.add(name, "fail", witness=_show(witness))
        else:
            self.add(name, "pass" if tried else "untested", f"{tried} {unit}" if unit else "")

    def sample(self, name, window, arity, budget: Budget, fails, unit):
        """A sampled line: ``fails`` searched over ``window_tuples(window,
        arity, budget)`` up to its first witness, then ``tally``'d; a pass on
        a window of the unit monomial alone exercises nothing, and is
        untested."""
        tried, witness = first_witness(window_tuples(window, arity, budget), fails)
        if witness is None and tried and len(window) == 1:
            self.add(name, "untested", f"{tried} {unit}, the unit monomial alone")
        else:
            self.tally(name, tried, witness, unit)

    def certify(self, name, cert: OrderCertificate, table: GeneratorTable):
        """An order certificate's verdict, with its failure witness, if any,
        as the monomials of ``table`` it is made of."""
        witness = cert.failure_witness and "; ".join(
            format_element(e) for e in as_elements(table, cert.failure_witness)
        )
        self.add(name, cert.status, cert.verdict(), witness)

    def certify_components(self, certificates: dict[int, OrderCertificate], table):
        """One ``certify`` line per certificate of ``degree_split``."""
        for n, cert in certificates.items():
            self.certify(f"component n={n} (degree {3 - 2 * n:+d}) has order <= {n}", cert, table)

    def square_zero(self, name, D: Operator):
        """Pass when D o D = 0, else fail at its least witness monomial."""
        witness = square_witness(D)
        self.add(name, "fail" if witness else "pass", witness=witness)

    def exhibit(self, name, witness):
        """A failure expected to exist passes, exhibited at ``witness``: the
        one that a failing order certificate always carries."""
        self.add(name, "pass", "failure witness exhibited", witness=_show(witness))

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


def square_witness(D: Operator) -> str | None:
    """The least monomial at which D o D acts nonzero, formatted, or None
    when D o D = 0 (``Operator.is_square_zero``)."""
    ok, witness = D.is_square_zero()
    return None if ok else format_monomial(D.table, witness)


def as_elements(table: GeneratorTable, monomials: tuple | None) -> tuple | None:
    """A witness of exponent tuples, such as a certificate's, as elements."""
    return monomials and tuple(Element.monomial(table, m) for m in monomials)


# --------------------------------------------------------------------------
# Gerstenhaber axioms
# --------------------------------------------------------------------------

def check_gerstenhaber(D: Operator, budget: Budget | None = None) -> StructReport:
    """The Gerstenhaber axioms of the bracket ``[a,b] = (-1)^{|a|} F^2(a,b)``
    of a parity-homogeneous D.  Conventions (with unshifted element degrees,
    bracket of odd degree):

        [a,b] = -(-1)^{(|a|+1)(|b|+1)} [b,a]
        [a,[b,c]] = [[a,b],c] + (-1)^{(|a|+1)(|b|+1)} [b,[a,c]]
        [a, b c] = [a,b] c + (-1)^{|b||c|} [a,c] b

    F^2 is graded symmetric, so antisymmetry holds exactly.  The Leibniz
    defect at (a, b, c) is (-1)^{|a|} F^3(a,b,c), so the Leibniz rule is the
    order <= 2 certificate of D.  For an odd D whose Leibniz rule holds, the
    Jacobiator is ±F^3_{D o D} (Koszul; Akman): Jacobi holds exactly when it
    vanishes, else fails at its constructed witness, confirmed by one
    evaluation.  Otherwise Jacobi is sampled on the budget's window triples
    (``StructReport.sample``), with the bracket memoised for this call; D
    and the monomials are parity-homogeneous, and so is every bracket of
    them.  A degree-homogeneous D and monomial arguments fix the bracket and
    product degrees, which hold as offsets.
    """
    budget = budget or Budget()
    table = D.table
    cert = akman_order_check(D, 2)
    bracket = cache(lambda a, b: bv_bracket(D, a, b))
    report = StructReport("bracket of the main operator")

    def jacobi_fails(triple):
        a, b, c = triple
        sign = -1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 else 1
        lhs = bracket(a, bracket(b, c))
        rhs = bracket(bracket(a, b), c) + sign * bracket(b, bracket(a, c))
        return not (lhs - rhs).is_zero()

    report.holds("graded antisymmetry")
    if not cert.passed or not D.is_odd():
        report.sample("graded Jacobi", window_elements(table, budget), 3, budget,
                      jacobi_fails, "triples")
    elif bracket_vanishes(D.square(), 3):
        report.holds("graded Jacobi")
    else:
        witness = as_elements(table, bracket_witness(D.square(), 3))
        if not jacobi_fails(witness):
            raise AssertionError("constructed Jacobi witness satisfies the identity")
        report.holds("graded Jacobi", witness)
    report.holds("Leibniz rule", as_elements(table, cert.failure_witness))
    if D.is_degree_homogeneous() and not D.is_zero():
        report.holds(f"bracket degree offset {D.degree():+d}")
    report.holds("product degree offset +0")
    return report


# --------------------------------------------------------------------------
# Order/degree splitting
# --------------------------------------------------------------------------

def degree_split(P: Operator) -> dict[int, OrderCertificate]:
    """The order <= n certificate of each component of P of degree 3 - 2n,
    n >= 1, by n.  Components of other degrees get none."""
    return {
        (3 - g) // 2: akman_order_check(comp, (3 - g) // 2)
        for g, comp in reversed(P.degree_components().items())
        if g <= 1 and g % 2
    }


# --------------------------------------------------------------------------
# Derivation lemma
# --------------------------------------------------------------------------

def check_derivation_lemma(D: Operator) -> StructReport:
    """The odd square-zero operator is a derivation of its own bracket but
    (when it is no product derivation) not of the product, while its degree +1
    part is a derivation of the product but generally not of the bracket.

    Derivation rule for the bracket [a,b] = (-1)^{|a|} F^2(a,b):

        X[a,b] = [Xa, b] - (-1)^{|a|} [a, Xb].

    For X = D odd its defect is (-1)^{|a|} F^2_{D o D}(a,b), so under D^2 = 0
    it holds exactly; for an odd product derivation X it is
    (-1)^{|a|} F^2_{X o D + D o X}(a,b).  The other clauses are read off
    order certificates, each decided from a normal form.  The last, D1's
    bracket derivation, is decided only when D1 is a product derivation.
    """
    witness = square_witness(D)
    if witness:
        raise AlgebraError(f"derivation lemma requires D^2 = 0; witness {witness}")
    if not D.is_odd():
        raise AlgebraError("derivation lemma requires an odd operator")
    table = D.table
    report = StructReport("derivation lemma")

    # (i) D is a derivation of the bracket: its defect is a bracket of D o D = 0
    report.holds("D is a bracket derivation")

    # (ii) product-Leibniz failure witness whenever D has order > 1
    cert = akman_order_check(D, 1)
    if cert.passed:
        report.add("product-Leibniz failure of D", "pass", "vacuous: no order >= 2 part")
    else:
        report.exhibit("product-Leibniz failure of D", as_elements(table, cert.failure_witness))

    # (iii) the degree +1 component is a product derivation
    d1 = D.degree_components().get(1)
    if d1 is None:
        report.add("D1 product Leibniz", "pass", "vacuous: no degree +1 part")
        return report
    witness = akman_order_check(d1, 1).failure_witness
    report.holds("D1 product Leibniz", as_elements(table, witness))

    # (iv) when (iii) passes, D1's bracket-derivation defect is (-1)^{|a|} F^2
    # of D1 o D + D o D1: D1 is a bracket derivation exactly when that
    # operator's order <= 1 certificate passes, else it fails there
    name = "D1 bracket-derivation failure"
    if witness is not None:
        report.add(name, "untested", "undecided: D1 is not a product derivation")
        return report
    cert = akman_order_check(d1.compose(D) + D.compose(d1), 1)
    if cert.passed:
        report.add(name, cert.status, "none: D1 is a derivation of the bracket")
    else:
        report.exhibit(name, as_elements(table, cert.failure_witness))
    return report


# --------------------------------------------------------------------------
# Homotopy-BV definition
# --------------------------------------------------------------------------

def check_bvinfty(d: Operator, D: Operator) -> StructReport:
    """Clause-by-clause check of the homotopy-BV triple (A, d, D):
    d a degree +1 differential and derivation, D odd and square zero, every
    degree component of D - d of negative degree, and each component of
    degree 3 - 2n of order <= n (``degree_split``).
    """
    report = StructReport("homotopy-BV triple")

    if d.is_zero():
        report.add("d homogeneous of degree +1", "pass", "d = 0, vacuous")
    elif d.is_degree_homogeneous() and d.degree() == 1:
        report.add("d homogeneous of degree +1", "pass")
    else:
        report.add("d homogeneous of degree +1", "fail", f"degrees {sorted(d.degrees())}")

    report.square_zero("d squares to zero", d)

    if d.is_zero():
        report.add("d is a product derivation", "pass", "d = 0, vacuous")
    else:
        report.certify("d is a product derivation", akman_order_check(d, 1), d.table)

    report.add("D is odd", "pass" if D.is_odd() else "fail")

    report.square_zero("D squares to zero", D)

    tail = D - d
    offending = sorted(g for g in tail.degrees() if g >= 0)
    report.add(
        "degree of D - d is negative",
        "pass" if not offending else "fail",
        "" if not offending else f"non-negative components at degrees {offending}",
    )
    report.certify_components(degree_split(tail), D.table)
    return report


# --------------------------------------------------------------------------
# Cohomology
# --------------------------------------------------------------------------

class CohomologyBasis:
    """Per-degree representatives of ker d / im d on a finite monomial window,
    shared by every caller of ``cohomology`` for one d and window: read it,
    never mutate it.

    ``boundaries`` holds the image rows of every slice as ``image_rows``
    returns them, still packed: pivot code -> integer row over codes,
    primitive over its entries and positive at the pivot, the fully reduced
    basis of the window's boundaries times that entry.  ``unpack`` turns a
    code back into its monomial.  ``cohomology`` reduces kernel combinations
    against the packed rows with ``_reduce``, so its integer ``RowSpace`` of
    representatives sees only the residuals that are not boundaries; a
    residual is unpacked into ``Fraction``s only for the ``Element`` it
    reports.
    """

    def __init__(self, table: GeneratorTable, representatives: dict[int, list[Element]],
                 boundaries: dict, unpack, warnings: list[str]):
        self.table = table
        self.representatives = representatives
        # all boundaries from window monomials, one fully reduced basis
        self.boundaries = boundaries
        self.unpack = unpack
        self.warnings = warnings

    def dims(self) -> dict[int, int]:
        return {g: len(reps) for g, reps in sorted(self.representatives.items())}


def cohomology(d: Operator, window_degree: int = 4) -> CohomologyBasis:
    """Kernel-mod-image of a square-zero degree-homogeneous d, per degree,
    over the window of monomials with total exponent <= window_degree.
    Built once per window and kept on ``d``: later calls share it.

    Monomials are packed into ints of the same order (``Operator.packed``),
    so an image is integer additions and the passes eliminate the codes
    themselves; only a new class's codes are unpacked, for its ``Element``.
    A rank pass (``image_rows``) gives each slice's boundary rows and rank.
    Kernel combinations are made only in a slice whose kernel dimension
    exceeds its boundary rows lying wholly in the window: cycles, no class.
    """
    if window_degree < 0:
        raise AlgebraError(f"cohomology window must be >= 0, got {window_degree}")
    if not d.square().is_zero():
        raise AlgebraError("cohomology requires d^2 = 0 (exact normal form)")
    if not d.is_zero() and not d.is_degree_homogeneous():
        raise AlgebraError("cohomology requires a degree-homogeneous d")
    if window_degree in d._cohomology:
        return d._cohomology[window_degree]

    table = d.table
    warnings: list[str] = []
    # growth of total exponent along d; negative growth can pull boundaries
    # in from outside the window, unless the generators are all odd and the
    # window holds every monomial
    growths = [sum(m) - sum(dv) for (m, dv) in d.terms]
    whole = len(table.odd) == len(table) and window_degree >= len(table)
    truncation_risk = bool(growths) and min(growths) <= 0 and not whole

    pack, unpack, image = d.packed(window_degree)
    by_degree: dict[int, list] = {}
    total: dict[int, int] = {}  # window code -> total exponent
    for m, g in graded_monomials(table, window_degree):
        c = pack(m)
        by_degree.setdefault(g, []).append(c)
        total[c] = sum(m)

    # d is homogeneous, so the slices' images span disjoint parts of the boundaries;
    # a negative-degree d maps later slices into earlier ones, so eliminate all first
    boundaries: dict = {}
    room: dict[int, int] = {}
    for g, codes in sorted(by_degree.items()):
        rows = image_rows(list(map(image, codes)))
        room[g] = room.get(g, 0) + len(codes) - len(rows)
        inside = sum(total.keys() >= row.keys() for row in rows.values())
        if inside:
            h = g + d.degree()
            room[h] = room.get(h, 0) - inside
        boundaries.update(rows)

    # class pass, on the slices with room for a class: a kernel combination
    # reduces in integers, and only a new class's residual, whose codes a row
    # reaching outside the window can carry in, is unpacked into Fractions
    representatives: dict[int, list[Element]] = {}
    for g, codes in sorted(by_degree.items()):
        reps: list[Element] = []
        if room[g] > 0:
            kernel, _ = kernel_and_image(codes, list(map(image, codes)))
            rep_space = RowSpace()
            for combo, scale in kernel:
                scale *= _reduce(combo, boundaries)
                if rep_space.add(combo):
                    reps.append(Element(table, {
                        unpack(k): Fraction(v, scale) for k, v in combo.items()}))
        if reps:
            representatives[g] = reps
        if truncation_risk and any(
            total[c] >= window_degree + min(growths) for c in codes
        ):
            warnings.append(
                f"degree {g}: boundaries from outside the window may be missed"
            )
    basis = CohomologyBasis(table, representatives, boundaries, unpack, warnings)
    d._cohomology[window_degree] = basis
    return basis


# --------------------------------------------------------------------------
# Induced BV structure on cohomology
# --------------------------------------------------------------------------

def induced_bv(d: Operator, D: Operator, window_degree: int = 4) -> StructReport:
    """The BV structure that the degree -1 part D2 of a homotopy-BV operator
    D induces on H(d), read off identities on the algebra once
    ``check_bvinfty`` passes; nothing is evaluated on representatives.

    D is odd, d has degree +1 (or is 0), every other component of D has
    negative odd degree, and the degree -1 part D2 has order <= 2, so
    F^3_{D2} = 0 (``bracket_vanishes``).  The degree 0 and -2 parts of
    D o D = 0 read

        d D2 + D2 d = 0,    D2 o D2 = -(d D3 + D3 d),

    with D3 the degree -3 part.  The first makes D2 map cycles to cycles and
    boundaries to boundaries; d is a product derivation, so the product, D2
    and every bracket F^n_{D2} built from them descend to classes.  By the
    second, D2 o D2 sends a cycle z to the boundary -d D3 z.  F^2 is graded
    symmetric, hence antisymmetry.  As F^3_{D2} = 0, the induced operator
    has order <= 2 and the Leibniz defect, (-1)^{|a|} F^3, vanishes; and by
    the Koszul-Akman identity R_3 = F^3_{X o X} the Jacobiator is
    +-F^3_{D2 o D2} = -+F^3_{d D3 + D3 d}.  Polarizing R_3 at X = d + D3,
    where F^n_d = 0 for n >= 2, gives on cycles
    F^3_{d D3 + D3 d}(a, b, c) = d F^3_{D3}(a, b, c), a boundary, so Jacobi
    holds on classes.  Each of these identities holds exactly on a window
    with at least one class, and is untested on a window with none.
    """
    pre = check_bvinfty(d, D)
    if not pre.passed:
        failed = "; ".join(
            i.name + (f" (witness: {i.witness})" if i.witness else "")
            for i in pre.items if i.status == "fail"
        )
        raise AlgebraError(f"induced_bv precondition: homotopy-BV check failed: {failed}")
    report = StructReport("induced BV structure on cohomology")
    report.add("d D2 + D2 d = 0 (exact operator identity)", "pass")

    H = cohomology(d, window_degree)
    report.holds("induced map well defined on classes")
    for name in (
        "induced operator squares to zero on classes",
        "induced operator has order <= 2 on representatives",
        "induced bracket: graded antisymmetry",
        "induced bracket: graded Jacobi",
        "induced bracket: Leibniz rule",
    ):
        if H.representatives:
            report.holds(name)
        else:
            report.add(name, "untested", "no class in the window")
    return report
