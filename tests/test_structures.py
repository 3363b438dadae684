from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product as iter_product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bvcheck import brackets, structures
from bvcheck.algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    enumerate_monomials,
    parse_element,
)
from bvcheck.brackets import (
    Budget,
    akman_bracket,
    akman_order_check,
    bracket_vanishes,
    bv_bracket,
)
from bvcheck.cli import run_suite
from bvcheck.linfty import verify_linfty
from bvcheck.models import (
    BUILTIN_MODELS,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from bvcheck.operators import Operator
from bvcheck.specfile import parse_spec
from bvcheck.structures import (
    check_bvinfty,
    check_derivation_lemma,
    check_gerstenhaber,
    cohomology,
    degree_split,
    induced_bv,
)

from oracles import (
    RowSpaceByCopies,
    boundary_space,
    bracket_derivation_defect,
    cohomology_by_fractions,
    gerstenhaber_by_evaluation,
    gl_chevalley_eilenberg,
    induced_identities_on_representatives,
    induced_items_by_evaluation,
    is_homogeneous,
    jacobiator,
    leibniz_defect,
    order_check_by_evaluation,
    square_by_degree_pairs,
)
from test_cli import CE_SPECS, KOSZUL_FRACTIONAL

BUDGET = Budget(max_degree=2, max_tuples=60)


def monomial_elements(table, max_degree):
    return [Element.monomial(table, m) for m in enumerate_monomials(table, max_degree)]


# --- Gerstenhaber axioms ----------------------------------------------------

def test_laplacian_bracket_passes_axioms():
    # odd of order 2 with D o D = 0: Jacobi and Leibniz are read off the
    # normal forms and hold exactly, as do antisymmetry and both offsets;
    # evaluating every pair and triple of the window agrees
    model = polyvector_model(2)
    report = check_gerstenhaber(model.D, BUDGET)
    assert report.passed and report.fully_tested
    assert [(i.name, i.details) for i in report.items] == [
        ("graded antisymmetry", "exact"),
        ("graded Jacobi", "exact"),
        ("Leibniz rule", "exact"),
        ("bracket degree offset -1", "exact"),
        ("product degree offset +0", "exact"),
    ]
    _, evaluated = _assert_agrees_with_evaluation(model.D)
    assert [i.details for i in evaluated.values()] == [
        "169 pairs", "2197 triples", "2197 triples", "", ""]


def test_gerstenhaber_evaluates_each_pair_once(monkeypatch):
    calls = []

    def recorded(D, a, b):
        calls.append((a, b))
        return bv_bracket(D, a, b)

    monkeypatch.setattr(structures, "bv_bracket", recorded)
    # Leibniz fails on mixed-order's order-3 part, so Jacobi is evaluated on
    # every triple up to the first failure, once per distinct pair
    model = mixed_order_model()
    report = check_gerstenhaber(model.D, Budget(max_degree=2, max_tuples=23**3))
    assert report.items[1].name == "graded Jacobi" and report.items[1].witness
    assert calls and len(set(calls)) == len(calls)
    # decided from the square, Jacobi and Leibniz call it not at all
    calls.clear()
    report = check_gerstenhaber(polyvector_model(2).D, BUDGET)
    assert report.passed and report.fully_tested and calls == []


def test_gerstenhaber_by_evaluation_evaluates_each_pair_once():
    model = polyvector_model(2)
    elems = monomial_elements(model.table, 2)
    brackets, products = [], []

    def bracket(a, b):
        brackets.append((a, b))
        return bv_bracket(model.D, a, b)

    def product(a, b):
        products.append((a, b))
        return a * b

    report = gerstenhaber_by_evaluation(
        bracket, product, elems, BUDGET, bracket_degree=-1, product_degree=0
    )
    assert report.passed and report.fully_tested
    for calls in (brackets, products):
        assert calls and len(set(calls)) == len(calls)


def test_gerstenhaber_memo_tells_same_support_elements_apart():
    # [xi1, x1 * 2x1] = [xi1, x1] 2x1 + [xi1, 2x1] x1 needs [xi1, 2x1] to be
    # twice [xi1, x1], though x1 and 2x1 hash alike
    model = polyvector_model(1)
    x1, xi1 = (Element.generator(model.table, n) for n in ("x1", "xi1"))
    elems = [xi1, x1, 2 * x1, -xi1]
    budget = Budget(max_degree=1, max_tuples=64)

    def bracket(a, b):
        return bv_bracket(model.D, a, b)

    report = gerstenhaber_by_evaluation(bracket, lambda a, b: a * b, elems, budget)
    assert report.passed and report.fully_tested

    memo = {}  # keyed by the supports alone: the collision the memo must avoid

    def by_support(a, b):
        key = (frozenset(a.coeffs), frozenset(b.coeffs))
        return memo.setdefault(key, bracket(a, b))

    report = gerstenhaber_by_evaluation(by_support, lambda a, b: a * b, elems, budget)
    names = {i.name: i.status for i in report.items}
    assert names["Leibniz rule"] == "fail"


def test_broken_bracket_fails_axioms():
    model = polyvector_model(2)
    elems = monomial_elements(model.table, 2)

    def broken(a, b):  # drops the sign decoration: antisymmetry breaks
        return akman_bracket(model.D, (a, b))

    report = gerstenhaber_by_evaluation(broken, lambda a, b: a * b, elems, BUDGET)
    names = {i.name: i.status for i in report.items}
    assert names["graded antisymmetry"] == "fail"
    failed = [i for i in report.items if i.status == "fail"]
    assert all(i.witness for i in failed)


# --- order/degree splitting -------------------------------------------------

def test_degree_split_mixed_order():
    model = mixed_order_model()
    certificates = degree_split(model.D)
    comps = model.D.degree_components()
    assert list(certificates) == [1, 2, 3]
    assert list(comps) == [-3, -1, 1]
    for n, cert in certificates.items():
        assert comps[3 - 2 * n].structural_order() == n
        assert cert.passed and cert.sharp


def test_degree_split_assigns_by_degree_not_order():
    table = GeneratorTable(("xi", "u"), (-1, 1))
    D = Operator.derivative(table, "u")  # degree -1, so indexed n = 2
    certificates = degree_split(D)
    assert list(certificates) == [2]
    assert certificates[2].passed and not certificates[2].sharp


def test_degree_split_flags_off_pattern_degrees():
    # a d/db has degree 0, of no order index: degree_split certifies nothing
    # and the split suite lists the degree as residual
    table = GeneratorTable(("a", "b"), (1, 1))
    off = Operator.term(table, 1, (1, 0), (0, 1))
    assert off.compose(off).is_zero()
    assert degree_split(off) == {}
    spec = parse_spec("GENERATORS\na 1\nb 1\n\nOPERATOR D\n1 | 1 0 | 0 1\n")
    assert spec.main_operator() == off
    report = run_suite("split", spec, BUDGET, {})
    assert [(i.name, i.status, i.details) for i in report.items] == [
        ("no off-pattern degree components", "fail", "residual degrees [0]")
    ]


def test_degree_split_rejects_higher_order_plus_one_part():
    # the degree +1 component d/dx d/dxi has order 2: its order <= 1
    # certificate fails at (x, xi)
    table = GeneratorTable(("x", "xi"), (0, -1))
    D = Operator.term(table, 1, (0, 0), (1, 1))
    assert D.compose(D).is_zero()
    certificates = degree_split(D)
    assert list(certificates) == [1]
    assert not certificates[1].passed
    assert certificates[1].failure_witness == ((1, 0), (0, 1))


def test_degree_split_requires_square_zero():
    # degree_split certifies any operator's components; the split suite
    # requires D o D = 0, here d/dx1 after the Laplacian plus xi1
    model = polyvector_model(1)
    bad = model.D + Operator.multiplication(
        Element.generator(model.table, "xi1")
    )
    assert list(degree_split(bad)) == [1, 2]
    spec = parse_spec("GENERATORS\nx1 0\nxi1 1\n\nOPERATOR D\n1 | 0 0 | 1 1\n1 | 0 1 | 0 0\n")
    assert spec.main_operator() == bad
    with pytest.raises(AlgebraError, match=r"square-zero operator; D\^2 != 0 at x1$"):
        run_suite("split", spec, BUDGET, {})


def _laplacian_plus(n: int, mult: str, deriv: tuple = ()) -> Operator:
    """The polyvector Laplacian plus 3/2 times one term: multiplication by the
    element ``mult`` after differentiating by each generator in ``deriv``."""
    model = polyvector_model(n)
    term = Operator.multiplication(parse_element(model.table, mult))
    for name in deriv:
        term = term.compose(Operator.derivative(model.table, name))
    return model.D + Fraction(3, 2) * term


# the built-in models, and perturbations of the Laplacian: + c*xi_i squares to
# c*d/dx_i, + c*x1*xi1 to an operator with a multiplication term, and
# + c*d/dx_i d/dx_j d/dxi_k is square zero of order 3
SQUARES = {
    **{name: make().D for name, make in sorted(BUILTIN_MODELS.items())},
    "laplacian2+xi1": _laplacian_plus(2, "xi1"),
    "laplacian3+xi2": _laplacian_plus(3, "xi2"),
    "laplacian2+x1*xi1": _laplacian_plus(2, "x1*xi1"),
    "laplacian2+dx1dx2dxi1": _laplacian_plus(2, "1", ("x1", "x2", "xi1")),
    "laplacian3+dx1dx1dxi3": _laplacian_plus(3, "1", ("x1", "x1", "xi3")),
}


@pytest.mark.parametrize("name", sorted(SQUARES))
def test_square_by_degree_pairs_is_the_square_by_degree(name):
    # compose is bilinear and degrees add: the per-degree sums of products of
    # components are the degree parts of D o D, which the split suite's
    # square-zero precondition finds zero
    D = SQUARES[name]
    assert square_by_degree_pairs(D) == D.square().degree_components()


@st.composite
def odd_operators(draw):
    """An odd operator of up to five terms, inhomogeneous in degree, on a
    table with generators of four different degrees."""
    table = GeneratorTable(("x", "xi", "eta", "u"), (0, -1, 1, 2))
    key = st.tuples(
        st.sampled_from(enumerate_monomials(table, 2)),
        st.sampled_from(enumerate_monomials(table, 3)),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)])
    P = Operator(table, draw(st.dictionaries(key, coeff, max_size=5)))
    return Operator(table, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2})


@given(odd_operators())
@settings(max_examples=40, deadline=None)
def test_square_by_degree_pairs_on_drawn_odd_operators(D):
    assert square_by_degree_pairs(D) == D.square().degree_components()


@pytest.mark.parametrize("name", sorted(SQUARES))
def test_bracket_derivation_defect_is_the_bracket_of_the_square(name):
    # for odd D, D[a,b] - [Da,b] + (-1)^{|a|}[a,Db] = (-1)^{|a|} F^2_{D o D}(a,b),
    # so derivation clause (i) is decided by the lemma's D^2 = 0 precondition
    D = SQUARES[name]
    elems = monomial_elements(D.table, 2)
    nonzero = 0
    for a, b in iter_product(elems, repeat=2):
        defect = bracket_derivation_defect(D, D, a, b)
        square = akman_bracket(D.square(), (a, b))
        assert defect == (-square if a.parity() else square), (a, b)
        nonzero += not defect.is_zero()
    # nonzero somewhere exactly when F^2 of the square is: + c*x1*xi1
    assert (nonzero > 0) == (not bracket_vanishes(D.square(), 2))
    assert (nonzero > 0) == (name == "laplacian2+x1*xi1")


def _witness_elements(table, witness: str) -> list[Element]:
    """A report's ``(a, b, c)`` witness as elements."""
    return [parse_element(table, m) for m in witness.strip("()").split(", ")]


def _gerstenhaber_items(D):
    """``check_gerstenhaber``'s items and ``gerstenhaber_by_evaluation``'s, by
    name, on every pair and triple of the window of degree 2."""
    elems = monomial_elements(D.table, 2)
    budget = Budget(max_degree=2, max_tuples=len(elems) ** 3)
    homogeneous = D.is_degree_homogeneous() and not D.is_zero()
    evaluated = gerstenhaber_by_evaluation(
        partial(bv_bracket, D), lambda a, b: a * b, elems, budget,
        bracket_degree=D.degree() if homogeneous else None, product_degree=0,
    )
    read_off = check_gerstenhaber(D, budget)
    return {i.name: i for i in read_off.items}, {i.name: i for i in evaluated.items}


def _jacobi_is_evaluated(D, read_off) -> bool:
    """Whether ``check_gerstenhaber`` evaluated Jacobi on the window's triples
    (the Leibniz rule fails, or D is even) instead of reading it off D o D."""
    return read_off["Leibniz rule"].status == "fail" or not D.is_odd()


def _assert_agrees_with_evaluation(D):
    """Each item has the oracle's status on a window that holds every
    constructed witness, whose every pair and triple the oracle evaluates.
    An exact pass is a pass there, and an evaluated Jacobi is the oracle's
    item; a failure read off a normal form fails the oracle's identity at
    its witness.  Returns the items."""
    read_off, evaluated = _gerstenhaber_items(D)
    assert read_off.keys() == evaluated.keys()
    for name, item in read_off.items():
        assert item.status == evaluated[name].status, name
        if item.status == "pass" and item.details != "exact":
            assert item == evaluated[name], name
    bracket = partial(bv_bracket, D)
    if read_off["Leibniz rule"].status == "fail":
        a, b, c = _witness_elements(D.table, read_off["Leibniz rule"].witness)
        assert not leibniz_defect(bracket, lambda u, v: u * v, a, b, c).is_zero()
    if _jacobi_is_evaluated(D, read_off):
        assert read_off["graded Jacobi"] == evaluated["graded Jacobi"]
    elif read_off["graded Jacobi"].status == "fail":
        a, b, c = _witness_elements(D.table, read_off["graded Jacobi"].witness)
        assert not jacobiator(bracket, a, b, c).is_zero()
    return read_off, evaluated


def test_leibniz_is_order_two_and_antisymmetry_holds_on_every_square():
    # the Leibniz defect is (-1)^{|a|} F^3(a,b,c), so the rule fails exactly
    # where the order <= 2 certificate does; F^2 is graded symmetric, so
    # antisymmetry never fails.  Every term has at most three derivatives
    # and the odd ones of order <= 2 square to at most four, so each
    # constructed witness lies in the window of degree 2
    statuses = set()
    for name, D in sorted(SQUARES.items()):
        read_off, evaluated = _assert_agrees_with_evaluation(D)
        assert evaluated["graded antisymmetry"].status == "pass", name
        statuses.add(evaluated["Leibniz rule"].status)
    assert statuses == {"pass", "fail"}


@st.composite
def parity_homogeneous_operators(draw):
    """An odd or even operator of up to five terms, inhomogeneous in degree."""
    table = GeneratorTable(("x", "xi", "eta", "u"), (0, -1, 1, 2))
    key = st.tuples(
        st.sampled_from(enumerate_monomials(table, 2)),
        st.sampled_from(enumerate_monomials(table, 3)),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)])
    P = Operator(table, draw(st.dictionaries(key, coeff, max_size=5)))
    parity = draw(st.sampled_from((0, 1)))
    return Operator(table, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2 == parity})


@given(parity_homogeneous_operators())
@settings(max_examples=30, deadline=None)
def test_leibniz_is_order_two_and_antisymmetry_holds_on_drawn_operators(D):
    # every term has at most three derivatives, so an order <= 2 operator's
    # square has at most four, and each constructed witness lies in window 2
    read_off, evaluated = _assert_agrees_with_evaluation(D)
    assert evaluated["graded antisymmetry"].status == "pass"


def _assert_jacobi_equals_evaluation(D):
    """Jacobi of a degree-inhomogeneous D, evaluated on every triple of the
    window of degree 2, is the oracle's item, witness included, though only
    the oracle splits each bracket value into its degree components."""
    read_off, evaluated = _gerstenhaber_items(D)
    assert _jacobi_is_evaluated(D, read_off)
    assert read_off["graded Jacobi"] == evaluated["graded Jacobi"]
    return read_off["graded Jacobi"]


def test_jacobi_of_mixed_order_equals_evaluation_by_degree():
    # mixed-order's brackets have components of several degrees; its order-3
    # part breaks the Leibniz rule, so Jacobi is evaluated, and fails
    jacobi = _assert_jacobi_equals_evaluation(mixed_order_model().D)
    assert jacobi.status == "fail" and jacobi.witness == "(eta3, u*eta2, xi2*eta1)"


@given(parity_homogeneous_operators())
@settings(max_examples=30, deadline=None)
def test_jacobi_of_drawn_inhomogeneous_operators_equals_evaluation_by_degree(D):
    assume(not D.is_degree_homogeneous())
    assume(not D.is_odd() or not bracket_vanishes(D, 3))
    _assert_jacobi_equals_evaluation(D)


POLYVECTOR2 = polyvector_model(2)
# odd, of order 2 and without a multiplication term on polyvector2, and not
# Jacobi: d/dx1 d/dxi1 + x1 d/dx2 d/dxi2 and the Laplacian + x1^2 d/dx1 d/dxi2
NON_JACOBI = {
    "dx1dxi1+x1dx2dxi2": Operator(POLYVECTOR2.table, {
        ((0, 0, 0, 0), (1, 0, 1, 0)): Fraction(1),
        ((1, 0, 0, 0), (0, 1, 0, 1)): Fraction(1),
    }),
    "laplacian+x1^2dx1dxi2": POLYVECTOR2.D + Operator.term(
        POLYVECTOR2.table, 1, (2, 0, 0, 0), (1, 0, 0, 1)),
}


@st.composite
def odd_order_two_operators(draw):
    """An odd operator on polyvector2 of one to three terms, each with one or
    two derivatives and a multiplier of degree at most 1."""
    table = POLYVECTOR2.table
    key = st.tuples(
        st.sampled_from(enumerate_monomials(table, 1)),
        st.sampled_from([d for d in enumerate_monomials(table, 2) if sum(d)]),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)])
    P = Operator(table, draw(st.dictionaries(key, coeff, min_size=1, max_size=3)))
    return Operator(table, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2})


def _exact_and_evaluated_jacobi(D):
    """Jacobi decided from ``D o D`` and evaluated on every triple of the
    degree-2 window, which holds every witness of ``bracket_witness(D o D, 3)``."""
    assert akman_order_check(D, 2).passed and D.is_odd()
    read_off, evaluated = _assert_agrees_with_evaluation(D)
    assert not _jacobi_is_evaluated(D, read_off)
    return read_off["graded Jacobi"], evaluated["graded Jacobi"]


@pytest.mark.parametrize("name", sorted(NON_JACOBI))
def test_jacobi_from_the_square_refutes_what_evaluation_refutes(name):
    exact, evaluated = _exact_and_evaluated_jacobi(NON_JACOBI[name])
    assert exact.status == evaluated.status == "fail"
    assert exact.witness is not None


@given(odd_order_two_operators())
@settings(max_examples=15, deadline=None)
def test_jacobi_from_the_square_equals_evaluating_every_triple(D):
    # the Jacobiator of an odd D with F^3_D = 0 is F^3 of D o D, up to sign
    if not D:
        return
    exact, evaluated = _exact_and_evaluated_jacobi(D)
    assert exact.status == evaluated.status
    assert (exact.status == "fail") == (not bracket_vanishes(D.square(), 3))
    if exact.status == "pass":
        assert exact.details == "exact"
        assert evaluated.details == f"{len(monomial_elements(D.table, 2)) ** 3} triples"


@pytest.mark.parametrize("mult, deriv, nonzero", [
    ("xi1*xi2", "xi2", 46),
    ("x1*xi1", "x2", 55),
])
def test_bracket_derivation_defect_of_a_product_derivation(mult, deriv, nonzero):
    # for an odd product derivation X, X[a,b] - [Xa,b] + (-1)^{|a|}[a,Xb] is
    # (-1)^{|a|} F^2_{X o D + D o X}(a,b), so derivation clause (iv) is an
    # order certificate of the anticommutator [X, D]
    model = polyvector_model(2)
    D, table = model.D, model.table
    X = Operator.multiplication(parse_element(table, mult)).compose(
        Operator.derivative(table, deriv)
    )
    assert X.is_odd() and bracket_vanishes(X, 2)
    anticommutator = X.compose(D) + D.compose(X)
    found = 0
    for a, b in iter_product(monomial_elements(table, 2), repeat=2):
        defect = bracket_derivation_defect(D, X, a, b)
        value = akman_bracket(anticommutator, (a, b))
        assert defect == (-value if a.parity() else value), (a, b)
        found += not defect.is_zero()
    assert found == nonzero


def _koszul1_with_degree_minus_one_part():
    # c*xi1 d/dx1 has degree -1, and d = x1 d/dxi1 does not anticommute with it
    model = koszul_complex_model([1])
    return model.d, model.D + Fraction(5, 3) * Operator.term(model.table, 1, (0, 1), (1, 0))


@pytest.mark.parametrize("make,anticommutes", [
    (lambda: (koszul_complex_model([1]).d, koszul_complex_model([1]).D), True),
    (lambda: (koszul_complex_model([2]).d, koszul_complex_model([2]).D), True),
    (lambda: (mixed_order_model().d, mixed_order_model().D), True),
    (_koszul1_with_degree_minus_one_part, False),
], ids=["koszul1", "koszul2", "mixed-order", "koszul1-perturbed"])
def test_induced_anticommutator_is_the_degree_zero_part_of_the_square(make, anticommutes):
    # with d of degree +1 and D - d of negative degrees, d D2 + D2 d is the
    # degree 0 part of D o D, so induced_bv's line is decided by check_bvinfty
    d, D = make()
    D2 = D.degree_components().get(-1, Operator.zero(D.table))
    anti = d.compose(D2) + D2.compose(d)
    assert anti == D.square().degree_components().get(0, Operator.zero(D.table))
    assert anti.is_zero() == anticommutes


# --- derivation lemma -------------------------------------------------------

def test_derivation_lemma_koszul_model():
    model = koszul_complex_model([1])
    report = check_derivation_lemma(model.D)
    assert report.passed
    names = {i.name: i for i in report.items}
    assert names["D is a bracket derivation"].status == "pass"
    assert names["product-Leibniz failure of D"].witness is not None
    assert names["D1 product Leibniz"].status == "pass"


@pytest.mark.parametrize("model", [
    koszul_complex_model([1]), koszul_complex_model([2]), mixed_order_model(),
], ids=["koszul1", "koszul2", "mixed-order"])
def test_d1_is_a_bracket_derivation_where_its_anticommutator_has_order_one(model):
    # D1 is a product derivation and D1 o D + D o D1 has order <= 1, so (iv)
    # passes, and D1's evaluated bracket-derivation defect is 0 on the window
    items = {i.name: i for i in check_derivation_lemma(model.D).items}
    assert items["D1 product Leibniz"].status == "pass"
    iv = items["D1 bracket-derivation failure"]
    assert (iv.status, iv.details, iv.witness) == (
        "pass", "none: D1 is a derivation of the bracket", None)
    D1 = model.D.degree_components()[1]
    elems = monomial_elements(model.table, 2)
    assert all(bracket_derivation_defect(model.D, D1, a, b).is_zero()
               for a, b in iter_product(elems, repeat=2))


def test_derivation_lemma_rejects_non_square_zero():
    model = polyvector_model(1)
    bad = model.D + Operator.multiplication(Element.generator(model.table, "xi1"))
    with pytest.raises(AlgebraError):
        check_derivation_lemma(bad)


EXTERIOR2 = GeneratorTable(("xi1", "xi2"), (1, 1))
EXTERIOR3 = GeneratorTable(("xi1", "xi2", "xi3"), (1, 1, 1))


@pytest.mark.parametrize("D", [
    Operator.term(EXTERIOR2, 1, (0, 0), (1, 1)),  # d/dxi1 d/dxi2: even
    Operator.multiplication(parse_element(EXTERIOR3, "xi1*xi2 + xi1*xi2*xi3")),
    Operator.multiplication(parse_element(EXTERIOR2, "xi1 + xi1*xi2")),
], ids=["even", "mixed-parity-xi1xi2", "mixed-parity-xi1"])
def test_derivation_lemma_requires_an_odd_operator(D):
    # each squares to zero, but clause (i) is decided from D^2 = 0 only for
    # odd D: the even one is no derivation of its own bracket
    assert D.square().is_zero()
    with pytest.raises(AlgebraError, match="odd"):
        check_derivation_lemma(D)


def test_derivation_clauses_iii_and_iv_follow_the_product_derivation_certificate(monkeypatch):
    # d/dx d/dy with y odd of degree -1: square zero, degree +1 and of order 2,
    # so D1 = D is no product derivation, and the identity that reads (iv)
    # off the anticommutator [D1, D] does not apply
    D = Operator.term(GeneratorTable(("x", "y"), (0, -1)), 1, (0, 0), (1, 1))
    certified, real = [], structures.akman_order_check
    monkeypatch.setattr(structures, "akman_order_check",
                        lambda P, k: certified.append(P) or real(P, k))
    iv = "undecided: D1 is not a product derivation"
    # (iii) fails at the constructed (x, y), and (iv) is then not read
    items = {i.name: i for i in check_derivation_lemma(D).items}
    assert (items["D1 product Leibniz"].status, items["D1 product Leibniz"].witness) == (
        "fail", "(x, y)")
    assert (items["D1 bracket-derivation failure"].status,
            items["D1 bracket-derivation failure"].details) == ("untested", iv)
    assert certified and all(P == D for P in certified)  # D or D1, never [D1, D]
    # evaluating two pairs of the window misses it, and three meet it
    assert order_check_by_evaluation(D, 1, Budget(max_degree=1, max_tuples=2)).passed
    assert not order_check_by_evaluation(D, 1, Budget(max_degree=1, max_tuples=3)).passed


def test_a_gauge_conjugated_d1_exhibits_its_bracket_derivation_failure():
    # D' = (1 - T) o D o (1 + T) on sl2*, with T = x1 d/dxi2 d/dxi3 +
    # x2^2 d/dxi1 d/dxi3 even of degree -2: T o T = 0, as each of its terms
    # holds d/dxi3, so D' is D conjugated by 1 + T and squares to zero.  Its
    # D1 is a product derivation, but no derivation of the bracket of D', so
    # (iv) exhibits a pair where X[a,b] = [Xa, b] - (-1)^{|a|} [a, Xb] fails
    _, D = _lie_poisson([(1, 3, 1, 2), (1, 1, 2, 3), (1, 2, 1, 3)])
    table = D.table
    T = (Operator.term(table, 1, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
         + Operator.term(table, 1, (0, 2, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1)))
    one = Operator.identity(table)
    assert T.square().is_zero()
    gauged = (one - T).compose(D).compose(one + T)
    assert gauged.square().is_zero()
    assert gauged.degrees() == {-3, -1, 1}
    items = {i.name: i for i in check_derivation_lemma(gauged).items}
    assert items["D1 product Leibniz"].status == "pass"
    iv = items["D1 bracket-derivation failure"]
    assert (iv.status, iv.details, iv.witness) == (
        "pass", "failure witness exhibited", "(x1, xi1*xi2)")
    # both sides at the witness, by brackets of D' evaluated on elements
    X = gauged.degree_components()[1]
    a, b = parse_element(table, "x1"), parse_element(table, "xi1*xi2")
    lhs = X.apply(bv_bracket(gauged, a, b))
    rhs = bv_bracket(gauged, X.apply(a), b) - bv_bracket(gauged, a, X.apply(b))  # |a| = 0
    assert lhs != rhs
    assert lhs - rhs == bracket_derivation_defect(gauged, X, a, b)


def test_even_square_zero_operator_is_no_bracket_derivation():
    D = Operator.term(EXTERIOR2, 1, (0, 0), (1, 1))
    elems = monomial_elements(EXTERIOR2, 2)
    assert any(
        not bracket_derivation_defect(D, D, a, b).is_zero()
        for a, b in iter_product(elems, repeat=2)
    )


def test_derivation_lemma_accepts_the_zero_operator():
    report = check_derivation_lemma(Operator.zero(EXTERIOR2))
    assert report.passed


# --- homotopy-BV triple -----------------------------------------------------

def test_bvinfty_koszul_model_passes():
    model = koszul_complex_model([1])
    report = check_bvinfty(model.d, model.D)
    assert report.passed and report.fully_tested


def test_bvinfty_detects_wrong_differential_degree():
    model = koszul_complex_model([1])
    wrong_d = model.D.degree_components()[-3]  # degree -3, not +1
    report = check_bvinfty(wrong_d, model.D)
    names = {i.name: i.status for i in report.items}
    assert names["d homogeneous of degree +1"] == "fail"


@pytest.mark.parametrize("square_zero", [True, False])
def test_bvinfty_builds_d_squared_once(square_zero, monkeypatch):
    model = koszul_complex_model([2])
    xi = Operator.multiplication(Element.generator(model.table, "xi1"))
    d = model.d if square_zero else model.d + xi  # (d + xi)^2 = mult by d(xi)
    expected = d.compose(d)
    pairs = []
    compose = Operator.compose

    def counting(self, other):
        pairs.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(Operator, "compose", counting)
    report = check_bvinfty(d, model.D)
    assert sum(a is d and b is d for a, b in pairs) == 1
    item = next(i for i in report.items if i.name == "d squares to zero")
    assert item.status == ("pass" if square_zero else "fail")
    # D o D of a failing d multiplies by x1^2: the unit is its least witness
    assert expected.structural_order() == 0
    assert item.witness == (None if square_zero else "1")


def test_one_operator_is_squared_once(monkeypatch):
    # the square-zero check, the relation family and the cohomology all
    # read the same d o d
    d = koszul_complex_model([2]).d
    calls = []
    compose = Operator.compose

    def counting(self, other):
        calls.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(Operator, "compose", counting)
    assert d.is_square_zero() == (True, None)
    assert verify_linfty(d, 3, BUDGET).passed
    assert cohomology(d, 3).dims()
    assert len(calls) == 1 and calls[0][0] is d and calls[0][1] is d


def test_bvinfty_detects_positive_tail():
    model = polyvector_model(1)
    table = model.table
    d = Operator.zero(table)
    # D - d has a degree +1 piece: xi1 * d/dx1
    D = model.D + Operator.term(table, 1, (0, 1), (1, 0))
    report = check_bvinfty(d, D)
    names = {i.name: i.status for i in report.items}
    assert names["degree of D - d is negative"] == "fail"


# --- cohomology -------------------------------------------------------------

def test_cohomology_weighted_model():
    model = koszul_complex_model([2])
    H = cohomology(model.d, 6)
    assert H.dims() == {0: 1, 2: 1}
    assert not H.warnings
    reps = {g: [str(r) for r in rs] for g, rs in H.representatives.items()}
    assert reps == {0: ["1"], 2: ["x1"]}


def test_cohomology_unit_weight_is_acyclic():
    model = koszul_complex_model([1])
    H = cohomology(model.d, 4)
    assert H.dims() == {0: 1}


def test_cohomology_zero_differential_keeps_everything():
    model = polyvector_model(1)
    H = cohomology(model.d, 2)
    n_monos = len(enumerate_monomials(model.table, 2))
    assert sum(len(r) for r in H.representatives.values()) == n_monos


def test_cohomology_requires_square_zero():
    model = polyvector_model(1)
    d = Operator.multiplication(Element.generator(model.table, "x1")) + (
        Operator.derivative(model.table, "x1")
    )
    with pytest.raises(AlgebraError):
        cohomology(d, 3)


def test_cohomology_rejects_a_negative_window():
    model = koszul_complex_model([2])
    with pytest.raises(AlgebraError, match="window"):
        cohomology(model.d, -1)


def test_cohomology_reduce_is_canonical():
    model = koszul_complex_model([2])
    H = cohomology(model.d, 6)
    x = Element.generator(model.table, "x1")
    xi = Element.generator(model.table, "xi1")
    space = boundary_space(H)
    # x^2 = d(xi) is a boundary
    assert space.reduce((x * x).coeffs) == {}
    assert space.reduce(x.coeffs) == x.coeffs


@pytest.mark.parametrize("name", ["koszul1", "koszul2", "koszul13", "mixed-order", "laplacian"])
@pytest.mark.parametrize("window", range(6))
def test_boundary_space_is_the_span_of_every_window_image(name, window):
    # the fully reduced basis is unique, so the rows must equal, as a dict,
    # those of one space filled with d(m) for every window monomial
    if name == "laplacian":
        model = polyvector_model(2)
        table, d = model.table, model.D  # degree -1, order 2
    else:
        model = {
            "koszul1": lambda: koszul_complex_model([1]),
            "koszul2": lambda: koszul_complex_model([2]),
            "koszul13": lambda: koszul_complex_model([1, 3]),
            "mixed-order": mixed_order_model,
        }[name]()
        table, d = model.table, model.d
    oracle = RowSpaceByCopies()
    for m in enumerate_monomials(table, window):
        oracle.add(dict(d.apply(Element.monomial(table, m)).coeffs))
    H = cohomology(d, window)
    assert boundary_space(H).rows == oracle.rows
    # each representative lies in its own degree slice
    for g, reps in H.representatives.items():
        assert all(is_homogeneous(r) and r.degree() == g for r in reps)


def test_cohomology_is_built_once_per_differential_and_window(monkeypatch):
    # counts the rank pass, which every slice takes; its images are fresh
    # dicts, so a slice is named by the codes of the monomials imaged for it
    model = koszul_complex_model([2])
    slices, imaged, real, real_packed = [], [], structures.image_rows, Operator.packed

    def packed(d, window):
        imaged.clear()
        pack, unpack, image = real_packed(d, window)
        return pack, unpack, lambda c: imaged.append(c) or image(c)

    def counting(vectors):
        slices.append(tuple(imaged))
        imaged.clear()
        return real(vectors)

    monkeypatch.setattr(Operator, "packed", packed)
    monkeypatch.setattr(structures, "image_rows", counting)
    H = cohomology(model.d, 5)
    degrees = {model.table.monomial_degree(m) for m in enumerate_monomials(model.table, 5)}
    assert len(slices) == len(set(slices)) == len(degrees)
    assert cohomology(model.d, 5) is H
    assert len(slices) == len(degrees)
    # another window is another elimination and another basis
    H4 = cohomology(model.d, 4)
    assert H4 is not H and len(slices) > len(degrees)
    assert boundary_space(H4).rows != boundary_space(H).rows
    assert cohomology(model.d, 4) is H4


def test_cohomology_domain_errors_follow_a_cached_call():
    model = koszul_complex_model([2])
    table, d = model.table, model.d
    xi1 = Operator.multiplication(Element.generator(table, "xi1"))
    mixed = koszul_complex_model([1, 2])
    # d/dxi1 (degree -1) and d/dxi2 (degree -3) anticommute and square to 0
    inhomogeneous = (Operator.derivative(mixed.table, "xi1")
                     + Operator.derivative(mixed.table, "xi2"))
    H = cohomology(d, 3)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="window"):
            cohomology(d, -1)
        with pytest.raises(AlgebraError, match="d\\^2 = 0"):
            cohomology(d + xi1, 3)  # (d + xi1)^2 = mult by x1^2
        with pytest.raises(AlgebraError, match="degree-homogeneous"):
            cohomology(inhomogeneous, 3)
    assert cohomology(d, 3) is H


@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([1, 2]), 5), (mixed_order_model(), 3), (polyvector_model(2), 2)],
    ids=["koszul12", "mixed-order", "polyvector2"],
)
def test_shared_cohomology_equals_a_fresh_build(model, window):
    shared = cohomology(model.d, window)
    assert cohomology(model.d, window) is shared
    fresh = cohomology(Operator(model.table, model.d.terms), window)
    assert fresh is not shared
    assert fresh.dims() == shared.dims()
    assert fresh.representatives == shared.representatives
    assert list(fresh.boundaries.items()) == list(shared.boundaries.items())
    assert fresh.warnings == shared.warnings


def assert_matches_the_rational_loop(table, d, window):
    # representatives (dict order and values), dimensions, boundary rows and
    # warnings as the Fraction elimination and reduction give them
    H = cohomology(d, window)
    reps, oracle_boundaries, warnings = cohomology_by_fractions(table, d, window)

    def shown(representatives):
        return [(g, [list(r.coeffs.items()) for r in rs]) for g, rs in representatives.items()]

    assert shown(H.representatives) == shown(reps)
    assert H.dims() == {g: len(rs) for g, rs in sorted(reps.items())}
    assert [(p, list(r.items())) for p, r in boundary_space(H).rows.items()] == [
        (p, list(r.items())) for p, r in oracle_boundaries.rows.items()
    ]
    assert H.warnings == warnings


# d = a y d/dy, odd of degree -1: d(y) = a y, and d^2 = 0 since a^2 = 0
LEAK_SPEC = "GENERATORS\na -1\ny 0\nOPERATOR d\n1 | 1 1 | 0 1\n"


def test_a_boundary_that_leaves_the_window_leaves_its_class():
    # window 1 holds 1, y (degree 0) and a (degree -1).  d(1) = d(a) = 0 and
    # d(y) = a y lies outside the window, so no window element is a boundary:
    # H = {-1: a, 0: 1}.  Slice 0's rank 1 lands in degree -1, but its one
    # boundary row is not a cycle of the window, so slice -1 keeps its room
    spec = parse_spec(LEAK_SPEC)
    H = cohomology(spec.differential(), 1)
    assert H.dims() == {-1: 1, 0: 1}
    assert {g: [str(r) for r in rs] for g, rs in H.representatives.items()} == {
        -1: ["a"], 0: ["1"]}
    assert [(H.unpack(p), [(H.unpack(k), v) for k, v in r.items()])
            for p, r in H.boundaries.items()] == [((1, 1), [((1, 1), 1)])]
    assert H.warnings == []
    assert_matches_the_rational_loop(spec.table, spec.differential(), 1)


# d = e d/dx + e x d/dx, of degree +1: d^2 = 0 since e^2 = 0
STRADDLE_SPEC = "GENERATORS\nx 0\ne 1\nOPERATOR d\n1 | 0 1 | 1 0\n1 | 1 1 | 1 0\n"


def test_a_class_reduced_by_a_row_that_straddles_the_window():
    # window 1 holds 1, x (degree 0) and e (degree 1).  The one boundary row
    # d(x) = e + e x has its pivot e inside the window and e x outside, so
    # the cycle e reduces to the class -e x, outside the window, and the
    # growth-0 term e d/dx makes both slices warn
    spec = parse_spec(STRADDLE_SPEC)
    H = cohomology(spec.differential(), 1)
    assert {g: [str(r) for r in rs] for g, rs in H.representatives.items()} == {
        0: ["1"], 1: ["-x*e"]}
    assert H.warnings == [
        f"degree {g}: boundaries from outside the window may be missed" for g in (0, 1)]
    assert_matches_the_rational_loop(spec.table, spec.differential(), 1)


def one_term_differentials():
    """Every one-term odd square-zero d = a^i y^j d/da^k d/dy^l on two
    generators of degrees -2..3, each exponent <= 2 (<= 1 on an odd one)."""
    for degrees in iter_product(range(-2, 4), repeat=2):
        table = GeneratorTable(("a", "y"), degrees)
        caps = [range(2 if g % 2 else 3) for g in degrees]
        for mult in iter_product(*caps):
            for deriv in iter_product(*caps):
                d = Operator.term(table, 1, mult, deriv)
                if d.is_odd() and d.square().is_zero():
                    yield d


def test_cohomology_of_every_small_one_term_differential_matches_the_rational_loop():
    # exhausts a bounded scope, windows 0-3, so every slice the rank pass
    # leaves without room is checked against the full elimination
    ds = list(one_term_differentials())
    assert parse_spec(LEAK_SPEC).differential() in ds
    for d in ds:
        for window in range(4):
            assert_matches_the_rational_loop(d.table, d, window)


def two_term_differentials():
    """Every degree-homogeneous square-zero sum of two odd terms
    x^i e^j d/dx^k d/de^l on two generators of degrees -1..2, each exponent
    <= 2 (<= 1 on an odd one)."""
    for degrees in iter_product(range(-1, 3), repeat=2):
        table = GeneratorTable(("x", "e"), degrees)
        caps = [range(2 if g % 2 else 3) for g in degrees]
        terms = [Operator.term(table, 1, mult, deriv)
                 for mult in iter_product(*caps) for deriv in iter_product(*caps)]
        terms = [t for t in terms if t.is_odd() and not t.is_zero()]
        for s, t in combinations(terms, 2):
            d = s + t
            if not d.is_zero() and d.is_degree_homogeneous() and d.square().is_zero():
                yield d


def test_cohomology_of_every_small_two_term_differential_matches_the_rational_loop():
    # terms of different growth: a boundary row can straddle the window and
    # carry codes from outside it into a class
    ds = list(two_term_differentials())
    assert parse_spec(STRADDLE_SPEC).differential() in ds
    for d in ds:
        for window in range(4):
            assert_matches_the_rational_loop(d.table, d, window)


@pytest.mark.parametrize("name", [*BUILTIN_MODELS, "laplacian-as-d"])
@pytest.mark.parametrize("window", range(5))
def test_cohomology_of_each_model_matches_the_rational_loop(name, window):
    if name == "laplacian-as-d":
        model = polyvector_model(2)
        table, d = model.table, model.D  # degree -1: boundaries land in earlier slices
    else:
        model = BUILTIN_MODELS[name]()
        table, d = model.table, model.d
    assert_matches_the_rational_loop(table, d, window)


@pytest.mark.parametrize("name", ["koszul-fractional", "aff1", "heisenberg"])
@pytest.mark.parametrize("window", range(7))
def test_cohomology_of_each_spec_matches_the_rational_loop(name, window):
    spec = parse_spec(KOSZUL_FRACTIONAL if name == "koszul-fractional" else CE_SPECS[name])
    assert_matches_the_rational_loop(spec.table, spec.differential(), window)


@st.composite
def weighted_koszul_differentials(draw):
    """sum_i c_i x_i^{w_i} d/dxi_i with c_i of denominator 2-9, on 1-3 pairs."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = len(weights)
    table = koszul_complex_model(weights).table
    d = Operator.zero(table)
    for i, w in enumerate(weights):
        c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(2, 9)))
        mult = tuple(w if j == 2 * i else 0 for j in range(2 * n))
        deriv = tuple(1 if j == 2 * i + 1 else 0 for j in range(2 * n))
        d = d + Operator.term(table, c, mult, deriv)
    return table, d


@given(weighted_koszul_differentials(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cohomology_of_weighted_koszul_complexes_matches_the_rational_loop(case, window):
    table, d = case
    assert_matches_the_rational_loop(table, d, window)


FRACTION = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 9))


@given(FRACTION, FRACTION, st.integers(0, 3))
@example(Fraction(2), Fraction(3), 2)
@settings(max_examples=40, deadline=None)
def test_cohomology_of_two_dimensional_lie_algebras_matches_the_rational_loop(a, b, window):
    # Chevalley-Eilenberg, [e1, e2] = a e1 + b e2: for a, b != 0 the boundary
    # +-(a xi1 + b xi2) has its pivot in the cycle xi1, whose residual, a
    # multiple of xi2, is the class
    table = GeneratorTable(("xi1", "xi2"), (1, 1))
    d = Operator.term(table, a, (1, 0), (1, 1)) + Operator.term(table, b, (0, 1), (1, 1))
    assert_matches_the_rational_loop(table, d, window)


# --- induced structure ------------------------------------------------------

def test_induced_bv_koszul():
    model = koszul_complex_model([1])
    report = induced_bv(model.d, model.D, 4)
    assert report.passed


def test_induced_bv_polyvector_zero_differential():
    # the five classes 1, x1, xi1, x1^2, x1 xi1: the Laplacian has order 2,
    # so the items hold exactly, and evaluating all 125 triples agrees
    model = polyvector_model(1)
    report = induced_bv(model.d, model.D, 2)
    assert report.passed and report.fully_tested
    assert [(i.name, i.details) for i in report.items[-5:]] == [
        ("induced operator squares to zero on classes", "exact"),
        ("induced operator has order <= 2 on representatives", "exact"),
        ("induced bracket: graded antisymmetry", "exact"),
        ("induced bracket: graded Jacobi", "exact"),
        ("induced bracket: Leibniz rule", "exact"),
    ]
    oracle = induced_items_by_evaluation(cohomology(model.d, 2), model.D, 2,
                                         Budget(max_tuples=125))
    assert oracle.passed and oracle.fully_tested
    assert [i.details for i in oracle.items[-4:]] == [
        "125 triples", "25 pairs", "125 triples", "125 triples"]


@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([2]), 6), (polyvector_model(2), 3)],
    ids=["koszul2", "polyvector2"],
)
def test_induced_maps_are_computed_once_per_argument(model, window, monkeypatch):
    # the items are read off operator identities: once the cohomology is
    # built, nothing is applied, multiplied or bracketed, whether the induced
    # operator is 0 (koszul2: D has no degree -1 part) or the Laplacian
    recording, calls = [], []
    real_cohomology = cohomology

    def cohomology_then_record(*args):
        H = real_cohomology(*args)
        recording.append(True)
        return H

    def recorded(name, real):
        def call(*args):
            if recording:
                calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(structures, "cohomology", cohomology_then_record)
    monkeypatch.setattr(Operator, "apply", recorded("apply", Operator.apply))
    monkeypatch.setattr(Element, "__mul__", recorded("*", Element.__mul__))
    for module in (brackets, structures):
        monkeypatch.setattr(module, "akman_bracket", recorded("bracket", module.akman_bracket))
    for name in ("koszul_bracket", "_akman_on_monomials"):
        monkeypatch.setattr(brackets, name, recorded("bracket", getattr(brackets, name)))
    report = induced_bv(model.d, model.D, window)
    assert report.passed and report.fully_tested
    assert recording and calls == []


def test_induced_items_on_a_window_with_no_class_are_untested():
    # d = d/dxi with xi of degree -1 is acyclic on the exterior algebra of
    # (xi, eta), which window 2 holds whole: d xi = 1 and d(xi eta) = eta.
    # D = d + d/deta passes the homotopy-BV check, but no class is left to
    # carry an induced identity, as evaluating them finds too
    table = GeneratorTable(("xi", "eta"), (-1, 1))
    d = Operator.derivative(table, "xi")
    D = d + Operator.derivative(table, "eta")
    H = cohomology(d, 2)
    assert H.dims() == {} and not H.warnings
    report = induced_bv(d, D, 2)
    assert report.passed and not report.fully_tested
    assert [(i.status, i.details) for i in report.items[-5:]] == [
        ("untested", "no class in the window")] * 5
    oracle = induced_items_by_evaluation(H, D.degree_components()[-1], 2, BUDGET)
    assert [i.status for i in oracle.items[1:]] == ["untested"] * 5


@cache
def _exhaustive_oracle(model, window):
    """``induced_items_by_evaluation`` on every boundary, class and triple,
    made once per model and window."""
    H = cohomology(model.d, window)
    n = sum(H.dims().values())
    D2 = model.D.degree_components().get(-1, Operator.zero(model.table))
    return induced_items_by_evaluation(H, D2, window, Budget(max_tuples=n**3))


@pytest.mark.parametrize("max_tuples", [0, 5, 200])
@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([1]), 4), (koszul_complex_model([2]), 6)]
    + [(koszul_complex_model(w), k) for w in ([1, 2, 3], [2, 2, 3]) for k in range(4, 8)]
    + [(polyvector_model(1), 3), (polyvector_model(2), 3)],
    ids=["koszul1", "koszul2"]
    + [f"{w}-window{k}" for w in ("123", "223") for k in range(4, 8)]
    + ["polyvector1", "polyvector2"],
)
def test_induced_items_equal_evaluating_every_case(model, window, max_tuples):
    # on a zero induced operator (every Koszul model), and with d = 0
    # (polyvector), where every element is a class and no product leaves the
    # boundaries behind, evaluation is exact: each item passes as evaluating
    # every boundary, class and tuple does, on the same boundaries, and the
    # budget's prefix finds no failure
    budget = Budget(max_degree=2, max_tuples=max_tuples)
    report = induced_bv(model.d, model.D, window)
    assert report.items[0].name == "d D2 + D2 d = 0 (exact operator identity)"
    D2 = model.D.degree_components().get(-1, Operator.zero(model.table))
    assert not D2 or model.d.is_zero()
    H = cohomology(model.d, window)
    oracle = induced_items_by_evaluation(H, D2, window, budget)
    exhaustive = _exhaustive_oracle(model, window)
    assert report.items[1] == exhaustive.items[0]
    for item, prefix, full in zip(report.items[1:], oracle.items, exhaustive.items, strict=True):
        assert item.name == prefix.name == full.name
        assert prefix.status != "fail"
        assert item.status == full.status == "pass"


def test_induced_bv_of_an_order_three_d2_is_a_precondition_error():
    # D = d/dx1 d/dx2 d/dxi1 on polyvector2 with d = 0 squares to zero, but
    # its degree -1 part (D itself) has order 3: F^3(x1, x2, xi1) = -+1, so
    # check_bvinfty fails its order clause and induced_bv refuses D, as does
    # evaluating every triple, which fails order <= 2 at (x2, x1, xi1)
    model = polyvector_model(2)
    D = Operator.term(model.table, 1, (0, 0, 0, 0), (1, 1, 1, 0))
    failed = [(i.name, i.witness) for i in check_bvinfty(model.d, D).items
              if i.status != "pass"]
    assert failed == [("component n=2 (degree -1) has order <= 2", "x1; x2; xi1")]
    with pytest.raises(AlgebraError, match=(
        r"homotopy-BV check failed: component n=2 \(degree -1\) has order <= 2 "
        r"\(witness: x1; x2; xi1\)$"
    )):
        induced_bv(model.d, D, 1)
    H = cohomology(model.d, 1)
    oracle = {i.name: i for i in induced_items_by_evaluation(H, D, 1, Budget(max_tuples=125)).items}
    order = oracle["induced operator has order <= 2 on representatives"]
    assert (order.status, order.witness) == ("fail", "(x2, x1, xi1)")


def _lie_poisson(pi_terms):
    """``(d_pi, D)`` on polyvector3 for the bivector sum of ``c * x_k xi_i xi_j``
    over ``(c, k, i, j)`` (generators 1-based, i < j): D = Delta + d_pi with
    d_pi = Delta o m_pi - m_pi o Delta."""
    model = polyvector_model(3)
    table = model.table
    gen = {n: Element.generator(table, n) for n in table.names}
    pi = Element.zero(table)
    for c, k, i, j in pi_terms:
        pi = pi + c * gen[f"x{k}"] * gen[f"xi{i}"] * gen[f"xi{j}"]
    m = Operator.multiplication(pi)
    d = model.D.compose(m) - m.compose(model.D)
    return d, model.D + d


# sl2* and so3* as linear Poisson structures on polyvector3, as ROADMAP item 3
# builds them: pi = x3 xi1 xi2 + x1 xi2 xi3 +- x2 xi1 xi3, whose Casimir C is
# x1^2 -+ x2^2 + x3^2 (d_pi x_i is the left derivative of pi by xi_i)
@pytest.mark.parametrize("sign, casimir", [(1, "x1^2 - x2^2 + x3^2"), (-1, "x1^2 + x2^2 + x3^2")],
                         ids=["sl2", "so3"])
def test_induced_bv_of_a_unimodular_linear_poisson_structure_passes(sign, casimir):
    # H(d_pi) of a unimodular linear Poisson structure is a BV algebra (Xu,
    # CMP 200, 1999).  On window 3, d_pi keeps the x-degree and raises the
    # xi-degree: degree 0 holds the Casimirs 1 and C, degree 3 the
    # Chevalley-Eilenberg class xi1 xi2 xi3 of a semisimple algebra, and
    # degrees 1 and 2 nothing (H^1 = H^2 = 0 for semisimple g)
    d, D = _lie_poisson([(1, 3, 1, 2), (1, 1, 2, 3), (sign, 2, 1, 3)])
    table = d.table
    assert d.apply(parse_element(table, casimir)).is_zero()
    assert cohomology(d, 3).dims() == {0: 2, 3: 1}
    report = induced_bv(d, D, 3)
    assert report.passed and report.fully_tested
    assert [i.details for i in report.items[-5:]] == ["exact"] * 5
    # evaluated on the algebra: products of the classes leave window 3
    evaluated = induced_identities_on_representatives(cohomology(d, 3), d, D, Budget())
    assert [i.name for i in evaluated.items] == [i.name for i in report.items[-5:]]
    assert evaluated.passed and evaluated.fully_tested
    assert [i.details for i in evaluated.items[-4:]] == [
        "27 triples", "9 pairs", "27 triples", "27 triples",
    ]


def test_induced_bv_of_the_heisenberg_structure_passes_every_triple():
    # pi = x3 xi1 xi2, unimodular: every induced item passes on all triples
    # of the window's classes, among them the Casimirs 1, x3, x3^2, x3^3
    d, D = _lie_poisson([(1, 3, 1, 2)])
    H = cohomology(d, 3)
    n = sum(H.dims().values())
    assert H.dims()[0] == 4
    report = induced_bv(d, D, 3)
    assert report.passed and report.fully_tested
    assert [i.details for i in report.items[-5:]] == ["exact"] * 5
    evaluated = induced_identities_on_representatives(H, d, D, Budget(max_tuples=n**3))
    assert evaluated.passed and evaluated.fully_tested
    assert [i.details for i in evaluated.items[-4:]] == [
        f"{n**3} triples", f"{n**2} pairs", f"{n**3} triples", f"{n**3} triples",
    ]


@pytest.mark.parametrize("n, degrees", [(2, {0, 1, 3, 4}), (3, {0, 1, 3, 4, 5, 6, 8, 9})],
                         ids=["gl2", "gl3"])
def test_chevalley_eilenberg_homology_of_gl_n_is_the_exterior_algebra_on_primitives(n, degrees):
    # H_*(gl_n) is an exterior algebra on primitive classes of degrees 1, 3,
    # ..., 2n-1 (Koszul, Bull. SMF 78, 1950): one class in each degree that
    # is a sum of distinct primitive degrees.  The window n^2 holds every
    # monomial, so nothing is truncated.  Without the signs of the odd
    # derivatives, d o d is still 0 on gl_3 but the classes move
    _, d = gl_chevalley_eilenberg(n)
    H = cohomology(d, n * n)
    assert H.dims() == {g: 1 for g in sorted(degrees)}
    assert not H.warnings


@pytest.mark.parametrize("window", [254, 255, 256, 257, 300])
def test_cohomology_packs_an_even_field_wider_than_eight_bits(window):
    # koszul2: d(x^a xi) = x^(a+2), so H = Q[x]/(x^2), classes 1 and x in
    # degrees 0 and 2.  x^a xi is in the window for a < window, so there are
    # window boundaries, pivots x^2 .. x^(window+1); from window 254 on,
    # x's field needs 9 bits
    H = cohomology(koszul_complex_model([2]).d, window)
    assert H.dims() == {0: 1, 2: 1}
    assert len(H.boundaries) == window
    assert sorted(map(H.unpack, H.boundaries)) == [(a + 2, 0) for a in range(window)]
    assert not H.warnings
