import dataclasses
import random
from fractions import Fraction
from functools import partial
from itertools import islice, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck import structures
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
    first_witness,
)
from bvcheck.linalg import RowSpace
from bvcheck.linfty import verify_linfty
from bvcheck.models import (
    BUILTIN_MODELS,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from bvcheck.operators import Operator
from bvcheck.structures import (
    check_bvinfty,
    check_derivation_lemma,
    check_gerstenhaber,
    cohomology,
    degree_split,
    induced_bv,
)

from oracles import (
    bracket_derivation_defect,
    gerstenhaber_by_evaluation,
    induced_items_by_evaluation,
    square_by_degree_pairs,
)

BUDGET = Budget(max_degree=2, max_tuples=60)


def monomial_elements(table, max_degree):
    return [Element.monomial(table, m) for m in enumerate_monomials(table, max_degree)]


# --- Gerstenhaber axioms ----------------------------------------------------

def test_laplacian_bracket_passes_axioms():
    model = polyvector_model(2)
    elems = monomial_elements(model.table, 2)
    cert = akman_order_check(model.D, 2, BUDGET)
    report = check_gerstenhaber(
        lambda a, b: bv_bracket(model.D, a, b),
        elems,
        (cert.tuples_tested, cert.failure_witness),
        BUDGET,
    )
    assert report.passed and report.fully_tested
    assert [i.name for i in report.items] == ["graded antisymmetry", "graded Jacobi", "Leibniz rule"]


def test_gerstenhaber_evaluates_each_pair_once():
    model = polyvector_model(2)
    elems = monomial_elements(model.table, 2)
    brackets = []

    def bracket(a, b):
        brackets.append((a, b))
        return bv_bracket(model.D, a, b)

    # Leibniz is the caller's outcome: only Jacobi calls the bracket
    report = check_gerstenhaber(bracket, elems, (60, None), BUDGET)
    assert report.passed and report.fully_tested
    assert brackets and len(set(brackets)) == len(brackets)


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
    result = degree_split(model.D, BUDGET)
    assert [n for n, _ in result.components] == [1, 2, 3]
    assert not result.residual_degrees
    recombined = Operator.zero(model.table)
    for n, comp in result.components:
        assert comp.degree() == 3 - 2 * n
        assert comp.structural_order() == n
        cert = result.certificates[n]
        assert cert.passed and cert.sharp
        recombined = recombined + comp
    assert recombined == model.D


def test_degree_split_assigns_by_degree_not_order():
    table = GeneratorTable(("xi", "u"), (-1, 1))
    D = Operator.derivative(table, "u")  # degree -1, so indexed n = 2
    result = degree_split(D, BUDGET)
    assert result.components == [(2, D)]
    assert not result.residual_degrees


def test_degree_split_flags_off_pattern_degrees():
    table = GeneratorTable(("a", "b"), (1, 1))
    off = Operator.term(table, 1, (1, 0), (0, 1))  # a d/db, degree 0
    assert off.compose(off).is_zero()
    result = degree_split(off, BUDGET)
    assert result.residual_degrees == [0]
    assert result.components == []


def test_degree_split_rejects_higher_order_plus_one_part():
    table = GeneratorTable(("x", "xi"), (0, -1))
    D = Operator.term(table, 1, (0, 0), (1, 1))  # degree +1, order 2
    assert D.compose(D).is_zero()
    with pytest.raises(AlgebraError):
        degree_split(D, BUDGET)


def test_degree_split_requires_square_zero():
    model = polyvector_model(1)
    bad = model.D + Operator.multiplication(
        Element.generator(model.table, "xi1")
    )
    with pytest.raises(AlgebraError):
        degree_split(bad, BUDGET)


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
    # components are the degree parts of D o D, so split's expansion line is
    # decided by degree_split's square-zero precondition
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


def _gerstenhaber_items(D, elems, budget):
    """``gerstenhaber_by_evaluation``'s items and ``check_gerstenhaber``'s, with
    the Leibniz outcome of the latter the order <= 2 search on the same
    triples, by name."""
    triples = list(islice(iter_product(elems, repeat=3), budget.max_tuples))
    leibniz = first_witness(triples, lambda t: not akman_bracket(D, t).is_zero())
    bracket = partial(bv_bracket, D)
    evaluated = gerstenhaber_by_evaluation(bracket, lambda a, b: a * b, elems, budget)
    read_off = check_gerstenhaber(bracket, elems, leibniz, budget)
    return ({i.name: i for i in evaluated.items}, {i.name: i for i in read_off.items})


def test_leibniz_is_order_two_and_antisymmetry_holds_on_every_square():
    # the Leibniz defect is (-1)^{|a|} F^3(a,b,c), so the evaluated rule
    # fails first at the first triple with a nonzero F^3; F^2 is graded
    # symmetric, so antisymmetry never fails; the elements are shuffled so
    # that the triples do not all start with the unit
    budget = Budget(max_degree=2, max_tuples=400)
    statuses = set()
    for name, D in sorted(SQUARES.items()):
        elems = monomial_elements(D.table, 2)
        random.Random(name).shuffle(elems)
        evaluated, read_off = _gerstenhaber_items(D, elems, budget)
        assert read_off["Leibniz rule"] == evaluated["Leibniz rule"], name
        assert evaluated["graded antisymmetry"].status == "pass", name
        assert read_off["graded antisymmetry"] == evaluated["graded antisymmetry"], name
        assert read_off["graded Jacobi"] == evaluated["graded Jacobi"], name
        statuses.add(evaluated["Leibniz rule"].status)
    assert statuses == {"pass", "fail"}


@st.composite
def parity_homogeneous_operators(draw):
    """An odd or even operator of up to five terms, inhomogeneous in degree,
    with a window of its table's monomials in a drawn order."""
    table = GeneratorTable(("x", "xi", "eta", "u"), (0, -1, 1, 2))
    key = st.tuples(
        st.sampled_from(enumerate_monomials(table, 2)),
        st.sampled_from(enumerate_monomials(table, 3)),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)])
    P = Operator(table, draw(st.dictionaries(key, coeff, max_size=5)))
    parity = draw(st.sampled_from((0, 1)))
    D = Operator(table, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2 == parity})
    return D, draw(st.permutations(monomial_elements(table, 2)))


@given(parity_homogeneous_operators())
@settings(max_examples=30, deadline=None)
def test_leibniz_is_order_two_and_antisymmetry_holds_on_drawn_operators(case):
    D, elems = case
    evaluated, read_off = _gerstenhaber_items(D, elems, Budget(max_degree=2, max_tuples=150))
    assert read_off["Leibniz rule"] == evaluated["Leibniz rule"]
    assert evaluated["graded antisymmetry"].status == "pass"
    assert read_off["graded Jacobi"] == evaluated["graded Jacobi"]


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
    budget = Budget(max_degree=4, max_tuples=120)
    report = check_derivation_lemma(model.D, budget)
    assert report.passed
    names = {i.name: i for i in report.items}
    assert names["D is a bracket derivation"].status == "pass"
    assert names["product-Leibniz failure of D"].witness is not None
    assert names["D1 product Leibniz"].status == "pass"


def test_derivation_lemma_rejects_non_square_zero():
    model = polyvector_model(1)
    bad = model.D + Operator.multiplication(Element.generator(model.table, "xi1"))
    with pytest.raises(AlgebraError):
        check_derivation_lemma(bad, BUDGET)


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
        check_derivation_lemma(D, BUDGET)


def test_derivation_clauses_iii_and_iv_follow_the_product_derivation_certificate(monkeypatch):
    # d/dx d/dy with y odd of degree -1: square zero, degree +1 and of order 2,
    # so D1 = D is no product derivation, and the identity that reads (iv)
    # off the anticommutator [D1, D] does not apply
    D = Operator.term(GeneratorTable(("x", "y"), (0, -1)), 1, (0, 0), (1, 1))
    certified, real = [], structures.akman_order_check
    monkeypatch.setattr(structures, "akman_order_check",
                        lambda P, k, budget: certified.append(P) or real(P, k, budget))
    iv = "no witness within budget (may hold on this model)"
    # two pairs miss its nonzero bracket (x, y): (iii) is untested, not passed
    items = {i.name: i for i in check_derivation_lemma(D, Budget(max_degree=1, max_tuples=2)).items}
    assert (items["D1 product Leibniz"].status, items["D1 product Leibniz"].details) == (
        "untested", "2 pairs")
    assert (items["D1 bracket-derivation failure"].status,
            items["D1 bracket-derivation failure"].details) == ("untested", iv)
    items = {i.name: i for i in check_derivation_lemma(D, Budget(max_degree=1, max_tuples=3)).items}
    assert (items["D1 product Leibniz"].status, items["D1 product Leibniz"].witness) == (
        "fail", "(x, y)")
    assert items["D1 bracket-derivation failure"].details == iv
    assert certified and all(P == D for P in certified)  # D or D1, never [D1, D]


def test_even_square_zero_operator_is_no_bracket_derivation():
    D = Operator.term(EXTERIOR2, 1, (0, 0), (1, 1))
    elems = monomial_elements(EXTERIOR2, 2)
    assert any(
        not bracket_derivation_defect(D, D, a, b).is_zero()
        for a, b in iter_product(elems, repeat=2)
    )


def test_derivation_lemma_accepts_the_zero_operator():
    report = check_derivation_lemma(Operator.zero(EXTERIOR2), BUDGET)
    assert report.passed


# --- homotopy-BV triple -----------------------------------------------------

def test_bvinfty_koszul_model_passes():
    model = koszul_complex_model([1])
    report = check_bvinfty(model.d, model.D, BUDGET)
    assert report.passed and report.fully_tested


def test_bvinfty_detects_wrong_differential_degree():
    model = koszul_complex_model([1])
    wrong_d = model.D.degree_components()[-3]  # degree -3, not +1
    report = check_bvinfty(wrong_d, model.D, BUDGET)
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
    report = check_bvinfty(d, model.D, BUDGET)
    assert sum(a is d and b is d for a, b in pairs) == 1
    item = next(i for i in report.items if i.name == "d squares to zero")
    assert item.status == ("pass" if square_zero else "fail")
    assert item.witness == (None if square_zero else str(expected))


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
    assert all(r.passed for r in verify_linfty(d, 3, BUDGET))
    assert cohomology(d.table, d, 3).dims()
    assert len(calls) == 1 and calls[0][0] is d and calls[0][1] is d


def test_bvinfty_detects_positive_tail():
    model = polyvector_model(1)
    table = model.table
    d = Operator.zero(table)
    # D - d has a degree +1 piece: xi1 * d/dx1
    D = model.D + Operator.term(table, 1, (0, 1), (1, 0))
    report = check_bvinfty(d, D, BUDGET)
    names = {i.name: i.status for i in report.items}
    assert names["degree of D - d is negative"] == "fail"


# --- cohomology -------------------------------------------------------------

def test_cohomology_weighted_model():
    model = koszul_complex_model([2])
    H = cohomology(model.table, model.d, 6)
    assert H.dims() == {0: 1, 2: 1}
    assert not H.warnings
    reps = {g: [str(r) for r in rs] for g, rs in H.representatives.items()}
    assert reps == {0: ["1"], 2: ["x1"]}


def test_cohomology_unit_weight_is_acyclic():
    model = koszul_complex_model([1])
    H = cohomology(model.table, model.d, 4)
    assert H.dims() == {0: 1}


def test_cohomology_zero_differential_keeps_everything():
    model = polyvector_model(1)
    H = cohomology(model.table, model.d, 2)
    n_monos = len(enumerate_monomials(model.table, 2))
    assert sum(len(r) for r in H.representatives.values()) == n_monos


def test_cohomology_requires_square_zero():
    model = polyvector_model(1)
    d = Operator.multiplication(Element.generator(model.table, "x1")) + (
        Operator.derivative(model.table, "x1")
    )
    with pytest.raises(AlgebraError):
        cohomology(model.table, d, 3)


def test_cohomology_rejects_a_negative_window():
    model = koszul_complex_model([2])
    with pytest.raises(AlgebraError, match="window"):
        cohomology(model.table, model.d, -1)


def test_cohomology_rejects_a_differential_over_another_table():
    model, other = koszul_complex_model([2]), koszul_complex_model([1])
    with pytest.raises(AlgebraError, match="different tables"):
        cohomology(model.table, other.d, 3)


def test_cohomology_reduce_is_canonical():
    model = koszul_complex_model([2])
    H = cohomology(model.table, model.d, 6)
    x = Element.generator(model.table, "x1")
    xi = Element.generator(model.table, "xi1")
    # x^2 = d(xi) is a boundary
    assert H.reduce(x * x).is_zero()
    assert H.reduce(x) == x


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
    oracle = RowSpace()
    for m in enumerate_monomials(table, window):
        oracle.add(dict(d.apply(Element.monomial(table, m)).coeffs))
    H = cohomology(table, d, window)
    assert dict(H.boundary_space.rows) == oracle.rows
    # each representative lies in its own degree slice
    for g, reps in H.representatives.items():
        assert all(r.is_homogeneous() and r.degree() == g for r in reps)


def test_cohomology_is_built_once_per_differential_and_window(monkeypatch):
    model = koszul_complex_model([2])
    slices, real = [], structures.kernel_and_image

    def counting(labels, vectors):
        slices.append(tuple(labels))
        return real(labels, vectors)

    monkeypatch.setattr(structures, "kernel_and_image", counting)
    H = cohomology(model.table, model.d, 5)
    degrees = {model.table.monomial_degree(m) for m in enumerate_monomials(model.table, 5)}
    assert len(slices) == len(set(slices)) == len(degrees)
    assert cohomology(model.table, model.d, 5) is H
    assert len(slices) == len(degrees)
    # another window is another elimination and another basis
    H4 = cohomology(model.table, model.d, 4)
    assert H4 is not H and len(slices) > len(degrees)
    assert dict(H4.boundary_space.rows) != dict(H.boundary_space.rows)
    assert cohomology(model.table, model.d, 4) is H4


def test_cohomology_domain_errors_follow_a_cached_call():
    model, other = koszul_complex_model([2]), koszul_complex_model([1])
    table, d = model.table, model.d
    xi1 = Operator.multiplication(Element.generator(table, "xi1"))
    mixed = koszul_complex_model([1, 2])
    # d/dxi1 (degree -1) and d/dxi2 (degree -3) anticommute and square to 0
    inhomogeneous = (Operator.derivative(mixed.table, "xi1")
                     + Operator.derivative(mixed.table, "xi2"))
    H = cohomology(table, d, 3)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="window"):
            cohomology(table, d, -1)
        with pytest.raises(AlgebraError, match="different tables"):
            cohomology(other.table, d, 3)
        with pytest.raises(AlgebraError, match="d\\^2 = 0"):
            cohomology(table, d + xi1, 3)  # (d + xi1)^2 = mult by x1^2
        with pytest.raises(AlgebraError, match="degree-homogeneous"):
            cohomology(mixed.table, inhomogeneous, 3)
    assert cohomology(table, d, 3) is H


@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([1, 2]), 5), (mixed_order_model(), 3), (polyvector_model(2), 2)],
    ids=["koszul12", "mixed-order", "polyvector2"],
)
def test_shared_cohomology_equals_a_fresh_build(model, window):
    shared = cohomology(model.table, model.d, window)
    assert cohomology(model.table, model.d, window) is shared
    fresh = cohomology(model.table, Operator(model.table, model.d.terms), window)
    assert fresh is not shared
    assert fresh.dims() == shared.dims()
    assert fresh.representatives == shared.representatives
    assert list(fresh.boundary_space.rows.items()) == list(shared.boundary_space.rows.items())
    assert fresh.warnings == shared.warnings


# --- induced structure ------------------------------------------------------

def test_induced_bv_koszul():
    model = koszul_complex_model([1])
    report = induced_bv(model.table, model.d, model.D, 4, BUDGET)
    assert report.passed


def test_induced_bv_polyvector_zero_differential():
    model = polyvector_model(1)
    report = induced_bv(model.table, model.d, model.D, 2, BUDGET)
    assert report.passed
    names = {i.name: i.status for i in report.items}
    assert names["induced operator squares to zero on classes"] == "pass"
    assert names["induced operator has order <= 2 on representatives"] == "pass"


def test_induced_memo_tells_same_support_classes_apart(monkeypatch):
    # with d = 0 every element is a class and the induced operator is the
    # Laplacian; keep four classes, two by two of the same support, so that
    # [xi1, x1 * 2x1] = [xi1, x1] 2x1 + [xi1, 2x1] x1 and the induced
    # product x1 * 2x1 are right only if the memos tell them apart
    model = polyvector_model(1)
    x1, xi1 = (Element.generator(model.table, n) for n in ("x1", "xi1"))
    real_cohomology = cohomology

    def scaled_classes(*args):
        # a new basis: the one cohomology returns is shared, never mutated
        H = real_cohomology(*args)
        return dataclasses.replace(H, representatives={0: [x1, 2 * x1], 1: [xi1, -xi1]})

    monkeypatch.setattr(structures, "cohomology", scaled_classes)
    budget = Budget(max_degree=2, max_tuples=64)
    report = induced_bv(model.table, model.d, model.D, 3, budget)
    assert report.passed and report.fully_tested


@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([2]), 6), (polyvector_model(2), 3)],
    ids=["koszul2", "polyvector2"],
)
def test_induced_maps_are_computed_once_per_argument(model, window, monkeypatch):
    # after the cohomology is built, the induced operator is the only caller
    # of Operator.apply (besides the boundary scan, whose rows are distinct),
    # the induced product the only one of Element * Element, and the induced
    # bracket the only caller of akman_recursion on pairs; when the induced
    # operator is 0 (koszul2: D has no degree -1 part) none of them is called
    recording = []
    applied, multiplied, bracketed, recursed = [], [], [], []
    real_cohomology, real_apply, real_mul = cohomology, Operator.apply, Element.__mul__
    real_recursion = structures.akman_recursion

    def cohomology_then_record(*args):
        H = real_cohomology(*args)
        recording.append(True)
        return H

    def apply(self, a):
        if recording:
            applied.append((self, a))
        return real_apply(self, a)

    def mul(self, other):
        if recording and isinstance(other, Element):
            multiplied.append((self, other))
        return real_mul(self, other)

    def recursion(apply_fn, mul_fn, p_D, args, parities):
        if recording:
            recursed.append(tuple(args))
        if len(args) == 2:
            bracketed.append(tuple(args))
        return real_recursion(apply_fn, mul_fn, p_D, args, parities)

    monkeypatch.setattr(structures, "cohomology", cohomology_then_record)
    monkeypatch.setattr(structures, "akman_recursion", recursion)
    monkeypatch.setattr(Operator, "apply", apply)
    monkeypatch.setattr(Element, "__mul__", mul)
    report = induced_bv(model.table, model.d, model.D, window, BUDGET)
    assert report.passed
    if -1 not in model.D.degree_components():
        assert recording and not (applied or multiplied or recursed)
        return
    for calls in (applied, multiplied, bracketed):
        assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("max_tuples", [0, 5, 200])
@pytest.mark.parametrize(
    "model,window",
    [(koszul_complex_model([1]), 4), (koszul_complex_model([2]), 6)]
    + [(koszul_complex_model(w), k) for w in ([1, 2, 3], [2, 2, 3]) for k in range(4, 8)]
    + [(polyvector_model(2), 3)],
    ids=["koszul1", "koszul2"]
    + [f"{w}-window{k}" for w in ("123", "223") for k in range(4, 8)]
    + ["polyvector2"],
)
def test_induced_items_equal_evaluating_every_case(model, window, max_tuples):
    # on a zero induced operator (every Koszul model) the items are decided
    # without evaluation; the lines must be those of evaluating every
    # boundary, class and tuple, as they are on polyvector2's nonzero one
    budget = Budget(max_degree=2, max_tuples=max_tuples)
    report = induced_bv(model.table, model.d, model.D, window, budget)
    assert [i.name for i in report.items[:2]] == [
        "d D2 + D2 d = 0 (exact operator identity)",
        "cohomology slice dimensions",
    ]
    D2 = model.D.degree_components().get(-1, Operator.zero(model.table))
    H = cohomology(model.table, model.d, window)
    oracle = induced_items_by_evaluation(H, D2, window, budget)
    assert [i.line() for i in report.items[2:]] == [i.line() for i in oracle.items]
