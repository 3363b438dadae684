import gc
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck import brackets
from bvcheck.algebra import AlgebraError, Element, GeneratorTable, enumerate_monomials
from bvcheck.brackets import (
    Budget,
    OrderCertificate,
    akman_bracket,
    akman_order_check,
    bracket_vanishes,
    bracket_witness,
    bv_bracket,
    first_witness,
    koszul_bracket,
    window_elements,
    window_tuples,
)
from bvcheck.graded import koszul_sign
from bvcheck.models import (
    BUILTIN_MODELS,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from bvcheck.operators import Operator
from bvcheck.structures import check_gerstenhaber
from oracles import (
    akman_bracket_by_elements,
    kernel_and_image_by_copies,
    koszul_bracket_by_unshuffles,
    order_check_by_evaluation,
    window_tuples_eager,
)

MODEL = polyvector_model(2)
TABLE = MODEL.table
DELTA = MODEL.D
MONOS = enumerate_monomials(TABLE, 2)


def elem(mono):
    return Element.monomial(TABLE, mono)


def gen(name):
    return Element.generator(TABLE, name)


def test_arity_one_is_the_operator():
    for m in MONOS:
        assert akman_bracket(DELTA, [elem(m)]) == DELTA.apply(elem(m))


def test_laplacian_pairs_by_hand():
    x1, xi1, xi2 = gen("x1"), gen("xi1"), gen("xi2")
    # F^2(xi1, x1) = Delta(xi1 x1) since Delta kills both factors
    assert akman_bracket(DELTA, (xi1, x1)) == Element.one(TABLE)
    assert akman_bracket(DELTA, (x1, xi1)) == Element.one(TABLE)
    assert akman_bracket(DELTA, (xi1, xi2)).is_zero()


def test_recursion_matches_unshuffle_expansion():
    budget = Budget(max_degree=2, max_tuples=40)
    for arity in range(1, 4):
        for elems in window_tuples(window_elements(TABLE, budget), arity, budget):
            assert akman_bracket(DELTA, elems) == koszul_bracket(DELTA, elems)


def test_a_bracket_leaves_no_reference_cycle():
    # a cycle would keep the operator, with its images and its cohomology
    # bases, alive until the cyclic collector runs
    x1, xi1, xi2 = gen("x1"), gen("xi1"), gen("xi2")
    D = Operator(TABLE, DELTA.terms)
    gc.collect()
    gc.disable()
    try:
        akman_bracket(D, (x1 * xi2, xi1, x1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_routes_agree_even_with_nonvanishing_on_units():
    # operators that do not kill 1 exercise the boundary term of the expansion
    D = Operator.multiplication(gen("xi1")) + Operator.derivative(TABLE, "xi2")
    budget = Budget(max_degree=2, max_tuples=30)
    for arity in range(1, 4):
        for elems in window_tuples(window_elements(TABLE, budget), arity, budget):
            assert akman_bracket(D, elems) == koszul_bracket(D, elems)


def test_bracket_is_graded_symmetric():
    for ma, mb in iter_product(MONOS, repeat=2):
        a, b = elem(ma), elem(mb)
        sign = koszul_sign([a.degree(), b.degree()], (1, 0))
        assert akman_bracket(DELTA, (a, b)) == sign.numerator * akman_bracket(
            DELTA, (b, a)
        )


def test_mixed_parity_operator_rejected():
    D = Operator.derivative(TABLE, "x1") + Operator.derivative(TABLE, "xi1")
    with pytest.raises(AlgebraError):
        akman_bracket(D, [gen("x1")])
    # the same through the cached degree set of a built-in model's operator
    D = DELTA + Operator.derivative(TABLE, "x1")
    for bracket in (akman_bracket, koszul_bracket):
        with pytest.raises(AlgebraError):
            bracket(D, [gen("x1"), gen("xi1")])


@st.composite
def operator_and_arguments(draw):
    """An odd operator of a built-in model and 1-4 parity-homogeneous
    arguments of mixed parities, each a combination of up to three monomials."""
    model = BUILTIN_MODELS[draw(st.sampled_from(sorted(BUILTIN_MODELS)))]()
    table = model.table
    by_parity = {0: [], 1: []}
    for m in enumerate_monomials(table, 2):
        by_parity[table.monomial_parity(m)].append(m)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    args = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        monos = by_parity[draw(st.sampled_from((0, 1)))]
        coeffs = draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3))
        args.append(Element(table, coeffs))
    return draw(st.sampled_from((model.D, model.d))), args


@given(operator_and_arguments())
@settings(max_examples=80, deadline=None)
def test_shared_subset_products_match_both_oracles(D_args):
    D, args = D_args
    got = koszul_bracket(D, args)
    assert got == koszul_bracket_by_unshuffles(D, args)
    assert got == akman_bracket(D, args)


# Term shapes (multiplier, derivatives) on polyvector2, with parity-homogeneous
# degrees; the coefficients are drawn.
BRACKET_SHAPES = {
    "odd": [((0, 0, 0, 0), (1, 0, 1, 0)), ((0, 0, 0, 0), (0, 1, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 1, 0)), ((0, 0, 0, 0), (1, 1, 0, 1))],
    "even": [((0, 0, 0, 0), (0, 0, 1, 1)), ((1, 0, 0, 0), (0, 1, 0, 0)),
             ((0, 0, 1, 1), (1, 0, 0, 0))],
    "multiplication": [((0, 0, 0, 0), (1, 0, 1, 0)), ((0, 0, 0, 0), (0, 1, 0, 1)),
                       ((0, 0, 1, 0), (0, 0, 0, 0)), ((1, 0, 0, 1), (0, 0, 0, 0))],
    "zero": [],
}
FRACTION = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@st.composite
def fractional_argument(draw):
    """A parity-homogeneous combination of one to three monomials of MONOS
    with fractional coefficients."""
    parity = draw(st.sampled_from((0, 1)))
    monos = [m for m in MONOS if TABLE.monomial_parity(m) == parity]
    return Element(TABLE, draw(st.dictionaries(st.sampled_from(monos), FRACTION,
                                               min_size=1, max_size=3)))


@pytest.mark.parametrize("with_zero", [False, True], ids=["nonzero", "zero-argument"])
@pytest.mark.parametrize("shape", sorted(BRACKET_SHAPES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_integer_routes_match_the_element_oracles(shape, with_zero, data):
    terms = BRACKET_SHAPES[shape]
    coeffs = data.draw(st.lists(FRACTION, min_size=len(terms), max_size=len(terms)))
    D = Operator(TABLE, dict(zip(terms, coeffs)))
    n = data.draw(st.integers(1, 4))
    args = [data.draw(fractional_argument()) for _ in range(n - with_zero)]
    if with_zero:
        args.insert(data.draw(st.integers(0, n - 1)), Element.zero(TABLE))
    expected = akman_bracket_by_elements(D, args)
    assert koszul_bracket_by_unshuffles(D, args) == expected
    assert akman_bracket(D, args) == expected
    assert koszul_bracket(D, args) == expected
    if with_zero or shape == "zero":
        assert expected.is_zero()


MIXED_TABLE = mixed_order_model().table


@st.composite
def operator_and_tuples(draw):
    """A parity-homogeneous operator on TABLE or MIXED_TABLE, with up to four
    terms of total exponent <= 2 and fractional coefficients, and one to five
    tuples of arity 1-4.  An argument is a monomial of total exponent <= 1, or
    a parity-homogeneous combination of two such monomials, so that tuples
    share sub-tuples."""
    table = draw(st.sampled_from([TABLE, MIXED_TABLE]))
    monos = enumerate_monomials(table, 2)
    parity = draw(st.sampled_from((0, 1)))
    shapes = [(m, d) for m in monos for d in monos
              if (table.monomial_degree(m) - table.monomial_degree(d)) % 2 == parity]
    terms = draw(st.dictionaries(st.sampled_from(shapes), FRACTION, min_size=1, max_size=4))
    small = enumerate_monomials(table, 1)

    @st.composite
    def argument(draw):
        first = draw(st.sampled_from(small))
        coeffs = {first: Fraction(1)}
        if draw(st.booleans()):
            same = [m for m in small if table.monomial_parity(m) == table.monomial_parity(first)]
            coeffs[draw(st.sampled_from(same))] = draw(FRACTION)
        return Element(table, coeffs)

    def arguments(n):
        return st.lists(argument(), min_size=n, max_size=n).map(tuple)

    tuples = draw(st.lists(st.integers(1, 4).flatmap(arguments), min_size=1, max_size=5))
    return Operator(table, terms), tuples


@given(operator_and_tuples())
@settings(max_examples=40, deadline=None)
def test_warm_recursion_memo_matches_a_fresh_operator_and_the_element_oracle(D_tuples):
    # the tuples forward, again in reverse order (every value from the memo),
    # then each with its arguments reversed (sub-tuples partly from the memo)
    D, tuples = D_tuples
    expected = {}
    for tup in tuples + tuples[::-1] + [t[::-1] for t in tuples]:
        got = akman_bracket(D, tup)
        fresh = akman_bracket(Operator(D.table, D.terms), tup)
        assert got == fresh
        if tup not in expected:
            expected[tup] = akman_bracket_by_elements(D, tup)
        assert got == expected[tup]


def test_equal_tables_interoperate_and_different_tables_raise():
    twin = GeneratorTable(TABLE.names, TABLE.degrees)
    assert twin == TABLE and twin is not TABLE
    x1, xi1 = gen("x1"), gen("xi1")
    twin_xi1 = Element.generator(twin, "xi1")
    assert x1 * twin_xi1 == x1 * xi1
    assert x1 - twin_xi1 == x1 - xi1
    image = DELTA.apply(x1 * twin_xi1)
    assert image == DELTA.apply(x1 * xi1) and not image.is_zero()
    assert akman_bracket(DELTA, (twin_xi1, x1)) == akman_bracket(DELTA, (xi1, x1))
    assert Operator.derivative(twin, "x1") + DELTA == Operator.derivative(TABLE, "x1") + DELTA

    other = GeneratorTable(TABLE.names, (0, 2, 1, 1))
    y = Element.generator(other, "x1")
    for op in (lambda: x1 * y, lambda: x1 - y, lambda: x1 + y, lambda: DELTA.apply(y),
               lambda: akman_bracket(DELTA, (x1, y)),
               lambda: Operator.derivative(other, "x1") + DELTA):
        with pytest.raises(AlgebraError):
            op()


def test_bv_bracket_values():
    x1, xi1 = gen("x1"), gen("xi1")
    assert bv_bracket(DELTA, xi1, x1) == -Element.one(TABLE)
    assert bv_bracket(DELTA, x1, xi1) == Element.one(TABLE)
    assert bv_bracket(DELTA, x1, gen("x2")).is_zero()


@pytest.mark.parametrize("name", ["x1", "xi1"])
def test_bv_bracket_with_zero_argument(name):
    zero, b = Element.zero(TABLE), gen(name)
    assert bv_bracket(DELTA, zero, b) == zero
    assert bv_bracket(DELTA, b, zero) == zero


def test_order_certificates():
    cert = akman_order_check(DELTA, 2)
    assert cert.passed and cert.sharp
    assert DELTA.structural_order() == 2
    assert cert.failure_witness is None

    # a first-order operator is not order 0 but is order 1
    d = Operator.derivative(TABLE, "xi1")
    assert not akman_order_check(d, 0).passed
    assert akman_order_check(d, 1).passed

    # a multiplication operator certifies no finite order in this convention:
    # the arity-1 bracket is the operator itself, never zero
    m = Operator.multiplication(gen("x1"))
    assert not akman_order_check(m, 0).passed
    assert not akman_order_check(m, 1).passed


def test_order_check_zero_operator_is_degenerate():
    cert = akman_order_check(Operator.zero(TABLE), 2)
    assert cert.passed and cert.degenerate_zero
    assert "order 0" in cert.verdict()


def test_certificates_are_equal_field_by_field():
    assert akman_order_check(DELTA, 2) == OrderCertificate(0, True, sharp=True)
    failing = akman_order_check(DELTA, 1)
    assert failing == OrderCertificate(1, False, failing.failure_witness)
    sharp = OrderCertificate(0, True, sharp=True)
    for other in [OrderCertificate(1, True, sharp=True), OrderCertificate(0, False, sharp=True),
                  OrderCertificate(0, True, failing.failure_witness, sharp=True),
                  OrderCertificate(0, True),
                  OrderCertificate(0, True, sharp=True, degenerate_zero=True)]:
        assert other != sharp and sharp != other
    assert sharp != (0, True, None, True, False)


def test_failing_order_certificate_has_no_details():
    # its report line is the status and the witness: nothing was counted
    cert = akman_order_check(DELTA, 1)
    assert cert.status == "fail" and cert.failure_witness
    assert cert.verdict() == ""


def test_order_check_status_is_pass_or_fail():
    # decided from the normal form, a certificate passes on no evaluated
    # bracket and fails on one; there is no window to leave it untested
    for k, want in ((1, ("fail", 1, "")), (2, ("pass", 0, "exact, sharp")),
                    (3, ("pass", 0, "exact, not sharp"))):
        cert = akman_order_check(DELTA, k)
        assert (cert.status, cert.tuples_tested, cert.verdict()) == want, k
    zero = akman_order_check(Operator.zero(TABLE), 2)
    assert (zero.status, zero.tuples_tested, zero.verdict()) == (
        "pass", 0, "pass (zero operator, order 0 by convention)")


def test_zero_operator_bracket_is_zero_and_checks_its_arguments():
    zero = Operator.zero(TABLE)
    args = [gen("x1"), gen("xi2"), gen("x2") * gen("xi1")]
    assert koszul_bracket(zero, args) == Element.zero(TABLE)
    with pytest.raises(AlgebraError):
        koszul_bracket(zero, [gen("x1"), gen("x1") + gen("xi1")])
    with pytest.raises(AlgebraError):
        koszul_bracket(zero, [])


ROUTES = pytest.mark.parametrize("route", [akman_bracket, koszul_bracket], ids=["akman", "koszul"])


@ROUTES
def test_mixed_parity_argument_raises_on_every_call(route):
    # a failed validation keeps nothing on the argument, so the same Element
    # is refused again
    mixed = gen("x1") + gen("xi1")
    for _ in range(2):
        with pytest.raises(AlgebraError, match="mixed-parity"):
            route(DELTA, [gen("x2"), mixed])
    assert mixed._int_form is None


@ROUTES
def test_argument_with_a_kept_form_is_still_checked_against_the_table(route):
    other = polyvector_model(3)
    a = Element.generator(other.table, "xi1")
    assert not route(other.D, [a, Element.generator(other.table, "x1")]).is_zero()
    (mono,) = a.coeffs
    assert a._int_form == (1, 1, {mono: 1})  # kept by the call above
    for _ in range(2):
        with pytest.raises(AlgebraError, match="different table"):
            route(DELTA, [gen("x1"), a])


@ROUTES
def test_zero_argument_gives_zero_and_keeps_no_form(route):
    zero = Element.zero(TABLE)
    for args in ([zero], [zero, gen("x1")], [gen("xi1"), zero, gen("x2") * gen("xi2")]):
        for _ in range(2):
            assert route(DELTA, args) == Element.zero(TABLE)
            assert akman_bracket_by_elements(DELTA, args) == Element.zero(TABLE)
    assert zero._int_form is None


@pytest.mark.parametrize("budget", [Budget(max_tuples=0), Budget()], ids=["zero", "default"])
def test_order_check_of_a_mixed_parity_operator_is_a_domain_error(budget):
    # every bracket of D vanishes at arity 4, yet D has no parity to sign them by;
    # the Gerstenhaber suite's Leibniz certificate refuses it at any budget
    D = DELTA + Operator.derivative(TABLE, "x1")
    with pytest.raises(AlgebraError, match="mixed-parity"):
        akman_order_check(D, 3)
    with pytest.raises(AlgebraError, match="mixed-parity"):
        check_gerstenhaber(D, budget)


def test_passing_order_check_evaluates_no_bracket(monkeypatch):
    calls = []
    real = brackets.akman_bracket

    def counting(D, args):
        calls.append(args)
        return real(D, args)

    monkeypatch.setattr(brackets, "akman_bracket", counting)
    # order 2 <= 3 and no arity-3 bracket is nonzero either
    cert = akman_order_check(DELTA, 3)
    assert (cert.status, cert.tuples_tested, cert.sharp) == ("pass", 0, False)
    # order <= 2 is decided too, and so is its sharpness
    cert = akman_order_check(DELTA, 2)
    assert (cert.status, cert.tuples_tested, cert.sharp) == ("pass", 0, True)
    assert calls == []
    # evaluating 120 tuples of each arity finds no nonzero bracket either
    budget = Budget(max_degree=2, max_tuples=120)
    for k in (2, 3):
        oracle = order_check_by_evaluation(DELTA, k, budget)
        assert (oracle.passed, oracle.tuples_tested) == (True, 120)


def _order_check_cases():
    """Every built-in model's D, plus ``koszul([1, 2])``, each with and
    without multiplication by xi1, and the squares of both."""
    models = {name: build() for name, build in BUILTIN_MODELS.items()}
    models["koszul12"] = koszul_complex_model([1, 2])
    for name, model in sorted(models.items()):
        xi1 = Operator.multiplication(Element.generator(model.table, "xi1"))
        for label, D in (("D", model.D), ("D + xi1", model.D + xi1)):
            yield f"{name}: {label}", D
            yield f"{name}: ({label})^2", D.square()


@pytest.mark.parametrize("budget", [
    Budget(max_degree=1, max_tuples=30),
    Budget(max_degree=2, max_tuples=60, seed=3),
    Budget(max_degree=3, max_tuples=20, seed=1),
], ids=["degree1", "degree2", "degree3-sampled"])
def test_order_check_matches_evaluating_every_tuple(budget):
    # the certificate fails exactly where the normal form shows a nonzero
    # bracket, at a witness of one tuple; wherever evaluating the window finds
    # a failure or a sharpness witness, the certificate has it too
    seen = set()
    for label, D in _order_check_cases():
        for k in range(4):
            cert = akman_order_check(D, k)
            oracle = order_check_by_evaluation(D, k, budget)
            assert cert.passed == bracket_vanishes(D, k + 1), (label, k)
            seen.add((cert.status, oracle.status))
            if not cert.passed:
                assert cert.tuples_tested == 1 and not cert.sharp, (label, k)
                args = [Element.monomial(D.table, m) for m in cert.failure_witness]
                assert not akman_bracket(D, args).is_zero(), (label, k)
                continue
            assert cert.sharp == (k >= 1 and not bracket_vanishes(D, k)), (label, k)
            assert oracle.sharp <= cert.sharp, (label, k)
            # a pass evaluates nothing, and no tuple of the window fails
            assert cert == OrderCertificate(0, True, sharp=cert.sharp,
                                            degenerate_zero=D.is_zero()), (label, k)
            monos = enumerate_monomials(D.table, budget.max_degree)
            window = 0 if D.is_zero() else len(list(window_tuples(monos, k + 1, budget)))
            assert (oracle.passed, oracle.tuples_tested) == (True, window), (label, k)
    # passes, failures both found and missed by the window all occur
    assert {("pass", "pass"), ("fail", "fail"), ("fail", "pass")} <= seen


@pytest.mark.parametrize("budget", [
    Budget(max_degree=0),
    Budget(max_degree=1, max_tuples=3),
    Budget(max_degree=1, max_tuples=64),
    Budget(max_tuples=0),
], ids=["unit-window", "three-tuples", "exhaustive", "zero-budget"])
def test_order_check_never_passes_what_the_normal_form_refutes(budget):
    # F^3 of d/dxi1 d/dxi2 d/dxi3 is nonzero only at permutations of
    # (xi1, xi2, xi3): the certificate fails there, though evaluating the
    # budget's window may not meet one
    D = BUILTIN_MODELS["exterior-cube"]().D
    assert not bracket_vanishes(D, 3)
    cert = akman_order_check(D, 2)
    assert (cert.status, cert.tuples_tested) == ("fail", 1)
    assert cert.failure_witness == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    oracle = order_check_by_evaluation(D, 2, budget)
    assert oracle.passed or sorted(oracle.failure_witness) == sorted(cert.failure_witness)


@pytest.mark.parametrize("model", [koszul_complex_model([1, 2]), mixed_order_model()],
                         ids=["koszul12", "mixed-order"])
def test_a_multiplication_term_shows_in_every_arity(model):
    # (D + xi1)^2 is d/dx1 + x1 on koszul([1, 2]) and 1 on mixed-order: its
    # structural order is 1 or 0, yet no bracket of it vanishes, at n copies of 1
    D = model.D + Operator.multiplication(Element.generator(model.table, "xi1"))
    square = D.square()
    assert square.structural_order() <= 1
    one = Element.one(model.table)
    for n in range(1, 5):
        assert not bracket_vanishes(square, n)
        assert not akman_bracket(square, [one] * n).is_zero()


# tables small enough to evaluate every bracket on the window, each with the
# largest derivative order drawn for it
SMALL_TABLES = (
    (GeneratorTable(("x", "xi"), (0, 1)), 3),
    (GeneratorTable(("x", "xi", "eta"), (2, -1, 1)), 2),
)


@st.composite
def small_operators(draw):
    """A parity-homogeneous operator of up to four terms on a small table,
    multiplication terms included."""
    table, max_order = draw(st.sampled_from(SMALL_TABLES))
    key = st.tuples(
        st.sampled_from(enumerate_monomials(table, 2)),
        st.sampled_from(enumerate_monomials(table, max_order)),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)])
    P = Operator(table, draw(st.dictionaries(key, coeff, max_size=4)))
    parity = draw(st.sampled_from((0, 1)))
    return Operator(table, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2 == parity})


@given(small_operators())
@settings(max_examples=60, deadline=None)
def test_bracket_vanishes_iff_every_bracket_on_the_window_vanishes(P):
    # a witness, when there is one, is made of monomials of degree at most the
    # structural order; brackets are graded symmetric, so one ordering of each
    # multiset of monomials is enough
    table = P.table
    monos = [Element.monomial(table, m) for m in enumerate_monomials(table, P.structural_order())]
    for n in range(1, 5):
        evaluated = all(
            akman_bracket(P, tup).is_zero() for tup in combinations_with_replacement(monos, n)
        )
        assert bracket_vanishes(P, n) == evaluated, n


# the bounded scopes of the vanishing proof: a table and the largest arity
VANISHING_SCOPES = {
    "x0-xi1": (GeneratorTable(("x", "xi"), (0, 1)), 3),
    "x2-xi1": (GeneratorTable(("x", "xi"), (2, 1)), 3),
    "x1-x2-xi1-xi2": (GeneratorTable(("x1", "x2", "xi1", "xi2"), (0, 0, 1, 1)), 2),
}


@pytest.mark.parametrize("scope", sorted(VANISHING_SCOPES))
def test_bracket_vanishes_exactly_on_the_span_of_its_short_terms(scope):
    """A bounded-scope proof that ``bracket_vanishes(P, n)`` holds iff
    ``F^n_P = 0``, the identity every exact order certificate rests on.

    Scope: every operator P of one parity spanned by the terms m d^alpha
    with a multiplier m of total exponent <= 1 and a derivative alpha of
    total exponent <= 2 (15 terms on (x, xi), with x of degree 0 or 2, for
    n <= 3; 65 terms on (x1, x2, xi1, xi2) for n <= 2).

    Claim: the kernel of the linear map P -> F^n_P on that span is exactly
    the span of the terms with 0 < |alpha| < n.  Those are the operators
    that ``bracket_vanishes`` accepts, so the claim is the identity on
    every P of the scope, both ways.

    Why a finite window is a proof.  F^n_P is linear in P, and by the
    Leibniz rule it is a polydifferential operator whose derivative in each
    argument slot is at most alpha, of total order <= 2.  Such an operator
    is zero iff it vanishes on every tuple of argument monomials of total
    exponent <= 2: were it nonzero, take a slot and a minimal derivative
    beta there with a nonzero coefficient; at the monomial x^beta in that
    slot every other derivative either kills x^beta or is not below beta,
    and d^beta(x^beta) is a nonzero scalar.  So the kernel over the finite
    window, computed by ``kernel_and_image_by_copies`` over the term labels,
    is the kernel on the whole algebra.
    """
    table, n_max = VANISHING_SCOPES[scope]
    terms = [(m, a) for m in enumerate_monomials(table, 1) for a in enumerate_monomials(table, 2)]
    assert len(terms) == (65 if len(table) == 4 else 15)
    args = [Element.monomial(table, m) for m in enumerate_monomials(table, 2)]
    for parity in (0, 1):
        span = [t for t in terms if
                (table.monomial_degree(t[0]) - table.monomial_degree(t[1])) % 2 == parity]
        ops = [Operator(table, {t: 1}) for t in span]
        for n in range(1, n_max + 1):
            vectors = []
            for op in ops:
                vec = {}
                for k, tup in enumerate(iter_product(args, repeat=n)):
                    for m, c in akman_bracket(op, tup).coeffs.items():
                        assert c.denominator == 1  # a term of coefficient 1
                        vec[k, m] = c.numerator
                vectors.append(vec)
            kernel, _ = kernel_and_image_by_copies(span, vectors)
            short = [t for t in span if 0 < sum(t[1]) < n]
            assert sorted(tuple(c) for c in kernel) == [(t,) for t in sorted(short)], (parity, n)
            assert [bracket_vanishes(op, n) for op in ops] == [t in short for t in span]


@st.composite
def polyvector_operators(draw):
    """A parity-homogeneous operator of up to four terms on polyvector2, of
    derivative order up to 4, multiplication terms included."""
    key = st.tuples(
        st.sampled_from(enumerate_monomials(TABLE, 2)),
        st.sampled_from(enumerate_monomials(TABLE, 4)),
    )
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    P = Operator(TABLE, draw(st.dictionaries(key, coeff, max_size=4)))
    parity = draw(st.sampled_from((0, 1)))
    return Operator(TABLE, {t: c for t, c in P.terms.items() if P.term_degree(t) % 2 == parity})


@given(st.one_of(small_operators(), polyvector_operators()), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_bracket_witness_gives_a_nonzero_bracket(P, n):
    if bracket_vanishes(P, n):
        return
    witness = bracket_witness(P, n)
    assert len(witness) == n and all(P.table.check_monomial(m) is None for m in witness)
    assert not akman_bracket(P, [Element.monomial(P.table, m) for m in witness]).is_zero()


def test_bracket_witness_splits_a_minimal_term_not_a_top_one():
    # P = d/dx1^2 d/dxi1 - 1/3 x1 d/dx1^3 d/dxi1: splitting the top term's
    # derivatives at (x1, x1, x1 xi1) meets the lower term's 2 x1 and cancels
    # to 0; the minimal term's split (x1, x1, xi1) leaves only it, at 2
    P = Operator(TABLE, {
        ((0, 0, 0, 0), (2, 0, 1, 0)): Fraction(1),
        ((1, 0, 0, 0), (3, 0, 1, 0)): Fraction(-1, 3),
    })
    x1, xi1 = gen("x1"), gen("xi1")
    assert akman_bracket(P, (x1, x1, x1 * xi1)).is_zero()
    assert bracket_witness(P, 3) == ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))
    assert akman_bracket(P, (x1, x1, xi1)) == 2 * Element.one(TABLE)


def test_bracket_witness_of_a_multiplication_term_is_the_unit():
    P = DELTA + Operator.multiplication(gen("xi1"))
    for n in range(1, 5):
        assert bracket_witness(P, n) == ((0, 0, 0, 0),) * n


def test_laplacian_fails_order_one():
    cert = akman_order_check(DELTA, 1)
    assert not cert.passed
    assert cert.failure_witness is not None
    elems = [elem(m) for m in cert.failure_witness]
    assert not akman_bracket(DELTA, elems).is_zero()


def test_negative_order_is_a_domain_error():
    with pytest.raises(AlgebraError, match="order must be >= 0"):
        akman_order_check(DELTA, -1)


@pytest.mark.parametrize("field", ["max_degree", "max_tuples"])
def test_negative_budget_is_a_domain_error(field):
    with pytest.raises(AlgebraError):
        Budget(**{field: -1})
    assert getattr(Budget(**{field: 0}), field) == 0  # zero stays legal


def test_monomial_tuples_deterministic():
    budget = Budget(max_degree=2, max_tuples=17, seed=5)
    monos = enumerate_monomials(TABLE, budget.max_degree)
    first = list(window_tuples(monos, 3, budget))
    second = list(window_tuples(monos, 3, budget))
    assert first == second
    assert len(first) == 17


@settings(max_examples=80, deadline=None)
@given(
    arity=st.integers(1, 4),
    max_degree=st.integers(0, 3),
    max_tuples=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
def test_lazy_tuples_are_the_eager_list(arity, max_degree, max_tuples, seed):
    # the same product order, and the same seeded draws in the same order
    budget = Budget(max_degree=max_degree, max_tuples=max_tuples, seed=seed)
    monos = enumerate_monomials(TABLE, max_degree)
    eager = window_tuples_eager(monos, arity, budget)
    assert list(window_tuples(monos, arity, budget)) == eager
    assert len(eager) == min(len(monos) ** arity, max_tuples)
    # over the window's Elements the stream is the same tuples, as Elements
    window = window_elements(TABLE, budget)
    assert list(window_tuples(window, arity, budget)) == [
        tuple(Element.monomial(TABLE, m) for m in t) for t in eager]


def _counting_draws(monkeypatch) -> list:
    """Record every ``Random.randrange`` call while the test runs."""
    draws, real = [], random.Random.randrange

    def counting(self, *args):
        draws.append(args)
        return real(self, *args)

    monkeypatch.setattr(random.Random, "randrange", counting)
    return draws


@pytest.mark.parametrize("extra", [
    Operator.multiplication(Fraction(3, 2) * gen("xi1")),
    Fraction(-2) * Operator(TABLE, {((0, 0, 0, 0), (1, 1, 1, 0)): Fraction(1)}),
], ids=["xi1", "dx1dx2dxi1"])
def test_failing_order_check_draws_no_tuple_and_evaluates_one_bracket(extra, monkeypatch):
    # the two perturbations of the Laplacian that refute order <= 2
    D = DELTA + extra
    draws = _counting_draws(monkeypatch)
    calls, real = [], brackets.akman_bracket
    monkeypatch.setattr(brackets, "akman_bracket",
                        lambda P, args: calls.append((P, tuple(args))) or real(P, args))
    cert = akman_order_check(D, 2)
    assert (cert.status, cert.tuples_tested) == ("fail", 1)
    witness = tuple(elem(m) for m in cert.failure_witness)
    assert calls == [(D, witness)] and draws == []


def test_a_zero_constructed_witness_is_an_assertion_error(monkeypatch):
    # the witness rule is a theorem; a zero bracket at its witness is a bug
    monkeypatch.setattr(brackets, "bracket_witness", lambda P, n: ((0, 0, 0, 0),) * n)
    with pytest.raises(AssertionError, match="witness"):
        akman_order_check(DELTA, 1)


def test_exact_order_pass_draws_no_tuple(monkeypatch):
    draws = _counting_draws(monkeypatch)
    cert = akman_order_check(DELTA, 3)
    assert (cert.status, cert.tuples_tested) == ("pass", 0)
    assert draws == []


def _stops_after(cases, n):
    """Yield ``cases``; fail the test if asked for an item past the n-th."""
    for i, case in enumerate(cases):
        if i >= n:
            raise AssertionError(f"consumed case {i + 1} after the witness")
        yield case


def test_first_witness_counts_the_witness_and_stops_there():
    cases = _stops_after(range(10, 20), 4)
    assert first_witness(cases, lambda c: c == 13) == (4, 13)
    assert first_witness(_stops_after("abc", 1), lambda c: True) == (1, "a")


def test_first_witness_without_a_witness():
    assert first_witness([], lambda c: True) == (0, None)
    assert first_witness(iter(()), lambda c: True) == (0, None)
    assert first_witness(range(7), lambda c: c > 100) == (7, None)
    # a falsy case is still a witness
    assert first_witness([3, 0, 5], lambda c: c == 0) == (2, 0)
