from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck.algebra import AlgebraError, Element, GeneratorTable, enumerate_monomials
from bvcheck.brackets import (
    Budget,
    akman_bracket,
    akman_order_check,
    bv_bracket,
    first_witness,
    koszul_bracket,
    monomial_tuples,
)
from bvcheck.graded import koszul_sign
from bvcheck.models import BUILTIN_MODELS, polyvector_model
from bvcheck.operators import Operator
from oracles import koszul_bracket_by_unshuffles

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
        for tup in monomial_tuples(TABLE, arity, budget):
            elems = [elem(m) for m in tup]
            assert akman_bracket(DELTA, elems) == koszul_bracket(DELTA, elems)


def test_routes_agree_even_with_nonvanishing_on_units():
    # operators that do not kill 1 exercise the boundary term of the expansion
    D = Operator.multiplication(gen("xi1")) + Operator.derivative(TABLE, "xi2")
    budget = Budget(max_degree=2, max_tuples=30)
    for arity in range(1, 4):
        for tup in monomial_tuples(TABLE, arity, budget):
            elems = [elem(m) for m in tup]
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
    budget = Budget(max_degree=2, max_tuples=120)
    cert = akman_order_check(DELTA, 2, budget)
    assert cert.passed and cert.sharp
    assert cert.structural_bound == 2
    assert cert.failure_witness is None and cert.sharp_witness is not None

    # a first-order operator is not order 0 but is order 1
    d = Operator.derivative(TABLE, "xi1")
    assert not akman_order_check(d, 0, budget).passed
    assert akman_order_check(d, 1, budget).passed

    # a multiplication operator certifies no finite order in this convention:
    # the arity-1 bracket is the operator itself, never zero
    m = Operator.multiplication(gen("x1"))
    assert not akman_order_check(m, 0, budget).passed
    assert not akman_order_check(m, 1, budget).passed


def test_order_check_zero_operator_is_degenerate():
    cert = akman_order_check(Operator.zero(TABLE), 2, Budget())
    assert cert.passed and cert.degenerate_zero
    assert "order 0" in cert.verdict()


def test_order_check_on_no_tuples_is_untested():
    cert = akman_order_check(DELTA, 2, Budget(max_tuples=0))
    assert cert.passed and cert.tuples_tested == 0
    assert cert.status == "untested"
    assert cert.verdict() == "untested (not shown sharp, 0 tuples)"
    zero = akman_order_check(Operator.zero(TABLE), 2, Budget(max_tuples=0))
    assert zero.status == "pass"
    assert akman_order_check(DELTA, 2, Budget(max_degree=2, max_tuples=40)).status == "pass"
    assert akman_order_check(DELTA, 1, Budget(max_degree=2, max_tuples=40)).status == "fail"


def test_zero_operator_bracket_is_zero_and_checks_its_arguments():
    zero = Operator.zero(TABLE)
    args = [gen("x1"), gen("xi2"), gen("x2") * gen("xi1")]
    assert koszul_bracket(zero, args) == Element.zero(TABLE)
    with pytest.raises(AlgebraError):
        koszul_bracket(zero, [gen("x1"), gen("x1") + gen("xi1")])
    with pytest.raises(AlgebraError):
        koszul_bracket(zero, [])


def test_laplacian_fails_order_one():
    cert = akman_order_check(DELTA, 1, Budget(max_degree=2, max_tuples=120))
    assert not cert.passed
    assert cert.failure_witness is not None
    elems = [elem(m) for m in cert.failure_witness]
    assert not akman_bracket(DELTA, elems).is_zero()


@pytest.mark.parametrize("field", ["max_degree", "max_tuples"])
def test_negative_budget_is_a_domain_error(field):
    with pytest.raises(AlgebraError):
        Budget(**{field: -1})
    assert getattr(Budget(**{field: 0}), field) == 0  # zero stays legal


def test_monomial_tuples_deterministic():
    budget = Budget(max_degree=2, max_tuples=17, seed=5)
    first = monomial_tuples(TABLE, 3, budget)
    second = monomial_tuples(TABLE, 3, budget)
    assert first == second
    assert len(first) == 17


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
