import dataclasses
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
    akman_bracket,
    akman_order_check,
    bracket_vanishes,
    bv_bracket,
    first_witness,
    koszul_bracket,
    monomial_tuples,
    tuple_count,
)
from bvcheck.graded import koszul_sign
from bvcheck.models import (
    BUILTIN_MODELS,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from bvcheck.operators import Operator
from oracles import (
    koszul_bracket_by_unshuffles,
    monomial_tuples_eager,
    order_check_by_evaluation,
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
        for tup in monomial_tuples(TABLE, arity, budget):
            elems = [elem(m) for m in tup]
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
    assert DELTA.structural_order() == 2
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


@pytest.mark.parametrize("budget", [Budget(max_tuples=0), Budget()], ids=["zero", "default"])
def test_order_check_of_a_mixed_parity_operator_is_a_domain_error(budget):
    # every bracket of D vanishes at arity 4, yet D has no parity to sign them by
    D = DELTA + Operator.derivative(TABLE, "x1")
    with pytest.raises(AlgebraError, match="mixed-parity"):
        akman_order_check(D, 3, budget)


def test_passing_order_check_evaluates_no_bracket(monkeypatch):
    calls = []
    real = brackets.akman_bracket

    def counting(D, args):
        calls.append(args)
        return real(D, args)

    monkeypatch.setattr(brackets, "akman_bracket", counting)
    # order 2 <= 3 and no arity-3 bracket is nonzero either: nothing to search
    cert = akman_order_check(DELTA, 3, Budget(max_degree=2, max_tuples=120))
    assert (cert.status, cert.tuples_tested, cert.sharp) == ("pass", 120, False)
    assert calls == []
    # order <= 2 is decided too; only the sharpness witness is searched for
    cert = akman_order_check(DELTA, 2, Budget(max_degree=2, max_tuples=120))
    assert cert.passed and cert.sharp
    assert calls and all(len(args) == 2 for args in calls)


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
    seen = set()
    for label, D in _order_check_cases():
        for k in range(4):
            cert = akman_order_check(D, k, budget)
            oracle = order_check_by_evaluation(D, k, budget)
            seen.add((cert.status, cert.sharp))
            if cert.missed:
                # the window holds no witness of a bracket the normal form
                # shows nonzero: the oracle passes, the certificate is untested
                assert not bracket_vanishes(D, k + 1), (label, k)
                assert (cert.status, oracle.status) == ("untested", "pass"), (label, k)
                cert = dataclasses.replace(cert, missed=False)
            # counts, verdicts and both witnesses
            assert cert == oracle, (label, k)
    # passes, sharp passes, failures and missed brackets all occur
    assert {("pass", True), ("pass", False), ("fail", False)} <= seen
    assert any(status == "untested" for status, _ in seen)


@pytest.mark.parametrize("budget, status", [
    (Budget(max_degree=0), "untested"),
    (Budget(max_degree=1, max_tuples=3), "untested"),
    (Budget(max_degree=1, max_tuples=64), "fail"),
], ids=["unit-window", "three-tuples", "exhaustive"])
def test_order_check_never_passes_what_the_normal_form_refutes(budget, status):
    # F^3 of d/dxi1 d/dxi2 d/dxi3 is nonzero only at permutations of
    # (xi1, xi2, xi3): a window that misses them leaves order <= 2 untested
    D = BUILTIN_MODELS["exterior-cube"]().D
    assert not bracket_vanishes(D, 3)
    cert = akman_order_check(D, 2, budget)
    assert cert.status == status
    assert cert.missed == (status == "untested") and cert.tuples_tested > 0


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
    first = list(monomial_tuples(TABLE, 3, budget))
    second = list(monomial_tuples(TABLE, 3, budget))
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
    eager = monomial_tuples_eager(TABLE, arity, budget)
    assert list(monomial_tuples(TABLE, arity, budget)) == eager
    assert tuple_count(TABLE, arity, budget) == len(eager)


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
def test_failing_order_check_draws_only_the_tuples_it_tries(extra, monkeypatch):
    # the two perturbations of the Laplacian that refute order <= 2
    D, budget = DELTA + extra, Budget()
    assert len(enumerate_monomials(TABLE, budget.max_degree)) ** 3 > budget.max_tuples
    draws = _counting_draws(monkeypatch)
    cert = akman_order_check(D, 2, budget)
    assert not cert.passed and cert.tuples_tested >= 1
    assert len(draws) == 3 * cert.tuples_tested


def test_exact_order_pass_draws_no_tuple(monkeypatch):
    draws = _counting_draws(monkeypatch)
    cert = akman_order_check(DELTA, 3, Budget())
    assert (cert.status, cert.tuples_tested) == ("pass", Budget().max_tuples)
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
