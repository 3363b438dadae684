from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bvcheck.algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    enumerate_monomials,
)
from bvcheck.brackets import _check_parity
from bvcheck.models import BUILTIN_MODELS, mixed_order_model, polyvector_model
from bvcheck.operators import Operator, _derivative, bracket_witness, format_operator
from bvcheck.specfile import parse_spec
from oracles import (
    _diff_by_generators,
    compose_by_single_derivatives,
    gl_chevalley_eilenberg,
    image_by_fractions,
    square_zero_first_hits,
)
from test_cli import GOLDEN_COHOMOLOGY_SPECS, GOLDEN_SPECS, LAPLACIAN_PLUS_XI1_XI2_SPEC

TABLE = GeneratorTable(("x", "y", "xi", "eta"), (0, 2, 1, 3))
# odd and even generators interleaved, odd ones of negative degree included
MIXED_TABLE = mixed_order_model().table


def gen(name):
    return Element.generator(TABLE, name)


def test_derivative_on_even_generator():
    dx = Operator.derivative(TABLE, "x")
    x, y = gen("x"), gen("y")
    assert dx.apply(x * x * y) == 2 * (x * y)
    assert dx.apply(y).is_zero()
    assert dx.apply(Element.one(TABLE)).is_zero()


def test_left_derivative_sign_on_odd_generators():
    deta = Operator.derivative(TABLE, "eta")
    xi, eta = gen("xi"), gen("eta")
    # d/deta must cross xi first: d/deta (xi eta) = -xi
    assert deta.apply(xi * eta) == -xi
    assert Operator.derivative(TABLE, "xi").apply(xi * eta) == eta


def test_multiplication_operator():
    xi = gen("xi")
    m = Operator.multiplication(xi)
    assert m.apply(gen("x")) == xi * gen("x")
    assert m.apply(xi).is_zero()
    # the multiplier eta sits after xi in the table, so it crosses xi
    assert Operator.multiplication(gen("eta")).apply(xi) == -(xi * gen("eta"))


def test_derivative_word_ordering():
    # lowest table index outermost: the (x, xi) mixed term acts as d/dx d/dxi
    op = Operator.term(TABLE, 1, (0, 0, 0, 0), (1, 0, 1, 0))
    x, xi = gen("x"), gen("xi")
    assert op.apply(x * xi) == Element.one(TABLE)


def test_degree_and_parity_of_terms():
    op = Operator.term(TABLE, 1, (1, 0, 0, 0), (0, 0, 1, 0))
    assert op.degree() == -1
    assert _check_parity(op) == 1
    mixed = op + Operator.derivative(TABLE, "y")
    assert not mixed.is_degree_homogeneous()
    with pytest.raises(AlgebraError):
        mixed.degree()


def assert_degree_queries_match_terms(op):
    """The cached degree set against a recomputation from ``terms``."""
    degs = {
        sum(e * g for e, g in zip(mult, op.table.degrees))
        - sum(e * g for e, g in zip(deriv, op.table.degrees))
        for mult, deriv in op.terms
    }
    pars = {d % 2 for d in degs}
    assert op.degrees() == degs
    assert op.is_degree_homogeneous() == (len(degs) <= 1)
    assert op.is_odd() == (pars <= {1})  # the zero operator counts as odd
    if len(degs) == 1:
        assert op.degree() == min(degs)
    else:
        with pytest.raises(AlgebraError):
            op.degree()
    # the bracket's parity check: |op| mod 2, 1 for the zero operator
    if len(pars) <= 1:
        assert _check_parity(op) == min(pars, default=1)
    else:
        with pytest.raises(AlgebraError):
            _check_parity(op)


def test_cached_degree_set_matches_the_terms():
    for build in BUILTIN_MODELS.values():
        model = build()
        table, D, d = model.table, model.D, model.d
        even = Operator.derivative(table, table.names[0], 1) + Operator.multiplication(
            Element.one(table)
        )
        ops = [D, d, Operator.zero(table), Operator.identity(table), even,
               D.compose(D), D.compose(d), D.compose(even), even.compose(D),
               D.scale(Fraction(-2, 3)), D.scale(0), 3 * D, -D,
               D + d, D - d, D - D, D + even, D - even]
        ops += D.degree_components().values()
        ops += (D + even).degree_components().values()
        for op in ops:
            assert_degree_queries_match_terms(op)


def test_compose_agrees_with_sequential_apply():
    z = (0, 0, 0, 0)
    ops = [
        Operator.derivative(TABLE, "x"),
        Operator.derivative(TABLE, "xi"),
        Operator.derivative(TABLE, "eta"),
        Operator.multiplication(gen("xi")),
        Operator.term(TABLE, Fraction(1, 2), (1, 0, 0, 0), (0, 1, 0, 0)),
        Operator.term(TABLE, 1, z, (1, 0, 1, 0)),
        Operator.term(TABLE, -2, (0, 0, 1, 0), (0, 0, 0, 1)),
    ]
    monos = enumerate_monomials(TABLE, 3)
    for A in ops:
        for B in ops:
            AB = A.compose(B)
            for m in monos:
                e = Element.monomial(TABLE, m)
                assert AB.apply(e) == A.apply(B.apply(e)), (
                    format_operator(A),
                    format_operator(B),
                    m,
                )


# coefficients over denominators 1-6, so two operators' den() differ
COMPOSE_COEFF = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6))


@st.composite
def operator_pairs(draw):
    """Two operators on one table, each term any multiplier and derivative of
    total exponent <= 3: even derivatives of exponent 2 and 3 meet multipliers
    holding their generator, and odd derivatives cross odd multipliers."""
    table = draw(st.sampled_from([TABLE, MIXED_TABLE]))
    monos = enumerate_monomials(table, 3)
    terms = st.dictionaries(
        st.tuples(st.sampled_from(monos), st.sampled_from(monos)),
        COMPOSE_COEFF, min_size=1, max_size=3,
    )
    return Operator(table, draw(terms)), Operator(table, draw(terms))


def _pair(table, a_terms, b_terms):
    return Operator(table, a_terms), Operator(table, b_terms)


@given(operator_pairs())
# d/dx^2 o x^2 d/dy: the binomial C(2, 1) of x^2 hit once
@example(_pair(TABLE, {((0, 0, 0, 0), (2, 0, 0, 0)): Fraction(1, 2)},
               {((2, 0, 0, 0), (0, 1, 0, 0)): Fraction(-2, 3)}))
# d/du^3 o u^2 d/deta1 on the mixed table
@example(_pair(MIXED_TABLE, {((0,) * 6, (0, 0, 3, 0, 0, 0)): Fraction(1)},
               {((0, 0, 2, 0, 0, 0), (0, 0, 0, 1, 0, 0)): Fraction(5, 4)}))
# d/deta o xi d/dx: d/deta passes the odd xi
@example(_pair(TABLE, {((0, 0, 0, 0), (0, 0, 0, 1)): Fraction(3)},
               {((0, 0, 1, 0), (1, 0, 0, 0)): Fraction(1, 5)}))
# d/dxi d/deta o xi eta: d/deta passes xi eta, then d/dxi hits it or passes
@example(_pair(TABLE, {((1, 0, 0, 0), (0, 0, 1, 1)): Fraction(1)},
               {((0, 0, 1, 1), (0, 0, 0, 0)): Fraction(1, 2),
                ((0, 0, 0, 1), (0, 0, 1, 0)): Fraction(-1)}))
@settings(max_examples=150, deadline=None)
def test_compose_is_the_single_derivative_expansion(pair):
    A, B = pair
    AB = A.compose(B)
    assert AB == compose_by_single_derivatives(A, B)
    # an operator of order k is fixed by its values on monomials of length <= k
    for m in enumerate_monomials(A.table, A.structural_order() + B.structural_order()):
        e = Element.monomial(A.table, m)
        assert AB.apply(e) == A.apply(B.apply(e)), (str(A), str(B), m)


def test_odd_derivatives_anticommute():
    dxi = Operator.derivative(TABLE, "xi")
    deta = Operator.derivative(TABLE, "eta")
    assert (dxi.compose(deta) + deta.compose(dxi)).is_zero()
    assert dxi.compose(dxi).is_zero()


def test_degree_components_partition():
    op = Operator.derivative(TABLE, "x") + Operator.derivative(TABLE, "xi")
    comps = op.degree_components()
    assert set(comps) == {0, -1}
    total = Operator.zero(TABLE)
    for c in comps.values():
        total = total + c
    assert total == op


def test_structural_order():
    assert Operator.zero(TABLE).structural_order() == 0
    assert Operator.multiplication(gen("x")).structural_order() == 0
    assert Operator.derivative(TABLE, "x").structural_order() == 1
    assert Operator.term(TABLE, 1, (0, 0, 0, 0), (2, 0, 1, 0)).structural_order() == 3


def test_is_odd():
    assert Operator.derivative(TABLE, "xi").is_odd()
    assert not Operator.derivative(TABLE, "x").is_odd()
    # the zero operator counts as odd, as the brackets' parity check does
    assert Operator.zero(TABLE).is_odd()


def assert_square_witness_follows_the_rule(D):
    """``is_square_zero`` is the rule for ``F^1_{D o D} = D o D``: its witness
    is ``bracket_witness(D o D, 1)``, D o D moves it, and a scan finds that
    D o D kills every monomial of smaller total exponent; of the monomials
    the scan finds moved first, it is the greatest exponent tuple."""
    ok, witness = D.is_square_zero()
    hits = square_zero_first_hits(D)
    assert ok == (not hits) == D.square().is_zero()
    if ok:
        assert witness is None
    else:
        assert (witness,) == bracket_witness(D.square(), 1)
        assert witness in hits and witness == max(hits)


def test_square_zero_check_and_witness():
    dxi = Operator.derivative(TABLE, "xi")
    ok, witness = dxi.is_square_zero()
    assert ok and witness is None

    # the square of d/dx + x has the multiplication terms 1 and x^2: the unit
    bad = Operator.derivative(TABLE, "x") + Operator.multiplication(gen("x"))
    assert bad.is_square_zero() == (False, (0, 0, 0, 0))
    m = Element.monomial(TABLE, (0, 0, 0, 0))
    assert not bad.apply(bad.apply(m)).is_zero()

    # (d/dx + d/dy)^2 has three derivatives of length 2, x^2, x*y and y^2, and
    # moves each: the rule takes the lexicographically greatest tuple, x^2
    tied = Operator.derivative(TABLE, "x") + Operator.derivative(TABLE, "y")
    assert tied.is_square_zero() == (False, (2, 0, 0, 0))
    assert square_zero_first_hits(tied) == [(0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)]
    for D in (dxi, bad, tied):
        assert_square_witness_follows_the_rule(D)


@st.composite
def random_operators(draw):
    """Operators whose squares have multiplication terms, odd derivatives and
    ties among their least derivatives: any multiplier and derivative of
    total exponent <= 2, on tables mixing odd and even generators."""
    table = draw(st.sampled_from([TABLE, MIXED_TABLE]))
    monos = enumerate_monomials(table, 2)
    keys = st.tuples(st.sampled_from(monos), st.sampled_from(monos))
    return Operator(table, draw(st.dictionaries(keys, st.integers(-3, 3), max_size=4)))


@given(random_operators())
@settings(max_examples=200, deadline=None)
def test_square_zero_witness_of_a_random_operator_follows_the_rule(D):
    assert_square_witness_follows_the_rule(D)


# the golden specs and the Laplacian plus xi1 + xi2, by name
SPECS = {**GOLDEN_SPECS, **GOLDEN_COHOMOLOGY_SPECS,
         "laplacian-plus-xi1-xi2": LAPLACIAN_PLUS_XI1_XI2_SPEC}


@pytest.mark.parametrize("source", sorted(BUILTIN_MODELS) + sorted(SPECS))
def test_square_zero_witness_of_every_model_and_golden_spec_follows_the_rule(source):
    D = (BUILTIN_MODELS[source]().D if source in BUILTIN_MODELS
         else parse_spec(SPECS[source]).main_operator())
    assert_square_witness_follows_the_rule(D)


@pytest.mark.parametrize("square_zero", [True, False])
def test_square_zero_check_applies_the_square_once_when_it_fails(square_zero, monkeypatch):
    model = polyvector_model(2)
    D = model.D
    if not square_zero:
        D = D + Operator.multiplication(Element.generator(model.table, "xi1"))
    calls, apply = [], Operator.apply
    monkeypatch.setattr(Operator, "apply", lambda op, a: calls.append((op, a)) or apply(op, a))
    ok, witness = D.is_square_zero()
    assert ok == square_zero
    if square_zero:
        assert calls == []
    else:
        assert calls == [(D.square(), Element.monomial(model.table, witness))]


def test_a_square_killing_its_constructed_witness_is_an_assertion_error(monkeypatch):
    D = Operator.derivative(TABLE, "x") + Operator.multiplication(gen("x"))
    monkeypatch.setattr(Operator, "apply", lambda op, a: Element.zero(op.table))
    with pytest.raises(AssertionError):
        D.is_square_zero()


def test_format_operator_term_lines():
    op = Operator.term(TABLE, Fraction(-3, 2), (1, 0, 0, 0), (0, 0, 1, 0))
    text = format_operator(op)
    assert text == "-3/2 | x | d/dxi"
    assert format_operator(Operator.zero(TABLE)) == "0"


# odd generators only, of odd degrees of both signs
ODD_TABLE = GeneratorTable(("a", "b", "c", "d", "e"), (1, -1, 3, 1, -3))


@pytest.mark.parametrize("table", [TABLE, MIXED_TABLE, ODD_TABLE],
                         ids=["table", "mixed", "all-odd"])
def test_derivative_matches_the_generator_by_generator_oracle(table):
    # every pair (alpha, m) of total exponent <= 4; the support pairs with
    # zero entries, as compose passes them, give the same derivative
    monos = enumerate_monomials(table, 4)
    for alpha in monos:
        support = tuple((i, a) for i, a in enumerate(alpha) if a)
        for mono in monos:
            got = _derivative(table, support, mono)
            assert got == _diff_by_generators(table, alpha, mono), (alpha, mono)
            assert got is None or type(got[0]) is int
            assert _derivative(table, tuple(enumerate(alpha)), mono) == got


# --- the per-operator image cache against a cold operator --------------------

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def model_and_element(draw):
    model = BUILTIN_MODELS[draw(st.sampled_from(sorted(BUILTIN_MODELS)))]()
    monos = enumerate_monomials(model.table, 3)
    coeffs = draw(st.dictionaries(st.sampled_from(monos), coeff_st, max_size=5))
    return model, Element(model.table, coeffs)


def cold_copy(D):
    return Operator(D.table, D.terms)


@given(model_and_element())
@settings(max_examples=60, deadline=None)
def test_cached_apply_matches_cold_operator(model_a):
    model, a = model_a
    D = model.D
    assert D.apply(a) == cold_copy(D).apply(a)  # cache empty before
    for mono in enumerate_monomials(model.table, 3):
        D.apply(Element.monomial(model.table, mono))
    assert D.apply(a) == cold_copy(D).apply(a)  # and warm


@given(model_and_element(), st.data())
@settings(max_examples=60, deadline=None)
def test_apply_after_apply_is_apply_of_compose(model_a, data):
    model, a = model_a
    monos = enumerate_monomials(model.table, 2)
    b = Element(
        model.table,
        data.draw(st.dictionaries(st.sampled_from(monos), coeff_st, max_size=3)),
    )
    ops = [model.D, model.d, Operator.multiplication(b)]
    D = data.draw(st.sampled_from(ops))
    E = data.draw(st.sampled_from(ops))
    assert D.apply(E.apply(a)) == D.compose(E).apply(a)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_image_is_apply_of_the_monomial_cold_and_warm(name):
    model = BUILTIN_MODELS[name]()
    monos = enumerate_monomials(model.table, 4)
    for D in (model.D, model.d):
        cold, warm = cold_copy(D), cold_copy(D)
        for mono in monos:
            warm.apply(Element.monomial(model.table, mono))
        for mono in monos:
            expected = cold_copy(D).apply(Element.monomial(model.table, mono)).coeffs
            for op in (cold, warm):
                image = op.apply(Element.monomial(model.table, mono)).coeffs
                # same entries in the same order, each value a Fraction
                assert list(image.items()) == list(expected.items())
                assert all(type(v) is Fraction for v in image.values())


def test_filling_the_cache_keeps_equality_hash_and_results():
    for build in BUILTIN_MODELS.values():
        model = build()
        D, cold = model.D, cold_copy(model.D)
        before = hash(D)
        for mono in enumerate_monomials(model.table, 3):
            a = Element.monomial(model.table, mono)
            D.apply(a).coeffs.clear()  # a caller changing its result
            assert D.apply(a) == cold.apply(a)
        assert D == cold and cold == D
        assert hash(D) == before == hash(cold)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_square_is_built_once_and_is_the_composite(name):
    D = BUILTIN_MODELS[name]().D
    square = D.square()
    assert square is D.square()
    assert square == D.compose(D)
    assert square.is_zero() == D.is_square_zero()[0]


# --- integer-numerator images against the Fraction oracle --------------------

def _image_shapes() -> dict:
    """Operators whose terms the image test rescales: every built-in model's
    D and d, the perturbed Laplacians that refutations are made of, and the
    zero operator, the identity and a lone multiplication."""
    shapes = {}
    for name, build in BUILTIN_MODELS.items():
        model = build()
        shapes[f"{name} D"], shapes[f"{name} d"] = model.D, model.d
    for n in (2, 3):
        model = polyvector_model(n)
        z = (0,) * 2 * n
        for i in range(n):
            xi = Element.generator(model.table, f"xi{i + 1}")
            shapes[f"laplacian{n} + xi{i + 1}"] = model.D + Operator.multiplication(xi)
            j, k = (i + 1) % n, n - 1 - i
            for a, b in ((i, i), (i, j)):
                deriv = tuple((m == a) + (m == b) + (m == n + k) for m in range(2 * n))
                term = Operator.term(model.table, 1, z, deriv)
                shapes[f"laplacian{n} + dx{a + 1}dx{b + 1}dxi{k + 1}"] = model.D + term
    table = polyvector_model(2).table
    shapes["zero"] = Operator.zero(table)
    shapes["identity"] = Operator.identity(table)
    shapes["multiplication"] = Operator.term(table, 1, (1, 0, 0, 1), (0, 0, 0, 0))
    return shapes


IMAGE_SHAPES = _image_shapes()
WIDE_TERM_COEFF = st.builds(
    Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 9)
)


@pytest.mark.parametrize("name", sorted(IMAGE_SHAPES))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_image_matches_the_fraction_oracle(name, data):
    base = IMAGE_SHAPES[name]
    n = len(base.terms)
    coeffs = data.draw(st.lists(WIDE_TERM_COEFF, min_size=n, max_size=n))
    D = Operator(base.table, dict(zip(base.terms, coeffs)))
    for mono in enumerate_monomials(D.table, 3):
        image = D.apply(Element.monomial(D.table, mono)).coeffs
        # same entries in the same order, each value a Fraction
        assert list(image.items()) == list(image_by_fractions(D, mono).items())
        assert all(type(v) is Fraction for v in image.values())


@pytest.mark.parametrize("name", sorted(IMAGE_SHAPES))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_int_image_is_den_times_the_fraction_oracle(name, data):
    base = IMAGE_SHAPES[name]
    n = len(base.terms)
    coeffs = data.draw(st.lists(WIDE_TERM_COEFF, min_size=n, max_size=n))
    D = Operator(base.table, dict(zip(base.terms, coeffs)))
    den = D.den()
    for mono in enumerate_monomials(D.table, 3):
        image = D.int_image(mono)
        oracle = {m: den * v for m, v in image_by_fractions(D, mono).items()}
        assert list(image.items()) == list(oracle.items())
        assert all(type(v) is int for v in image.values())


def test_an_image_drops_the_entries_whose_sums_cancel():
    # x1 d/dx1 - x2 d/dx2 + x1 d/dx2 sends x1*x2 to x1*x2 - x1*x2 + x1^2
    table = polyvector_model(2).table
    x1, x2, x1x2, x1sq = (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)
    D = Operator(table, {(x1, x1): 1, (x2, x2): -1, (x1, x2): 1})
    assert D.int_image(x1x2) == image_by_fractions(D, x1x2) == {x1sq: 1}
    assert D.int_image(x1) == {x1: 1}


def _packed_shapes() -> dict:
    """``IMAGE_SHAPES``, the gl_2 Chevalley-Eilenberg operator (odd
    multipliers, two odd derivatives per term), an odd multiplier between
    two odd derivatives, a second derivative in an even generator and terms
    whose image sums cancel."""
    shapes = dict(IMAGE_SHAPES)
    shapes["y d^2/dx^2"] = Operator.term(TABLE, 1, (0, 1, 0, 0), (2, 0, 0, 0))
    shapes["gl2 Chevalley-Eilenberg"] = gl_chevalley_eilenberg(2)[1]
    odd3 = GeneratorTable(("xi1", "xi2", "xi3"), (1, 1, 1))
    shapes["xi2 d/dxi1 d/dxi3"] = Operator.term(odd3, 1, (0, 1, 0), (1, 0, 1))
    x1, x2 = (1, 0, 0, 0), (0, 1, 0, 0)
    shapes["cancelling"] = Operator(polyvector_model(2).table,
                                    {(x1, x1): 1, (x2, x2): -1, (x1, x2): 1})
    return shapes


PACKED_SHAPES = _packed_shapes()


@pytest.mark.parametrize("window", range(4))
@pytest.mark.parametrize("name", sorted(PACKED_SHAPES))
def test_packed_images_are_int_image_on_codes_of_the_same_order(name, window):
    D = PACKED_SHAPES[name]
    pack, unpack, image = D.packed(window)
    seen = set()
    for mono in enumerate_monomials(D.table, window):
        code = pack(mono)
        assert unpack(code) == mono
        packed = image(code)
        # the same entries in the same order, each image code a round trip
        assert [(unpack(k), v) for k, v in packed.items()] == list(D.int_image(mono).items())
        assert all(pack(unpack(k)) == k for k in packed)
        seen |= {mono, *map(unpack, packed)}
    codes = [pack(m) for m in sorted(seen)]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
