from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck.algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    enumerate_monomials,
    format_element,
    monomial_mul,
    parse_element,
)
from bvcheck.models import koszul_complex_model, mixed_order_model
from bvcheck.operators import Operator
from oracles import count_monomials, enumerate_monomials_by_box, grade_decompose

TABLE = GeneratorTable(("x", "y", "xi", "eta"), (0, 2, 1, 3))
# odd and even generators interleaved, odd ones of negative degree included
MIXED_TABLE = mixed_order_model().table


def letters(mono):
    out = []
    for i, e in enumerate(mono):
        out.extend([i] * e)
    return out


def brute_product(table, a, b):
    """Concatenate letter words and bubble into table order, counting odd swaps."""
    odd = {i for i, d in enumerate(table.degrees) if d % 2}
    word = letters(a) + letters(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                if word[i] in odd and word[i + 1] in odd:
                    sign = -sign
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    for i in range(len(word) - 1):
        if word[i] == word[i + 1] and word[i] in odd:
            return None
    mono = tuple(word.count(i) for i in range(len(a)))
    return sign, mono


MONOS = enumerate_monomials(TABLE, 4)


def test_monomial_mul_matches_letter_oracle():
    for table in (TABLE, MIXED_TABLE):
        monos = enumerate_monomials(table, 4)
        for a in monos:
            for b in monos:
                got = monomial_mul(table, a, b)
                assert got == brute_product(table, a, b)
                assert got is None or type(got[0]) is int


def test_monomial_parity_on_negative_odd_degrees():
    for mono in enumerate_monomials(MIXED_TABLE, 4):
        assert MIXED_TABLE.monomial_parity(mono) == MIXED_TABLE.monomial_degree(mono) % 2


mono_st = st.sampled_from(MONOS)
coeff_st = st.fractions(min_value=-20, max_value=20, max_denominator=7)
elem_st = st.dictionaries(mono_st, coeff_st, max_size=4).map(
    lambda d: Element(TABLE, d)
)


@given(elem_st, elem_st, elem_st)
@settings(max_examples=60, deadline=None)
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elem_st, elem_st, elem_st)
@settings(max_examples=60, deadline=None)
def test_product_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(elem_st, elem_st)
@settings(max_examples=60, deadline=None)
def test_difference_is_sum_with_negation(a, b):
    assert a - b == a + (-b)
    assert (a + b) - b == a
    cancelled = a - Element(TABLE, dict(a.coeffs))
    assert cancelled == Element.zero(TABLE) and not cancelled.coeffs


def test_graded_commutativity_on_monomials():
    for ma in MONOS:
        for mb in MONOS:
            a = Element.monomial(TABLE, ma)
            b = Element.monomial(TABLE, mb)
            sign = -1 if (TABLE.monomial_parity(ma) * TABLE.monomial_parity(mb)) else 1
            assert a * b == sign * (b * a)


def test_odd_generator_squares_to_zero():
    xi = Element.generator(TABLE, "xi")
    assert (xi * xi).is_zero()
    with pytest.raises(AlgebraError):
        TABLE.check_monomial((0, 0, 2, 0))


def test_unit_and_zero():
    one = Element.one(TABLE)
    zero = Element.zero(TABLE)
    x = Element.generator(TABLE, "x")
    assert one * x == x
    assert zero * x == zero
    assert x - x == zero


def test_degree_and_parity():
    x = Element.generator(TABLE, "x")
    eta = Element.generator(TABLE, "eta")
    assert x.degree() == 0
    assert eta.degree() == 3 and eta.parity() == 1
    assert (x * eta).degree() == 3
    with pytest.raises(AlgebraError):
        (x + eta).degree()


def test_parity_of_parity_homogeneous_elements():
    x, y, xi, eta = (Element.generator(TABLE, n) for n in TABLE.names)
    # homogeneous in parity, not in degree
    assert (x + y).parity() == 0
    with pytest.raises(AlgebraError):
        (x + y).degree()
    assert (xi + eta + x * y * xi).parity() == 1
    assert (Fraction(1, 2) * Element.one(TABLE) + y * y).parity() == 0
    # odd generators of degrees -1 and 1
    mixed = [Element.generator(MIXED_TABLE, n) for n in ("xi1", "eta1", "u")]
    assert (mixed[0] + mixed[1] * mixed[2]).parity() == 1


@pytest.mark.parametrize("text", ["0", "x + xi", "xi + x", "x + y + eta", "x*xi + y - x*eta"])
def test_parity_raises_on_zero_and_mixed_parity(text):
    with pytest.raises(AlgebraError):
        parse_element(TABLE, text).parity()


@pytest.mark.parametrize("text", ["0", "x + xi", "x*xi + y - x*eta"])
def test_int_form_raises_on_every_call_and_keeps_nothing(text):
    a = parse_element(TABLE, text)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="mixed-parity or zero"):
            a.int_form()
    assert a._int_form is None


@given(st.integers(0, 1), st.data())
@settings(max_examples=80, deadline=None)
def test_int_form_is_the_lcm_scaling(parity, data):
    monos = [m for m in enumerate_monomials(TABLE, 3) if TABLE.monomial_parity(m) == parity]
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(monos),
        st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 9)),
        min_size=1, max_size=6,
    ))
    a = Element(TABLE, coeffs)
    form = a.int_form()
    scale = lcm(*(c.denominator for c in coeffs.values()))
    assert form == (parity, scale, {m: c * scale for m, c in coeffs.items()})
    assert all(type(v) is int for v in form[2].values())
    # kept: the second call returns the same form
    assert a.int_form() is form
    assert a.coeffs == coeffs


def test_grade_decompose_reassembles():
    x = Element.generator(TABLE, "x")
    y = Element.generator(TABLE, "y")
    xi = Element.generator(TABLE, "xi")
    a = 3 * x + y * xi + Fraction(1, 2) * xi
    parts = grade_decompose(a)
    assert set(parts) == {0, 1, 3}
    total = Element.zero(TABLE)
    for p in parts.values():
        total = total + p
    assert total == a


def test_enumerate_monomials_window():
    monos = enumerate_monomials(TABLE, 2)
    assert all(sum(m) <= 2 for m in monos)
    assert (0, 0, 0, 0) in monos
    assert (0, 0, 1, 1) in monos
    assert (0, 0, 2, 0) not in monos
    assert monos == sorted(monos, key=lambda m: (sum(m), m))


@given(st.lists(st.integers(-3, 3), max_size=4), st.integers(-1, 6))
@settings(max_examples=120, deadline=None)
def test_enumerate_monomials_matches_the_box_oracle(degrees, max_degree):
    # zero- and negative-degree generators, and the empty table, included
    table = GeneratorTable(tuple(f"g{i}" for i in range(len(degrees))), tuple(degrees))
    assert enumerate_monomials(table, max_degree) == enumerate_monomials_by_box(
        table, max_degree
    )


def test_enumerate_monomials_on_a_four_pair_window():
    # 7^4 * 2^4 = 38,416 exponent tuples in the box, 1,289 within the budget
    table = koszul_complex_model([1, 2, 3, 4]).table
    monos = enumerate_monomials(table, 6)
    assert len(monos) == 1289
    assert monos == enumerate_monomials_by_box(table, 6)


@pytest.mark.parametrize("degrees", [(), (1, 3, -1), (0, 2, 4), (0, 2, 1, 3), (-2, -1, 2, -3)],
                         ids=["no-generators", "all-odd", "all-even", "mixed", "negative"])
@pytest.mark.parametrize("max_degree", range(-1, 9))
def test_count_monomials_is_the_length_of_the_enumeration(degrees, max_degree):
    table = GeneratorTable(tuple(f"g{i}" for i in range(len(degrees))), degrees)
    # the closed form is an oracle for the enumeration's length
    assert count_monomials(table, max_degree) == len(enumerate_monomials(table, max_degree))


def test_equal_elements_hash_equal_over_equal_tables():
    other = GeneratorTable(TABLE.names, TABLE.degrees)
    assert other is not TABLE
    a = parse_element(TABLE, "2*x*xi - 1/3*y^2 + 1")
    b = parse_element(other, "1 - 1/3*y^2 + 2*x*xi")
    assert a == b and hash(a) == hash(b)
    # the hash reads the support only; __eq__ tells the coefficients apart
    x = Element.generator(TABLE, "x")
    assert hash(x) == hash(2 * x) and x != 2 * x
    assert len({x, 2 * x, -x, x + x}) == 3


def test_tables_are_equal_and_hash_by_names_and_degrees():
    twin = GeneratorTable(TABLE.names, TABLE.degrees)
    assert twin == TABLE and hash(twin) == hash(TABLE)
    assert twin.odd == TABLE.odd == (2, 3)  # derived, not compared
    assert {TABLE: "table"}[twin] == "table" and len({TABLE, twin}) == 1
    assert hash(Operator.derivative(twin, "x")) == hash(Operator.derivative(TABLE, "x"))
    for other in [GeneratorTable(TABLE.names, (0, 2, 1, 1)),
                  GeneratorTable(("x", "y", "eta", "xi"), TABLE.degrees),
                  GeneratorTable(TABLE.names[:3], TABLE.degrees[:3])]:
        assert other != TABLE and TABLE != other
    assert TABLE != (TABLE.names, TABLE.degrees)


@pytest.mark.parametrize("names, degrees, message", [
    (("x", "xi"), (0,), "length mismatch"),
    (("x", "x"), (0, 1), "duplicate generator names"),
], ids=["length", "duplicate"])
def test_malformed_tables_are_domain_errors(names, degrees, message):
    with pytest.raises(AlgebraError, match=message):
        GeneratorTable(names, degrees)


@pytest.mark.parametrize("build, message", [
    (lambda: Element.generator(TABLE, "z"), "unknown generator 'z'"),
    (lambda: TABLE.check_monomial((0, 0, 0)), "wrong length"),
    (lambda: TABLE.check_monomial((0, -1, 0, 0)), "negative exponent"),
    (lambda: parse_element(TABLE, "x**y"), "empty factor"),
], ids=["unknown-generator", "length", "negative-exponent", "empty-factor"])
def test_malformed_monomials_and_elements_are_domain_errors(build, message):
    with pytest.raises(AlgebraError, match=message):
        build()


@given(elem_st)
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(a):
    assert parse_element(TABLE, format_element(a)) == a


def test_format_examples():
    x = Element.generator(TABLE, "x")
    xi = Element.generator(TABLE, "xi")
    a = Fraction(3, 2) * (x * x * xi) - Element.one(TABLE)
    text = format_element(a)
    assert "3/2" in text and "x^2" in text
    assert parse_element(TABLE, text) == a


E_TABLE = GeneratorTable(("xe", "xE", "y"), (0, 0, 2))


@pytest.mark.parametrize(
    "text, terms",
    [
        ("xe-y", {(1, 0, 0): 1, (0, 0, 1): -1}),
        ("2*xE^2+y", {(0, 2, 0): 2, (0, 0, 1): 1}),
        ("1/2*xe - 3", {(1, 0, 0): Fraction(1, 2), (0, 0, 0): -3}),
        ("1e-3*y+xe", {(0, 0, 1): Fraction(1, 1000), (1, 0, 0): 1}),
    ],
)
def test_parse_names_ending_in_e(text, terms):
    assert parse_element(E_TABLE, text) == Element(E_TABLE, terms)
