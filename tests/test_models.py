from itertools import product as iter_product

import pytest

from bvcheck.algebra import AlgebraError, Element, enumerate_monomials
from bvcheck.brackets import akman_order_check, bv_bracket
from bvcheck.models import (
    BUILTIN_MODELS,
    exterior_cube_model,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from oracles import SCHOUTEN_CALIBRATION, schouten_oracle


def test_polyvector_degrees():
    model = polyvector_model(3)
    assert model.table.degrees == (0, 0, 0, 1, 1, 1)
    assert model.D.degree() == -1
    assert model.D.is_odd()
    assert model.D.structural_order() == 2
    assert model.d.is_zero()


def test_polyvector_square_zero_and_order():
    model = polyvector_model(2)
    assert model.D.is_square_zero()[0]
    cert = akman_order_check(model.D, 2)
    assert cert.passed and cert.sharp


def test_schouten_oracle_generator_pairings():
    model = polyvector_model(2)
    x1 = Element.generator(model.table, "x1")
    xi1 = Element.generator(model.table, "xi1")
    xi2 = Element.generator(model.table, "xi2")
    one = Element.one(model.table)
    assert schouten_oracle(x1, xi1) == one
    assert schouten_oracle(xi1, x1) == -one
    assert schouten_oracle(x1, xi2).is_zero()
    assert schouten_oracle(xi1, xi2).is_zero()


def test_schouten_oracle_matches_operator_bracket():
    model = polyvector_model(2)
    monos = enumerate_monomials(model.table, 2)
    mismatches = 0
    for ma, mb in iter_product(monos, repeat=2):
        a = Element.monomial(model.table, ma)
        b = Element.monomial(model.table, mb)
        lhs = bv_bracket(model.D, a, b)
        rhs = SCHOUTEN_CALIBRATION * schouten_oracle(a, b)
        if lhs != rhs:
            mismatches += 1
    assert mismatches == 0


def test_schouten_oracle_rejects_odd_tables():
    model = exterior_cube_model()
    xi = Element.generator(model.table, "xi1")
    with pytest.raises(AlgebraError):
        schouten_oracle(xi, xi)


def test_koszul_model_structure():
    model = koszul_complex_model([2])
    assert model.table.degrees == (2, 3)
    assert model.d.degree() == 1
    assert model.d.structural_order() == 1
    assert model.d.compose(model.d).is_zero()
    assert model.D.is_odd()
    assert model.D.is_square_zero()[0]
    # d applied to xi gives x^2
    xi = Element.generator(model.table, "xi1")
    x = Element.generator(model.table, "x1")
    assert model.d.apply(xi) == x * x


def test_koszul_model_multi_pair():
    model = koszul_complex_model([1, 3])
    assert model.table.degrees == (2, 1, 2, 5)
    assert model.D.is_square_zero()[0]
    assert model.d.degree() == 1


def test_polyvector_model_rejects_n_below_one():
    with pytest.raises(AlgebraError, match="n >= 1"):
        polyvector_model(0)


def test_koszul_model_rejects_bad_weights():
    with pytest.raises(AlgebraError):
        koszul_complex_model([])
    with pytest.raises(AlgebraError):
        koszul_complex_model([0])


def test_exterior_cube_model():
    model = exterior_cube_model()
    assert model.D.degree() == -3
    assert model.D.structural_order() == 3
    assert model.D.is_square_zero()[0]
    basis = enumerate_monomials(model.table, 3)
    assert len(basis) == 8


def test_mixed_order_model():
    model = mixed_order_model()
    comps = model.D.degree_components()
    assert sorted(comps) == [-3, -1, 1]
    assert {g: comps[g].structural_order() for g in comps} == {1: 1, -1: 2, -3: 3}
    assert model.D.is_square_zero()[0]
    assert model.d == comps[1]


def test_builtin_registry():
    for name, factory in BUILTIN_MODELS.items():
        model = factory()
        assert model.D.is_odd(), name
        assert model.D.is_square_zero()[0], name
