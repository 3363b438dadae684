import pytest

from bvcheck.algebra import AlgebraError, Element, enumerate_monomials
from bvcheck.brackets import Budget, window_elements, window_tuples
from bvcheck.linfty import linfty_relation, verify_linfty
from bvcheck.models import BUILTIN_MODELS, exterior_cube_model, polyvector_model
from bvcheck.operators import Operator
from oracles import relation_by_expansion, witness_elements

MODEL = polyvector_model(2)
TABLE = MODEL.table
DELTA = MODEL.D


def gen(name):
    return Element.generator(TABLE, name)


def test_relation_one_is_the_square():
    for m in enumerate_monomials(TABLE, 2):
        a = Element.monomial(TABLE, m)
        assert linfty_relation(DELTA, 1, [a]) == DELTA.apply(DELTA.apply(a))


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_relation_is_the_bracket_of_the_square(name):
    # Koszul-Akman: the definitional sum of brackets of brackets equals the
    # bracket of D o D that linfty_relation evaluates, square zero or not
    model = BUILTIN_MODELS[name]()
    table = model.table
    bent = model.D + Operator.multiplication(Element.generator(table, "xi1"))
    assert bent.is_odd() and not bent.is_square_zero()[0]
    budget = Budget(max_degree=2, max_tuples=100)
    for D in (model.D, bent):
        nonzero = 0
        for n in (1, 2, 3):
            for args in window_tuples(window_elements(table, budget), n, budget):
                value = linfty_relation(D, n, args)
                assert value == relation_by_expansion(D, n, args)
                nonzero += not value.is_zero()
        assert bool(nonzero) == (D is bent)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_with_a_zero_argument_is_zero(n):
    zero = Element.zero(TABLE)
    for slot in range(n):
        args = [gen("x1"), gen("xi2"), gen("x2") * gen("xi1")][:n]
        args[slot] = zero
        assert linfty_relation(DELTA, n, args) == zero


def test_relations_vanish_for_square_zero_operator():
    report = verify_linfty(DELTA, 3, Budget(max_degree=2, max_tuples=40))
    assert report.passed and report.fully_tested
    assert [i.name for i in report.items] == ["relation n=1", "relation n=2", "relation n=3"]


def test_relations_fail_for_non_square_zero_perturbation():
    model = exterior_cube_model()
    bad = model.D + Operator.multiplication(
        Element.generator(model.table, "xi1")
    )
    assert bad.is_odd()
    assert not bad.is_square_zero()[0]
    report = verify_linfty(bad, 2, Budget(max_degree=3, max_tuples=100))
    failing = [(n, i) for n, i in enumerate(report.items, 1) if i.status == "fail"]
    assert failing
    n, first = failing[0]
    assert first.witness is not None
    elems = witness_elements(model.table, first.witness)
    assert not linfty_relation(bad, n, elems).is_zero()


def test_verify_linfty_requires_odd_operator():
    with pytest.raises(AlgebraError):
        verify_linfty(Operator.derivative(TABLE, "x1"), 2)


def test_relation_requires_an_odd_operator():
    even = Operator.derivative(TABLE, "x1")
    with pytest.raises(AlgebraError, match="odd operator"):
        linfty_relation(even, 1, [gen("x1")])


def test_relation_of_a_square_zero_operator_checks_its_arguments():
    # the square is zero, but a foreign or mixed-parity argument is still
    # a domain error, as it was when the relation expanded over D itself
    other = exterior_cube_model().table
    with pytest.raises(AlgebraError, match="different table"):
        linfty_relation(DELTA, 2, [gen("x1"), Element.generator(other, "xi1")])
    with pytest.raises(AlgebraError):
        linfty_relation(DELTA, 1, [gen("x1") + gen("xi1")])
    with pytest.raises(AlgebraError, match="relation index 2 with 1 arguments"):
        linfty_relation(DELTA, 2, [gen("x1")])


@pytest.mark.parametrize("n_max", [0, -2])
def test_empty_relation_family_is_a_domain_error(n_max):
    with pytest.raises(AlgebraError, match="n >= 1"):
        verify_linfty(DELTA, n_max)
