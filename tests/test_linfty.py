import math

import pytest
from fractions import Fraction

from bvcheck.algebra import AlgebraError, Element, GeneratorTable, enumerate_monomials
from bvcheck.brackets import Budget, akman_bracket
from bvcheck.linfty import (
    Word,
    WordSum,
    coproduct,
    decalage_sign,
    extend_coderivation,
    linfty_relation,
    shifted_degree,
    verify_linfty,
)
from bvcheck.models import exterior_cube_model, mixed_order_model, polyvector_model
from bvcheck.operators import Operator

MODEL = polyvector_model(2)
TABLE = MODEL.table
DELTA = MODEL.D


def gen(name):
    return Element.generator(TABLE, name)


def scaled(ws: WordSum, s) -> WordSum:
    out = WordSum.zero()
    for word, c in ws.items():
        out.add_word(word, Fraction(s) * c)
    return out


def test_shifted_degree():
    assert shifted_degree(gen("x1")) == 1
    assert shifted_degree(gen("xi1")) == 2


def test_word_requires_homogeneous_nonzero_letters():
    with pytest.raises(AlgebraError):
        Word(())
    with pytest.raises(AlgebraError):
        Word((Element.zero(TABLE),))
    with pytest.raises(AlgebraError):
        Word((gen("x1") + gen("xi1"),))


def test_wordsum_kills_repeated_suspended_odd_letter():
    # xi1 has shifted degree 2, so xi1 ^ xi1 = 0 in the suspended picture
    ws = WordSum.zero()
    ws.add_word(Word((gen("xi1"), gen("xi1"))), Fraction(1))
    assert ws.is_zero()
    # x1 has shifted degree 1; x1 ^ x1 survives
    ws = WordSum.zero()
    ws.add_word(Word((gen("x1"), gen("x1"))), Fraction(1))
    assert not ws.is_zero()


def test_wordsum_canonicalization_signs():
    # two letters of odd shifted degree commute (permutation and Koszul signs
    # cancel); a pair of even shifted degrees anticommutes
    a, b = gen("x1"), gen("x2")  # both shifted degree 1
    ws1 = WordSum.zero()
    ws1.add_word(Word((a, b)), Fraction(1))
    ws2 = WordSum.zero()
    ws2.add_word(Word((b, a)), Fraction(1))
    assert ws1 == ws2

    c, d = gen("xi1"), gen("xi2")  # both shifted degree 2
    ws3 = WordSum.zero()
    ws3.add_word(Word((c, d)), Fraction(1))
    ws4 = WordSum.zero()
    ws4.add_word(Word((d, c)), Fraction(-1))
    assert ws3 == ws4


def test_coproduct_counts():
    letters = (gen("x1"), gen("x2"), gen("xi1"))
    w = Word(letters)
    terms = coproduct(w)
    assert len(terms) == sum(math.comb(3, k) for k in range(1, 3))
    assert coproduct(Word((gen("x1"),))) == []


def test_decalage_sign():
    assert decalage_sign([]) == 1
    assert decalage_sign([1]) == 1
    assert decalage_sign([1, 0]) == -1  # (-1)^{1*1 + 0*0}
    assert decalage_sign([1, 1]) == -1


def test_extension_well_defined_on_canonical_words():
    a, b, c = gen("x1"), gen("xi1"), gen("x2") * gen("xi2")
    sdeg = [shifted_degree(v) for v in (a, b, c)]
    for k in (1, 2):
        base = extend_coderivation(DELTA, k, Word((a, b, c)))
        # swapping the last two letters costs the shifted Koszul/perm sign
        swap_sign = -1 if (sdeg[1] * sdeg[2]) % 2 == 0 else 1
        swapped = extend_coderivation(DELTA, k, Word((a, c, b)))
        assert base == scaled(swapped, swap_sign)


def test_extension_degree_change():
    model = mixed_order_model()
    comps = model.D.degree_components()
    letters = (
        Element.generator(model.table, "eta1"),
        Element.generator(model.table, "eta2"),
        Element.generator(model.table, "eta3"),
    )
    w = Word(letters)
    for degree, comp in comps.items():
        k = (3 - degree) // 2
        ws = extend_coderivation(comp, k, w)
        for word, _ in ws.items():
            assert (
                word.total_shifted_degree() - w.total_shifted_degree()
                == degree + 1 - k
            )


def test_relation_one_is_the_square():
    for m in enumerate_monomials(TABLE, 2):
        a = Element.monomial(TABLE, m)
        assert linfty_relation(DELTA, 1, [a]) == DELTA.apply(DELTA.apply(a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_with_a_zero_argument_is_zero(n):
    zero = Element.zero(TABLE)
    for slot in range(n):
        args = [gen("x1"), gen("xi2"), gen("x2") * gen("xi1")][:n]
        args[slot] = zero
        assert linfty_relation(DELTA, n, args) == zero


def test_relations_vanish_for_square_zero_operator():
    reports = verify_linfty(DELTA, 3, Budget(max_degree=2, max_tuples=40))
    assert all(r.passed for r in reports)
    assert [r.index for r in reports] == [1, 2, 3]


def test_relations_fail_for_non_square_zero_perturbation():
    model = exterior_cube_model()
    bad = model.D + Operator.multiplication(
        Element.generator(model.table, "xi1")
    )
    assert bad.is_odd()
    assert not bad.is_square_zero()[0]
    reports = verify_linfty(bad, 2, Budget(max_degree=3, max_tuples=100))
    failing = [r for r in reports if not r.passed]
    assert failing
    first = failing[0]
    assert first.failing_tuple is not None
    elems = [Element.monomial(model.table, m) for m in first.failing_tuple]
    assert not linfty_relation(bad, first.index, elems).is_zero()


def test_verify_linfty_requires_odd_operator():
    with pytest.raises(AlgebraError):
        verify_linfty(Operator.derivative(TABLE, "x1"), 2)
