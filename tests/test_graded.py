import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from bvcheck.graded import GradedError, koszul_sign, unshuffles
from oracles import is_unshuffle, perm_sign


def test_unshuffle_count_is_binomial():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert len(unshuffles(k, n)) == math.comb(n, k)


def test_unshuffles_are_unshuffles_and_distinct():
    for n in range(1, 6):
        for k in range(1, n + 1):
            seen = set(unshuffles(k, n))
            assert len(seen) == math.comb(n, k)
            for sigma in seen:
                assert sorted(sigma) == list(range(n))
                assert is_unshuffle(sigma, k)


def test_unshuffles_are_shared_immutable_tuples():
    for n in range(1, 5):
        for k in range(1, n + 1):
            first = unshuffles(k, n)
            assert unshuffles(k, n) == first
            assert type(first) is tuple and all(type(s) is tuple for s in first)
            with pytest.raises(TypeError):
                first[0] = first[-1]
            with pytest.raises(TypeError):
                first[0][0] = 0


def test_unshuffles_rejects_bad_arity():
    with pytest.raises(GradedError):
        unshuffles(0, 3)
    with pytest.raises(GradedError):
        unshuffles(4, 3)


def test_koszul_sign_rejects_a_length_mismatch():
    with pytest.raises(GradedError, match="2 degrees for a permutation of 1"):
        koszul_sign([1, 1], (0,))


def test_is_unshuffle_rejects_non_monotone():
    assert not is_unshuffle((1, 0, 2), 2)
    assert is_unshuffle((0, 2, 1), 2)


def test_identity_permutation_signs():
    degrees = [0, 1, 2, 3]
    ident = (0, 1, 2, 3)
    assert koszul_sign(degrees, ident) == 1
    assert perm_sign(ident) == 1


def test_koszul_sign_all_even_is_trivial():
    degrees = [0, 2, 4]
    for sigma in permutations(range(3)):
        assert koszul_sign(degrees, sigma) == 1


def test_koszul_sign_odd_swap():
    # swapping two odd elements costs a sign
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([1, 0], (1, 0)) == 1
    # plain ints: the bracket kernels only compare the sign with 0
    assert type(koszul_sign([1, 1], (1, 0))) is int
    assert type(koszul_sign([1, 0], (1, 0))) is int


@given(st.permutations(range(5)))
def test_perm_sign_matches_inversion_parity(p):
    sigma = tuple(p)
    inversions = sum(
        1 for i in range(5) for j in range(i + 1, 5) if sigma[i] > sigma[j]
    )
    assert perm_sign(sigma) == (-1) ** inversions


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=5).flatmap(
        lambda degs: st.tuples(
            st.just(degs),
            st.permutations(range(len(degs))),
            st.permutations(range(len(degs))),
        )
    )
)
def test_koszul_sign_is_multiplicative(data):
    degrees, p, q = data
    p, q = tuple(p), tuple(q)
    composed = tuple(p[q[i]] for i in range(len(p)))
    permuted = [degrees[p[i]] for i in range(len(p))]
    assert koszul_sign(degrees, composed) == koszul_sign(degrees, p) * koszul_sign(
        permuted, q
    )
