from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck import linalg
from bvcheck.linalg import RowSpace, image_rows, kernel_and_image
from oracles import (
    RowSpaceByCopies, fraction_view, integer_vectors, kernel_and_image_by_copies, vec_add,
)


def vec(*pairs):
    return {k: Fraction(v) for k, v in pairs if v}


def rational_kernel_and_image(labels, vectors):
    """``kernel_and_image`` of the rational ``vectors``, given as
    ``integer_vectors`` and read through the ``Fraction`` view."""
    return fraction_view(*kernel_and_image(labels, integer_vectors(vectors)))


def test_vec_add():
    a = vec((0, 1), (1, 2))
    b = vec((1, -2), (2, 3))
    assert vec_add(a, b) == vec((0, 1), (2, 3))
    assert vec_add(a, a, Fraction(-1)) == {}


def as_ints(vector):
    """A rational vector times the lcm of its denominators, as ints."""
    den = lcm(*(v.denominator for v in vector.values()))
    return {k: (v * den).numerator for k, v in vector.items()}


def residual(space, vector):
    """The rational residual of an integer ``vector`` modulo ``space``, read
    through the factor ``reduce`` returns; ``vector`` is left alone."""
    out = dict(vector)
    scale = space.reduce(out)
    assert type(scale) is int and scale > 0
    return {k: Fraction(v, scale) for k, v in out.items()}


def rational(space):
    """The space's integer rows, each divided by its pivot entry."""
    return fraction_view([], space.rows)[1]


def assert_integer_rows(space):
    """Primitive integer rows, positive at their pivot, the least label, and
    fully reduced: no row holds another row's pivot."""
    for pivot, row in space.rows.items():
        assert pivot == min(row) and row[pivot] > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
        assert not (row.keys() & space.rows.keys()) - {pivot}


def test_rowspace_membership():
    space, oracle = RowSpace(), RowSpaceByCopies()
    for v in ({0: 1, 1: 1}, {1: 1, 2: 1}):
        assert space.add(v) and oracle.add(v)
    assert len(space.rows) == 2
    assert residual(space, {0: 1, 2: -1}) == {}  # difference of the two rows
    assert residual(space, {2: 1}) == oracle.reduce({2: 1}) != {}
    assert not space.add({0: 2, 1: 2})  # dependent, not added
    assert len(space.rows) == 2
    assert rational(space).rows == oracle.rows


def test_rowspace_reduction_is_canonical():
    space = RowSpace()
    space.add({0: 1, 1: 5})
    vector = {0: 3, 1: 15, 2: 1}
    r1 = residual(space, vector)
    r2 = residual(space, {2: 1})
    assert r1 == r2 == {2: 1}
    assert vector == {0: 3, 1: 15, 2: 1}
    # in place: the integer residual over the factor is the rational one,
    # here {1: 1 - 3 * 3/2} against the row {0: 1, 1: 3/2}
    space = RowSpace()
    space.add({0: 2, 1: 3})
    vector = {0: 3, 1: 1}
    assert space.reduce(vector) == 2 and vector == {1: -7}


def test_rowspace_fully_reduced_invariant():
    space, oracle = RowSpace(), RowSpaceByCopies()
    for v in ({1: 2, 2: 2}, {0: -3, 1: 3}, {2: 5, 3: 5}, {1: 4, 3: -6}):
        space.add(v)
        oracle.add({k: Fraction(c) for k, c in v.items()})
        assert_integer_rows(space)
        assert ordered(rational(space)) == ordered(oracle)
    for pivot, row in rational(space).rows.items():
        assert row[pivot] == 1


def test_add_keeps_a_copy_of_the_callers_dict():
    space = RowSpace()
    first, second = {0: 2, 1: 4}, {1: 3, 2: 1}
    assert space.add(first) and space.add(second)
    assert first == {0: 2, 1: 4} and second == {1: 3, 2: 1}
    rows = {p: dict(r) for p, r in space.rows.items()}
    for vector in (first, second):
        vector[1] = 7
        vector[9] = 1
        vector.pop(2, None)
    assert space.rows == rows
    assert residual(space, {0: 1, 1: 2}) == {}


def test_kernel_and_image_hand_example():
    # columns: v0 = (1,0), v1 = (0,1), v2 = v0 + v1
    labels = [0, 1, 2]
    vectors = [vec((0, 1)), vec((1, 1)), vec((0, 1), (1, 1))]
    kernel, image = rational_kernel_and_image(labels, vectors)
    assert len(image.rows) == 2
    assert len(kernel) == 1
    combo = kernel[0]
    total = {}
    for lab, c in combo.items():
        total = vec_add(total, vectors[labels.index(lab)], c)
    assert total == {}


def test_kernel_of_zero_map():
    labels = [0, 1]
    kernel, image = rational_kernel_and_image(labels, [{}, {}])
    assert len(image.rows) == 0
    assert len(kernel) == 2


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_rank_nullity(rows):
    labels = list(range(len(rows)))
    vectors = [
        {j: Fraction(v) for j, v in enumerate(r) if v} for r in rows
    ]
    kernel, image = rational_kernel_and_image(labels, vectors)
    assert len(kernel) + len(image.rows) == len(rows)
    oracle = RowSpaceByCopies()
    for v in vectors:
        oracle.add(v)
    assert list(image.rows.items()) == list(oracle.rows.items())
    for combo in kernel:
        total = {}
        for lab, c in combo.items():
            total = vec_add(total, vectors[lab], c)
        assert total == {}


COEFF = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
)


def _label(kind, k):
    # monomial-like ints, or tuples of two kinds that sort by their first entry
    return k if kind == "int" else ((0, k) if k < 3 else (1, "abcdef"[k]))


@st.composite
def sparse_vectors(draw, coeff=COEFF, max_vectors=8, kinds=("int", "tuple")):
    """Sparse rational vectors: fresh ones, zero ones, and combinations of
    earlier ones, so that dependent vectors and unit pivots both occur.
    ``kernel_and_image`` takes int entries alone: its tests draw ``kinds=INT``."""
    kind = draw(st.sampled_from(kinds))

    def fresh():
        entries = draw(st.dictionaries(st.integers(0, 5), coeff, max_size=4))
        return {_label(kind, k): v for k, v in entries.items()}

    vectors = []
    for _ in range(draw(st.integers(0, max_vectors))):
        how = draw(st.sampled_from(["fresh", "fresh", "combination", "zero"]))
        if how == "zero":
            vectors.append({})
        elif how == "combination" and vectors:
            a, b = (draw(st.sampled_from(vectors)) for _ in range(2))
            vectors.append(vec_add(vec_add({}, a, draw(coeff)), b, draw(coeff)))
        else:
            vectors.append(fresh())
    probes = [fresh() for _ in range(draw(st.integers(0, 3)))]
    return vectors, probes


INT = ("int",)


def ordered(space):
    """Rows with the order of the pivots and of every row's entries."""
    return [(p, list(r.items())) for p, r in space.rows.items()]


@given(sparse_vectors(kinds=INT), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_copying_oracle(case, rng):
    vectors, probes = case
    labels = list(range(len(vectors)))
    rng.shuffle(labels)  # tags need not sort in insertion order
    kernel, image = rational_kernel_and_image(labels, vectors)
    kernel_oracle, image_oracle = kernel_and_image_by_copies(labels, vectors)
    assert [list(c.items()) for c in kernel] == [list(c.items()) for c in kernel_oracle]
    assert ordered(image) == ordered(image_oracle)
    space, oracle = RowSpace(), RowSpaceByCopies()
    for v in vectors:
        assert space.add(as_ints(v)) == bool(oracle.add(v))
        assert ordered(rational(space)) == ordered(oracle)
    for p in probes + vectors:
        # the integer residual is the rational one, in the same entry order
        den = lcm(*(v.denominator for v in p.values()))
        got = {k: v / den for k, v in residual(space, as_ints(p)).items()}
        assert list(got.items()) == list(oracle.reduce(p).items())


# Numerators up to 10^6 and denominators up to 97: integer rows grow, carry a
# gcd content, and meet negative pivots.
WIDE_COEFF = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 97),
)


@given(sparse_vectors(WIDE_COEFF, max_vectors=12))
@settings(max_examples=150, deadline=None)
def test_the_holder_index_names_exactly_the_rows_holding_each_label(case):
    # on int and tuple labels alike, with the rows of the copying oracle
    vectors, _ = case
    space, oracle = RowSpace(), RowSpaceByCopies()
    for v in vectors:
        space.add(as_ints(v))
        oracle.add(v)
        labels = set(space.holders).union(*space.rows.values())
        for k in labels:
            assert space.holders.get(k, set()) == {p for p, r in space.rows.items() if k in r}
        assert_integer_rows(space)
        assert ordered(rational(space)) == ordered(oracle)


@given(sparse_vectors(WIDE_COEFF, max_vectors=12, kinds=INT))
@settings(max_examples=150, deadline=None)
def test_kernel_and_images_space_holds_no_tags_holders(case):
    # kernel_and_image's space holds its entries' holders and no tag's: its
    # rows hold tags, at top and above, but a tag never pivots
    vectors, _ = case
    spaces = []

    class RecordedRowSpace(RowSpace):
        def __init__(self, tags=None):
            super().__init__(tags)
            spaces.append(self)

    with mock.patch.object(linalg, "RowSpace", RecordedRowSpace):
        kernel_and_image(list(range(len(vectors))), integer_vectors(vectors))
    (space,) = spaces
    top = max(set().union(*vectors), default=-1) + 1
    assert space.tags == top and space.holders.keys() <= set(range(top))
    for k in range(top):
        assert space.holders.get(k, set()) == {p for p, r in space.rows.items() if k in r}


def assert_same_kernel_and_image(labels, vectors):
    """Integers out of the elimination, and through the ``Fraction`` view
    entries in the same order and every value a ``Fraction``, as the copying
    oracle gives them for the rational ``vectors``."""
    int_kernel, int_image = kernel_and_image(labels, integer_vectors(vectors))
    for combo, scale in int_kernel:
        assert type(scale) is int and scale > 0
        assert all(type(v) is int for v in combo.values())
    for pivot, row in int_image.items():
        assert row[pivot] > 0
        assert all(type(v) is int for v in row.values())
    kernel, image = fraction_view(int_kernel, int_image)
    kernel_oracle, image_oracle = kernel_and_image_by_copies(labels, vectors)
    assert [list(c.items()) for c in kernel] == [list(c.items()) for c in kernel_oracle]
    assert ordered(image) == ordered(image_oracle)
    values = [v for c in kernel for v in c.values()]
    values += [v for r in image.rows.values() for v in r.values()]
    assert all(type(v) is Fraction for v in values)


@given(sparse_vectors(WIDE_COEFF, max_vectors=12, kinds=INT),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_elimination_with_wide_coefficients_matches_the_copying_oracle(case, rng):
    vectors, _ = case
    labels = list(range(len(vectors)))
    rng.shuffle(labels)
    assert_same_kernel_and_image(labels, vectors)


@given(sparse_vectors(WIDE_COEFF, max_vectors=12, kinds=INT), st.integers(1, 10**6),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_a_common_scalar_changes_neither_kernel_nor_image(case, s, rng):
    # cohomology hands kernel_and_image D's integer images, den() times the
    # rational ones
    vectors, _ = case
    labels = list(range(len(vectors)))
    rng.shuffle(labels)
    ints = integer_vectors(vectors)
    scaled = [{k: s * v for k, v in vec.items()} for vec in ints]
    kernel, image = fraction_view(*kernel_and_image(labels, ints))  # consumes ints
    scaled_kernel, scaled_image = fraction_view(*kernel_and_image(labels, scaled))
    assert [list(c.items()) for c in scaled_kernel] == [list(c.items()) for c in kernel]
    assert ordered(scaled_image) == ordered(image)


@pytest.mark.parametrize(
    "vectors",
    [
        [],
        [{}, {}, {}],
        [vec((2, Fraction(-3, 7)), (0, Fraction(10**6, 97)))],
        [{}],
    ],
    ids=["no-labels", "all-zero", "single", "single-zero"],
)
def test_elimination_edge_inputs_match_the_copying_oracle(vectors):
    assert_same_kernel_and_image(list(range(len(vectors))), vectors)


def test_an_empty_vector_is_its_own_labels_kernel_combination_unreduced():
    # each empty vector is ({label: 1}, 1) in its place among the kernel
    # combinations, and only the others are reduced
    labels = [12, 11, 2, 10, 1]
    vectors = [{}, vec((0, 2), (1, 3)), {}, vec((0, 4), (1, 6)), {}]
    reduced = []

    class RecordedRowSpace(RowSpace):
        def reduce(self, vec):
            reduced.append(dict(vec))
            return super().reduce(vec)

    with mock.patch.object(linalg, "RowSpace", RecordedRowSpace):
        kernel, _ = kernel_and_image(labels, integer_vectors(vectors))
    assert len(reduced) == 2
    assert [kernel[i] for i in (0, 1, 3)] == [({12: 1}, 1), ({2: 1}, 1), ({1: 1}, 1)]
    assert all(type(v) is int for c, scale in kernel for v in (*c.values(), scale))
    assert_same_kernel_and_image(labels, vectors)


@given(sparse_vectors(WIDE_COEFF, max_vectors=12, kinds=INT))
@settings(max_examples=150, deadline=None)
def test_image_rows_are_the_image_primitive_over_its_entries(case):
    # the same pivots, dict orders and fraction view as kernel_and_image's
    # image, each row divided by the gcd of its own entries
    vectors, _ = case
    ints = integer_vectors(vectors)
    rows = image_rows([dict(v) for v in ints])  # it consumes its vectors
    image = kernel_and_image(list(range(len(ints))), ints)[1]
    assert ordered(fraction_view([], rows)[1]) == ordered(fraction_view([], image)[1])
    assert ordered(fraction_view([], rows)[1]) == ordered(kernel_and_image_by_copies(
        list(range(len(vectors))), vectors)[1])
    for pivot, row in rows.items():
        assert row[pivot] > 0 and gcd(*row.values()) == 1
        assert all(type(v) is int for v in row.values())


def test_a_new_pivot_held_by_several_rows_is_eliminated_from_each():
    # {1: 1, 2: 1} puts entry 2 into the row of pivot 0, so pivot 2 is then
    # held by three rows, and pivot 3 by the rows that pivot 2 filled in
    vectors = [vec((0, 1), (1, 1)), vec((1, 1), (2, 1)), vec((3, 1), (2, 2)),
               vec((2, 1), (4, 3)), vec((3, 7)), vec((0, 3), (3, 1), (4, 1))]
    assert_same_kernel_and_image(list(range(6)), vectors)
    kernel, image = rational_kernel_and_image(list(range(6)), vectors)
    assert list(image.rows) == [0, 1, 2, 3, 4]
    for pivot, row in image.rows.items():
        assert row[pivot] == 1 and not (row.keys() & image.rows.keys()) - {pivot}
    assert len(kernel) == 1


@pytest.mark.parametrize("n_labels,n_vectors", [(3, 2), (2, 3), (0, 1), (1, 0)])
def test_kernel_and_image_rejects_mismatched_lengths(n_labels, n_vectors):
    with pytest.raises(ValueError):
        # distinct dicts, since it consumes its vectors
        kernel_and_image(list(range(n_labels)), [{0: 1} for _ in range(n_vectors)])
