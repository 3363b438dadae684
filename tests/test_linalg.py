from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvcheck.linalg import RowSpace, kernel_and_image, vec_add


def vec(*pairs):
    return {k: Fraction(v) for k, v in pairs if v}


def test_vec_add():
    a = vec((0, 1), (1, 2))
    b = vec((1, -2), (2, 3))
    assert vec_add(a, b) == vec((0, 1), (2, 3))
    assert vec_add(a, a, Fraction(-1)) == {}


def test_rowspace_membership():
    space = RowSpace()
    space.add(vec((0, 1), (1, 1)))
    space.add(vec((1, 1), (2, 1)))
    assert space.dim == 2
    assert space.contains(vec((0, 1), (2, -1)))  # difference of the two rows
    assert not space.contains(vec((2, 1)))
    assert space.add(vec((0, 2), (1, 2))) == {}  # dependent, not added
    assert space.dim == 2


def test_rowspace_reduction_is_canonical():
    space = RowSpace()
    space.add(vec((0, 1), (1, 5)))
    r1 = space.reduce(vec((0, 3), (1, 15), (2, 1)))
    r2 = space.reduce(vec((2, 1)))
    assert r1 == r2 == vec((2, 1))


def test_rowspace_fully_reduced_invariant():
    space = RowSpace()
    space.add(vec((1, 1), (2, 1)))
    space.add(vec((0, 1), (1, 1)))  # pivot 0; must eliminate 1 from nothing
    space.add(vec((2, 1), (3, 1)))
    for pivot, row in space.rows.items():
        assert row[pivot] == 1
        for other in space.rows:
            if other != pivot:
                assert other not in row


def test_kernel_and_image_hand_example():
    # columns: v0 = (1,0), v1 = (0,1), v2 = v0 + v1
    labels = ["a", "b", "c"]
    vectors = [vec((0, 1)), vec((1, 1)), vec((0, 1), (1, 1))]
    kernel, image = kernel_and_image(labels, vectors)
    assert image.dim == 2
    assert len(kernel) == 1
    combo = kernel[0]
    total = {}
    for lab, c in combo.items():
        total = vec_add(total, vectors[labels.index(lab)], c)
    assert total == {}


def test_kernel_of_zero_map():
    labels = [0, 1]
    kernel, image = kernel_and_image(labels, [{}, {}])
    assert image.dim == 0
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
    kernel, image = kernel_and_image(labels, vectors)
    assert len(kernel) + image.dim == len(rows)
    oracle = RowSpace()
    for v in vectors:
        oracle.add(v)
    assert list(image.rows.items()) == list(oracle.rows.items())
    for combo in kernel:
        total = {}
        for lab, c in combo.items():
            total = vec_add(total, vectors[lab], c)
        assert total == {}
