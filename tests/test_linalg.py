from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvcheck.linalg import RowSpace, kernel_and_image
from oracles import RowSpaceByCopies, kernel_and_image_by_copies, vec_add


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


def test_mutating_the_residual_of_add_leaves_the_space_alone():
    space = RowSpace()
    first = space.add(vec((0, 1), (1, 2)))  # unit pivot: kept as it is
    second = space.add(vec((1, 3), (2, 1)))  # pivot 3: divided through
    rows = {p: dict(r) for p, r in space.rows.items()}
    for residual in (first, second):
        residual[1] = Fraction(7)
        residual[9] = Fraction(1)
        residual.pop(2, None)
    assert space.rows == rows
    assert space.reduce(vec((0, 1), (1, 2))) == {}


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


COEFF = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
)


def _label(kind, k):
    # monomial-like ints, or the (0, k) / (1, label) tags kernel_and_image uses
    return k if kind == "int" else ((0, k) if k < 3 else (1, "abcdef"[k]))


@st.composite
def sparse_vectors(draw):
    """Sparse rational vectors: fresh ones, zero ones, and combinations of
    earlier ones, so that dependent vectors and unit pivots both occur."""
    kind = draw(st.sampled_from(["int", "tuple"]))

    def fresh():
        entries = draw(st.dictionaries(st.integers(0, 5), COEFF, max_size=4))
        return {_label(kind, k): v for k, v in entries.items()}

    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        how = draw(st.sampled_from(["fresh", "fresh", "combination", "zero"]))
        if how == "zero":
            vectors.append({})
        elif how == "combination" and vectors:
            a, b = (draw(st.sampled_from(vectors)) for _ in range(2))
            vectors.append(vec_add(vec_add({}, a, draw(COEFF)), b, draw(COEFF)))
        else:
            vectors.append(fresh())
    probes = [fresh() for _ in range(draw(st.integers(0, 3)))]
    return vectors, probes


def ordered(space):
    """Rows with the order of the pivots and of every row's entries."""
    return [(p, list(r.items())) for p, r in space.rows.items()]


@given(sparse_vectors(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_elimination_matches_the_copying_oracle(case, rng):
    vectors, probes = case
    labels = list(range(len(vectors)))
    rng.shuffle(labels)  # tags need not sort in insertion order
    kernel, image = kernel_and_image(labels, vectors)
    kernel_oracle, image_oracle = kernel_and_image_by_copies(labels, vectors)
    assert [list(c.items()) for c in kernel] == [list(c.items()) for c in kernel_oracle]
    assert ordered(image) == ordered(image_oracle)
    space, oracle = RowSpace(), RowSpaceByCopies()
    for v in vectors:
        assert list(space.add(v).items()) == list(oracle.add(v).items())
        assert ordered(space) == ordered(oracle)
    for p in probes + vectors:
        assert list(space.reduce(p).items()) == list(oracle.reduce(p).items())
