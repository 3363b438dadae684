"""Exact linear algebra in integers on sparse vectors keyed by hashable labels.

Vectors are dicts label -> int with no zero entries; labels must sort
deterministically, and ``kernel_and_image`` takes int labels, such as packed
monomials, which sort as the monomials they stand for.  The one
elimination is fraction-free: a ``RowSpace`` keeps primitive integer rows,
positive at their pivots, the smallest labels.  The rows are kept fully
reduced, so every reduction is canonical and one sweep over a vector's own
labels does it.  Each step is
``vec = p * vec - q * row``: a reduced vector is an integer multiple of the
rational residual, and a row of the rational row of pivot coefficient 1, so
a caller divides only where it needs a ``Fraction``.
"""

from __future__ import annotations

from math import gcd


def _subtract(vec: dict, scale: int, row: dict, holders=None, vec_pivot=None) -> None:
    """``vec -= scale * row`` in place, dropping entries that cancel; with
    ``holders`` (a set per label that can pivot), ``vec_pivot`` joins the
    holders of each such label ``vec`` gains and leaves those of each it
    loses."""
    for k, v in row.items():
        prev = vec.get(k)
        if prev is None:
            vec[k] = -scale * v
            if holders is not None and k in holders:
                holders[k].add(vec_pivot)
        else:
            nv = prev - scale * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]
                if holders is not None and k in holders:
                    holders[k].discard(vec_pivot)


def _eliminate(vec: dict, row: dict, pivot, holders=None, vec_pivot=None) -> int:
    """``vec = p * vec - q * row`` in place, with ``p / q = t / c`` in lowest
    terms, for the entries ``c`` of ``vec`` and ``t > 0`` of ``row`` at the
    pivot of ``row``; drops entries that cancel, as ``_subtract`` does, and
    returns ``p > 0``."""
    c, t = vec[pivot], row[pivot]
    g = gcd(c, t)
    p = t // g
    if p != 1:
        for k in vec:
            vec[k] *= p
    _subtract(vec, c // g, row, holders, vec_pivot)
    return p


def _reduce(vec: dict, rows: dict) -> int:
    """Reduce the integer ``vec`` in place modulo ``rows`` (pivot -> fully
    reduced integer row, positive at its pivot) in one sweep of its labels;
    returns the factor ``vec`` was multiplied by, so that ``vec`` over it is
    the rational residual."""
    scale = 1
    for k in sorted(vec):
        if k in vec and k in rows:
            scale *= _eliminate(vec, rows[k], k)
    return scale


def _make_primitive(vec: dict, pivot) -> None:
    """Divide ``vec`` in place by the gcd of its entries, signed so that the
    entry at ``pivot`` becomes positive."""
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for k in vec:
            vec[k] //= g


class RowSpace:
    """Incrementally built, fully reduced integer row space.

    ``rows`` maps each pivot to a primitive integer row, positive at its
    pivot; ``holders`` maps each label to the pivots of the rows holding it,
    so a new pivot is eliminated from those rows alone, each independently
    of the others, exactly as a scan of every row would.  Only a label that
    a row gains or loses in an elimination changes its holders.  With
    ``tags``, the labels ``>= tags`` are tags: no inserted vector may pivot
    at one, so they keep no holders.
    """

    def __init__(self, tags=None):
        self.rows: dict = {}
        self.holders: dict = {}
        self.tags = tags

    def reduce(self, vec: dict) -> int:
        """Reduce ``vec`` in place modulo the space, as ``_reduce`` does."""
        return _reduce(vec, self.rows)

    def insert(self, vec: dict) -> None:
        """Insert a nonzero ``vec`` already reduced modulo the space; the
        space keeps ``vec`` itself, made primitive, as a row."""
        pivot = min(vec)
        _make_primitive(vec, pivot)
        rows, holders = self.rows, self.holders
        held = holders.pop(pivot, ())
        tags = self.tags
        for k in vec:
            if tags is None or k < tags:
                holders.setdefault(k, set()).add(pivot)
        for row_pivot in held:
            r = rows[row_pivot]
            _eliminate(r, vec, pivot, holders, row_pivot)
            _make_primitive(r, row_pivot)
        rows[pivot] = vec

    def add(self, vec: dict) -> bool:
        """Insert a copy of ``vec``; False when it is already in the span."""
        vec = dict(vec)
        self.reduce(vec)
        if vec:
            self.insert(vec)
        return bool(vec)


def kernel_and_image(labels: list[int], vectors: list[dict]):
    """Nullspace combinations and image rows of the map label_i -> vectors[i],
    for integer vectors {entry: int} with int entries, and int labels >= 0.

    Returns (kernel, image).  ``kernel`` lists ``(combination, scale)``: an
    integer {label: coeff} combination and a ``scale > 0`` with
    ``sum coeff / scale * vector(label) = 0``.  ``image`` maps each pivot
    to an integer row whose entry at the pivot is positive: that entry times
    the image's fully reduced rational row.  Dividing by ``scale`` or the
    pivot entry gives the values, and dict orders, of the rational
    elimination.  Raises ``ValueError`` unless there is one label per vector.

    Label ``c`` is tagged as entry ``top + c``, with ``top`` above every
    entry, so the augmented vectors' pivots always sit in the vector part,
    whose fully reduced rows are then the image's basis.  Each vector, its
    tag set to 1, is reduced in place in one ``RowSpace``, so the vectors
    are consumed: a kernel combination is what is left of its tags,
    over the factor ``reduce`` returns, and an empty vector's is its own
    label, unreduced.  A vector of tags alone is never inserted, so the
    space holds no tag's holders.
    """
    top = max(map(max, filter(None, vectors)), default=-1) + 1
    space = RowSpace(tags=top)
    kernel: list[tuple[dict, int]] = []
    for label, vec in zip(labels, vectors, strict=True):
        if not vec:
            kernel.append(({label: 1}, 1))
            continue
        vec[top + label] = 1
        scale = space.reduce(vec)
        if min(vec) >= top:  # only tags are left
            kernel.append(({k - top: v for k, v in vec.items()}, scale))
        else:
            space.insert(vec)
    return kernel, {
        p: {k: v for k, v in row.items() if k < top} for p, row in space.rows.items()
    }


def image_rows(vectors: list[dict]) -> dict:
    """The image of ``vectors`` as ``kernel_and_image`` gives it, in the same
    pivots and dict order, but with no kernel: one untagged ``RowSpace``
    over the vectors themselves, which it consumes, so each row is primitive
    over its entries alone.  Entries may be any labels that sort, as packed
    monomials do; empty vectors are skipped."""
    space = RowSpace()
    for vec in filter(None, vectors):
        space.reduce(vec)
        if vec:
            space.insert(vec)
    return space.rows
