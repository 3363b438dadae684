"""Exact linear algebra on sparse vectors keyed by hashable labels.

Vectors are dicts label -> Fraction with no zero entries; labels (monomials)
must sort deterministically.  Pivots are always the smallest label and bases
are kept fully reduced, so every reduction is canonical and reproducible.
Each vector is reduced once, in place in one copy of it.  ``RowSpace``
subtracts its rational pivot rows into that copy; ``kernel_and_image``
eliminates fraction-free instead, on integer rows that are primitive
multiples of the same fully reduced rows, and turns its results back into
``Fraction`` only at the output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _subtract(vec: dict, scale: Fraction | int, row: dict) -> None:
    """``vec -= scale * row`` in place, dropping entries that cancel."""
    for k, v in row.items():
        prev = vec.get(k)
        if prev is None:
            vec[k] = -scale * v
        else:
            nv = prev - scale * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]


class RowSpace:
    """Incrementally built, fully reduced row space."""

    def __init__(self):
        self.rows: dict = {}  # pivot label -> row dict, pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        """Residual of ``vec`` after reduction modulo the space, in a new dict.

        Full reduction of the basis means no row contains another row's
        pivot, so one sweep over the original labels suffices.
        """
        out = dict(vec)
        rows = self.rows
        for k in sorted(vec):
            c = out.get(k)
            if c is not None and k in rows:
                _subtract(out, c, rows[k])
        return out

    def insert(self, residual: dict) -> None:
        """Insert a nonzero vector already reduced modulo the space; the space
        keeps ``residual`` itself as a row when its pivot coefficient is 1."""
        pivot = min(residual)
        c = residual[pivot]
        row = residual if c == 1 else {k: v / c for k, v in residual.items()}
        for r in self.rows.values():
            s = r.get(pivot)
            if s is not None:
                _subtract(r, s, row)
        self.rows[pivot] = row

    def add(self, vec: dict) -> dict:
        """Insert ``vec``; returns the residual (empty if already in span),
        a dict of the caller's own that the space does not keep."""
        residual = self.reduce(vec)
        if residual:
            self.insert(dict(residual))
        return residual

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _eliminate(vec: dict, c: int, row: dict, t: int) -> int:
    """``vec = p * vec - q * row`` in place, with ``p / q = t / c`` in lowest
    terms, for the entry ``c`` of ``vec`` at the pivot of ``row``, whose
    coefficient there is ``t > 0``; drops entries that cancel and returns
    ``p > 0``."""
    g = gcd(c, t)
    p = t // g
    if p != 1:
        for k in vec:
            vec[k] *= p
    _subtract(vec, c // g, row)
    return p


def _make_primitive(vec: dict, pivot) -> None:
    """Divide ``vec`` in place by the gcd of its entries, signed so that the
    entry at ``pivot`` becomes positive."""
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for k in vec:
            vec[k] //= g


def kernel_and_image(labels: list, vectors: list[dict]):
    """Nullspace combinations and image space of the map label_i -> vectors[i].

    Returns (kernel, image): kernel is a list of {label: coeff} combinations
    with ``sum coeff * vector(label) = 0``, image the RowSpace of the vectors.
    Augmented labels sort vector entries before tags so pivots always sit in
    the vector part, whose fully reduced rows are then the image's basis.
    Raises ``ValueError`` unless there is one label per vector.

    The elimination runs on integers: each augmented vector is scaled by the
    lcm of its denominators, each step is ``vec = p * vec - q * row``, and
    each tracked row is a primitive integer multiple of the fully reduced
    rational row, so a kernel combination is its residual divided by the
    product ``scale`` of those factors, and an image row is its row divided
    by its pivot coefficient.
    """
    rows: dict = {}  # (0, pivot) -> primitive integer row, pivot entry > 0
    kernel: list[dict] = []
    for label, vec in zip(labels, vectors, strict=True):
        scale = lcm(*(v.denominator for v in vec.values()))
        aug = {(0, k): v.numerator * (scale // v.denominator) for k, v in vec.items()}
        aug[(1, label)] = scale
        for k in sorted(aug):
            c = aug.get(k)
            if c is not None and k in rows:
                row = rows[k]
                scale *= _eliminate(aug, c, row, row[k])
        pivot = min(aug)
        if pivot[0] == 1:  # only tags are left
            kernel.append({k[1]: Fraction(v, scale) for k, v in aug.items()})
            continue
        _make_primitive(aug, pivot)
        for row_pivot, r in rows.items():
            s = r.get(pivot)
            if s is not None:
                _eliminate(r, s, aug, aug[pivot])
                _make_primitive(r, row_pivot)
        rows[pivot] = aug
    image = RowSpace()
    for (_, pivot), row in rows.items():
        t = row[(0, pivot)]
        image.rows[pivot] = {k[1]: Fraction(v, t) for k, v in row.items() if k[0] == 0}
    return kernel, image
