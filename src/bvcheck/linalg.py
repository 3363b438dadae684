"""Exact rational linear algebra on sparse vectors keyed by hashable labels.

Vectors are dicts label -> Fraction with no zero entries; labels (monomials)
must sort deterministically.  Pivots are always the smallest label and bases
are kept fully reduced, so every reduction is canonical and reproducible.
Each vector is reduced once, in place in one copy of it: pivot rows are
subtracted into that copy, and ``kernel_and_image`` inserts the residual it
has already reduced instead of reducing it again.
"""

from __future__ import annotations

from fractions import Fraction


def _subtract(vec: dict, scale: Fraction, row: dict) -> None:
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


def kernel_and_image(labels: list, vectors: list[dict]):
    """Nullspace combinations and image space of the map label_i -> vectors[i].

    Returns (kernel, image): kernel is a list of {label: coeff} combinations
    with ``sum coeff * vector(label) = 0``, image the RowSpace of the vectors.
    Augmented labels sort vector entries before tags so pivots always sit in
    the vector part, whose fully reduced rows are then the image's basis.
    """
    tracked = RowSpace()
    kernel: list[dict] = []
    for label, vec in zip(labels, vectors):
        aug = {(0, k): v for k, v in vec.items()}
        aug[(1, label)] = Fraction(1)
        residual = tracked.reduce(aug)
        if all(k[0] == 1 for k in residual):
            kernel.append({k[1]: v for k, v in residual.items()})
        else:
            tracked.insert(residual)
    image = RowSpace()
    for (_, pivot), row in tracked.rows.items():
        image.rows[pivot] = {k[1]: v for k, v in row.items() if k[0] == 0}
    return kernel, image
