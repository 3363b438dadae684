"""Exact rational linear algebra on sparse vectors keyed by hashable labels.

Vectors are dicts label -> Fraction with no zero entries; labels (monomials)
must sort deterministically.  Pivots are always the smallest label and bases
are kept fully reduced, so every reduction is canonical and reproducible.
"""

from __future__ import annotations

from fractions import Fraction


def vec_add(a: dict, b: dict, scale: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + scale * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


class RowSpace:
    """Incrementally built, fully reduced row space."""

    def __init__(self):
        self.rows: dict = {}  # pivot label -> row dict, pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        """Residual of ``vec`` after reduction modulo the space.

        Full reduction of the basis means no row contains another row's
        pivot, so one sweep over the original labels suffices.
        """
        vec = dict(vec)
        for k in sorted(vec):
            if k in vec and k in self.rows:
                vec = vec_add(vec, self.rows[k], -vec[k])
        return vec

    def add(self, vec: dict) -> dict:
        """Insert ``vec``; returns the residual (empty if already in span)."""
        residual = self.reduce(vec)
        if residual:
            pivot = min(residual)
            inv = Fraction(1) / residual[pivot]
            row = {k: v * inv for k, v in residual.items()}
            for p, r in list(self.rows.items()):
                if pivot in r:
                    self.rows[p] = vec_add(r, row, -r[pivot])
            self.rows[pivot] = row
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
            tracked.add(residual)
    image = RowSpace()
    for (_, pivot), row in tracked.rows.items():
        image.rows[pivot] = {k[1]: v for k, v in row.items() if k[0] == 0}
    return kernel, image
