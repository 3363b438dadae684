"""Exact linear algebra on sparse vectors keyed by hashable labels.

Vectors are dicts label -> coefficient with no zero entries; labels
(monomials) must sort deterministically.  Pivots are always the smallest
label and bases are kept fully reduced, so every reduction is canonical and
reproducible, and one sweep over a vector's own labels reduces it.  Each
vector is reduced once, in place in one copy of it.  ``RowSpace`` subtracts
its rational pivot rows, of pivot coefficient 1, into that copy.
``kernel_and_image`` eliminates fraction-free instead and returns integers:
its image rows are integer multiples of the same fully reduced rows, and a
caller divides by a row's pivot entry, or by a combination's scale, only
where it needs a ``Fraction``.  ``_reduce`` reduces an integer vector
against such rows.
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


def _eliminate(vec: dict, row: dict, pivot) -> int:
    """``vec = p * vec - q * row`` in place, with ``p / q = t / c`` in lowest
    terms, for the entries ``c`` of ``vec`` and ``t > 0`` of ``row`` at the
    pivot of ``row``; drops entries that cancel and returns ``p > 0``."""
    c, t = vec[pivot], row[pivot]
    g = gcd(c, t)
    p = t // g
    if p != 1:
        for k in vec:
            vec[k] *= p
    _subtract(vec, c // g, row)
    return p


def _reduce(vec: dict, rows: dict) -> int:
    """Reduce the integer ``vec`` in place modulo ``rows`` (pivot -> fully
    reduced integer row, positive at its pivot) in one sweep of its labels, as
    ``RowSpace.reduce`` does in rationals; returns the factor ``vec`` was
    multiplied by, so that ``vec`` over it is the rational residual."""
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


def kernel_and_image(labels: list, vectors: list[dict]):
    """Nullspace combinations and image rows of the map label_i -> vectors[i],
    in integers.

    Returns (kernel, image).  ``kernel`` lists ``(combination, scale)``: an
    integer {label: coeff} combination and a ``scale > 0`` with
    ``sum coeff / scale * vector(label) = 0``.  ``image`` maps each pivot
    to an integer row whose entry at the pivot is positive: that entry times
    the image's fully reduced rational row.  Dividing by ``scale`` or the
    pivot entry gives the values, and dict orders, of the rational
    elimination.  Raises ``ValueError`` unless there is one label per vector.

    Entries are renamed to ints that sort as they do, and labels to ints
    after every entry, in label order, so the augmented vectors' pivots
    always sit in the vector part, whose fully reduced rows are then the
    image's basis; dicts then hash small ints.  Each augmented vector is
    scaled by the lcm of its denominators and each step is
    ``vec = p * vec - q * row``, against rows kept as primitive integer
    multiples of the fully reduced rows: a kernel combination is what is
    left of the tags, over the product ``scale`` of the factors ``p``.
    ``holders`` maps each entry to the pivots of the rows holding it, so a
    new pivot is eliminated from those rows alone, each independently of the
    others, exactly as a scan of every row would.
    """
    entries = sorted(set().union(*vectors))
    names = entries + sorted(labels)
    n = len(entries)
    entry_id = {k: i for i, k in enumerate(entries)}
    tag_id = {label: i for i, label in enumerate(names[n:], n)}
    rows: dict[int, dict[int, int]] = {}  # pivot -> primitive row, pivot entry > 0
    holders: dict[int, set[int]] = {}
    kernel: list[tuple[dict, int]] = []
    for label, vec in zip(labels, vectors, strict=True):
        scale = lcm(*(v.denominator for v in vec.values()))
        aug = {entry_id[k]: v.numerator * (scale // v.denominator) for k, v in vec.items()}
        aug[tag_id[label]] = scale
        scale *= _reduce(aug, rows)
        pivot = min(aug)
        if pivot >= n:  # only tags are left
            kernel.append(({names[k]: v for k, v in aug.items()}, scale))
            continue
        _make_primitive(aug, pivot)
        held = [k for k in aug if k < n]
        for row_pivot in holders.pop(pivot, ()):
            r = rows[row_pivot]
            _eliminate(r, aug, pivot)
            _make_primitive(r, row_pivot)
            for k in held:
                if k in r:
                    holders.setdefault(k, set()).add(row_pivot)
                elif k in holders:
                    holders[k].discard(row_pivot)
        for k in held:
            holders.setdefault(k, set()).add(pivot)
        rows[pivot] = aug
    return kernel, {
        names[p]: {names[k]: v for k, v in row.items() if k < n} for p, row in rows.items()
    }
