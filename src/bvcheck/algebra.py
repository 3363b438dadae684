"""Free graded-commutative algebra on finitely many Z-graded generators.

An algebra is polynomial on its even generators and exterior on its odd ones.
Monomials are exponent vectors over a fixed generator table; the table order
is the canonical monomial order, so every element has a unique normal form
and equality is exact.  Coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import lcm

Monomial = tuple[int, ...]
Coeff = Fraction


class AlgebraError(ValueError):
    """Domain error: mismatched tables, bad exponents, inhomogeneous input..."""


class GeneratorTable:
    """Ordered list of generator names with their integer degrees, equal and
    hashed by both; ``odd`` is derived from them.  Never mutate a table."""

    def __init__(self, names: tuple[str, ...], degrees: tuple[int, ...]):
        if len(names) != len(degrees):
            raise AlgebraError("GeneratorTable: names/degrees length mismatch")
        if len(set(names)) != len(names):
            raise AlgebraError("GeneratorTable: duplicate generator names")
        self.names = names
        self.degrees = degrees
        # indices of the odd generators, ascending; only these carry signs
        self.odd = tuple(i for i, d in enumerate(degrees) if d % 2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def parity(self, i: int) -> int:
        return self.degrees[i] % 2

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(operator.mul, mono, self.degrees))

    def monomial_parity(self, mono: Monomial) -> int:
        return sum(mono[i] for i in self.odd) % 2

    def check_monomial(self, mono: Monomial) -> None:
        if len(mono) != len(self.names):
            raise AlgebraError(f"monomial {mono} has wrong length for table")
        for i, e in enumerate(mono):
            if e < 0:
                raise AlgebraError(f"negative exponent in {mono}")
            if e > 1 and self.parity(i):
                raise AlgebraError(
                    f"odd generator {self.names[i]!r} with exponent {e} > 1"
                )


def monomial_mul(table: GeneratorTable, a: Monomial, b: Monomial):
    """Product of two normal-form monomials: (sign, monomial) or None if zero.

    The sign is the int +1 or -1.  It counts crossings of odd factors of ``b``
    moving left past odd factors of ``a`` with larger table index.
    """
    crossings = 0
    b_odd_below = 0  # odd factors of b at smaller table index than i
    for i in table.odd:
        if a[i]:
            if b[i]:
                return None  # odd generator squared
            crossings += b_odd_below
        b_odd_below += b[i]
    mono = tuple(map(operator.add, a, b))
    return (-1 if crossings % 2 else 1), mono


class Element:
    """Finite rational linear combination of monomials, in normal form.

    ``coeffs`` is never changed after construction, so a nonzero
    parity-homogeneous element keeps, once asked for, its ``int_form``: the
    parity, scale and integer coefficients that the bracket kernels read.
    """

    __slots__ = ("table", "coeffs", "_int_form")

    def __init__(self, table: GeneratorTable, coeffs: Mapping[Monomial, Coeff] | None = None):
        self.table = table
        clean: dict[Monomial, Coeff] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    table.check_monomial(mono)
                    clean[mono] = c
        self.coeffs = clean
        self._int_form: tuple[int, int, dict[Monomial, int]] | None = None

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "Element":
        return cls(table)

    @classmethod
    def one(cls, table: GeneratorTable) -> "Element":
        return cls(table, {(0,) * len(table): Fraction(1)})

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "Element":
        i = table.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(table)))
        return cls(table, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, table: GeneratorTable, mono: Monomial, coeff: Coeff = Fraction(1)) -> "Element":
        return cls(table, {tuple(mono): Fraction(coeff)})

    # --- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.table == other.table
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # equal elements have equal supports; __eq__ compares the coefficients
        return hash(frozenset(self.coeffs))

    def items(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(sorted(self.coeffs.items()))

    def degree(self) -> int:
        """Degree of a homogeneous element; raises if inhomogeneous or zero."""
        degs = {self.table.monomial_degree(m) for m in self.coeffs}
        if len(degs) != 1:
            raise AlgebraError(
                "degree of a non-homogeneous or zero element; decompose first"
            )
        return degs.pop()

    def parity(self) -> int:
        """Parity of a parity-homogeneous element; raises otherwise."""
        parities = map(self.table.monomial_parity, self.coeffs)
        parity = next(parities, None)
        if parity is None or any(p != parity for p in parities):
            raise AlgebraError("parity of a mixed-parity or zero element")
        return parity

    def int_form(self) -> tuple[int, int, dict[Monomial, int]]:
        """``(parity, scale, {monomial: int})``: ``scale`` is the lcm of the
        coefficient denominators and the dict is ``scale`` times the element.
        Built on the first call and kept; raises like ``parity`` on a zero or
        mixed-parity element, and then keeps nothing.  The dict is shared by
        every caller: read it, never mutate it."""
        form = self._int_form
        if form is None:
            parity = self.parity()
            scale = lcm(*(c.denominator for c in self.coeffs.values()))
            ints = {m: c.numerator * (scale // c.denominator) for m, c in self.coeffs.items()}
            form = self._int_form = parity, scale, ints
        return form

    # --- arithmetic -------------------------------------------------------

    def _check_table(self, other: "Element") -> None:
        if self.table is not other.table and self.table != other.table:
            raise AlgebraError("elements over different generator tables")

    def __add__(self, other: "Element") -> "Element":
        self._check_table(other)
        coeffs = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            prev = coeffs.get(mono)
            coeffs[mono] = c if prev is None else prev + c
        return Element(self.table, coeffs)

    def __sub__(self, other: "Element") -> "Element":
        self._check_table(other)
        coeffs = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            prev = coeffs.get(mono)
            coeffs[mono] = -c if prev is None else prev - c
        return Element(self.table, coeffs)

    def __neg__(self) -> "Element":
        return Element(self.table, {m: -c for m, c in self.coeffs.items()})

    def scale(self, s: Coeff) -> "Element":
        s = Fraction(s)
        return Element(self.table, {m: s * c for m, c in self.coeffs.items()})

    def __rmul__(self, s) -> "Element":
        if isinstance(s, (int, Fraction)):
            return self.scale(s)
        return NotImplemented

    def __mul__(self, other) -> "Element":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_table(other)
        coeffs: dict[Monomial, Coeff] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                sm = monomial_mul(self.table, ma, mb)
                if sm is None:
                    continue
                sign, mono = sm
                c = ca * cb if sign > 0 else -(ca * cb)
                prev = coeffs.get(mono)
                coeffs[mono] = c if prev is None else prev + c
        return Element(self.table, coeffs)

    # --- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Element({format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


def graded_monomials(table: GeneratorTable, max_degree: int) -> Iterator[tuple[Monomial, int]]:
    """``(monomial, degree)`` for every normal-form monomial with total
    exponent sum <= max_degree, by total exponent, then by exponent tuple.
    Odd generators contribute exponent 0 or 1.  ``layers[s]`` holds the
    suffixes of total ``s`` in tuple order, with their degrees; each is
    extended by the generator before it, exponent ascending, so none is sorted.
    """
    layers = [[((), 0)]] + [[] for _ in range(max_degree)] if max_degree >= 0 else []
    for i in reversed(range(len(table))):
        cap, deg = 1 if table.parity(i) else max_degree, table.degrees[i]
        layers = [
            [((e,) + m, e * deg + g) for e in range(min(cap, s) + 1) for m, g in layers[s - e]]
            for s in range(len(layers))
        ]
    for layer in layers:
        yield from layer


def enumerate_monomials(table: GeneratorTable, max_degree: int) -> list[Monomial]:
    """All normal-form monomials with total exponent sum <= max_degree, in
    ``graded_monomials`` order: by total exponent, then by exponent tuple."""
    return [m for m, _ in graded_monomials(table, max_degree)]


# --- parsing / formatting (shared with the CLI report round-trip) ----------

def format_monomial(table: GeneratorTable, mono: Monomial) -> str:
    parts = []
    for name, e in zip(table.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_element(a: Element) -> str:
    if a.is_zero():
        return "0"
    chunks = []
    for mono, c in a.items():
        mstr = format_monomial(a.table, mono)
        if mstr == "1":
            term = str(c)
        elif c == 1:
            term = mstr
        elif c == -1:
            term = f"-{mstr}"
        else:
            term = f"{c}*{mstr}"
        chunks.append(term)
    out = chunks[0]
    for term in chunks[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def parse_element(table: GeneratorTable, text: str) -> Element:
    """Inverse of :func:`format_element`; also accepts hand-written input."""
    text = text.strip()
    if text in ("0", ""):
        return Element.zero(table)
    # split on top-level + and - (no parentheses in the grammar); a sign
    # right after e/E stays in a numeric factor such as 1e-3, but not in a
    # generator name such as xe
    terms: list[str] = []
    buf = ""
    for i, ch in enumerate(text):
        prev = text[i - 1]
        if (
            ch in "+-"
            and buf.strip()
            and prev not in "/^*+-"
            and not (prev in "eE" and buf.rpartition("*")[2].lstrip(" +-")[:1].isdigit())
        ):
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    total = Element.zero(table)
    for term in terms:
        term = term.strip()
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        coeff = sign
        mono = [0] * len(table)
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise AlgebraError(f"empty factor in element term {term!r}")
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                name, _, exp = factor.partition("^")
                e = int(exp)
            else:
                name, e = factor, 1
            mono[table.index(name.strip())] += e
        table.check_monomial(tuple(mono))
        total = total + Element.monomial(table, tuple(mono), coeff)
    return total
