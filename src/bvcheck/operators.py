"""Differential operators on a free graded-commutative algebra, in normal form.

A term is (coefficient, multiplier monomial, derivative multi-index) and acts
as "differentiate, then multiply":

    term(a) = coeff * multiplier * d^alpha(a),

where d^alpha = d_0^{alpha_0} o d_1^{alpha_1} o ... in table order with the
lowest index outermost, and each d_i is the left partial derivative with the
parity of its generator.  Normal forms make composition and the square-zero
check exact and decidable.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, lcm, perm, prod
from operator import lshift, sub, xor

from .algebra import (
    AlgebraError,
    Element,
    GeneratorTable,
    Monomial,
    format_monomial,
    monomial_mul,
)

TermKey = tuple[Monomial, Monomial]  # (multiplier, derivatives)


def _derivative(table: GeneratorTable, alpha, mono: Monomial):
    """d^alpha of a normal-form monomial: (int coeff, monomial) or None.

    ``alpha`` is the derivative's support as (i, alpha_i) pairs, ascending i;
    a pair with alpha_i = 0 changes nothing.  d_i^a takes the coefficient
    m_i! / (m_i - a)! and leaves m_i - a; the higher derivatives act first,
    so an odd d_i crosses every odd factor of the monomial below i, one sign
    each.  Every exponent is checked before anything is built.
    """
    for i, a in alpha:
        if mono[i] < a:
            return None
    degrees = table.degrees
    coeff = 1
    out = list(mono)
    for i, a in alpha:
        out[i] -= a
        if not degrees[i] % 2:
            coeff *= perm(mono[i], a)
        elif a:
            for j in table.odd:
                if j >= i:
                    break
                if mono[j]:
                    coeff = -coeff
    return coeff, tuple(out)


class Operator:
    """Normal-form finite sum of (multiplier x derivative) terms.

    ``terms`` is never changed after construction, so each operator keeps the
    set of its term degrees, built once; its integer terms, which ``compose``
    and ``int_image`` read, built on first use (the lcm ``den()`` of the
    coefficient denominators and, per term, the multiplier, the derivative
    multi-index and its support as (i, alpha_i) pairs and ``den()`` times the
    coefficient as an int); the integer images ``int_image`` computes, each
    monomial differentiated once, which ``apply`` sums and divides by
    ``den()`` once; by tuple of two or more monomials, the integer values of
    the bracket recursion that ``brackets.akman_bracket`` computes on it, so
    sub-tuples shared between calls are evaluated once; by pattern of argument
    parities, the signed unshuffles that ``brackets.koszul_bracket`` sums
    over; its square once asked for; and, by window, the cohomology
    ``structures.cohomology`` builds of it.  All live as long as the operator,
    and each cached dict is shared: read it, never mutate it.
    """

    __slots__ = ("table", "terms", "_degrees", "_int_images", "_int_terms", "_akman",
                 "_koszul_signs", "_square", "_cohomology")

    def __init__(self, table: GeneratorTable, terms: Mapping[TermKey, Fraction] | None = None):
        self.table = table
        clean: dict[TermKey, Fraction] = {}
        degrees: set[int] = set()
        if terms:
            for (mult, deriv), c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                table.check_monomial(mult)
                table.check_monomial(deriv)
                clean[(tuple(mult), tuple(deriv))] = c
                degrees.add(table.monomial_degree(mult) - table.monomial_degree(deriv))
        self.terms = clean
        self._degrees = frozenset(degrees)
        self._int_images: dict[Monomial, dict[Monomial, int]] = {}
        self._int_terms: tuple[int, list] | None = None
        self._akman: dict[tuple[Monomial, ...], dict[Monomial, int]] = {}
        self._koszul_signs: dict[tuple[int, ...], tuple] = {}
        self._square: Operator | None = None
        self._cohomology: dict = {}

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "Operator":
        return cls(table)

    @classmethod
    def identity(cls, table: GeneratorTable) -> "Operator":
        z = (0,) * len(table)
        return cls(table, {(z, z): Fraction(1)})

    @classmethod
    def multiplication(cls, a: Element) -> "Operator":
        z = (0,) * len(a.table)
        return cls(a.table, {(m, z): c for m, c in a.coeffs.items()})

    @classmethod
    def derivative(cls, table: GeneratorTable, name: str, order: int = 1) -> "Operator":
        i = table.index(name)
        z = (0,) * len(table)
        deriv = tuple(order if j == i else 0 for j in range(len(table)))
        return cls(table, {(z, deriv): Fraction(1)})

    @classmethod
    def term(cls, table: GeneratorTable, coeff, mult: Monomial, deriv: Monomial) -> "Operator":
        return cls(table, {(tuple(mult), tuple(deriv)): Fraction(coeff)})

    # --- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Operator)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(sorted(self.terms.items()))

    def term_degree(self, key: TermKey) -> int:
        mult, deriv = key
        return self.table.monomial_degree(mult) - self.table.monomial_degree(deriv)

    def degrees(self) -> frozenset[int]:
        """The degrees of the terms, known since the operator was built."""
        return self._degrees

    def degree(self) -> int:
        if len(self._degrees) != 1:
            raise AlgebraError("degree of a non-homogeneous or zero operator")
        (deg,) = self._degrees
        return deg

    def is_degree_homogeneous(self) -> bool:
        return len(self._degrees) <= 1

    # --- arithmetic -------------------------------------------------------

    def _check_table(self, other) -> None:
        if self.table is not other.table and self.table != other.table:
            raise AlgebraError("operators over different generator tables")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_table(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return Operator(self.table, terms)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def __neg__(self) -> "Operator":
        return Operator(self.table, {k: -c for k, c in self.terms.items()})

    def scale(self, s) -> "Operator":
        s = Fraction(s)
        return Operator(self.table, {k: s * c for k, c in self.terms.items()})

    def __rmul__(self, s) -> "Operator":
        if isinstance(s, (int, Fraction)):
            return self.scale(s)
        return NotImplemented

    # --- action -----------------------------------------------------------

    def apply(self, a: Element) -> Element:
        if self.table is not a.table and self.table != a.table:
            raise AlgebraError("operator and element over different tables")
        den = self.den()
        out: dict[Monomial, Fraction] = {}
        for mono, c in a.coeffs.items():
            for m, n in self.int_image(mono).items():
                v = c * n
                prev = out.get(m)
                out[m] = v if prev is None else prev + v
        return Element(self.table, {m: v / den for m, v in out.items()})

    def den(self) -> int:
        """The lcm of the coefficient denominators: ``int_image`` is over it."""
        if self._int_terms is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._int_terms = den, [
                (mult, deriv, tuple((i, a) for i, a in enumerate(deriv) if a),
                 c.numerator * (den // c.denominator))
                for (mult, deriv), c in self.terms.items()
            ]
        return self._int_terms[0]

    def int_image(self, mono: Monomial) -> dict[Monomial, int]:
        """``den()`` times the image of one normal-form monomial, as
        {monomial: nonzero int}.  The dict is the operator's cached copy,
        shared by every caller: read it, never mutate it."""
        image = self._int_images.get(mono)
        if image is not None:
            return image
        self.den()  # builds the integer terms
        table = self.table
        out: dict[Monomial, int] = {}
        for mult, _, support, n in self._int_terms[1]:
            d = _derivative(table, support, mono)
            if d is None:
                continue
            dc, m = d
            sm = monomial_mul(table, mult, m)
            if sm is None:
                continue
            sign, prod = sm
            out[prod] = out.get(prod, 0) + n * (sign * dc)
        if 0 in out.values():  # a sum cancelled
            out = {m: v for m, v in out.items() if v}
        self._int_images[mono] = out
        return out

    def packed(self, window: int):
        """``(pack, unpack, image)``: monomials of total exponent <= window as
        ints ordered like their tuples, and ``int_image`` on them as a fresh
        dict in the same order.  Generator 0 takes the top field, an odd one
        1 bit and an even one room for the window plus the largest multiplier
        exponent, so no image carries.  A term sends a code holding its odd
        derivatives (``need``) and no other odd multiplier (``test``) to
        ``code + shift``, negated when it holds an odd count of ``sign``'s
        bits: the odd factors above each odd derivative, and those d^alpha
        leaves above each odd multiplier."""
        table, odd = self.table, self.table.odd
        wide = (window + max((max(m) for m, _ in self.terms), default=0)).bit_length()
        widths = [1 if table.parity(i) else wide for i in range(len(table))]
        offsets = [sum(widths[i + 1:]) for i in range(len(table))]
        fields = [(o, (1 << w) - 1) for o, w in zip(offsets, widths)]
        above = [sum(1 << offsets[j] for j in odd if j < i) for i in range(len(table))]

        def pack(mono):
            return sum(map(lshift, mono, offsets))

        def odd_above(mono):  # xor of the odd bits above each odd factor
            return reduce(xor, (above[i] for i in odd if mono[i]), 0)

        plan = []
        self.den()  # builds the integer terms
        for mult, deriv, support, n in self._int_terms[1]:
            need = sum(1 << offsets[i] for i in odd if deriv[i])
            test = need | sum(1 << offsets[i] for i in odd if mult[i] > deriv[i])
            evens = [(*fields[i], a) for i, a in support if not table.parity(i)]
            plan.append((need, test, odd_above(deriv) ^ odd_above(mult) & ~need, evens,
                         pack(mult) - pack(deriv), n))

        def image(c):
            out = {}
            for need, test, sign, evens, shift, n in plan:
                if (c ^ need) & test:
                    continue
                for o, f, a in evens:
                    n *= perm(c >> o & f, a)  # 0 when the exponent is below a
                if n:
                    k = c + shift
                    out[k] = out.get(k, 0) + (-n if (c & sign).bit_count() & 1 else n)
            if 0 in out.values():  # a sum cancelled
                out = {k: v for k, v in out.items() if v}
            return out

        return pack, lambda c: tuple(c >> o & f for o, f in fields), image

    # --- composition ------------------------------------------------------

    def compose(self, other: "Operator") -> "Operator":
        """Normal form of self o other (apply ``other`` first), by the graded
        Leibniz rule on the integer terms, divided by ``self.den() *
        other.den()`` once per key.

        For terms m1 d^alpha and m2 d^beta, each gamma <= alpha gives
        prod C(alpha_i, gamma_i) m1 d^gamma(m2) d^delta o d^beta, delta =
        alpha - gamma; derivatives multiply like their generators, so
        ``monomial_mul`` puts d^delta o d^beta in normal form.  Each odd d_i
        of delta passes m2 less its derivatives in gamma above i: one sign if
        m2 is odd, and one per such derivative, the sign of x^gamma x^delta.
        """
        self._check_table(other)
        table = self.table
        den = self.den() * other.den()
        out: dict[TermKey, int] = {}
        zero = (0,) * len(table)
        others = [(m2, beta, n2, table.monomial_parity(m2))
                  for m2, beta, _, n2 in other._int_terms[1]]
        for m1, alpha, support, n1 in self._int_terms[1]:
            for m2, beta, n2, odd_m2 in others:
                # gamma_i <= m2_i, so d^gamma(m2) is not 0: gamma is 0 where
                # alpha or m2 is, and runs over the other indices in the
                # order of the product over every index
                live = [i for i, _ in support if m2[i]]
                top = [alpha[i] for i in live]
                for entries in product(*(range(min(a, m2[i]) + 1) for a, i in zip(top, live))):
                    gamma = list(zero)
                    for i, g in zip(live, entries):
                        gamma[i] = g
                    gamma = tuple(gamma)
                    delta = tuple(map(sub, alpha, gamma))
                    deriv = monomial_mul(table, delta, beta)
                    if deriv is None:
                        continue
                    dc, dm = _derivative(table, tuple(zip(live, entries)), m2)
                    mult = monomial_mul(table, m1, dm)
                    if mult is None:
                        continue
                    # gamma and delta share no odd index, so x^gamma x^delta is not 0
                    sign = deriv[0] * mult[0] * monomial_mul(table, gamma, delta)[0]
                    if odd_m2 and table.monomial_parity(delta):
                        sign = -sign
                    key = (mult[1], deriv[1])
                    c = n1 * n2 * sign * dc * prod(map(comb, top, entries))
                    out[key] = out.get(key, 0) + c
        return Operator(table, {k: Fraction(v, den) for k, v in out.items() if v})

    def square(self) -> "Operator":
        """Normal form of self o self, built on the first call and kept."""
        if self._square is None:
            self._square = self.compose(self)
        return self._square

    # --- structural queries ------------------------------------------------

    def degree_components(self) -> dict[int, "Operator"]:
        """The terms of each degree as an operator, by degree.  The terms are
        this operator's, already valid, so no component checks them again."""
        parts: dict[int, dict[TermKey, Fraction]] = {}
        for key, c in self.terms.items():
            parts.setdefault(self.term_degree(key), {})[key] = c
        components = {}
        for d, terms in sorted(parts.items()):
            component = components[d] = Operator(self.table)
            component.terms = terms
            component._degrees = frozenset((d,))
        return components

    def structural_order(self) -> int:
        """Max total derivative count over terms; 0 for the zero operator."""
        if not self.terms:
            return 0
        return max(sum(deriv) for (_, deriv) in self.terms)

    def is_odd(self) -> bool:
        """True iff every term has odd degree; the zero operator counts as odd."""
        return all(d % 2 for d in self._degrees)

    def is_square_zero(self):
        """Exact check of D o D == 0 on normal forms.

        Returns (True, None) or (False, witness), the witness the least
        monomial m, by total exponent and then exponent tuple, with
        D(D(m)) != 0: the least derivative index alpha of the square.  A
        smaller monomial is killed by every derivative of the square, and at
        alpha only the terms with derivative alpha act, each as its
        coefficient times the nonzero scalar d^alpha(x^alpha) times its own
        multiplier, so they cannot cancel.  One evaluation confirms it.
        """
        square = self.square()
        if square.is_zero():
            return True, None
        witness = min((d for _, d in square.terms), key=lambda d: (sum(d), d))
        if square.apply(Element.monomial(self.table, witness)).is_zero():
            raise AssertionError("constructed square witness is killed by D o D")
        return False, witness

    # --- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_operator(self)

    def __repr__(self) -> str:
        return f"Operator({format_operator(self)!r})"


def format_operator(D: Operator) -> str:
    """Render an operator as `coeff | multiplier | derivatives` term lines."""
    if D.is_zero():
        return "0"
    lines = []
    for (mult, deriv), c in D.items():
        mstr = format_monomial(D.table, mult)
        dparts = []
        for name, e in zip(D.table.names, deriv):
            if e == 1:
                dparts.append(f"d/d{name}")
            elif e > 1:
                dparts.append(f"d/d{name}^{e}")
        dstr = " ".join(dparts) if dparts else "1"
        lines.append(f"{c} | {mstr} | {dstr}")
    return " ; ".join(lines)
