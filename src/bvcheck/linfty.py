"""Exterior coalgebra on the suspension and the square-zero relation family.

Letters of a word live in the suspension: the shifted degree of a letter a is
|a| + 1, and all coproduct / coderivation signs are computed with shifted
degrees.  Extending an arity-k bracket to words uses the decalage sign

    dec(a_1,...,a_k) = (-1)^{ sum_i (k-i) |a_i| },

which is exactly what makes the extension well defined on words canonicalized
with shifted-degree Koszul signs while the brackets themselves are symmetric
in the unshifted degrees.

The relation family is evaluated directly on algebra elements:

    R_n(a_1,...,a_n) = sum_{l=1..n} sum_{sigma in Sh(l,n-l)}
        eps(sigma) F^{n-l+1}( F^l(a_{sigma(1)},...,a_{sigma(l)}),
                              a_{sigma(l+1)},...,a_{sigma(n)} )

with eps the Koszul sign in unshifted degrees.  For an odd operator D this
vanishes for every n iff D o D = 0; the n = 1 member is literally D(D a).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, Element
from .brackets import Budget, first_witness, koszul_bracket, monomial_tuples
from .graded import graded_sign, koszul_sign, unshuffles
from .operators import Operator

SUSPENSION_OFFSET = 1


def shifted_degree(a: Element) -> int:
    return a.degree() + SUSPENSION_OFFSET


def _letter_key(a: Element):
    """Deterministic total order on homogeneous elements, for canonical words."""
    return (a.degree(), tuple(sorted(a.coeffs.items())))


@dataclass(frozen=True)
class Word:
    """a_1 ^ ... ^ a_n with homogeneous letters; the empty word is disallowed."""

    letters: tuple[Element, ...]

    def __post_init__(self):
        if not self.letters:
            raise AlgebraError("empty word")
        for a in self.letters:
            if a.is_zero() or not a.is_homogeneous():
                raise AlgebraError("word letters must be nonzero homogeneous")

    def __len__(self) -> int:
        return len(self.letters)

    def shifted_degrees(self) -> tuple[int, ...]:
        return tuple(shifted_degree(a) for a in self.letters)

    def total_shifted_degree(self) -> int:
        return sum(self.shifted_degrees())

    def key(self):
        return tuple(_letter_key(a) for a in self.letters)


class WordSum:
    """Finite rational combination of canonical words in the suspended algebra.

    Canonicalization sorts letters by a fixed total order, accumulating the
    shifted-degree Koszul/permutation sign; a repeated letter of even shifted
    degree kills the word.
    """

    __slots__ = ("coeffs",)

    def __init__(self):
        self.coeffs: dict[tuple, tuple[Word, Fraction]] = {}

    @classmethod
    def zero(cls) -> "WordSum":
        return cls()

    def add_word(self, word: Word, coeff: Fraction) -> None:
        if not coeff:
            return
        letters = list(word.letters)
        sdegs = [shifted_degree(a) for a in letters]
        keys = [_letter_key(a) for a in letters]
        sign = 1
        changed = True
        while changed:
            changed = False
            for i in range(len(letters) - 1):
                if keys[i] > keys[i + 1]:
                    sign *= -1 if (sdegs[i] * sdegs[i + 1]) % 2 == 0 else 1
                    letters[i], letters[i + 1] = letters[i + 1], letters[i]
                    sdegs[i], sdegs[i + 1] = sdegs[i + 1], sdegs[i]
                    keys[i], keys[i + 1] = keys[i + 1], keys[i]
                    changed = True
        for i in range(len(letters) - 1):
            if keys[i] == keys[i + 1] and sdegs[i] % 2 == 0:
                return  # wedge square of an (suspended-)odd letter
        canon = Word(tuple(letters))
        key = canon.key()
        prev = self.coeffs.get(key)
        total = (prev[1] if prev else Fraction(0)) + sign * coeff
        if total:
            self.coeffs[key] = (canon, total)
        elif key in self.coeffs:
            del self.coeffs[key]

    def items(self):
        return [self.coeffs[k] for k in sorted(self.coeffs)]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "WordSum") -> "WordSum":
        out = WordSum()
        for word, c in list(self.coeffs.values()) + list(other.coeffs.values()):
            out.add_word(word, c)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordSum):
            return NotImplemented
        return {k: v[1] for k, v in self.coeffs.items()} == {
            k: v[1] for k, v in other.coeffs.items()
        }

    def __repr__(self):
        parts = [
            f"{c} * ({' ^ '.join(str(a) for a in w.letters)})" for w, c in self.items()
        ]
        return " + ".join(parts) if parts else "0"


def coproduct(w: Word) -> list[tuple[Word, Word, Fraction]]:
    """Reduced unshuffle coproduct; a single letter has coproduct zero.

    Signs are the combined permutation/Koszul signs in shifted degrees.
    """
    n = len(w)
    if n == 1:
        return []
    sdegs = w.shifted_degrees()
    out = []
    for k in range(1, n):
        for sigma in unshuffles(k, n):
            sign = graded_sign(sdegs, sigma)
            left = Word(tuple(w.letters[i] for i in sigma[:k]))
            right = Word(tuple(w.letters[i] for i in sigma[k:]))
            out.append((left, right, sign))
    return out


def decalage_sign(degrees) -> Fraction:
    """(-1)^{sum_i (k-i) |a_i|} for unshifted letter degrees a_1..a_k."""
    k = len(degrees)
    exp = sum((k - 1 - i) * d for i, d in enumerate(degrees))
    return Fraction(-1) if exp % 2 else Fraction(1)


def extend_coderivation(D: Operator, k: int, w: Word) -> WordSum:
    """Unshuffle extension of the arity-k bracket of D to a word.

    Returns the word sum

        sum_{sigma in Sh(k, n-k)} sign_s(sigma) dec(selected)
            F^k(a_{sigma(1)},...,a_{sigma(k)}) ^ a_{sigma(k+1)} ^ ... ,

    with sign_s the combined sign in shifted degrees; zero when n < k.
    """
    if k < 1:
        raise AlgebraError("coderivation arity must be >= 1")
    out = WordSum.zero()
    n = len(w)
    if n < k:
        return out
    sdegs = w.shifted_degrees()
    for sigma in unshuffles(k, n):
        sign = graded_sign(sdegs, sigma)
        selected = [w.letters[i] for i in sigma[:k]]
        sign *= decalage_sign([a.degree() for a in selected])
        head = koszul_bracket(D, selected)
        if head.is_zero():
            continue
        rest = tuple(w.letters[i] for i in sigma[k:])
        for deg, comp in head.grade_decompose().items():
            out.add_word(Word((comp,) + rest), sign)
    return out


def linfty_relation(D: Operator, n: int, args) -> Element:
    """Left-hand side of the n-th member of the square-zero relation family."""
    args = tuple(args)
    if len(args) != n:
        raise AlgebraError(f"relation index {n} with {len(args)} arguments")
    out = Element.zero(args[0].table)
    if not all(args):
        return out  # R_n is multilinear
    parities = [a.parity() for a in args]
    for l in range(1, n + 1):
        for sigma in unshuffles(l, n):
            negative = koszul_sign(parities, sigma) < 0
            # koszul_bracket == akman_bracket (tested); the former is cheaper
            inner = koszul_bracket(D, [args[i] for i in sigma[:l]])
            if inner.is_zero():
                continue
            outer_args = (inner,) + tuple(args[i] for i in sigma[l:])
            term = koszul_bracket(D, outer_args)
            out = out - term if negative else out + term
    return out


@dataclass
class RelationReport:
    """Outcome of testing one relation index over an enumerated tuple set."""

    index: int
    tuples_tested: int
    passed: bool
    failing_tuple: tuple | None = None


def verify_linfty(D: Operator, n_max: int, budget: Budget | None = None) -> list[RelationReport]:
    """Test the relation family for n = 1..n_max on enumerated monomial tuples."""
    if not D.is_odd():
        raise AlgebraError("relation family requires an odd operator")
    budget = budget or Budget()
    table = D.table
    reports = []
    for n in range(1, n_max + 1):
        def fails(tup):
            return not linfty_relation(D, n, [Element.monomial(table, m) for m in tup]).is_zero()

        tested, failing = first_witness(monomial_tuples(table, n, budget), fails)
        reports.append(RelationReport(n, tested, failing is None, failing))
    return reports
