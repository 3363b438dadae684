"""Line-oriented problem descriptions for the command-line checker.

A spec file has sections introduced by keywords:

    GENERATORS            # one `name degree` pair per line
    x1 0
    xi1 1

    OPERATOR delta        # one `coeff | mult exps | deriv exps` term per line
    1 | 0 0 | 1 1

    MODEL polyvector2     # alternatively, a builtin model supplies the table

    SUITE bv-core         # suite to run, with optional key=value parameters
    SUITE cohomology window=4

Coefficients are exact rationals (`-3/2`), degrees, exponents and suite
parameters integers: an optional `-` and decimal digits.  Errors carry the
1-based line and the column of the token they name.  The operator named
``D`` is the main operator and ``d`` the differential.  A MODEL supplies its
``D``, and its ``d`` when nonzero, unless an OPERATOR section of the same
name is in the spec; ``spec.operators`` holds them all after parsing.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import GeneratorTable
from .models import BUILTIN_MODELS
from .operators import Operator


class SpecError(Exception):
    """A malformed spec; ``line`` is None when no spec line is at fault."""

    def __init__(self, message: str, line: int | None = None, col: int = 1):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ModelSpec:
    def __init__(self, table: GeneratorTable | None = None,
                 operators: dict[str, Operator] | None = None,
                 suites: list[tuple[str, dict]] | None = None):
        self.table = table
        self.operators = {} if operators is None else operators
        self.suites = [] if suites is None else suites
        # (line number, text) of the SUITE line of each entry of ``suites``
        self.suite_lines: list[tuple[int, str]] = []
        # the zero differential of a spec without ``d``, made once so that every
        # call returns the same operator and shares its caches
        self._zero_d: Operator | None = None

    def main_operator(self) -> Operator:
        if "D" in self.operators:
            return self.operators["D"]
        if len(self.operators) == 1:
            return next(iter(self.operators.values()))
        raise SpecError("no operator named 'D' and no model")

    def differential(self) -> Operator:
        if "d" in self.operators:
            return self.operators["d"]
        if self._zero_d is None:
            self._zero_d = Operator.zero(self.table)
        return self._zero_d

    def suite_error(self, i: int, k: int, message: str) -> SpecError:
        """A spec error at the k-th token of the SUITE line of ``suites[i]``."""
        lineno, code = self.suite_lines[i]
        return SpecError(message, lineno, _column(code, k))


def _is_int(tok: str) -> bool:
    """An optional ``-`` and decimal digits, every one of which ``int()`` reads."""
    return tok.removeprefix("-").isdecimal()


_WORD = re.compile(r"\S+")
_HEADERS = ("GENERATORS", "OPERATOR", "MODEL", "SUITE")


def _column(text: str, k: int, col: int = 1) -> int:
    """The column of the k-th whitespace-separated token of ``text``, which
    starts at column ``col``; scanned for only when an error names it."""
    return col + list(_WORD.finditer(text))[k].start()


def parse_spec(text: str) -> ModelSpec:
    spec = ModelSpec()
    model = None
    section: str | None = None  # the header of the open section
    generators: dict[str, int] = {}  # name -> degree, in table order
    op_name, op_terms = None, {}

    def close(lineno: int, col: int = 1) -> None:
        """Build the open GENERATORS table or OPERATOR, at the next header
        (line ``lineno``, column ``col``) or at the end of the text."""
        if section == "GENERATORS":
            if not generators:
                raise SpecError("empty GENERATORS section", lineno, col)
            spec.table = GeneratorTable(tuple(generators), tuple(generators.values()))
        elif section == "OPERATOR":
            if not op_terms:
                raise SpecError(f"operator {op_name!r} has no terms", lineno, col)
            spec.operators[op_name] = Operator(spec.table, op_terms)

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0]
        words = code.split()
        if not words:
            continue
        head, col = words[0], len(code) - len(code.lstrip()) + 1

        if section == "OPERATOR" and head not in _HEADERS:
            # a term line; the coefficient starts at the line's first token
            parts = code.split("|")
            if len(parts) != 3:
                raise SpecError("term line must be `coeff | mult exps | deriv exps`", lineno, col)
            coeff = parts[0].strip()
            try:
                coeff = Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"bad rational coefficient {coeff!r}", lineno, col) from None
            n = len(spec.table)
            cols = (len(parts[0]) + 2, len(parts[0]) + len(parts[1]) + 3)  # after each `|`
            exps = []  # the multiplier's exponents, then the derivative's
            for part, at in zip(parts[1:], cols):
                toks = part.split()
                if len(toks) != n:
                    raise SpecError(f"expected {n} exponents, got {len(toks)}", lineno, at)
                for k, tok in enumerate(toks):
                    if not _is_int(tok):
                        raise SpecError(f"bad exponent {tok!r}", lineno, _column(part, k, at))
                exps += map(int, toks)
            for i, e in enumerate(exps):
                if e < 0 or (e > 1 and spec.table.parity(i % n)):
                    at = _column(parts[1 + i // n], i % n, cols[i // n])
                    if e < 0:
                        raise SpecError("negative exponent", lineno, at)
                    name = spec.table.names[i % n]
                    raise SpecError(f"exponent {e} on odd generator {name!r}", lineno, at)
            mult, deriv = tuple(exps[:n]), tuple(exps[n:])
            op_terms[mult, deriv] = op_terms.get((mult, deriv), Fraction(0)) + coeff
        elif head in _HEADERS:
            # a GENERATORS header in a GENERATORS section with no lines yet
            # leaves the section open
            if head != "GENERATORS" or section != "GENERATORS":
                close(lineno, col)
            section = head
            if head == "GENERATORS":
                if generators:
                    raise SpecError("duplicate GENERATORS section", lineno, col)
                if model is not None:
                    raise SpecError("GENERATORS conflicts with an earlier MODEL", lineno, col)
            elif head == "OPERATOR":
                if len(words) != 2:
                    raise SpecError("OPERATOR needs exactly one name", lineno, col)
                if spec.table is None:
                    raise SpecError("OPERATOR before any GENERATORS or MODEL section", lineno, col)
                if words[1] in spec.operators:
                    raise SpecError(f"duplicate operator name {words[1]!r}", lineno,
                                    _column(code, 1))
                op_name, op_terms = words[1], {}
            elif head == "MODEL":
                if len(words) != 2:
                    raise SpecError("MODEL needs exactly one name", lineno, col)
                if spec.table is not None:
                    raise SpecError("MODEL conflicts with an earlier table", lineno, col)
                if words[1] not in BUILTIN_MODELS:
                    known = ", ".join(sorted(BUILTIN_MODELS))
                    raise SpecError(f"unknown model {words[1]!r} (known: {known})", lineno,
                                    _column(code, 1))
                model = BUILTIN_MODELS[words[1]]()
                spec.table = model.table
            else:  # SUITE
                if len(words) < 2:
                    raise SpecError("SUITE needs a name", lineno, col)
                params = {}
                for k, tok in enumerate(words[2:], start=2):
                    key, eq, val = tok.partition("=")
                    if not eq:
                        raise SpecError(f"suite parameter {tok!r} must be key=value", lineno,
                                        _column(code, k))
                    if key in params:
                        raise SpecError(f"repeated suite parameter {key!r}", lineno,
                                        _column(code, k))
                    if not _is_int(val):
                        raise SpecError(f"suite parameter {key!r} must be an integer", lineno,
                                        _column(code, k))
                    params[key] = int(val)
                spec.suites.append((words[1], params))
                spec.suite_lines.append((lineno, code))
        elif section == "GENERATORS":
            if len(words) != 2:
                raise SpecError("generator line must be `name degree`", lineno, col)
            name, deg = words
            if name in generators:
                raise SpecError(f"duplicate generator {name!r}", lineno, col)
            if not _is_int(deg):
                raise SpecError(f"bad degree {deg!r}", lineno, _column(code, 1))
            generators[name] = int(deg)
        else:
            raise SpecError(f"unrecognized line {head!r}", lineno, col)

    close(len(lines) + 1)
    if spec.table is None:
        raise SpecError("spec defines no GENERATORS or MODEL", max(len(lines), 1))
    if model is not None:
        spec.operators.setdefault("D", model.D)
        if not model.d.is_zero():
            spec.operators.setdefault("d", model.d)
    return spec
