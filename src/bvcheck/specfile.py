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

Coefficients are exact rationals (`-3/2`), degrees and exponents integers.
Errors carry 1-based line and column positions.  The operator named ``D`` is
the main operator and ``d`` the differential; a MODEL line provides defaults
for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import GeneratorTable
from .models import BUILTIN_MODELS, Model
from .operators import Operator


class SpecError(Exception):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class ModelSpec:
    table: GeneratorTable | None = None
    operators: dict[str, Operator] = field(default_factory=dict)
    model_name: str | None = None
    model: Model | None = None
    suites: list[tuple[str, dict]] = field(default_factory=list)
    # the zero differential of a spec with neither MODEL nor ``d``, made once
    # so that every call returns the same operator and shares its caches
    _zero_d: Operator | None = field(default=None, init=False, repr=False, compare=False)

    def main_operator(self) -> Operator:
        if "D" in self.operators:
            return self.operators["D"]
        if self.model is not None:
            return self.model.D
        if len(self.operators) == 1:
            return next(iter(self.operators.values()))
        raise SpecError("no operator named 'D' and no model", 0)

    def differential(self) -> Operator:
        if "d" in self.operators:
            return self.operators["d"]
        if self.model is not None:
            return self.model.d
        if self._zero_d is None:
            self._zero_d = Operator.zero(self.table)
        return self._zero_d


def _parse_fraction(tok: str, lineno: int, col: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"bad rational coefficient {tok!r}", lineno, col) from None


def _parse_int(tok: str, what: str, lineno: int, col: int) -> int:
    """``tok`` as an int: an optional ``-`` and decimal digits, every one of
    which ``int()`` reads; any other token is a ``bad {what}``."""
    if not tok.removeprefix("-").isdecimal():
        raise SpecError(f"bad {what} {tok!r}", lineno, col)
    return int(tok)


def _parse_exponents(part: str, n: int, lineno: int, col: int) -> tuple:
    toks = part.split()
    if len(toks) != n:
        raise SpecError(f"expected {n} exponents, got {len(toks)}", lineno, col)
    return tuple(_parse_int(tok, "exponent", lineno, col) for tok in toks)


_HEADERS = ("GENERATORS", "OPERATOR", "MODEL", "SUITE")


def parse_spec(text: str) -> ModelSpec:
    spec = ModelSpec()
    section: str | None = None  # the header of the open section
    generators: dict[str, int] = {}  # name -> degree, in table order
    op_name, op_terms = None, {}

    def close(lineno: int) -> None:
        """Build the open GENERATORS table or OPERATOR, at the next header
        (line ``lineno``) or at the end of the text."""
        if section == "GENERATORS":
            if not generators:
                raise SpecError("empty GENERATORS section", lineno)
            spec.table = GeneratorTable(tuple(generators), tuple(generators.values()))
        elif section == "OPERATOR":
            if not op_terms:
                raise SpecError(f"operator {op_name!r} has no terms", lineno)
            spec.operators[op_name] = Operator(spec.table, op_terms)

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        if head in _HEADERS:
            # a GENERATORS header in a GENERATORS section with no lines yet
            # leaves the section open
            if head != "GENERATORS" or section != "GENERATORS":
                close(lineno)
            section = head
            if head == "GENERATORS":
                if generators:
                    raise SpecError("duplicate GENERATORS section", lineno)
                if spec.model is not None:
                    raise SpecError("GENERATORS conflicts with an earlier MODEL", lineno)
            elif head == "OPERATOR":
                if len(parts) != 2:
                    raise SpecError("OPERATOR needs exactly one name", lineno)
                if spec.table is None:
                    raise SpecError("OPERATOR before any GENERATORS or MODEL section", lineno)
                if parts[1] in spec.operators:
                    raise SpecError(f"duplicate operator name {parts[1]!r}", lineno)
                op_name, op_terms = parts[1], {}
            elif head == "MODEL":
                if len(parts) != 2:
                    raise SpecError("MODEL needs exactly one name", lineno)
                if spec.table is not None:
                    raise SpecError("MODEL conflicts with an earlier table", lineno)
                if parts[1] not in BUILTIN_MODELS:
                    known = ", ".join(sorted(BUILTIN_MODELS))
                    raise SpecError(
                        f"unknown model {parts[1]!r} (known: {known})", lineno,
                        col=line.index(parts[1]) + 1,
                    )
                spec.model_name = parts[1]
                spec.model = BUILTIN_MODELS[parts[1]]()
                spec.table = spec.model.table
            else:  # SUITE
                if len(parts) < 2:
                    raise SpecError("SUITE needs a name", lineno)
                params = {}
                for tok in parts[2:]:
                    col = line.index(tok) + 1
                    if "=" not in tok:
                        raise SpecError(f"suite parameter {tok!r} must be key=value", lineno, col)
                    key, val = tok.split("=", 1)
                    try:
                        params[key] = int(val)
                    except ValueError:
                        raise SpecError(
                            f"suite parameter {key!r} must be an integer", lineno, col
                        ) from None
                spec.suites.append((parts[1], params))
        elif section == "GENERATORS":
            if len(parts) != 2:
                raise SpecError("generator line must be `name degree`", lineno)
            name, deg = parts
            if name in generators:
                raise SpecError(f"duplicate generator {name!r}", lineno)
            generators[name] = _parse_int(deg, "degree", lineno, line.index(deg) + 1)
        elif section == "OPERATOR":
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise SpecError("term line must be `coeff | mult exps | deriv exps`", lineno)
            coeff = _parse_fraction(parts[0], lineno, 1)
            n = len(spec.table)
            mult = _parse_exponents(parts[1], n, lineno, raw.index("|") + 2)
            deriv = _parse_exponents(parts[2], n, lineno, raw.rindex("|") + 2)
            for i, e in enumerate(mult + deriv):
                if e < 0:
                    raise SpecError("negative exponent", lineno)
                if e > 1 and spec.table.parity(i % n):
                    raise SpecError(
                        f"exponent {e} on odd generator {spec.table.names[i % n]!r}", lineno
                    )
            op_terms[mult, deriv] = op_terms.get((mult, deriv), Fraction(0)) + coeff
        else:
            raise SpecError(f"unrecognized line {head!r}", lineno)

    close(len(lines) + 1)
    if spec.table is None:
        raise SpecError("spec defines no GENERATORS or MODEL", max(len(lines), 1))
    return spec
