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

Coefficients are exact rationals (`-3/2`).  Errors carry 1-based line and
column positions.  The operator named ``D`` is the main operator and ``d``
the differential; a MODEL line provides defaults for both.
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


def _strip_comment(raw: str) -> str:
    pos = raw.find("#")
    return raw if pos < 0 else raw[:pos]


def _parse_fraction(tok: str, lineno: int, col: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"bad rational coefficient {tok!r}", lineno, col) from None


def _parse_exponents(part: str, n: int, lineno: int, col: int) -> tuple:
    toks = part.split()
    if len(toks) != n:
        raise SpecError(
            f"expected {n} exponents, got {len(toks)}", lineno, col
        )
    out = []
    for tok in toks:
        if not tok.lstrip("-").isdigit():
            raise SpecError(f"bad exponent {tok!r}", lineno, col)
        out.append(int(tok))
    return tuple(out)


def parse_spec(text: str) -> ModelSpec:
    spec = ModelSpec()
    section: str | None = None
    gen_names: list[str] = []
    gen_degrees: list[int] = []
    current_op: str | None = None
    op_terms: dict = {}
    generators_done = False

    def finish_generators(lineno: int):
        nonlocal generators_done
        if section == "GENERATORS" and not generators_done:
            if not gen_names:
                raise SpecError("empty GENERATORS section", lineno)
            spec.table = GeneratorTable(tuple(gen_names), tuple(gen_degrees))
            generators_done = True

    def finish_operator(lineno: int):
        nonlocal current_op, op_terms
        if current_op is not None:
            if not op_terms:
                raise SpecError(f"operator {current_op!r} has no terms", lineno)
            spec.operators[current_op] = Operator(spec.table, op_terms)
            current_op, op_terms = None, {}

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split()[0]

        if head == "GENERATORS":
            finish_operator(lineno)
            if generators_done or gen_names:
                raise SpecError("duplicate GENERATORS section", lineno)
            if spec.model is not None:
                raise SpecError("GENERATORS conflicts with an earlier MODEL", lineno)
            section = "GENERATORS"
            continue
        if head == "OPERATOR":
            finish_generators(lineno)
            finish_operator(lineno)
            parts = line.split()
            if len(parts) != 2:
                raise SpecError("OPERATOR needs exactly one name", lineno)
            if spec.table is None:
                raise SpecError(
                    "OPERATOR before any GENERATORS or MODEL section", lineno
                )
            name = parts[1]
            if name in spec.operators:
                raise SpecError(f"duplicate operator name {name!r}", lineno)
            current_op = name
            section = "OPERATOR"
            continue
        if head == "MODEL":
            finish_generators(lineno)
            finish_operator(lineno)
            parts = line.split()
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
            section = None
            continue
        if head == "SUITE":
            finish_generators(lineno)
            finish_operator(lineno)
            parts = line.split()
            if len(parts) < 2:
                raise SpecError("SUITE needs a name", lineno)
            params = {}
            for tok in parts[2:]:
                if "=" not in tok:
                    raise SpecError(
                        f"suite parameter {tok!r} must be key=value", lineno,
                        col=line.index(tok) + 1,
                    )
                key, val = tok.split("=", 1)
                try:
                    params[key] = int(val)
                except ValueError:
                    raise SpecError(
                        f"suite parameter {key!r} must be an integer", lineno,
                        col=line.index(tok) + 1,
                    ) from None
            spec.suites.append((parts[1], params))
            section = None
            continue

        # content lines
        if section == "GENERATORS":
            parts = line.split()
            if len(parts) != 2:
                raise SpecError("generator line must be `name degree`", lineno)
            name, deg = parts
            if name in gen_names:
                raise SpecError(
                    f"duplicate generator {name!r}", lineno, col=1
                )
            if not deg.lstrip("-").isdigit():
                raise SpecError(
                    f"bad degree {deg!r}", lineno, col=line.index(deg) + 1
                )
            gen_names.append(name)
            gen_degrees.append(int(deg))
            continue
        if section == "OPERATOR":
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise SpecError(
                    "term line must be `coeff | mult exps | deriv exps`", lineno
                )
            coeff = _parse_fraction(parts[0], lineno, 1)
            n = len(spec.table)
            mult = _parse_exponents(parts[1], n, lineno, raw.index("|") + 2)
            deriv = _parse_exponents(
                parts[2], n, lineno, raw.rindex("|") + 2
            )
            for i, e in enumerate(mult + deriv):
                gi = i % n
                if e < 0:
                    raise SpecError("negative exponent", lineno)
                if e > 1 and spec.table.parity(gi):
                    raise SpecError(
                        f"exponent {e} on odd generator "
                        f"{spec.table.names[gi]!r}", lineno,
                    )
            key = (mult, deriv)
            op_terms[key] = op_terms.get(key, Fraction(0)) + coeff
            continue

        raise SpecError(f"unrecognized line {line.split()[0]!r}", lineno)

    finish_generators(len(lines) + 1)
    finish_operator(len(lines) + 1)
    if spec.table is None:
        raise SpecError("spec defines no GENERATORS or MODEL", max(len(lines), 1))
    return spec
