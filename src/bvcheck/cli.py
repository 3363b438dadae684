"""Batch verification front end.

Subcommands:

    check       run the suites named in the spec file (or --suite)
    brackets    tabulate low-arity brackets of the main operator
    split       order/degree decomposition with certificates
    cohomology  slice dimensions and representatives of the differential
    explain     echo the parsed spec with derived structural facts

Exit codes: 0 all checks pass, 1 at least one failure, 2 malformed spec,
3 nothing failed but some check was left untested.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import AlgebraError, format_element
from .brackets import (
    Budget,
    akman_bracket,
    akman_order_check,
    bracket_vanishes,
    koszul_bracket,
    window_elements,
    window_tuples,
)
from .linfty import verify_linfty
from .models import BUILTIN_MODELS
from .operators import format_operator
from .specfile import ModelSpec, SpecError, parse_spec
from .structures import (
    StructReport,
    check_bvinfty,
    check_derivation_lemma,
    check_gerstenhaber,
    cohomology,
    degree_split,
    induced_bv,
    square_witness,
)

SCHEMA = "bvcheck-report/1"


def _bv_core(spec: ModelSpec, budget: Budget, params: dict) -> StructReport:
    table = spec.table
    D = spec.main_operator()
    report = StructReport("core operator facts")
    report.add("operator is odd", "pass" if D.is_odd() else "fail")
    report.square_zero("operator squares to zero", D)
    k = params.get("order", D.structural_order())
    report.certify(f"bracket order <= {k}", akman_order_check(D, k), table)
    return report


def _route_agreement(D, window: list, budget: Budget, arity: int) -> StructReport:
    """The recursion against the unshuffle expansion at arities 1..arity, on
    tuples of ``window``."""
    report = StructReport("bracket route agreement")

    def routes_differ(elems):
        return akman_bracket(D, elems).coeffs != koszul_bracket(D, elems).coeffs

    for n in range(1, arity + 1):
        report.sample(f"recursion vs unshuffle expansion, arity {n}", window, n, budget,
                      routes_differ, "tuples")
    return report


def _brackets(spec: ModelSpec, budget: Budget, params: dict) -> StructReport:
    return _route_agreement(spec.main_operator(), window_elements(spec.table, budget),
                            budget, params.get("arity", 3))


def _split(spec: ModelSpec, budget: Budget, params: dict) -> StructReport:
    D = spec.main_operator()
    witness = square_witness(D)
    if witness:
        raise AlgebraError(f"degree_split requires a square-zero operator; D^2 != 0 at {witness}")
    report = StructReport("order/degree decomposition")
    report.certify_components(degree_split(D), D.table)
    residual = sorted(g for g in D.degrees() if g > 1 or g % 2 == 0)
    report.add(
        "no off-pattern degree components",
        "fail" if residual else "pass",
        f"residual degrees {residual}" if residual else "",
    )
    return report


def _cohomology(spec: ModelSpec, budget: Budget, params: dict) -> StructReport:
    D = spec.main_operator()
    d = spec.differential()
    window = params.get("window", budget.max_degree + 1)
    report = StructReport("cohomology of the differential")
    H = cohomology(d, window)
    # a window warning means a class may be false, so no dimension is sure
    report.add("slice dimensions", "untested" if H.warnings else "pass", str(H.dims()))
    for w in H.warnings:
        report.add("window truncation", "untested", w)
    if not D.is_zero() and not (D - d).is_zero():
        report.items += induced_bv(d, D, window).items
    return report


# suite name -> (report from (spec, budget, params), {parameter it reads: its
# least value}); key order is the listing order
SUITES = {
    "bv-core": (_bv_core, {"order": 0}),
    "brackets": (_brackets, {"arity": 1}),
    "linfty": (lambda spec, budget, params: verify_linfty(
        spec.main_operator(), params.get("n", 3), budget), {"n": 1}),
    "split": (_split, {}),
    "derivation": (lambda spec, budget, params: check_derivation_lemma(
        spec.main_operator()), {}),
    "bvinfty": (lambda spec, budget, params: check_bvinfty(
        spec.differential(), spec.main_operator()), {}),
    "gerstenhaber": (lambda spec, budget, params: check_gerstenhaber(
        spec.main_operator(), budget), {}),
    "cohomology": (_cohomology, {"window": 0}),
}


def check_suites(suites, spec: ModelSpec | None = None) -> None:
    """A spec error at the first (name, params) pair whose name is no suite,
    or whose params hold a key that its suite does not read, or a value
    below that key's least.  When the pairs are ``spec.suites``, the error
    names the SUITE line and the column of the name or the parameter."""
    for i, (name, params) in enumerate(suites):
        def error(k, message):  # k: the token's place on its SUITE line
            return spec.suite_error(i, k, message) if spec else SpecError(message)

        if name not in SUITES:
            raise error(1, f"unknown suite {name!r} (known: {', '.join(SUITES)})")
        least = SUITES[name][1]
        for k, (key, value) in enumerate(params.items(), start=2):
            if key not in least:
                raise error(k, f"suite {name!r} takes no parameter {key!r} "
                               f"(it reads: {', '.join(least) or 'none'})")
            if value < least[key]:
                raise error(k, f"suite {name!r} needs {key} >= {least[key]}, got {value}")


def run_suite(name: str, spec: ModelSpec, budget: Budget, params: dict) -> StructReport:
    check_suites([(name, params)])
    return SUITES[name][0](spec, budget, params)


def _exit_code(reports: list[StructReport]) -> int:
    if any(not r.passed for r in reports):
        return 1
    if any(not r.fully_tested for r in reports):
        return 3
    return 0


def _emit(reports, args, spec_name: str, exit_code: int) -> None:
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "spec": spec_name,
            "seed": args.seed,
            "exit_code": exit_code,
            "suites": [
                {
                    "title": r.title,
                    "passed": r.passed,
                    "items": [vars(i) for i in r.items],
                }
                for r in reports
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for r in reports:
            lines.extend(r.lines())
        result = {0: "PASS", 3: "UNTESTED"}.get(exit_code, "FAIL")
        lines.append(f"result: {result}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(args) -> ModelSpec:
    if args.spec:
        with open(args.spec) as fh:
            text = fh.read()
        return parse_spec(text)
    if args.model:
        if args.model not in BUILTIN_MODELS:
            raise SpecError(
                f"unknown model {args.model!r} "
                f"(known: {', '.join(sorted(BUILTIN_MODELS))})"
            )
        return parse_spec(f"MODEL {args.model}\n")
    raise SpecError("either --spec or --model is required")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: parse with it, never mutate it."""
    parser = argparse.ArgumentParser(
        prog="bvcheck", description="exact checks for odd square-zero operators"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("check", "brackets", "split", "cohomology", "explain"):
        p = sub.add_parser(cmd)
        p.add_argument("--spec", help="path to a spec file")
        p.add_argument("--model", help="builtin model name instead of a spec")
        if cmd in ("check", "brackets"):
            p.add_argument("--budget-degree", type=int, default=3)
            p.add_argument("--budget-tuples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", help="write the report to a file")
        if cmd == "check":
            p.add_argument(
                "--suite", action="append", default=[],
                help="suite to run (repeatable); overrides the spec's SUITE lines",
            )
        if cmd == "brackets":
            p.add_argument("--arity", type=int, default=2)
        if cmd == "cohomology":
            p.add_argument("--window", type=int, default=4)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # split, cohomology and explain read no budget but the seed
        budget = (Budget(args.budget_degree, args.budget_tuples, args.seed)
                  if "budget_degree" in args else Budget(seed=args.seed))
        spec = _load_spec(args)
        spec_name = args.spec or f"model:{args.model}"

        if args.command == "check":
            suites = [(s, {}) for s in args.suite] or spec.suites or [("bv-core", {})]
            # every one, before any runs; a spec's own SUITE lines name their place
            check_suites(suites, spec if suites is spec.suites else None)
            reports = [run_suite(n, spec, budget, p) for n, p in suites]

        elif args.command == "brackets":
            # one window for the route suite and the value table
            check_suites([("brackets", {"arity": args.arity})])
            D = spec.main_operator()
            window = window_elements(spec.table, budget)
            report = _route_agreement(D, window, budget, args.arity)
            values = StructReport(f"arity-{args.arity} bracket values")
            # nothing to tabulate when every bracket of this arity vanishes
            if not bracket_vanishes(D, args.arity):
                for elems in window_tuples(window, args.arity, budget):
                    val = akman_bracket(D, elems)
                    if not val.is_zero():
                        label = ", ".join(format_element(e) for e in elems)
                        values.add(f"F({label})", "pass", format_element(val))
                    if len(values.items) == 12:
                        break
            reports = [report, values]

        elif args.command == "split":
            reports = [run_suite("split", spec, budget, {})]

        elif args.command == "cohomology":
            report = run_suite("cohomology", spec, budget, {"window": args.window})
            H = cohomology(spec.differential(), args.window)
            reps = StructReport("representatives")
            for g, rs in sorted(H.representatives.items()):
                reps.add(
                    f"degree {g}", "pass",
                    "; ".join(format_element(r) for r in rs),
                )
            reports = [report, reps]

        else:  # explain
            check_suites(spec.suites, spec)
            report = StructReport("parsed spec")
            t = spec.table
            report.add(
                "generators", "pass",
                ", ".join(f"{n} (degree {d})" for n, d in zip(t.names, t.degrees)),
            )
            for name, op in sorted(spec.operators.items()):
                degs = sorted(op.degrees())
                report.add(
                    f"operator {name}", "pass",
                    f"order {op.structural_order()}, degrees {degs}: "
                    f"{format_operator(op)}",
                )
            if spec.suites:
                report.add(
                    "suites", "pass",
                    "; ".join(n + (f" {p}" if p else "") for n, p in spec.suites),
                )
            reports = [report]

        code = _exit_code(reports)
        _emit(reports, args, spec_name, code)
        return code
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except (AlgebraError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
