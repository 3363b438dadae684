"""End-to-end acceptance checks, one test per criterion.

Each test prints a `criterion N: PASS/FAIL` line directly to the real stdout
so the lines survive pytest's capture.  All comparisons are exact; there are
no tolerances anywhere.
"""

import json
import sys
from itertools import combinations_with_replacement, product as iter_product

import pytest

from bvcheck.algebra import Element, enumerate_monomials, parse_element
from bvcheck.brackets import (
    Budget,
    akman_bracket,
    akman_order_check,
    bv_bracket,
    koszul_bracket,
    monomial_tuples,
)
from bvcheck.cli import main
from bvcheck.linfty import linfty_relation, verify_linfty
from bvcheck.models import (
    exterior_cube_model,
    koszul_complex_model,
    mixed_order_model,
    polyvector_model,
)
from bvcheck.operators import Operator
from bvcheck.structures import (
    check_derivation_lemma,
    cohomology,
    degree_split,
    induced_bv,
)
from oracles import (
    SCHOUTEN_CALIBRATION,
    gerstenhaber_by_evaluation,
    relation_by_expansion,
    schouten_oracle,
)


ANNOUNCED: list[str] = []


def announce(number: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number}: {status}"
    if detail:
        line += f" ({detail})"
    ANNOUNCED.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_1_core_operator_certificates():
    model = polyvector_model(3)
    budget = Budget(max_degree=3, max_tuples=200)
    cert = akman_order_check(model.D, 2, budget)
    ok_square, witness = model.D.is_square_zero()
    passed = (
        cert.passed
        and cert.sharp
        and cert.tuples_tested >= 200
        and ok_square
        and witness is None
    )
    announce(1, passed, f"{cert.tuples_tested} triples, order 2 sharp, square zero")


def test_criterion_2_bracket_matches_independent_oracle():
    model = polyvector_model(2)
    monos = enumerate_monomials(model.table, 3)
    pairs = 0
    mismatches = 0
    for ma, mb in iter_product(monos, repeat=2):
        a = Element.monomial(model.table, ma)
        b = Element.monomial(model.table, mb)
        pairs += 1
        lhs = bv_bracket(model.D, a, b)
        rhs = SCHOUTEN_CALIBRATION * schouten_oracle(a, b)
        if lhs != rhs:
            mismatches += 1
    announce(2, pairs >= 200 and mismatches == 0, f"{pairs} pairs, {mismatches} mismatches")


def test_criterion_3_bracket_route_equivalence():
    models = [polyvector_model(2), koszul_complex_model([1]), mixed_order_model()]
    total = 0
    mismatches = 0
    for model in models:
        budget = Budget(max_degree=2, max_tuples=40, seed=1)
        for arity in range(1, 6):
            for tup in monomial_tuples(model.table, arity, budget):
                elems = [Element.monomial(model.table, m) for m in tup]
                total += 1
                if akman_bracket(model.D, elems) != koszul_bracket(model.D, elems):
                    mismatches += 1
    announce(3, total >= 500 and mismatches == 0, f"{total} tuples, {mismatches} mismatches")


def test_criterion_4_relation_family_forward_and_converse():
    # order-2 operator, sampled window
    poly = polyvector_model(2)
    poly_reports = verify_linfty(poly.D, 4, Budget(max_degree=2, max_tuples=60))
    poly_ok = all(r.passed for r in poly_reports)

    # order-3 operator on the 8-dimensional exterior algebra, exhaustively;
    # the relation is graded symmetric, so sorted tuples span all of them.
    # Each value is the definitional sum of brackets of brackets, and the
    # library's bracket of the square must equal it.
    ext = exterior_cube_model()
    basis = enumerate_monomials(ext.table, 3)
    assert len(basis) == 8
    ext_ok = True
    checked = 0
    for n in range(1, 5):
        for combo in combinations_with_replacement(basis, n):
            elems = [Element.monomial(ext.table, m) for m in combo]
            checked += 1
            value = relation_by_expansion(ext.D, n, elems)
            assert value == linfty_relation(ext.D, n, elems)
            if not value.is_zero():
                ext_ok = False
    # converse: an odd perturbation with a nonzero square must fail, with a
    # concrete witness tuple
    bad = ext.D + Operator.multiplication(Element.generator(ext.table, "xi1"))
    assert not bad.is_square_zero()[0]
    failing = [r for r in verify_linfty(bad, 2, Budget(max_degree=3, max_tuples=200))
               if not r.passed]
    converse_ok = bool(failing) and failing[0].failing_tuple is not None
    if converse_ok:
        elems = [Element.monomial(ext.table, m) for m in failing[0].failing_tuple]
        converse_ok = not linfty_relation(bad, failing[0].index, elems).is_zero()

    announce(
        4,
        poly_ok and ext_ok and converse_ok,
        f"exhaustive {checked} basis tuples; converse witness at n={failing[0].index}",
    )


def test_criterion_5_degree_split_and_square_expansion():
    model = mixed_order_model()
    budget = Budget(max_degree=2, max_tuples=120)
    result = degree_split(model.D, budget)
    degrees = [comp.degree() for _, comp in result.components]
    split_ok = (
        [n for n, _ in result.components] == [1, 2, 3]
        and degrees == [1, -1, -3]
        and not result.residual_degrees
        and all(c.passed for c in result.certificates.values())
    )
    comps = model.D.degree_components()
    d, D2, D3 = comps[1], comps[-1], comps[-3]
    identities_ok = (
        d.compose(d).is_zero()
        and (d.compose(D2) + D2.compose(d)).is_zero()
        and (D2.compose(D2) + d.compose(D3) + D3.compose(d)).is_zero()
    )
    announce(5, split_ok and identities_ok, "degrees +1/-1/-3, exact identities")


def test_criterion_6_derivation_lemma():
    model = koszul_complex_model([1])
    budget = Budget(max_degree=9, max_tuples=120)
    report = check_derivation_lemma(model.D, budget)
    items = {i.name: i for i in report.items}
    derivation = items["D is a bracket derivation"]
    pairs = int(derivation.details.split()[0]) if derivation.details else 0
    leibniz1 = items["D1 product Leibniz"]
    pairs1 = int(leibniz1.details.split()[0]) if leibniz1.details else 0
    passed = (
        derivation.status == "pass"
        and pairs >= 100
        and items["product-Leibniz failure of D"].status == "pass"
        and items["product-Leibniz failure of D"].witness is not None
        and leibniz1.status == "pass"
        and pairs1 >= 100
    )
    announce(6, passed, f"{pairs} pairs, failure witness exhibited")


def test_criterion_7_cohomology_and_induced_structure():
    weighted = koszul_complex_model([2])
    H = cohomology(weighted.table, weighted.d, 6)
    dims_ok = H.dims() == {0: 1, 2: 1}
    reps = {g: [str(r) for r in rs] for g, rs in H.representatives.items()}
    reps_ok = reps == {0: ["1"], 2: ["x1"]}

    poly = polyvector_model(2)
    budget = Budget(max_degree=2, max_tuples=60)
    # with a zero differential the induced operator is the original one
    induced_is_delta = poly.D.degree_components().get(-1) == poly.D
    report = induced_bv(poly.table, poly.d, poly.D, 2, budget)
    items = {i.name: i.status for i in report.items}
    induced_ok = (
        report.passed
        and items["induced operator squares to zero on classes"] == "pass"
        and items["induced operator has order <= 2 on representatives"] == "pass"
        and items["induced bracket: graded antisymmetry"] == "pass"
        and items["induced bracket: graded Jacobi"] == "pass"
        and items["induced bracket: Leibniz rule"] == "pass"
    )
    announce(
        7,
        dims_ok and reps_ok and induced_is_delta and induced_ok,
        "slice dims {1,1}; induced operator is the original one",
    )


def test_criterion_8_oracle_bracket_axioms():
    model = polyvector_model(2)
    elems = [
        Element.monomial(model.table, m)
        for m in enumerate_monomials(model.table, 2)
    ]
    budget = Budget(max_degree=2, max_tuples=len(elems) ** 3)
    report = gerstenhaber_by_evaluation(
        lambda a, b: SCHOUTEN_CALIBRATION * schouten_oracle(a, b),
        lambda a, b: a * b,
        elems,
        budget,
    )
    announce(8, report.passed and report.fully_tested,
             f"all {len(elems)}^3 monomial triples")


def test_criterion_9_infrastructure(tmp_path):
    spec_text = (
        "MODEL polyvector2\n"
        "SUITE bv-core order=2\n"
        "SUITE brackets arity=2\n"
    )
    spec = tmp_path / "case.spec"
    spec.write_text(spec_text)

    # determinism: byte-identical JSON for a fixed spec and seed
    blobs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(["check", "--spec", str(spec), "--seed", "11",
                     "--budget-degree", "2", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    deterministic = blobs[0] == blobs[1]

    # witness round-trip: a reported witness parses back and re-certifies
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "GENERATORS\nx 0\nxi 1\n"
        "OPERATOR D\n1 | 0 0 | 1 1\n1 | 0 1 | 0 0\n"
        "SUITE bv-core order=2\n"
    )
    out = tmp_path / "bad.json"
    fail_code = main(["check", "--spec", str(bad), "--format", "json",
                      "--out", str(out)])
    payload = json.loads(out.read_text())
    items = [i for s in payload["suites"] for i in s["items"]]
    witness_item = next(i for i in items if i["name"] == "operator squares to zero")
    from bvcheck.specfile import parse_spec

    parsed = parse_spec(bad.read_text())
    w = parse_element(parsed.table, witness_item["witness"])
    D = parsed.operators["D"]
    round_trip = not D.apply(D.apply(w)).is_zero()

    # exit-status contract: 0 pass, 1 fail, 2 spec error, 3 untested only
    garbage = tmp_path / "garbage.spec"
    garbage.write_text("GENERATORS\nx zero\n")
    codes = (
        main(["check", "--spec", str(spec), "--budget-degree", "2",
              "--out", str(tmp_path / "h0.txt")]),
        fail_code,
        main(["check", "--spec", str(garbage)]),
        main(["check", "--model", "polyvector2", "--suite", "derivation",
              "--budget-degree", "0", "--out", str(tmp_path / "h3.txt")]),
    )
    contract = codes == (0, 1, 2, 3)
    announce(9, deterministic and round_trip and contract,
             f"exit codes {codes}")
