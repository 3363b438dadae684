import hashlib
import json

import pytest

from bvcheck import brackets, cli, structures
from bvcheck.algebra import AlgebraError, parse_element
from bvcheck.brackets import Budget
from bvcheck.cli import SUITES, build_parser, main
from bvcheck.models import BUILTIN_MODELS
from bvcheck.specfile import parse_spec

LAPLACIAN_SPEC = """\
GENERATORS
x1 0
x2 0
xi1 1
xi2 1

OPERATOR D
1 | 0 0 0 0 | 1 0 1 0
1 | 0 0 0 0 | 0 1 0 1

SUITE bv-core order=2
SUITE brackets arity=2
SUITE gerstenhaber
"""

NOT_ODD_SPEC = """\
GENERATORS
x 0

OPERATOR D
1 | 1 | 1

SUITE bv-core
"""

NOT_SQUARE_ZERO_SPEC = """\
GENERATORS
x 0
xi 1

OPERATOR D
1 | 0 0 | 1 1
1 | 0 1 | 0 0

SUITE bv-core order=2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_passes_on_good_spec(tmp_path, capsys):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    code = main(["check", "--spec", spec, "--budget-degree", "2",
                 "--budget-tuples", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert "[FAIL" not in out


def test_check_fails_with_witness(tmp_path, capsys):
    spec = write(tmp_path, "bad.spec", NOT_SQUARE_ZERO_SPEC)
    code = main(["check", "--spec", spec])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out


def test_exit_code_two_on_malformed_spec(tmp_path, capsys):
    spec = write(tmp_path, "broken.spec", "GENERATORS\nx zero\n")
    code = main(["check", "--spec", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_exit_code_two_on_unknown_model(capsys):
    assert main(["check", "--model", "nosuch"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_exit_code_three_when_only_untested(tmp_path, capsys):
    # with an empty enumeration window the Leibniz-failure witness search
    # cannot find anything: nothing fails, one item stays untested
    code = main(["check", "--model", "polyvector2", "--suite", "derivation",
                 "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "UNTESTED" in out
    assert "result: PASS" in out


# mixed-order plus multiplication by xi1: D∘D = d/dxi1∘xi1 + xi1∘d/dxi1 = 1
MIXED_ORDER_PLUS_XI1_SPEC = """\
MODEL mixed-order

OPERATOR D
1 | 0 0 0 0 0 0 | 1 0 0 0 0 0
1 | 0 0 0 0 0 0 | 0 1 1 0 0 0
1 | 0 0 0 0 0 0 | 0 0 0 1 1 1
1 | 1 0 0 0 0 0 | 0 0 0 0 0 0

SUITE linfty
"""


def test_relation_family_on_the_unit_alone_is_untested(capsys):
    # at window degree 0 every tuple is (1, ..., 1): a pass there says only
    # that (D∘D)(1) = 0
    code = main(["check", "--model", "polyvector2", "--suite", "linfty",
                 "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.count("[UNTESTED] relation n=") == 3
    assert "[PASS" not in out


def test_relation_family_failing_on_the_unit_alone_still_fails(tmp_path, capsys):
    spec = write(tmp_path, "unit.spec", MIXED_ORDER_PLUS_XI1_SPEC)
    code = main(["check", "--spec", spec, "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("[FAIL    ] relation n=") == 3


def test_gerstenhaber_on_the_unit_alone_is_untested(capsys):
    # at window degree 0 the only element is 1, whose bracket with anything
    # vanishes, so the five passes exercise nothing
    code = main(["check", "--model", "polyvector2", "--suite", "gerstenhaber",
                 "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.count("[UNTESTED]") == 5
    assert out.count(", the unit monomial alone") == 3
    assert "[PASS" not in out


def test_gerstenhaber_failing_on_the_unit_alone_still_fails(tmp_path, capsys):
    spec = write(tmp_path, "unit.spec", MIXED_ORDER_PLUS_XI1_SPEC)
    code = main(["check", "--spec", spec, "--suite", "gerstenhaber", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL    ] Leibniz rule (witness: (1, 1, 1))" in out
    assert "[PASS" not in out


@pytest.mark.parametrize("suite, items", [
    ("brackets", [f"recursion vs unshuffle expansion, arity {n} - 1 tuples" for n in (1, 2, 3)]),
    # koszul1's D has a degree +1 part, so both derivation tallies are made
    ("derivation", ["D is a bracket derivation - 1 pairs", "D1 product Leibniz - 1 pairs"]),
])
def test_tallied_passes_on_the_unit_alone_are_untested(suite, items, capsys):
    code = main(["check", "--model", "koszul1", "--suite", suite, "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "[PASS" not in out
    for item in items:
        assert f"[UNTESTED] {item}, the unit monomial alone" in out


def test_exact_and_vacuous_passes_on_the_unit_alone_stay_passes(capsys):
    code = main(["check", "--model", "polyvector2", "--suite", "bv-core",
                 "--suite", "derivation", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "[PASS    ] bracket order <= 2 - pass (not shown sharp, 1 tuples)" in out
    assert "[PASS    ] D1 product Leibniz - vacuous: no degree +1 part" in out
    assert "[UNTESTED] D is a bracket derivation - 1 pairs, the unit monomial alone" in out


def test_json_reports_are_byte_identical(tmp_path):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = main(["check", "--spec", spec, "--seed", "7",
                     "--budget-degree", "2", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["schema"] == "bvcheck-report/1"
    assert payload["seed"] == 7
    assert all(s["passed"] for s in payload["suites"])


def test_json_failure_witness_round_trips(tmp_path):
    spec = write(tmp_path, "bad.spec", NOT_SQUARE_ZERO_SPEC)
    target = tmp_path / "report.json"
    code = main(["check", "--spec", spec, "--format", "json",
                 "--out", str(target)])
    assert code == 1
    payload = json.loads(target.read_text())
    items = [i for s in payload["suites"] for i in s["items"]]
    witness_item = next(
        i for i in items if i["name"] == "operator squares to zero"
    )
    assert witness_item["status"] == "fail"
    table = parse_spec(NOT_SQUARE_ZERO_SPEC).table
    D = parse_spec(NOT_SQUARE_ZERO_SPEC).operators["D"]
    w = parse_element(table, witness_item["witness"])
    assert not D.apply(D.apply(w)).is_zero()


def test_check_fails_on_even_operator(tmp_path, capsys):
    spec = write(tmp_path, "even.spec", NOT_ODD_SPEC)
    assert main(["check", "--spec", spec]) == 1
    assert "operator is odd" in capsys.readouterr().out


def test_suite_flag_overrides_spec(tmp_path, capsys):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    code = main(["check", "--spec", spec, "--suite", "linfty",
                 "--budget-degree", "2", "--budget-tuples", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "relation n=1" in out
    assert "bracket order" not in out


def test_parser_is_built_once_and_shared():
    assert build_parser() is build_parser()


def test_suite_flag_does_not_leak_into_the_next_call(tmp_path, capsys):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    argv = ["check", "--spec", spec, "--budget-degree", "2", "--budget-tuples", "30"]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--suite", "linfty"]) == 0
    assert "bracket order" not in capsys.readouterr().out
    # a bare check runs the spec's own suites again, not the last --suite
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == alone
    assert "bracket order" in out and "relation n=1" not in out


def test_argument_error_between_calls_changes_nothing(tmp_path, capsys):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    argv = ["check", "--spec", spec, "--budget-degree", "2", "--budget-tuples", "30"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--spec", spec, "--suite", "linfty", "--budget-degree", "two"])
    assert exc.value.code == 2
    assert "--budget-degree" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == before


def test_spec_without_differential_builds_its_cohomology_once(tmp_path, monkeypatch):
    spec = parse_spec(LAPLACIAN_SPEC)
    assert spec.differential() is spec.differential()
    assert spec.differential().is_zero()
    slices, real = [], structures.kernel_and_image

    def counting(labels, vectors):
        slices.append(tuple(labels))
        return real(labels, vectors)

    monkeypatch.setattr(structures, "kernel_and_image", counting)
    # one build of three slices, as for the model whose d is also zero
    assert main(["cohomology", "--model", "polyvector2", "--window", "3"]) == 0
    assert len(slices) == 3
    path = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    slices.clear()
    assert main(["cohomology", "--spec", path, "--window", "3"]) == 0
    assert len(slices) == 3


def test_unknown_suite_is_a_spec_error(tmp_path, capsys):
    spec = write(tmp_path, "good.spec", LAPLACIAN_SPEC)
    assert main(["check", "--spec", spec, "--suite", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_brackets_subcommand_tabulates_values(capsys):
    code = main(["brackets", "--model", "polyvector2", "--arity", "2",
                 "--budget-degree", "2", "--budget-tuples", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recursion vs unshuffle expansion" in out
    assert "F(" in out


def test_brackets_value_table_is_skipped_when_the_arity_vanishes(monkeypatch, capsys):
    # F^3 of the Laplacian vanishes: the 425 calls are the route suite's
    # (25 + 200 + 200 tuples), none is spent on the empty value table
    calls, real = [], cli.akman_bracket
    monkeypatch.setattr(cli, "akman_bracket", lambda D, args: calls.append(1) or real(D, args))
    assert main(["brackets", "--model", "polyvector2", "--arity", "3"]) == 0
    assert len(calls) == 425
    assert capsys.readouterr().out.split("arity-3 bracket values\n")[1] == "result: PASS\n"


def test_split_subcommand(capsys):
    code = main(["split", "--model", "mixed-order", "--budget-tuples", "60"])
    out = capsys.readouterr().out
    assert code == 0
    for fragment in ("n=1 (degree +1)", "n=2 (degree -1)", "n=3 (degree -3)"):
        assert fragment in out


def test_cohomology_subcommand(capsys):
    code = main(["cohomology", "--model", "koszul2", "--window", "6",
                 "--budget-tuples", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{0: 1, 2: 1}" in out
    assert "degree 2 - x1" in out


def test_explain_subcommand(capsys):
    code = main(["explain", "--model", "mixed-order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "operator D" in out
    assert "order 3" in out


@pytest.mark.parametrize("flag", ["--budget-tuples", "--budget-degree"])
def test_negative_budget_exits_two(flag, capsys):
    code = main(["check", "--model", "polyvector2", "--suite", "linfty", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err


def test_negative_cohomology_window_exits_two(capsys):
    code = main(["cohomology", "--model", "koszul2", "--window", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "window" in captured.err


@pytest.mark.parametrize("arity", [-1, 0])
def test_bracket_arity_below_one_exits_two(arity, tmp_path, capsys):
    spec = write(tmp_path, "s.spec", f"MODEL polyvector2\nSUITE brackets arity={arity}\n")
    for argv in (
        ["brackets", "--model", "polyvector2", "--arity", str(arity)],
        ["check", "--spec", spec],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "arity" in captured.err


def test_zero_budget_is_untested(capsys):
    argv = ["check", "--model", "polyvector2", "--suite", "linfty", "--budget-tuples", "0"]
    assert main(argv + ["--format", "json"]) == 3
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    assert [(i["status"], i["details"]) for i in suite["items"]] == [("untested", "0 tuples")] * 3


@pytest.mark.parametrize("argv, item", [
    (["check", "--model", "polyvector2", "--suite", "bv-core"], "bracket order <= 2"),
    (["split", "--model", "polyvector2"], "component n=2 (degree -1) has order <= 2"),
    (["check", "--model", "koszul2", "--suite", "bvinfty"], "d is a product derivation"),
])
def test_zero_budget_order_certificate_is_untested(argv, item, capsys):
    assert main(argv + ["--budget-tuples", "0", "--format", "json"]) == 3
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    statuses = {i["name"]: (i["status"], i["details"]) for i in suite["items"]}
    assert statuses[item] == ("untested", "untested (not shown sharp, 0 tuples)")
    assert all(s in ("pass", "untested") for s, _ in statuses.values())


@pytest.mark.parametrize("n", [0, -2])
def test_empty_relation_family_exits_two(n, tmp_path, capsys):
    spec = write(tmp_path, "s.spec", f"MODEL polyvector2\nSUITE linfty n={n}\n")
    code = main(["check", "--spec", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n >= 1" in captured.err


# the polyvector2 Laplacian plus d/dx1: degrees -1 and 0, so no parity
MIXED_PARITY_SPEC = (
    LAPLACIAN_SPEC.split("SUITE")[0].rstrip("\n")
    + "\n1 | 0 0 0 0 | 1 0 0 0\n\nSUITE bv-core order=3\n"
)


@pytest.mark.parametrize("budget", ["0", "200"])
def test_mixed_parity_order_check_exits_two(budget, tmp_path, capsys):
    spec = write(tmp_path, "mixed.spec", MIXED_PARITY_SPEC)
    code = main(["check", "--spec", spec, "--budget-tuples", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "mixed-parity" in captured.err


# multiplication by xi1 + xi1*xi2: degrees 1 and 2, so no parity
MIXED_PARITY_GERSTENHABER_SPEC = (
    "GENERATORS\nxi1 1\nxi2 1\nOPERATOR D\n1 | 1 0 | 0 0\n1 | 1 1 | 0 0\nSUITE gerstenhaber\n"
)


@pytest.mark.parametrize("budget", ["0", "200"])
def test_mixed_parity_gerstenhaber_exits_two(budget, tmp_path, capsys):
    # the Leibniz rule reads the order certificate, which checks the parity
    # before it searches, so a zero budget does not make it untested
    spec = write(tmp_path, "mixed.spec", MIXED_PARITY_GERSTENHABER_SPEC)
    with pytest.raises(AlgebraError, match="mixed-parity"):
        cli.run_suite("gerstenhaber", parse_spec(MIXED_PARITY_GERSTENHABER_SPEC),
                      Budget(max_tuples=int(budget)), {})
    code = main(["check", "--spec", spec, "--budget-tuples", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "mixed-parity" in captured.err


EXTERIOR_CUBE_ORDER_2_SPEC = "MODEL exterior-cube\nSUITE bv-core order=2\n"


@pytest.mark.parametrize("budget", [
    ["--budget-degree", "0"],
    ["--budget-degree", "1", "--budget-tuples", "3"],
], ids=["unit-window", "three-tuples"])
def test_order_claim_the_normal_form_refutes_is_untested(budget, tmp_path, capsys):
    # d/dxi1 d/dxi2 d/dxi3 has order 3; the window's tuples miss its nonzero
    # bracket (xi1, xi2, xi3), so the order <= 2 claim is untested, not passed
    spec = write(tmp_path, "cube.spec", EXTERIOR_CUBE_ORDER_2_SPEC)
    code = main(["check", "--spec", spec, *budget])
    out = capsys.readouterr().out
    assert code == 3
    assert "[UNTESTED] bracket order <= 2 - untested (not shown sharp," in out
    # the Leibniz rule reads the same certificate
    code = main(["check", "--model", "exterior-cube", "--suite", "gerstenhaber", *budget])
    out = capsys.readouterr().out
    assert code == 3
    assert "[UNTESTED] Leibniz rule - " in out


def test_gerstenhaber_evaluates_no_arity_three_bracket(monkeypatch, capsys):
    # F^3 of the Laplacian vanishes by its normal form: the Leibniz rule is
    # read off the order certificate, and only Jacobi evaluates brackets, of
    # arity 2 (every caller reaches akman_bracket through one of these names)
    arities = []
    for module in (brackets, cli):
        real = module.akman_bracket
        monkeypatch.setattr(module, "akman_bracket",
                            lambda D, args, real=real: arities.append(len(args)) or real(D, args))
    assert main(["check", "--model", "polyvector2", "--suite", "gerstenhaber"]) == 0
    assert "[PASS    ] Leibniz rule - 200 triples" in capsys.readouterr().out
    assert arities and set(arities) == {2}


# square-zero but not odd: the derivation suite is a domain error at any budget
NOT_ODD_DERIVATION_SPECS = {
    "even": "GENERATORS\nxi1 1\nxi2 1\nOPERATOR D\n1 | 0 0 | 1 1\nSUITE derivation\n",
    "mixed-parity-xi1xi2": "GENERATORS\nxi1 1\nxi2 1\nxi3 1\nOPERATOR D\n"
    "1 | 1 1 0 | 0 0 0\n1 | 1 1 1 | 0 0 0\nSUITE derivation\n",
    "mixed-parity-xi1": "GENERATORS\nxi1 1\nxi2 1\nOPERATOR D\n"
    "1 | 1 0 | 0 0\n1 | 1 1 | 0 0\nSUITE derivation\n",
}


@pytest.mark.parametrize("budget", ["0", "200"])
@pytest.mark.parametrize("name", sorted(NOT_ODD_DERIVATION_SPECS))
def test_derivation_of_a_non_odd_operator_exits_two(name, budget, tmp_path, capsys):
    spec = write(tmp_path, "not-odd.spec", NOT_ODD_DERIVATION_SPECS[name])
    code = main(["check", "--spec", spec, "--budget-tuples", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "requires an odd operator" in captured.err


def test_missing_spec_and_model(capsys):
    assert main(["check"]) == 2
    assert "--spec or --model" in capsys.readouterr().err


# Golden reports: the exit code and the SHA-256 of the JSON report of every
# suite on every built-in model and on two specs whose checks fail, so that
# the fail branches and their witness strings are pinned byte for byte too.
GOLDEN_SPECS = {
    # the polyvector2 Laplacian plus multiplication by xi1: odd, not square zero
    "laplacian-plus-xi1": LAPLACIAN_SPEC.split("SUITE")[0].rstrip("\n")
    + "\n1 | 0 0 1 0 | 0 0 0 0\n",
    # d/dx d/dy with y odd of degree -1: square zero, degree +1, order 2
    "second-order-degree-one": "GENERATORS\nx 0\ny -1\n\nOPERATOR D\n1 | 0 0 | 1 1\n",
}
GOLDEN_BUDGET = ["--format", "json", "--budget-degree", "2", "--budget-tuples", "40"]
GOLDEN = {
    ("model:exterior-cube", "bv-core"): (0, "267bcbc644edc682c8fafc78b8c33dbe9841d43fb7c4786f36f4aefed92c6e42"),
    ("model:exterior-cube", "brackets"): (0, "ae0ab98d5993aaef2e57a4e10850c07ae48ac0d7a486ee7f5a9ec731ea33dee5"),
    ("model:exterior-cube", "linfty"): (0, "712aca4c0946a93dae088f7faae37e74f9f72bed1ef88a97965dd088479dd797"),
    ("model:exterior-cube", "split"): (0, "229d3a0e851646fa12a13704e317a0081a9a1667b7c82e41ce6930ca929f1e6c"),
    ("model:exterior-cube", "derivation"): (0, "7e393c0efd390ef856e05744a372aa9f820a95e0503f51ca48ecb1e597abb3d7"),
    ("model:exterior-cube", "bvinfty"): (0, "25ab726c9a25c32779eeae98aa8762c288ae5e369b271e73559358368e43d21e"),
    ("model:exterior-cube", "gerstenhaber"): (1, "4b1422587be7e8ceadc19edd813495e588de77742492ebe43469bd563844ad0d"),
    ("model:exterior-cube", "cohomology"): (0, "3a508838bf3aadfceabae281e284a9926d8527f70b724e54c71d7a44d1c45060"),
    ("model:koszul1", "bv-core"): (0, "5dc251b6ede1cfaebf5bd6853eb0c2a78aec2567dec0f0c6f6044bf39fbd05e0"),
    ("model:koszul1", "brackets"): (0, "b9c33e54e781b93e84e8557239e2572b8b21d9e51bc707eeb8ee1e66b21007c0"),
    ("model:koszul1", "linfty"): (0, "78cbb10ffa7909fdd2df8731f1abe723f8487fc698943c9dcc102391142a4a3b"),
    ("model:koszul1", "split"): (0, "f8edb0b040b238a017ab31b1efcf8e5efc54cdd46453edefe96259d05dde1b93"),
    ("model:koszul1", "derivation"): (3, "d435af2099e01ef6c1a0a72b6513700b6e7921764ffa646db039ae361eabcf35"),
    ("model:koszul1", "bvinfty"): (0, "5b2ac9828a3479d47b6b57899e478a72c08b1d3418459db672b547f0e1ceaf88"),
    ("model:koszul1", "gerstenhaber"): (0, "070129d83e3eea2aea9edae608e460e2d387b97936893ad8b43d294c2cb73a2a"),
    ("model:koszul1", "cohomology"): (3, "595f1c54985726c28f3198d0e9cc5ea1e6902f3dccce1b09ea8d7dcbe0ff95ed"),
    ("model:koszul2", "bv-core"): (0, "4d2932ae8727bf0502869238ae639567d1350305a05f430077c09dab87890ad3"),
    ("model:koszul2", "brackets"): (0, "c2f6ffedd26ecdabad6260b357f815f7a29bbca02c17d95db1740bf4e8dbd930"),
    ("model:koszul2", "linfty"): (0, "1d2f2d03f3d03d6ef37406425471f751f6c885a14ae8556fdc963a6f75bebf3d"),
    ("model:koszul2", "split"): (0, "48870eee443319eeb92b5c833879f0868d28b416dfadfacf29d49155825ca935"),
    ("model:koszul2", "derivation"): (3, "64a2425759f418dbc960110fd23011a0eb23368805b529593744d629da8de4cf"),
    ("model:koszul2", "bvinfty"): (0, "939da20e11d4bcff4aa54b46fcd3c8e221b00240519d54ba2a0f680d23f1331d"),
    ("model:koszul2", "gerstenhaber"): (0, "e2e9db4e5491b408080a65e03f71276606b35884c36f38896b94f00c57eeae80"),
    ("model:koszul2", "cohomology"): (0, "72a28365dbe31892bd9a89073833f397e0ac5971faa9b3df7a5e427048adc610"),
    ("model:mixed-order", "bv-core"): (0, "702909c9093aaf5d213fc2a8616caad8520d7736109ccbb905d83ab9ae002ef3"),
    ("model:mixed-order", "brackets"): (0, "43893365a514a1d9e8f2016efaeeb1d9d65198f06ab3f653b16ae36dd1d81e8c"),
    ("model:mixed-order", "linfty"): (0, "95580c3bdeaa53a11c785eb766b2a64c2fd8a34b1615325058c687f4115742e6"),
    ("model:mixed-order", "split"): (0, "786224bf816559b1f7825875dc2979cb9d7f54098e3ba5b2b8c63a6678e49d68"),
    ("model:mixed-order", "derivation"): (3, "0809e2649dda4d1051e41b8543f3440d265d766b2a89f87549af2752b532b25d"),
    ("model:mixed-order", "bvinfty"): (0, "f4a263814b029f5474a8139b4e4abc03f59556077c74de3dfb32c7aab5a7732a"),
    ("model:mixed-order", "gerstenhaber"): (1, "84f96cd701128d7f00bf4cd27285bba2a014a6837c50aad175163f533b422c07"),
    ("model:mixed-order", "cohomology"): (3, "e38ec7c710cdcc246ab60e2b885439b1eb600a9a2bde6c4858cb772882bfb892"),
    ("model:polyvector2", "bv-core"): (0, "1e3d0e7a1459c795bd9e724d10ea742c6a050158e985bd6b05ab29943cc67170"),
    ("model:polyvector2", "brackets"): (0, "fa0aaf3fefb498f965fa81d7122b07f9441f9ee420a01892ea2db679db3cc349"),
    ("model:polyvector2", "linfty"): (0, "b54f088b2208620185d884f948dcab0ec3bf0ada282ba1aca0aeddf52f7e5ca3"),
    ("model:polyvector2", "split"): (0, "11b218ffd91a98b6081733112ab8149b8c0aeda504a765235b3bb38a95a6f2d3"),
    ("model:polyvector2", "derivation"): (0, "e4938fb41c37500bd5a48305372fefc27bff7657871e28b74322b05ebb545370"),
    ("model:polyvector2", "bvinfty"): (0, "0c43790467d3841e5b1cfd9f1bd310ea62a9c5da918dbdf5f3c621ab0405b8da"),
    ("model:polyvector2", "gerstenhaber"): (0, "84b4e08c4e715e0ffc7a744b1ce0e20fa6feb2bf03a4a8112dfa604dac23d7b2"),
    ("model:polyvector2", "cohomology"): (0, "73c0b807fd379be382c65782adcae560e2b686bee4ec212f133c636ace9406c1"),
    ("model:polyvector3", "bv-core"): (0, "1bd1d710739dc80039466c98a089af4d9f209eda880c9686e9530bcb645ae648"),
    ("model:polyvector3", "brackets"): (0, "e6d6f99af158b4bb1acc9e68db9dfaabc19f54ebfa20f4c30fa1e3ce3616c1e9"),
    ("model:polyvector3", "linfty"): (0, "65969249244edabf5027a0e136e4753908ef34e8c8a3a67c77b87335afc1c2c4"),
    ("model:polyvector3", "split"): (0, "4c4f811ec27d2b65f80eb1a6a926eeab7061bc1d1784d9ba8bf8acf2916dbdf0"),
    ("model:polyvector3", "derivation"): (0, "bbd050c68bf8559ae25a0932822b21f7d9ac567a5d09bbd3964ae88a8cb9224b"),
    ("model:polyvector3", "bvinfty"): (0, "c5c51af637c025ac9e463f514bc18b8e3c339bb7275c23ebc13dabb34e635643"),
    ("model:polyvector3", "gerstenhaber"): (0, "518cad9b170ddbcb142d1d1e00a55ea86a49ae2f09af6599eb1c3d63e466112a"),
    ("model:polyvector3", "cohomology"): (0, "9a295b95df00b01e3495a93dc194f54d03ef0fe25641ccde9f98ee3c04359ed7"),
    ("laplacian-plus-xi1", "bv-core"): (1, "8d6c285d2a0aaa9684dca816cdd43a0788a2e972224da8055816e4bcb145cc8e"),
    ("laplacian-plus-xi1", "brackets"): (0, "21c6335fd41db07e6042f4c6fdc797543ceecd916f8505fd79c10e4585d1212d"),
    ("laplacian-plus-xi1", "linfty"): (1, "5e878cb29d6ce9e57cf25ad3ad7691e287e1335b7718f92c439e9a41f5a1fe54"),
    ("laplacian-plus-xi1", "split"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("laplacian-plus-xi1", "derivation"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("laplacian-plus-xi1", "bvinfty"): (1, "575a6613ff18f957a00ecb4318d3e16decdceecd33812b4ef7021ac461dd3b0f"),
    ("laplacian-plus-xi1", "gerstenhaber"): (1, "d9dbf4e6fbf1bd72dfac80b412c97a0312133445b0ae9ebadec9190b12767301"),
    ("laplacian-plus-xi1", "cohomology"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("second-order-degree-one", "bv-core"): (0, "ae6e0ef03ebbd911c2d40b81c6c35cf54f5cf781a0b638e9e30333dc5ecb32a4"),
    ("second-order-degree-one", "brackets"): (0, "536249ee178ebfec6e848baa39ba017a05366c5832afff74ceb1c12723fbd35d"),
    ("second-order-degree-one", "linfty"): (0, "e5dd99b3fbeb9020e09064bc62efd41f6e568ad86253c35532ac40a67a009426"),
    ("second-order-degree-one", "split"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("second-order-degree-one", "derivation"): (1, "9b654439c511f2e02c6ed42dd86a7f3e0e8b0c88e018ca618628261c46563110"),
    ("second-order-degree-one", "bvinfty"): (1, "4a64bcd1df5c0a02a43a46372bf51d0f869b1ee2c9f6fc71157d9616fec394e9"),
    ("second-order-degree-one", "gerstenhaber"): (0, "0eeb926f0dd4faccecb8b6859f1ab6c8b5ae046a5299a3846f960cd75b886c05"),
    ("second-order-degree-one", "cohomology"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _report_digest(capsys, argv):
    code = main(argv + GOLDEN_BUDGET)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_golden_table_covers_every_suite_and_source():
    sources = [f"model:{m}" for m in BUILTIN_MODELS] + list(GOLDEN_SPECS)
    assert set(GOLDEN) == {(src, s) for src in sources for s in SUITES}


@pytest.mark.parametrize("source,suite", sorted(GOLDEN))
def test_golden_check_reports(source, suite, tmp_path, monkeypatch, capsys):
    if source.startswith("model:"):
        where = ["--model", source[len("model:"):]]
    else:
        # the report names the spec path, so keep it relative and fixed
        monkeypatch.chdir(tmp_path)
        write(tmp_path, source + ".spec", GOLDEN_SPECS[source])
        where = ["--spec", source + ".spec"]
    got = _report_digest(capsys, ["check", *where, "--suite", suite])
    assert got == GOLDEN[source, suite]


def test_golden_brackets_command(capsys):
    got = _report_digest(capsys, ["brackets", "--model", "polyvector2", "--arity", "2"])
    assert got == (0, "f2470a4e4dd49378e6cc561af9d725e2f5ff58eda74e5f8500efb63b396d17eb")


# The cohomology command on a weighted Koszul complex, on a model whose d is
# one of three components of D, and on the polyvector2 Laplacian (degree -1)
# used as d, so that every boundary lands in an earlier degree slice.
GOLDEN_COHOMOLOGY_SPECS = {
    "laplacian-as-d": "MODEL polyvector2\n\nOPERATOR d\n"
    + "1 | 0 0 0 0 | 1 0 1 0\n1 | 0 0 0 0 | 0 1 0 1\n",
}
GOLDEN_COHOMOLOGY = {
    ("model:koszul2", "6"): (0, "377f71a9f289eb990459be6a339a63bede9227f2699deac45567469fc8ce11d0"),
    ("model:mixed-order", "4"): (3, "d7924ff506baa403092e18407eb7766b0abb88f2f1eab1d79cc8472328f1cd71"),
    ("laplacian-as-d", "3"): (3, "ee466c784bb4105a3d518235a4ffa963a330e3f63373a53ec53d1e64c7df31f0"),
}


@pytest.mark.parametrize("source,window", sorted(GOLDEN_COHOMOLOGY))
def test_golden_cohomology_command(source, window, tmp_path, monkeypatch, capsys):
    if source.startswith("model:"):
        where = ["--model", source[len("model:"):]]
    else:
        monkeypatch.chdir(tmp_path)
        write(tmp_path, source + ".spec", GOLDEN_COHOMOLOGY_SPECS[source])
        where = ["--spec", source + ".spec"]
    got = _report_digest(capsys, ["cohomology", *where, "--window", window])
    assert got == GOLDEN_COHOMOLOGY[source, window]
