import hashlib
import json
import subprocess
import sys
from functools import partial
from itertools import product
from pathlib import Path

import pytest

import bvcheck
from bvcheck import brackets, cli, linfty, structures
from bvcheck.algebra import AlgebraError, Element, enumerate_monomials, parse_element
from bvcheck.brackets import Budget, bv_bracket, window_elements, window_tuples
from bvcheck.cli import SUITES, build_parser, main
from bvcheck.graded import koszul_sign, unshuffles
from bvcheck.models import BUILTIN_MODELS
from bvcheck.operators import Operator
from bvcheck.specfile import parse_spec
from bvcheck.structures import CheckItem, cohomology

from oracles import (
    akman_bracket_by_elements,
    gerstenhaber_by_evaluation,
    induced_identities_on_representatives,
    jacobiator,
    koszul_bracket_by_unshuffles,
    order_check_by_evaluation,
    relation_by_expansion,
    witness_elements,
)

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


@pytest.mark.parametrize("suite, message", [
    ("split", "error: degree_split requires a square-zero operator; D^2 != 0 at x1\n"),
    ("derivation", "error: derivation lemma requires D^2 = 0; witness x1\n"),
])
def test_domain_errors_show_the_square_witness_as_a_monomial(suite, message, tmp_path, capsys):
    spec = write(tmp_path, "lap.spec", GOLDEN_SPECS["laplacian-plus-xi1"])
    assert main(["check", "--spec", spec, "--suite", suite]) == 2
    assert capsys.readouterr().err == message


# d = d/dxi1 + xi1 d/dx1, of degree +1: d o d = d/dx1, first nonzero at x1
NOT_SQUARE_ZERO_DIFFERENTIAL_SPEC = """\
GENERATORS
x1 -2
xi1 -1

OPERATOR d
1 | 0 0 | 0 1
1 | 0 1 | 1 0

OPERATOR D
1 | 0 0 | 0 1
1 | 0 1 | 1 0

SUITE bvinfty
"""


@pytest.mark.parametrize("text, failing", [
    (NOT_SQUARE_ZERO_DIFFERENTIAL_SPEC, ["d", "D"]),
    ("laplacian-plus-xi1", ["D"]),
], ids=["d-and-D", "laplacian-plus-xi1"])
def test_bvinfty_shows_square_witnesses_as_monomials(text, failing, tmp_path, capsys):
    spec = write(tmp_path, "bvinfty.spec", GOLDEN_SPECS.get(text, text))
    code = main(["check", "--spec", spec, "--suite", "bvinfty"])
    out = capsys.readouterr().out
    assert code == 1
    for name in failing:
        assert f"[FAIL    ] {name} squares to zero (witness: x1)" in out
    assert out.count("squares to zero (witness:") == len(failing)


def test_exit_code_two_on_malformed_spec(tmp_path, capsys):
    spec = write(tmp_path, "broken.spec", "GENERATORS\nx zero\n")
    code = main(["check", "--spec", spec])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text, line", [
    ("GENERATORS\nx --1\n", 2),
    ("GENERATORS\nx \u00b2\n", 2),  # a superscript two: isdigit, but not int()
    ("GENERATORS\nx 0\nOPERATOR D\n1 | --1 | 0\n", 4),
])
def test_integer_tokens_int_cannot_read_are_spec_errors(text, line, tmp_path, capsys):
    spec = write(tmp_path, "bad-integer.spec", text)
    assert main(["check", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: line {line}, col ")
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["brackets", "split", "cohomology", "explain"])
def test_only_check_takes_a_suite_flag(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--model", "polyvector2", "--suite", "bv-core"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --suite bv-core" in capsys.readouterr().err


def test_exit_code_two_on_unknown_model(capsys):
    assert main(["check", "--model", "nosuch"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_exit_code_three_when_only_untested(tmp_path, capsys):
    # on the unit window the route-agreement tallies exercise nothing:
    # nothing fails, it is untested
    code = main(["check", "--model", "polyvector2", "--suite", "brackets",
                 "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "UNTESTED" in out
    assert out.endswith("result: UNTESTED\n")


# two terms that cancel: D parses as the zero operator, which counts as odd
ZERO_D_SPEC = "GENERATORS\nx 0\nxi 1\nOPERATOR D\n1 | 0 0 | 1 1\n-1 | 0 0 | 1 1\n"


@pytest.mark.parametrize("suite", ["bv-core", "bvinfty", "linfty", "derivation",
                                   "gerstenhaber", "split"])
def test_every_suite_passes_the_zero_operator(suite, tmp_path, capsys):
    spec = write(tmp_path, "zero.spec", ZERO_D_SPEC)
    assert parse_spec(ZERO_D_SPEC).main_operator().is_zero()
    assert main(["check", "--spec", spec, "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "[FAIL" not in out and out.endswith("result: PASS\n")


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


# d/dxi1 d/dxi2: square zero, of order 2 and even, so Jacobi is evaluated
EVEN_ORDER_TWO_SPEC = "GENERATORS\nxi1 1\nxi2 1\nOPERATOR D\n1 | 0 0 | 1 1\n"


def test_gerstenhaber_on_the_unit_alone_is_untested(tmp_path, capsys):
    # at window degree 0 the only element is 1, whose bracket with anything
    # vanishes, so the evaluated Jacobi line exercises nothing; the lines
    # read off normal forms hold whatever the window
    spec = write(tmp_path, "even.spec", EVEN_ORDER_TWO_SPEC)
    code = main(["check", "--spec", spec, "--suite", "gerstenhaber", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("  [")] == [
        "  [PASS    ] graded antisymmetry - exact",
        "  [UNTESTED] graded Jacobi - 1 triples, the unit monomial alone",
        "  [PASS    ] Leibniz rule - exact",
        "  [PASS    ] bracket degree offset -2 - exact",
        "  [PASS    ] product degree offset +0 - exact",
    ]



def test_gerstenhaber_failing_on_the_unit_alone_still_fails(tmp_path, capsys):
    spec = write(tmp_path, "unit.spec", MIXED_ORDER_PLUS_XI1_SPEC)
    code = main(["check", "--spec", spec, "--suite", "gerstenhaber", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 1
    # only the evaluated Jacobi line reads the window
    assert [line for line in out.splitlines() if line.startswith("  [")] == [
        "  [PASS    ] graded antisymmetry - exact",
        "  [UNTESTED] graded Jacobi - 1 triples, the unit monomial alone",
        "  [FAIL    ] Leibniz rule (witness: (1, 1, 1))",
        "  [PASS    ] product degree offset +0 - exact",
    ]


@pytest.mark.parametrize("suite, items", [
    ("brackets", [f"recursion vs unshuffle expansion, arity {n} - 1 tuples" for n in (1, 2, 3)]),
])
def test_tallied_passes_on_the_unit_alone_are_untested(suite, items, capsys):
    code = main(["check", "--model", "koszul1", "--suite", suite, "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "[PASS" not in out
    for item in items:
        assert f"[UNTESTED] {item}, the unit monomial alone" in out


# each suite's report as the library builds it, from a spec and a budget
LIBRARY_REPORTS = {
    "gerstenhaber": lambda spec, budget: structures.check_gerstenhaber(spec.main_operator(), budget),
    "derivation": lambda spec, budget: structures.check_derivation_lemma(spec.main_operator()),
    "brackets": lambda spec, budget: cli._brackets(spec, budget, {}),
    "linfty": lambda spec, budget: linfty.verify_linfty(spec.main_operator(), 3, budget),
}


@pytest.mark.parametrize("suite", sorted(LIBRARY_REPORTS))
@pytest.mark.parametrize("model", sorted(BUILTIN_MODELS))
def test_library_and_cli_agree_on_the_unit_window(model, suite, capsys):
    # the unit-window rule is the report's own: check prints every item as
    # the library made it, at the window of the unit alone too
    main(["check", "--model", model, "--suite", suite, "--budget-degree", "0",
          "--format", "json"])
    (printed,) = json.loads(capsys.readouterr().out)["suites"]
    report = LIBRARY_REPORTS[suite](parse_spec(f"MODEL {model}\n"), Budget(max_degree=0))
    assert printed["items"] == [vars(item) for item in report.items]
    # a sampled line is untested there; a line read off a normal form is not
    sampled = [i for i in report.items if i.details.endswith("the unit monomial alone")]
    if suite in ("brackets", "linfty"):
        assert sampled == report.items
    else:
        assert all(i.status != "untested" for i in report.items if i not in sampled)


def test_exact_and_vacuous_passes_on_the_unit_alone_stay_passes(capsys):
    code = main(["check", "--model", "polyvector2", "--suite", "bv-core",
                 "--suite", "derivation", "--suite", "gerstenhaber", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[UNTESTED]" not in out
    assert "[PASS    ] bracket order <= 2 - exact, sharp" in out
    # the Laplacian is odd of order 2 and squares to zero: every axiom is exact
    assert "[PASS    ] graded Jacobi - exact" in out
    assert "[PASS    ] D1 product Leibniz - vacuous: no degree +1 part" in out
    assert "[PASS    ] D is a bracket derivation - exact" in out


def test_derivation_lines_on_the_unit_alone_are_exact_passes(capsys):
    # koszul1's D has a degree +1 part: (iii) holds exactly, so (iv) is decided
    code = main(["check", "--model", "koszul1", "--suite", "derivation", "--budget-degree", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  [")] == [
        "  [PASS    ] D is a bracket derivation - exact",
        "  [PASS    ] product-Leibniz failure of D - failure witness exhibited"
        " (witness: (x1, xi1))",
        "  [PASS    ] D1 product Leibniz - exact",
        "  [PASS    ] D1 bracket-derivation failure - none: D1 is a derivation of the bracket",
    ]


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


def test_a_report_item_is_its_json_item():
    # a JSON report prints vars(item): its attributes are exactly the keys
    item = CheckItem("order <= 2", "fail", witness="x1")
    assert vars(item) == {"name": "order <= 2", "status": "fail", "details": "", "witness": "x1"}
    assert item == CheckItem("order <= 2", "fail", "", "x1")
    assert item != CheckItem("order <= 2", "fail", "", "x2")


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # each check is a process of its own, and its start-up is mostly import;
    # these modules, with what they import, cost about a quarter of it.  Run
    # without the site module, which may import any of them itself
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bvcheck.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    src = Path(bvcheck.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
    # one build of three slices, as for the model whose d is also zero; the
    # Laplacian has order 2, so every induced item passes
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


SUITE_LINE_SPEC = "MODEL polyvector2\nSUITE linfty n=2\n"


@pytest.mark.parametrize("argv, text, message", [
    (["check", "--model", "polyvector2", "--suite", "nosuch"], None,
     f"unknown suite 'nosuch' (known: {', '.join(SUITES)})"),
    (["check", "--model", "nosuch"], None, "unknown model 'nosuch' (known: "),
    (["check"], "GENERATORS\nx 0\nOPERATOR a\n1 | 0 | 1\nOPERATOR b\n2 | 0 | 1\n",
     "no operator named 'D' and no model"),
    # a flag is at fault, not the spec's own SUITE line
    (["check", "--suite", "nosuch"], SUITE_LINE_SPEC,
     f"unknown suite 'nosuch' (known: {', '.join(SUITES)})"),
    (["brackets", "--arity", "0"], SUITE_LINE_SPEC, "suite 'brackets' needs arity >= 1, got 0"),
    (["cohomology", "--window", "-1"], SUITE_LINE_SPEC,
     "suite 'cohomology' needs window >= 0, got -1"),
], ids=["suite", "model", "no-D", "suite-flag", "arity-flag", "window-flag"])
def test_spec_errors_of_no_spec_line_print_no_position(argv, text, message, tmp_path, capsys):
    if text is not None:
        argv = argv + ["--spec", write(tmp_path, "s.spec", text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {message}")
    assert "line 0" not in err


@pytest.mark.parametrize("suite, message", [
    ("bv-core ordr=1",
     "line 2, col 15: suite 'bv-core' takes no parameter 'ordr' (it reads: order)"),
    ("linfty window=3", "line 2, col 14: suite 'linfty' takes no parameter 'window' (it reads: n)"),
    ("split order=2", "line 2, col 13: suite 'split' takes no parameter 'order' (it reads: none)"),
    ("linfty n=+1", "line 2, col 14: suite parameter 'n' must be an integer"),
    ("linfty n=1_0", "line 2, col 14: suite parameter 'n' must be an integer"),
    ("nosuch", f"line 2, col 7: unknown suite 'nosuch' (known: {', '.join(SUITES)})"),
    ("bv-core  order=1   order=0", "line 2, col 26: repeated suite parameter 'order'"),
    ("bv-core  order=1\tarity=0", "line 2, col 24: suite 'bv-core' takes no parameter 'arity' "
     "(it reads: order)"),
    ("brackets \t arity=0", "line 2, col 18: suite 'brackets' needs arity >= 1, got 0"),
])
def test_suite_parameters_are_checked(suite, message, tmp_path, capsys):
    # an error read from a SUITE line names the line and its token's column
    spec = write(tmp_path, "s.spec", f"MODEL polyvector2\nSUITE {suite}\n")
    for command in ("check", "explain"):
        assert main([command, "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"spec error: {message}\n")


BAD_SUITES_SPEC = "MODEL polyvector2\nSUITE linfty\nSUITE bv-core ordr=1\nSUITE nosuch\n"


@pytest.mark.parametrize("command", ["check", "explain"])
def test_every_suite_is_checked_before_any_runs(command, tmp_path, monkeypatch, capsys):
    # the first bad SUITE line, a key its suite does not read or a value
    # below the key's least, is an error before linfty, the one good suite, runs
    monkeypatch.setattr(cli, "verify_linfty", lambda *args: pytest.fail("linfty ran"))
    for text, message in [
        (BAD_SUITES_SPEC,
         "line 3, col 15: suite 'bv-core' takes no parameter 'ordr' (it reads: order)"),
        ("MODEL polyvector2\nSUITE linfty\nSUITE cohomology window=-1\n",
         "line 3, col 18: suite 'cohomology' needs window >= 0, got -1"),
        ("MODEL polyvector2\nSUITE linfty\nSUITE brackets arity=0\n",
         "line 3, col 16: suite 'brackets' needs arity >= 1, got 0"),
        ("MODEL polyvector2\nSUITE linfty n=0\n",
         "line 2, col 14: suite 'linfty' needs n >= 1, got 0"),
        ("MODEL polyvector2\nSUITE linfty\nSUITE bv-core order=-1\n",
         "line 3, col 15: suite 'bv-core' needs order >= 0, got -1"),
        ("MODEL polyvector2\nSUITE linfty\n# a comment\n\n  SUITE nosuch n=1\n",
         f"line 5, col 9: unknown suite 'nosuch' (known: {', '.join(SUITES)})"),
    ]:
        spec = write(tmp_path, "s.spec", text)
        assert main([command, "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"spec error: {message}\n")


def test_each_suite_reads_the_parameters_it_lists(tmp_path, capsys):
    # every listed key is accepted; a wrong value of it shows that it is read
    for name, value, code in [("bv-core", "order=1", 1), ("brackets", "arity=0", 2),
                              ("linfty", "n=0", 2), ("cohomology", "window=-1", 2)]:
        assert list(SUITES[name][1]) == [value.split("=")[0]]
        spec = write(tmp_path, "s.spec", f"MODEL polyvector2\nSUITE {name} {value}\n")
        assert main(["check", "--spec", spec]) == code
        assert "takes no parameter" not in capsys.readouterr().err
    assert {name for name, (_, keys) in SUITES.items() if keys} == {
        "bv-core", "brackets", "linfty", "cohomology"}


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


def test_brackets_command_builds_its_window_once(monkeypatch, capsys):
    # the route suite and the value table read one window
    calls, real = [], cli.window_elements
    monkeypatch.setattr(cli, "window_elements", lambda *a: calls.append(a) or real(*a))
    assert main(["brackets", "--model", "mixed-order", "--arity", "3"]) == 0
    assert len(calls) == 1
    assert "arity-3 bracket values" in capsys.readouterr().out


# the Laplacian plus 1/2 xi1: odd, with D o D = 1/2 d/dx1 != 0
PERTURBED_SPEC = """\
GENERATORS
x1 0
x2 0
xi1 1
xi2 1

OPERATOR D
1 | 0 0 0 0 | 1 0 1 0
1 | 0 0 0 0 | 0 1 0 1
1/2 | 0 0 1 0 | 0 0 0 0
"""


def _caches(op):
    """Copies of an operator's integer images, recursion values and Koszul
    sign tables."""
    return ({m: dict(v) for m, v in op._int_images.items()},
            {t: dict(v) for t, v in op._akman.items()},
            dict(op._koszul_signs))


@pytest.mark.parametrize("text, suite, params", [
    ("MODEL mixed-order\n", "brackets", {"arity": 4}),
    (PERTURBED_SPEC, "brackets", {"arity": 3}),
    (PERTURBED_SPEC, "linfty", {"n": 3}),
], ids=["mixed-order-brackets", "perturbed-brackets", "perturbed-linfty"])
def test_bracket_suites_leave_the_window_and_the_operator_caches_unchanged(
    text, suite, params, monkeypatch
):
    # the window Elements, their kept forms and the cached dicts and sign
    # tables are shared by every tuple of a pass: what they hold after two
    # passes is what they held when built, and what a fresh operator or
    # Element computes
    spec = parse_spec(text)
    windows = []

    def recording(table, budget):
        elements = brackets.window_elements(table, budget)
        windows.append((elements, [(e.table, dict(e.coeffs)) for e in elements]))
        return elements

    monkeypatch.setattr(cli, "window_elements", recording)
    monkeypatch.setattr(linfty, "window_elements", recording)
    budget = Budget(max_degree=2, max_tuples=80)
    lines = cli.run_suite(suite, spec, budget, params).lines()
    D = spec.main_operator()
    ops = [D, D.square()]
    cached = [_caches(op) for op in ops]
    assert any(images for images, _, _ in cached)
    assert cli.run_suite(suite, spec, budget, params).lines() == lines
    assert [_caches(op) for op in ops] == cached
    assert len(windows) == 2
    for elements, built in windows:
        assert [(e.table, e.coeffs) for e in elements] == built
        monos = enumerate_monomials(D.table, budget.max_degree)
        assert [coeffs for _, coeffs in built] == [{m: 1} for m in monos]
        # every kept argument form is what a fresh Element computes
        forms = {m: e._int_form for m, e in zip(monos, elements) if e._int_form is not None}
        assert forms
        for m, form in forms.items():
            assert form == (D.table.monomial_parity(m), 1, {m: 1})
            assert Element(D.table, {m: 1}).int_form() == form
    for op, (images, recursion, signs) in zip(ops, cached):
        fresh = Operator(op.table, op.terms)
        assert all(fresh.int_image(m) == image for m, image in images.items())
        p_D = brackets._check_parity(op)
        for monos, value in recursion.items():
            parities = tuple(op.table.monomial_parity(m) for m in monos)
            assert brackets._akman_on_monomials(fresh, p_D, monos, parities) == value
        for parities, table in signs.items():
            n = len(parities)
            assert table == tuple(
                (k, sigma, (-1) ** (n - k) * koszul_sign(parities, sigma) < 0)
                for k in range(1, n + 1) for sigma in unshuffles(k, n))
    if suite == "brackets":
        assert cached[0][1]  # D's recursion memo was filled and checked
        assert any(signs for _, _, signs in cached)  # a sign table was filled and checked
    else:
        assert cached[1][1]  # the relations fill and read the square's recursion memo


# every caller of StructReport.sample: its suite and parameters, its sampled
# lines with their arities, a spec on which they pass at SAMPLE_BUDGET, one
# on which some fail, and an oracle that is nonzero exactly where a line fails
SAMPLE_BUDGET = Budget(max_degree=2, max_tuples=60, seed=3)
SAMPLED_CALLERS = {
    "route-agreement": (
        "brackets", {"arity": 3},
        [(f"recursion vs unshuffle expansion, arity {n}", n) for n in (1, 2, 3)],
        "MODEL polyvector2\n", "MODEL polyvector2\n",
        lambda D, args: koszul_bracket_by_unshuffles(D, args) - cli.koszul_bracket(D, args),
    ),
    "relation-n": (
        "linfty", {"n": 3}, [(f"relation n={n}", n) for n in (1, 2, 3)],
        "MODEL polyvector2\n", PERTURBED_SPEC,
        lambda D, args: relation_by_expansion(D, len(args), args),
    ),
    # mixed-order fails Leibniz and an even D has no exact Jacobi path
    "evaluated-jacobi": (
        "gerstenhaber", {}, [("graded Jacobi", 3)],
        "MODEL mixed-order\n", EVEN_ORDER_TWO_SPEC,
        lambda D, args: jacobiator(partial(bv_bracket, D), *args),
    ),
}


@pytest.mark.parametrize("caller", sorted(SAMPLED_CALLERS))
def test_sampled_lines_follow_one_rule(caller, monkeypatch):
    suite, params, lines, passing, failing, defect = SAMPLED_CALLERS[caller]
    unit = "triples" if suite == "gerstenhaber" else "tuples"

    def sampled(text, budget):
        spec = parse_spec(text)
        items = {i.name: i for i in cli.run_suite(suite, spec, budget, params).items}
        return spec, window_elements(spec.table, budget), [(items[n], a) for n, a in lines]

    # a pass counts every tuple that the window's stream yields
    _, window, items = sampled(passing, SAMPLE_BUDGET)
    for item, arity in items:
        tuples = len(list(window_tuples(window, arity, SAMPLE_BUDGET)))
        assert (item.status, item.details) == ("pass", f"{tuples} {unit}")
    # on the window of the unit alone a pass exercises nothing
    _, _, items = sampled(passing, Budget(max_degree=0))
    for item, _ in items:
        assert (item.status, item.details) == ("untested", f"1 {unit}, the unit monomial alone")
    # a failure prints, as elements, the stream's first tuple where the oracle
    # is nonzero; the routes agree, so one of them is broken to fail
    if suite == "brackets":
        real = cli.koszul_bracket
        monkeypatch.setattr(cli, "koszul_bracket", lambda D, args: real(D, args).scale(2))
    spec, window, items = sampled(failing, SAMPLE_BUDGET)
    D = spec.main_operator()
    statuses = set()
    for item, arity in items:
        first = next((t for t in window_tuples(window, arity, SAMPLE_BUDGET) if defect(D, t)),
                     None)
        statuses.add(item.status)
        if item.status == "fail":
            args = tuple(witness_elements(spec.table, item.witness))
            assert item.details == "" and args == first and defect(D, args)
        else:
            assert first is None and item.status == "pass"
    assert "fail" in statuses


def test_split_subcommand(capsys):
    code = main(["split", "--model", "mixed-order", "--seed", "60"])
    out = capsys.readouterr().out
    assert code == 0
    for fragment in ("n=1 (degree +1)", "n=2 (degree -1)", "n=3 (degree -3)"):
        assert fragment in out


def test_cohomology_subcommand(capsys):
    code = main(["cohomology", "--model", "koszul2", "--window", "6", "--seed", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{0: 1, 2: 1}" in out
    assert "degree 2 - x1" in out


def test_explain_subcommand(capsys):
    code = main(["explain", "--model", "mixed-order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "operator D - order 3, degrees [-3, -1, 1]: " in out
    assert "operator d - order 1, degrees [1]: " in out


@pytest.mark.parametrize("flag", ["--budget-tuples", "--budget-degree"])
@pytest.mark.parametrize("cmd", ["split", "cohomology", "explain"])
def test_only_check_and_brackets_take_budget_flags(cmd, flag, capsys):
    # these commands decide everything exactly; the seed is still echoed
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--model", "polyvector2", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert main([cmd, "--model", "polyvector2", "--seed", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


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
    (["--model", "polyvector2", "--suite", "bv-core"], "bracket order <= 2"),
    (["--model", "polyvector2", "--suite", "split"], "component n=2 (degree -1) has order <= 2"),
    (["--model", "koszul2", "--suite", "bvinfty"], "d is a product derivation"),
], ids=["bv-core", "split", "bvinfty"])
def test_zero_budget_order_certificate_passes(argv, item, capsys):
    # an order certificate is decided from the normal form, on no tuple
    assert main(["check", *argv, "--budget-tuples", "0", "--format", "json"]) == 0
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    statuses = {i["name"]: (i["status"], i["details"]) for i in suite["items"]}
    assert statuses[item] == ("pass", "exact, sharp")
    assert all(s == "pass" for s, _ in statuses.values())


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
def test_order_claim_the_normal_form_refutes_fails(budget, tmp_path, capsys):
    # d/dxi1 d/dxi2 d/dxi3 has order 3; the window's tuples miss its nonzero
    # bracket (xi1, xi2, xi3), which the certificate constructs instead
    spec = write(tmp_path, "cube.spec", EXTERIOR_CUBE_ORDER_2_SPEC)
    code = main(["check", "--spec", spec, *budget])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL    ] bracket order <= 2 (witness: xi1; xi2; xi3)\n" in out
    # the Leibniz rule reads the same certificate
    code = main(["check", "--model", "exterior-cube", "--suite", "gerstenhaber", *budget])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL    ] Leibniz rule (witness: (xi1, xi2, xi3))" in out


def test_gerstenhaber_evaluates_no_arity_three_bracket(monkeypatch, capsys):
    # F^3 of the Laplacian vanishes by its normal form, and so does F^3 of its
    # square, 0: the Leibniz rule and Jacobi are both read off the normal
    # form, and no bracket is evaluated at all (every caller reaches
    # akman_bracket through one of these names)
    arities = []
    for module in (brackets, cli, structures):
        real = module.akman_bracket
        monkeypatch.setattr(module, "akman_bracket",
                            lambda D, args, real=real: arities.append(len(args)) or real(D, args))
    assert main(["check", "--model", "polyvector2", "--suite", "gerstenhaber"]) == 0
    out = capsys.readouterr().out
    assert "[PASS    ] graded Jacobi - exact" in out
    assert "[PASS    ] Leibniz rule - exact" in out
    assert arities == []
    # evaluating both on 200 triples of the default window agrees
    D = BUILTIN_MODELS["polyvector2"]().D
    elems = window_elements(D.table, Budget())
    evaluated = gerstenhaber_by_evaluation(partial(bv_bracket, D), lambda a, b: a * b, elems)
    assert evaluated.passed and evaluated.fully_tested
    assert [i.details for i in evaluated.items[1:]] == ["200 triples", "200 triples"]


# odd and of order 2 on polyvector2, but its bracket breaks Jacobi: the
# square d/dx2 d/dxi1 d/dxi2 has a nonzero arity-3 bracket
NON_JACOBI_SPEC = """MODEL polyvector2

OPERATOR D
1 | 0 0 0 0 | 1 0 1 0
1 | 1 0 0 0 | 0 1 0 1

SUITE gerstenhaber
"""


def test_gerstenhaber_fails_jacobi_of_an_order_two_operator(tmp_path, capsys):
    # every default-budget prefix triple starts with the unit, whose bracket
    # vanishes; the constructed witness does not depend on the window
    spec = write(tmp_path, "non-jacobi.spec", NON_JACOBI_SPEC)
    assert main(["check", "--spec", spec]) == 1
    out = capsys.readouterr().out
    assert "[FAIL    ] graded Jacobi (witness: (x2, xi1, xi2))" in out
    assert "[PASS    ] Leibniz rule - exact" in out
    # the Leibniz rule is order <= 2, and 200 triples of the window agree
    evaluated = order_check_by_evaluation(parse_spec(NON_JACOBI_SPEC).main_operator(), 2)
    assert (evaluated.passed, evaluated.tuples_tested) == (True, 200)


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
GOLDEN_BUDGET = ["--budget-degree", "2", "--budget-tuples", "40"]
# d/dx1 d/dx2 d/dxi1 on the polyvector2 generators with d = 0: odd, square
# zero, of degree -1 and order 3, so outside the homotopy-BV definition
ORDER_THREE_D2_SPEC = "MODEL polyvector2\n\nOPERATOR D\n1 | 0 0 0 0 | 1 1 1 0\n"
GOLDEN = {
    ("model:exterior-cube", "bv-core"): (0, "ae45c07cbe68a5c82d6860752327d6a6092845538e6109dba58a1ecfd45d2397"),
    ("model:exterior-cube", "brackets"): (0, "ae0ab98d5993aaef2e57a4e10850c07ae48ac0d7a486ee7f5a9ec731ea33dee5"),
    ("model:exterior-cube", "linfty"): (0, "712aca4c0946a93dae088f7faae37e74f9f72bed1ef88a97965dd088479dd797"),
    ("model:exterior-cube", "split"): (0, "f9c7118cabeebd430f0966beec2e8fb9e8cf1fcec6206505206e0b37fd0015c4"),
    ("model:exterior-cube", "derivation"): (0, "b97daa47b0dbf52fed62c0be4a42206d954a73d136ded2f4d709477a0eb98aa8"),
    ("model:exterior-cube", "bvinfty"): (0, "d8dca407b2fdd6cfef49c9c715fe60f79c43f4186ef5955447325f4399195cd5"),
    ("model:exterior-cube", "gerstenhaber"): (1, "589b4bb71c0be42a965f18f42eeca72d993a824ebe1ca42866b3b558fee093a6"),
    ("model:exterior-cube", "cohomology"): (0, "72b183f9be6bd66836f3a5761c7225f9933124c2f818807a6c007a06dba612f9"),
    ("model:koszul1", "bv-core"): (0, "bf87e06c316d61991a98c92bbeb89b33a8cd8ca26731dbc6aee164cca2603ad2"),
    ("model:koszul1", "brackets"): (0, "b9c33e54e781b93e84e8557239e2572b8b21d9e51bc707eeb8ee1e66b21007c0"),
    ("model:koszul1", "linfty"): (0, "78cbb10ffa7909fdd2df8731f1abe723f8487fc698943c9dcc102391142a4a3b"),
    ("model:koszul1", "split"): (0, "4cd6d568f9511e4538fa1a242deb17deef4759860071b15f51eb87957a7410f8"),
    ("model:koszul1", "derivation"): (0, "f5ad7edac879b15b562f21e86d0eac254ece6c6e57348b95239534b4cc3ff266"),
    ("model:koszul1", "bvinfty"): (0, "1d66126b9d99620ef0a9cab1efb110de1ed964f26983a4a3a331e7c321b345cb"),
    ("model:koszul1", "gerstenhaber"): (0, "cb4d69bb48a3110e14c454747d3568002fa7bb893181dbfa696e8b8ae78959d2"),
    ("model:koszul1", "cohomology"): (3, "c2bc5ed4364556ce0028e6d1eb2f0249ee6197889851175d04184121cc16f813"),
    ("model:koszul2", "bv-core"): (0, "c43d2c60c39f30a28aa4c061c9f6f49459e4f6dd5da72c582339a4bf8fc4d59f"),
    ("model:koszul2", "brackets"): (0, "c2f6ffedd26ecdabad6260b357f815f7a29bbca02c17d95db1740bf4e8dbd930"),
    ("model:koszul2", "linfty"): (0, "1d2f2d03f3d03d6ef37406425471f751f6c885a14ae8556fdc963a6f75bebf3d"),
    ("model:koszul2", "split"): (0, "8e7fa326c9becb6281e351eb1109481c64226faa51ad14675e85580b95bcdebb"),
    ("model:koszul2", "derivation"): (0, "66c878ab1575ab7278e92abb3f532eac2df68bf00b428fe34ad52aa06b7f00c3"),
    ("model:koszul2", "bvinfty"): (0, "484b71deb8806f3e4b156b6e3ba32be0da17d12cbdbcc6e568458925e6c6fa4d"),
    ("model:koszul2", "gerstenhaber"): (0, "3617037d3b9b1d0961f5963b5a5c23c1028e045b0b96052f4cda3eb31cdd2b34"),
    ("model:koszul2", "cohomology"): (0, "c65ab13689010a55b75a54ccd08fdbe4f3948bc460cdf6ef24168bf9ebbfc9d5"),
    ("model:mixed-order", "bv-core"): (0, "920bf3e97a65259be6b9bd6ee439d766773cecabe66a14414353bbba4621e077"),
    ("model:mixed-order", "brackets"): (0, "43893365a514a1d9e8f2016efaeeb1d9d65198f06ab3f653b16ae36dd1d81e8c"),
    ("model:mixed-order", "linfty"): (0, "95580c3bdeaa53a11c785eb766b2a64c2fd8a34b1615325058c687f4115742e6"),
    ("model:mixed-order", "split"): (0, "53364128e41e8a7f2fd44bf3e10add11e4b926d8ee45fec36b0da0f1d5121873"),
    ("model:mixed-order", "derivation"): (0, "9fba6eb81b4302a8ea4452bacdc475f8be0e3948b24d9ddbda9524c5aee87763"),
    ("model:mixed-order", "bvinfty"): (0, "7330cb2fb5bc81ed1a4b07acb49dd08448a3a9354bd1a3f8618d1ea42a13a3d9"),
    ("model:mixed-order", "gerstenhaber"): (1, "72a9cc98b3193959d0b34eeb5a5154f6fed9065660abf3c8498eb2615027ba0e"),
    ("model:mixed-order", "cohomology"): (3, "b447e70ef476a24706463085bed39c0198fbc5a370f302f201a5c20bbf745a51"),
    ("model:polyvector2", "bv-core"): (0, "f540657c79bf043ec6a462c0b9a1257b7be86a0909368232624060339dad6ad3"),
    ("model:polyvector2", "brackets"): (0, "fa0aaf3fefb498f965fa81d7122b07f9441f9ee420a01892ea2db679db3cc349"),
    ("model:polyvector2", "linfty"): (0, "b54f088b2208620185d884f948dcab0ec3bf0ada282ba1aca0aeddf52f7e5ca3"),
    ("model:polyvector2", "split"): (0, "61bcfd907c076186c3bf6cdb66001e5754c076855e79c330ad06a7ffbc07c93e"),
    ("model:polyvector2", "derivation"): (0, "18e1478b1305111d741b7f099ebbc848040d66461d7e946f641af7cdb743f9f1"),
    ("model:polyvector2", "bvinfty"): (0, "29f32d2a4cd717a9657f1f657ece7b3ca912e6f0d3c20f5284c73e9ee670d9c3"),
    ("model:polyvector2", "gerstenhaber"): (0, "9ff8aa5f25e9580c627cef13a4a808cc414a1a717af7b36451fff1304dd410e7"),
    ("model:polyvector2", "cohomology"): (0, "69c6f790f61f94f0564f07c1c92dc0965c788d5998839d36e4d7c2ee4e3e0fcb"),
    ("model:polyvector3", "bv-core"): (0, "998e25b4f700df6391b505f716d9d6f0c37af5a847d0806f699811eff74f8e52"),
    ("model:polyvector3", "brackets"): (0, "e6d6f99af158b4bb1acc9e68db9dfaabc19f54ebfa20f4c30fa1e3ce3616c1e9"),
    ("model:polyvector3", "linfty"): (0, "65969249244edabf5027a0e136e4753908ef34e8c8a3a67c77b87335afc1c2c4"),
    ("model:polyvector3", "split"): (0, "4fff72a3b6abdd574abecc629db7cd8c66adff5867f501b78c6325133c80ffb2"),
    ("model:polyvector3", "derivation"): (0, "37078bc0ea1ce995699935a66053de6e1ef6e98af140a0fa8667bdfd10fbbba4"),
    ("model:polyvector3", "bvinfty"): (0, "8a55bc941c0d3eb48c77d8d94b61954b450c8a180bcdfd9ad7a8eb8685f18a58"),
    ("model:polyvector3", "gerstenhaber"): (0, "9188aa46148c1e2a362e5f6da5c3b775a42f9d2ffdf3ef75cfa0a2f53081dedb"),
    ("model:polyvector3", "cohomology"): (0, "214e0b9dba076ea912b6179416d7e464fb2e8b0de133b6b449657828decf3ab1"),
    ("laplacian-plus-xi1", "bv-core"): (1, "a4c885d018c63a705c773bca072ad10e1b1733d016b6a617eb6f772ef1462ebc"),
    ("laplacian-plus-xi1", "brackets"): (0, "21c6335fd41db07e6042f4c6fdc797543ceecd916f8505fd79c10e4585d1212d"),
    ("laplacian-plus-xi1", "linfty"): (1, "b2f53edd2271376f37f72e39ea8a4418680982fb81c63fbfa45e2e04348dbe0d"),
    ("laplacian-plus-xi1", "split"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("laplacian-plus-xi1", "derivation"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("laplacian-plus-xi1", "bvinfty"): (1, "b1fbfc019642dfa20ab918d139abbecafa90553a4d61bc3e6e78dc86ebcb520c"),
    ("laplacian-plus-xi1", "gerstenhaber"): (1, "969f67eb5451cb3596bfc67b9bf0f742a37fd804c546cd6ae98ea4ab6ba1a199"),
    ("laplacian-plus-xi1", "cohomology"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("second-order-degree-one", "bv-core"): (0, "fcde1e4f6fe1d3562ced32d424ff17bda1beea431d742fc758a495e6fbad81ff"),
    ("second-order-degree-one", "brackets"): (0, "536249ee178ebfec6e848baa39ba017a05366c5832afff74ceb1c12723fbd35d"),
    ("second-order-degree-one", "linfty"): (0, "e5dd99b3fbeb9020e09064bc62efd41f6e568ad86253c35532ac40a67a009426"),
    ("second-order-degree-one", "split"): (1, "22bb725244b510476b64990b16a634f984c4b278f40b2c0cb909a974a533d4a5"),
    ("second-order-degree-one", "derivation"): (1, "d8690ed5a7f52e1c484835506d30e2eb6241da935061aa5e8a3a4ddf1be7a794"),
    ("second-order-degree-one", "bvinfty"): (1, "3b0a9f85875e521bc42c95c36543e0bad411dcd16ba0a5233f4b9c3bcb3d07d2"),
    ("second-order-degree-one", "gerstenhaber"): (0, "47a2ef9ef8e861246866b1d4ed4fefe6f4ec5c59a9c34ee3f987b6040378a831"),
    ("second-order-degree-one", "cohomology"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _report_digest(capsys, argv):
    # split, cohomology and explain take no budget
    budget = GOLDEN_BUDGET if argv[0] in ("check", "brackets") else []
    code = main(argv + ["--format", "json", *budget])
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
# one of three components of D, on the polyvector2 Laplacian (degree -1)
# used as d, so that every boundary lands in an earlier degree slice, and on
# a 3-pair weighted Koszul complex (weights 2, 3, 2) whose d and whose
# d/dx d/dxi part have denominators 2-9, so the images are not integral.
KOSZUL_FRACTIONAL = """GENERATORS
x1 2
xi1 3
x2 2
xi2 5
x3 2
xi3 3

OPERATOR d
3/2 | 2 0 0 0 0 0 | 0 1 0 0 0 0
-5/7 | 0 0 3 0 0 0 | 0 0 0 1 0 0
4/9 | 0 0 0 0 2 0 | 0 0 0 0 0 1

OPERATOR D
3/2 | 2 0 0 0 0 0 | 0 1 0 0 0 0
-5/7 | 0 0 3 0 0 0 | 0 0 0 1 0 0
4/9 | 0 0 0 0 2 0 | 0 0 0 0 0 1
2/3 | 0 0 0 0 0 0 | 1 1 0 0 0 0
-7/4 | 0 0 0 0 0 0 | 0 0 1 1 0 0
6/5 | 0 0 0 0 0 0 | 0 0 0 0 1 1
"""
GOLDEN_COHOMOLOGY_SPECS = {
    "laplacian-as-d": "MODEL polyvector2\n\nOPERATOR d\n"
    + "1 | 0 0 0 0 | 1 0 1 0\n1 | 0 0 0 0 | 0 1 0 1\n",
    "koszul-fractional": KOSZUL_FRACTIONAL,
}
GOLDEN_COHOMOLOGY = {
    ("model:koszul2", "6"): (0, "a456ceaf72db2237f62cace1591f044a0401854a9420ca788bfc9a079f5d0533"),
    ("model:mixed-order", "4"): (3, "32d4a64f679b5a76bc32d0e9781729ea52b46adc9263aad896fa828e3deb374a"),
    ("laplacian-as-d", "3"): (3, "ee466c784bb4105a3d518235a4ffa963a330e3f63373a53ec53d1e64c7df31f0"),
    ("koszul-fractional", "7"): (0, "cbf6412049f92ce3aaa06d9b2ab4fe56a24d422424a258d43a2fdebbac532080"),
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


# A MODEL line supplies D and d unless the spec names its own operator; the
# explain and check reports of three specs that mix the two, pinned
MERGE_SUITES = "\nSUITE bv-core\nSUITE bvinfty\nSUITE cohomology window=3\n"
MERGE_SPECS = {
    # koszul1's d, with D = d + 3 d/dx1 d/dxi1 in place of the model's
    "koszul1-own-D": "MODEL koszul1\n\nOPERATOR D\n1 | 1 0 | 0 1\n3 | 0 0 | 1 1\n"
    + MERGE_SUITES,
    # the model's Laplacian stays D and is d as well
    "laplacian-as-d": GOLDEN_COHOMOLOGY_SPECS["laplacian-as-d"] + MERGE_SUITES,
    # a third operator leaves the model's D and d the main ones
    "mixed-order-plus-X": "MODEL mixed-order\n\nOPERATOR X\n1 | 0 0 0 0 0 0 | 0 0 0 1 0 0\n"
    + MERGE_SUITES,
}
GOLDEN_MERGE = {
    ("koszul1-own-D", "explain"): (0, "888165d49d4a8ee95f0bec17360c55331f726a03b2b76af595eab34f112e627a"),
    ("koszul1-own-D", "check"): (3, "10802633bc95825e187bd15708825fa12083b2864257b0e7955be4ca92f2d184"),
    ("laplacian-as-d", "explain"): (0, "c026c13c2496d735d14a1fa02c671bcbc775ed0fe74e146b2a01b012bac856ac"),
    ("laplacian-as-d", "check"): (1, "645d85da1d8008e1878f57a5dee8a3807d223db2286a616468937fc3324ca93d"),
    ("mixed-order-plus-X", "explain"): (0, "b6041dcd4058e51cb352399357ec85ad2213da64782c91e925288c16ac093c3a"),
    ("mixed-order-plus-X", "check"): (3, "fdfc542f07d0293e0370304f1f83413cb05b524db9456c5d57141cb050a15179"),
}


@pytest.mark.parametrize("source,command", sorted(GOLDEN_MERGE))
def test_golden_model_defaults_and_spec_operators(source, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, source + ".spec", MERGE_SPECS[source])
    got = _report_digest(capsys, [command, "--spec", source + ".spec"])
    assert got == GOLDEN_MERGE[source, command]


@pytest.mark.parametrize("text", [
    *MERGE_SPECS.values(), *(f"MODEL {m}\n" for m in BUILTIN_MODELS), LAPLACIAN_SPEC,
])
def test_main_operator_and_differential_are_one_object_each(text):
    spec = parse_spec(text)
    assert spec.main_operator() is spec.main_operator()
    assert spec.differential() is spec.differential()


def test_a_spec_operator_beside_a_model_leaves_the_models_main_operator():
    spec = parse_spec(MERGE_SPECS["mixed-order-plus-X"])
    model = BUILTIN_MODELS["mixed-order"]()
    assert spec.main_operator().terms == model.D.terms
    assert spec.differential().terms == model.d.terms


# polyvector2 with d = xi1 (a multiplication) and D = d + Delta: d is no
# product derivation, F^2_d(1, 1) = xi1, and D o D = Delta xi1 + xi1 Delta
# = d/dx1, nonzero first at x1
XI1_DIFFERENTIAL_SPEC = """MODEL polyvector2

OPERATOR d
1 | 0 0 1 0 | 0 0 0 0

OPERATOR D
1 | 0 0 1 0 | 0 0 0 0
1 | 0 0 0 0 | 1 0 1 0
1 | 0 0 0 0 | 0 1 0 1
"""


def test_induced_precondition_error_names_the_failed_clauses(tmp_path, capsys):
    spec = write(tmp_path, "xi1.spec", XI1_DIFFERENTIAL_SPEC)
    assert main(["cohomology", "--spec", spec, "--window", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: induced_bv precondition: homotopy-BV check failed: "
        "d is a product derivation (witness: 1; 1); D squares to zero (witness: x1)\n"
    )


def _mixed_order_window_dims(window: int) -> dict:
    """H(d/dxi1) on mixed-order's window, by hand: d/dxi1 is acyclic, but a
    monomial without xi1 of total exponent ``window`` is a cycle whose
    preimage xi1 * m leaves the window, so the classes are the monomials in
    xi2 (degree -1), u (2) and eta1..eta3 (1) of total exponent ``window``."""
    dims: dict = {}
    for xi2, *etas in product((0, 1), repeat=4):
        u = window - xi2 - sum(etas)
        if u >= 0:
            g = -xi2 + 2 * u + sum(etas)
            dims[g] = dims.get(g, 0) + 1
    return dict(sorted(dims.items()))


@pytest.mark.parametrize("window", [2, 3, 4])
def test_induced_items_of_mixed_order_pass_at_the_default_budget(window, capsys):
    # D2 = d/dxi2 d/du has order 2, so order <= 2, Jacobi and Leibniz hold on
    # H(d), although products of the window's classes leave it; d lowers the
    # total exponent, so the window warnings make the exit 3
    argv = ["cohomology", "--model", "mixed-order", "--window", str(window), "--format", "json"]
    assert main(argv) == 3
    suite, _ = json.loads(capsys.readouterr().out)["suites"]
    dims = _mixed_order_window_dims(window)
    items = [(i["name"], i["status"], i["details"]) for i in suite["items"]]
    assert items[0] == ("slice dimensions", "pass", str(dims))
    assert {s for n, s, _ in items if n != "window truncation"} == {"pass"}
    # each fact once: the dimensions on one line, each warning on its own
    warnings = [d for _, _, d in items if "outside the window" in d]
    assert len(warnings) == len(set(warnings)) == sum(n == "window truncation" for n, _, _ in items)
    assert sum(str(dims) in d for _, _, d in items) == 1
    assert items[-5:] == [
        ("induced operator squares to zero on classes", "pass", "exact"),
        ("induced operator has order <= 2 on representatives", "pass", "exact"),
        ("induced bracket: graded antisymmetry", "pass", "exact"),
        ("induced bracket: graded Jacobi", "pass", "exact"),
        ("induced bracket: Leibniz rule", "pass", "exact"),
    ]
    # evaluated on the algebra at the first 200 pairs and triples of the
    # classes' representatives, each identity holds
    model = BUILTIN_MODELS["mixed-order"]()
    evaluated = induced_identities_on_representatives(
        cohomology(model.d, window), model.d, model.D, Budget())
    assert evaluated.passed and evaluated.fully_tested
    n = sum(dims.values())
    triples = f"{min(n ** 3, 200)} triples"
    assert [i.details for i in evaluated.items[1:]] == [
        triples, f"{min(n ** 2, 200)} pairs", triples, triples]


FRACTIONAL_BRACKETS_SPEC = """GENERATORS
x1 0
x2 0
xi1 1
xi2 1

OPERATOR D
3/2 | 0 0 0 0 | 1 0 1 0
-5/7 | 0 0 0 0 | 0 1 0 1
4/9 | 1 0 0 0 | 0 1 1 0
2/3 | 0 0 1 0 | 0 0 0 0

SUITE brackets arity=4
"""


@pytest.mark.parametrize("argv, spec, code", [
    (["check", "--model", "polyvector2", "--suite", "bv-core"], None, 0),
    (["cohomology", "--model", "koszul2", "--window", "4"], None, 0),
    (["split", "--model", "mixed-order"], None, 0),
    (["check", "--model", "koszul1", "--suite", "derivation"], None, 0),
    (["check"], "MODEL mixed-order\nSUITE brackets arity=4\n", 0),
    (["check"], FRACTIONAL_BRACKETS_SPEC, 0),
    (["brackets", "--arity", "3"], FRACTIONAL_BRACKETS_SPEC, 0),
    (["cohomology", "--window", "7"], KOSZUL_FRACTIONAL, 0),
    (["check", "--model", "mixed-order", "--suite", "gerstenhaber"], None, 1),
    (["check", "--suite", "bvinfty"], ORDER_THREE_D2_SPEC, 1),
    (["cohomology"], ORDER_THREE_D2_SPEC, 2),
], ids=["bv-core", "koszul2-window4", "split", "derivation", "mixed-order-brackets",
        "fractional-brackets", "fractional-value-table", "koszul-fractional",
        "mixed-order-gerstenhaber", "order-three-d2-bvinfty", "order-three-d2-cohomology"])
def test_exit_code_at_the_default_budget(argv, spec, code, tmp_path, capsys):
    # the route suite passes through arity 4 on mixed-order and on an operator
    # with denominators 2, 7, 9 and 3 and a multiplication term; mixed-order's
    # order-3 part breaks the Leibniz rule; a D2 of order 3 fails the
    # homotopy-BV definition, which the induced structure requires
    if spec is not None:
        argv = argv + ["--spec", write(tmp_path, "s.spec", spec)]
    assert main(argv) == code


def test_bvinfty_fails_the_order_clause_of_an_order_three_d2(tmp_path, capsys):
    # the degree -1 part d/dx1 d/dx2 d/dxi1 has F^3(x1, x2, xi1) = -+1, so
    # order <= 2 fails there, and the induced structure is refused with it
    spec = write(tmp_path, "d2.spec", ORDER_THREE_D2_SPEC)
    assert main(["check", "--spec", spec, "--suite", "bvinfty"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "[FAIL" in line] == [
        "  [FAIL    ] component n=2 (degree -1) has order <= 2 (witness: x1; x2; xi1)"
    ]
    assert main(["cohomology", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: induced_bv precondition: homotopy-BV check failed: "
        "component n=2 (degree -1) has order <= 2 (witness: x1; x2; xi1)\n"
    )


ORDER_SOURCES = {
    **{f"model:{m}": f"MODEL {m}\n" for m in BUILTIN_MODELS},
    **GOLDEN_SPECS,
    "order-three-d2": ORDER_THREE_D2_SPEC,
}


@pytest.mark.parametrize("suite", ["bvinfty", "split"])
@pytest.mark.parametrize("source", sorted(ORDER_SOURCES))
def test_component_lines_equal_evaluating_every_tuple(source, suite):
    # each "component n=..." line, read off a normal form, is the certificate
    # of evaluating every tuple of the degree-1 window: the same status and,
    # for a pass, the same sharpness, with every tuple evaluated; a failure's
    # witness is a tuple of that window at which the bracket, evaluated on
    # elements, is nonzero.  bvinfty splits D - d, split splits D.
    spec = parse_spec(ORDER_SOURCES[source])
    D = spec.main_operator()
    P = D - spec.differential() if suite == "bvinfty" else D
    budget = Budget(max_degree=1, max_tuples=10**6)
    if suite == "split" and not D.is_square_zero()[0]:
        with pytest.raises(AlgebraError, match="requires a square-zero operator"):
            cli.run_suite(suite, spec, budget, {})
        return
    report = cli.run_suite(suite, spec, budget, {})
    lines = {
        int(i.name.split()[1][len("n="):]): i
        for i in report.items if i.name.startswith("component n=")
    }
    comps = P.degree_components()
    assert sorted(lines) == sorted((3 - g) // 2 for g in comps if g <= 1 and g % 2)
    window = set(enumerate_monomials(spec.table, 1))
    for n, item in lines.items():
        comp = comps[3 - 2 * n]
        oracle = order_check_by_evaluation(comp, n, budget)
        assert (item.status, item.details) == (oracle.status, oracle.verdict())
        if item.status == "pass":
            assert oracle.tuples_tested == len(window) ** (n + 1)
        if item.status == "fail":
            args = [parse_element(spec.table, a) for a in item.witness.split("; ")]
            assert all(a.coeffs.keys() <= window for a in args)
            assert not akman_bracket_by_elements(comp, args).is_zero()


# Chevalley-Eilenberg chain complexes on odd generators of degree 1: d is
# the Lie bracket as a second-order operator, so d vanishes on generators
# and d(xi1 xi2) = +-[e1, e2].  aff(1), [e1, e2] = e2: H = {0: 1, 1: 1}
# (xi2 is a boundary, xi1 xi2 no cycle).  Heisenberg, [e1, e2] = e3:
# H_1 = 3 - 1, H_2 = 2 (the cycles xi1 xi3, xi2 xi3; d(xi1 xi2 xi3) = 0),
# H_3 = 1.  Window 2 of Heisenberg misses xi1 xi2 xi3.
CE_SPECS = {
    "aff1": "GENERATORS\nxi1 1\nxi2 1\n\nOPERATOR d\n-1 | 0 1 | 1 1\n",
    "heisenberg": "GENERATORS\nxi1 1\nxi2 1\nxi3 1\n\nOPERATOR d\n-1 | 0 0 1 | 1 1 0\n",
}


@pytest.mark.parametrize("name, window, dims, code", [
    ("aff1", 2, {0: 1, 1: 1}, 0),
    ("heisenberg", 3, {0: 1, 1: 2, 2: 2, 3: 1}, 0),
    ("heisenberg", 2, {0: 1, 1: 2, 2: 2}, 3),
], ids=["aff1-window2", "heisenberg-window3", "heisenberg-window2"])
def test_window_of_every_monomial_warns_of_no_truncation(name, window, dims, code,
                                                         tmp_path, capsys):
    # with odd generators only, a window of total exponent >= their number
    # holds every monomial, so no boundary can come from outside it
    spec = write(tmp_path, "ce.spec", CE_SPECS[name])
    argv = ["cohomology", "--spec", spec, "--window", str(window), "--format", "json"]
    assert main(argv) == code
    suite, _ = json.loads(capsys.readouterr().out)["suites"]
    items = [(i["name"], i["status"], i["details"]) for i in suite["items"]]
    assert items[0] == ("slice dimensions", "pass", str(dims))
    assert (len(items) > 1) == (code == 3)
    assert all(n == "window truncation" for n, _, _ in items[1:])
