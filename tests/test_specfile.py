from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcheck.operators import Operator, format_operator
from bvcheck.specfile import ModelSpec, SpecError, parse_spec

GOOD = """\
# odd Laplacian on one pair
GENERATORS
x 0
xi 1

OPERATOR D
1 | 0 0 | 1 1

SUITE bv-core order=2
SUITE linfty n=3
"""


def test_parse_good_spec():
    spec = parse_spec(GOOD)
    assert spec.table.names == ("x", "xi")
    assert spec.table.degrees == (0, 1)
    D = spec.operators["D"]
    assert D.degree() == -1
    assert D.structural_order() == 2
    assert spec.suites == [("bv-core", {"order": 2}), ("linfty", {"n": 3})]
    assert spec.main_operator() == D


def test_rational_coefficients_and_term_merging():
    text = "GENERATORS\nx 0\nOPERATOR D\n-3/2 | 0 | 1\n1/2 | 0 | 1\n"
    spec = parse_spec(text)
    D = spec.operators["D"]
    assert D.terms == {((0,), (1,)): Fraction(-1)}


def test_model_line_supplies_table_and_operators():
    spec = parse_spec("MODEL polyvector2\nSUITE bv-core\n")
    assert len(spec.table) == 4
    # the model's d is zero, so only its D joins the operators
    assert list(spec.operators) == ["D"]
    assert spec.main_operator() is spec.operators["D"]
    assert spec.main_operator().degree() == -1
    assert spec.differential().is_zero()


def test_operator_round_trips_through_term_format():
    spec = parse_spec(GOOD)
    D = spec.operators["D"]
    lines = format_operator(D).split(" ; ")
    # the renderer emits the documented `coeff | multiplier | derivatives`
    # shape; the textual round trip is exercised end to end by the CLI tests
    assert lines == ["1 | 1 | d/dx d/dxi"]


# (text, message fragment, line, column): the column is that of the token
# the error names, or of the line's first token
ERROR_POSITIONS = [
    ("OPERATOR D\n1 | 0 | 1\n", "before any GENERATORS", 1, 1),
    ("GENERATORS\nx 0\nx 1\n", "duplicate generator", 3, 1),
    ("GENERATORS\nx zero\n", "bad degree", 2, 3),
    ("GENERATORS\nx --1", "bad degree", 2, 3),
    ("GENERATORS\nx \u00b2", "bad degree", 2, 3),
    ("GENERATORS\nx 0\nGENERATORS\n", "duplicate GENERATORS", 3, 1),
    ("GENERATORS\nx 0\nOPERATOR D\nfoo | 0 | 1\n", "bad rational", 4, 1),
    ("GENERATORS\nx 0\nOPERATOR D\n1 | 0 1\n", "term line must be", 4, 1),
    ("GENERATORS\nx 0\nOPERATOR D\n1 | 0 0 | 1\n", "expected 1 exponents", 4, 4),
    ("GENERATORS\nx 0\nOPERATOR D\n1 | --1 | 0\n", "bad exponent", 4, 5),
    ("GENERATORS\nxi 1\nOPERATOR D\n1 | 0 | 2\n", "odd generator", 4, 9),
    ("GENERATORS\nx 0\nOPERATOR D\n", "no terms", 4, 1),
    ("GENERATORS\nx 0\nOPERATOR D\n1 | 0 | 1\nOPERATOR D\n1 | 0 | 1\n",
     "duplicate operator", 5, 10),
    ("MODEL nosuch\n", "unknown model", 1, 7),
    ("MODEL polyvector2\nGENERATORS\n", "conflicts", 2, 1),
    ("MODEL\n", "MODEL needs exactly one name", 1, 1),
    ("MODEL polyvector2 koszul1\n", "MODEL needs exactly one name", 1, 1),
    ("GENERATORS\nx 0\nMODEL polyvector2\n", "MODEL conflicts with an earlier table", 3, 1),
    ("GENERATORS\nx 0\nSUITE\n", "SUITE needs a name", 3, 1),
    ("GENERATORS\nx 0\nSUITE linfty n=two\n", "must be an integer", 3, 14),
    ("MODEL polyvector2\nBOGUS\n", "unrecognized", 2, 1),
    ("", "no GENERATORS or MODEL", 1, 1),
    # each column is its own token's, in the raw line
    ("GENERATORS\nzero zero\n", "bad degree", 2, 6),
    ("GENERATORS\n  x 0\n  x 1\n", "duplicate generator", 3, 3),
    ("GENERATORS\nx 0\nOPERATOR D\n  foo | 0 | 1\n", "bad rational", 4, 3),
    ("GENERATORS\nx 0\nOPERATOR D\n  1 | 0 1\n", "term line must be", 4, 3),
    ("GENERATORS\nx 0\ny 0\nOPERATOR D\n1 | 0 x | 0 0\n", "bad exponent", 5, 7),
    ("GENERATORS\nx 0\ny 0\nOPERATOR D\n1 | 0 0 | 0 x\n", "bad exponent", 5, 13),
    ("GENERATORS\nx 0\ny 0\nOPERATOR D\n1 | 0 -1 | 0 0\n", "negative exponent", 5, 7),
    ("GENERATORS\nx 0\nxi 1\nOPERATOR D\n1|0 0|0 2\n", "odd generator", 5, 9),
    ("GENERATORS\nx 0\nOPERATOR D\n1 | 0 | 1\n\tOPERATOR D\n", "duplicate operator", 5, 11),
    ("GENERATORS\nx 0\n  OPERATOR D\n", "no terms", 4, 1),
    ("GENERATORS\nx 0\nOPERATOR D\n  OPERATOR d\n", "no terms", 4, 3),
    # suite parameters follow the integer rule of degrees and exponents
    ("GENERATORS\nx 0\nSUITE linfty n=+1\n", "must be an integer", 3, 14),
    ("GENERATORS\nx 0\nSUITE linfty n=1_0\n", "must be an integer", 3, 14),
    ("GENERATORS\nx 0\nSUITE bv-core order=2 n\n", "must be key=value", 3, 23),
    # the last value would silently win: the second key is the error
    ("GENERATORS\nx 0\nSUITE linfty n=1 n=3\n", "repeated suite parameter 'n'", 3, 18),
]


@pytest.mark.parametrize(
    "text,fragment,line,col", ERROR_POSITIONS,
    ids=[f"{text}-{fragment}-{line}" for text, fragment, line, _ in ERROR_POSITIONS],
)
def test_error_positions(text, fragment, line, col):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert fragment in err.value.message
    assert (err.value.line, err.value.col) == (line, col)


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nGENERATORS\nx 0  # flat\n\nOPERATOR D  # main\n1 | 0 | 1\n"
    spec = parse_spec(text)
    assert spec.table.names == ("x",)
    assert ((0,), (1,)) in spec.operators["D"].terms


def test_a_repeated_generators_header_with_no_lines_yet_keeps_the_section_open():
    spec = parse_spec("GENERATORS\n# none yet\nGENERATORS\nx 0\n")
    assert spec.table.names == ("x",)


def test_main_operator_fallbacks():
    spec = parse_spec("GENERATORS\nx 0\nOPERATOR only\n1 | 0 | 1\n")
    assert spec.main_operator() == spec.operators["only"]
    two = parse_spec(
        "GENERATORS\nx 0\nOPERATOR a\n1 | 0 | 1\nOPERATOR b\n2 | 0 | 1\n"
    )
    with pytest.raises(SpecError):
        two.main_operator()


HEADER_LINES = st.sampled_from([
    "GENERATORS", "GENERATORS extra", "OPERATOR D", "OPERATOR", "OPERATOR a b",
    "MODEL polyvector2", "MODEL nosuch", "MODEL", "SUITE linfty n=2", "SUITE",
    "SUITE linfty n=two", "SUITE linfty n", "BOGUS",
])
OTHER_LINES = st.sampled_from(["", "   ", "# a comment", "x", "1 | 0", "x 0 0"])
# half good, half bad integer tokens: `--1` and a superscript two pass a
# digit test that int() then rejects
INTEGERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2"]),
    st.sampled_from(["--1", "\u00b2", "+1", "1_0", "-", "zero"]),
)
EXPONENTS = st.one_of(st.sampled_from(["0", "1"]), INTEGERS)


@st.composite
def spec_lines(draw):
    """A GENERATORS section, OPERATOR sections and SUITE lines, with bad
    integers, exponent counts one off, and up to three lines inserted,
    copied or dropped; each line perhaps with a comment."""
    names = draw(st.lists(st.sampled_from(["x", "y", "xi"]), min_size=1, max_size=3, unique=True))
    lines = ["GENERATORS"] + [f"{name} {draw(INTEGERS)}" for name in names]
    for op in draw(st.lists(st.sampled_from(["D", "d"]), max_size=2)):
        lines.append(f"OPERATOR {op}")
        for _ in range(draw(st.integers(0, 2))):
            n = len(names) + draw(st.sampled_from([0, 0, 0, 1, -1]))
            mult, deriv = (" ".join(draw(st.lists(EXPONENTS, min_size=n, max_size=n)))
                           for _ in range(2))
            lines.append(f"{draw(st.sampled_from(['1', '-3/2', '1/0']))} | {mult} | {deriv}")
    lines += draw(st.lists(st.just("SUITE bv-core"), max_size=1))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["insert", "copy", "drop"]))
        if how == "insert":
            lines.insert(i, draw(st.one_of(HEADER_LINES, OTHER_LINES)))
        elif lines:
            line = lines.pop(min(i, len(lines) - 1))
            if how == "copy":
                lines[i:i] = [line, line]
    return [line + draw(st.sampled_from(["", "", "  # trailing", "#GENERATORS"]))
            for line in lines]


@given(spec_lines(), st.sampled_from(["", "\n"]))
@settings(max_examples=400, deadline=None)
def test_every_text_parses_or_fails_with_a_spec_error_on_one_of_its_lines(lines, end):
    text = "\n".join(lines) + end
    try:
        parse_spec(text)
    except SpecError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) + 1
