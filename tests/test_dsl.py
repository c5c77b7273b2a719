from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chainlab.algebras import Algebra
from chainlab.cli import main
from chainlab.dsl import parse_algebra, parse_algebra_file
from chainlab.errors import AssociativityError, ChainlabError, ParseError, SizeLimit
from chainlab.presets import dual_numbers

ONE = Fraction(1)


def test_preset_invocation():
    A = parse_algebra("preset dual_numbers\n")
    E = dual_numbers()
    assert A.dim == 2 and A.mul == E.mul and A.unit == E.unit


def test_preset_with_params():
    A = parse_algebra("preset truncated_poly 4\n")
    assert A.dim == 4
    B = parse_algebra("preset matrix:2\n")
    assert B.dim == 4


def test_a_preset_line_is_guarded_before_it_is_built(monkeypatch):
    built = []
    init = Algebra.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Algebra, "__init__", counted_init)
    for line in ("preset truncated_poly:150\n", "preset truncated_poly 150\n"):
        with pytest.raises(SizeLimit) as exc:
            parse_algebra(line, size_limit=10)
        assert str(exc.value) == "preset 'truncated_poly:150' has dimension 150 > size limit 10"
    assert built == []
    assert parse_algebra("preset truncated_poly 10\n", size_limit=10).dim == 10


def test_explicit_q_times_q():
    text = """
    # Q x Q by structure constants
    algebra qq dim 2
    basis e1 e2
    mul 1 1 = 1*1
    mul 2 2 = 1*2
    unit = 1*1 + 1*2
    """
    A = parse_algebra(text)
    assert A.dim == 2
    assert A.unit == {0: ONE, 1: ONE}
    assert A.mul_basis(0, 1) == {}
    assert A.commutative


def test_rational_coefficients_and_signs():
    text = """
    algebra half dim 2
    mul 1 1 = 1/2*1 - 3/2*2
    """
    A = parse_algebra(text)
    assert A.mul_basis(0, 0) == {0: Fraction(1, 2), 1: Fraction(-3, 2)}


def test_associativity_error_reports_triple():
    text = """
    algebra bad dim 2
    mul 1 1 = 1*2
    mul 2 2 = 1*2
    """
    with pytest.raises(AssociativityError) as exc:
        parse_algebra(text)
    assert exc.value.triple == (1, 1, 2)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_algebra("algebra x dim 2\nmul 1 3 = 1*1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_algebra("algebra x dim 1\nmul 1 1 = nonsense\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("line", ["basis a", "MUL 1 1 = 1*1", "unit = 1*1", "augmentation = 1"])
def test_a_table_line_before_the_algebra_line_names_its_directive(line):
    with pytest.raises(ParseError) as exc:
        parse_algebra(f"# no algebra yet\n{line}\nalgebra x dim 1\n")
    assert str(exc.value) == f"{line.split()[0].lower()} line before algebra line (line 2)"


def test_misc_errors():
    with pytest.raises(ParseError):
        parse_algebra("")
    with pytest.raises(ParseError):
        parse_algebra("basis a b\n")
    with pytest.raises(ParseError):
        parse_algebra("algebra x dim 2\nbasis onlyone\n")
    with pytest.raises(ParseError):
        parse_algebra("algebra x dim 1\npreset dual_numbers\n")
    with pytest.raises(ParseError):
        parse_algebra("preset no_such_thing\n")


@pytest.mark.parametrize("text, line", [
    ("algebra a dim 3\nmul 3 3 = 1*3\nalgebra b dim 2\n", 3),  # a product index past the new dim
    ("algebra a dim 2\nbasis x y\nalgebra b dim 3\n", 3),     # a label count that no longer fits
    ("algebra a dim 2\nalgebra a dim 2\n", 2)])
def test_a_second_algebra_line_is_a_parse_error_that_names_it(text, line):
    with pytest.raises(ParseError) as exc:
        parse_algebra(text)
    assert str(exc.value) == f"second algebra line (line {line})"


def test_a_second_algebra_line_exits_with_status_2(tmp_path, capsys):
    path = tmp_path / "two.alg"
    path.write_text("algebra a dim 3\nmul 3 3 = 1*3\nalgebra b dim 2\n")
    assert main(["hh", "--file", str(path), "-D", "3"]) == 2
    assert "second algebra line (line 3)" in capsys.readouterr().err


@pytest.mark.parametrize("first, second", [("basis a b", "basis c d"),
                                           ("unit = 1*2", "unit = 1*1"),
                                           ("augmentation = 1", "augmentation = 1")])
def test_a_second_basis_unit_or_augmentation_line_is_a_parse_error_that_names_it(first, second):
    with pytest.raises(ParseError) as exc:
        parse_algebra(f"algebra a dim 2\n{first}\nmul 1 1 = 1*1\n{second}\n")
    assert str(exc.value) == f"second {first.split()[0]} line (line 4)"


def test_a_second_unit_line_exits_with_status_2(tmp_path, capsys):
    # the first unit is wrong and the second right: the last line no longer wins
    path = tmp_path / "two_units.alg"
    path.write_text("algebra a dim 2\nmul 1 1 = 1*1\nmul 1 2 = 1*2\nmul 2 1 = 1*2\n"
                    "unit = 1*2\nunit = 1*1\n")
    assert main(["hh", "--file", str(path), "-D", "2"]) == 2
    assert capsys.readouterr().err == "parse error: second unit line (line 6)\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"algebra a dim 1\n\xff\n")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(path)
    assert str(exc.value) == "invalid UTF-8 at byte offset 16"
    assert main(["hh", "--file", str(path), "-D", "3"]) == 2
    assert capsys.readouterr().err == "parse error: invalid UTF-8 at byte offset 16\n"


def test_a_duplicate_mul_is_caught_when_the_first_summed_to_zero():
    with pytest.raises(ParseError) as exc:
        parse_algebra("algebra x dim 2\nmul 1 1 = 1*1 - 1*1\nmul 1 1 = 1*2\n")
    assert str(exc.value) == "duplicate mul 1 1 (line 3)"


def test_augmentation_directive():
    text = """
    algebra t2 dim 2
    basis one t
    mul 1 1 = 1*1
    mul 1 2 = 1*2
    mul 2 1 = 1*2
    unit = 1*1
    augmentation = 1
    """
    A = parse_algebra(text)
    assert A.augmentation == {0: ONE}
    assert A.counit({0: ONE, 1: Fraction(5)}) == ONE


def test_augmentation_must_be_multiplicative():
    text = """
    algebra bad dim 2
    mul 1 1 = 1*1
    mul 1 2 = 1*2
    mul 2 1 = 1*2
    unit = 1*1
    augmentation = 2
    """
    with pytest.raises(Exception):
        parse_algebra(text)


def test_a_zero_denominator_is_a_parse_error_that_names_the_line():
    with pytest.raises(ParseError) as exc:
        parse_algebra("algebra x dim 1\nmul 1 1 = 1/0*1\n")
    assert exc.value.line == 2 and str(exc.value) == "zero denominator in '1/0*1' (line 2)"


def test_the_algebra_line_is_guarded_before_anything_is_built(monkeypatch):
    built = []
    init = Algebra.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Algebra, "__init__", counted_init)
    with pytest.raises(SizeLimit) as exc:
        parse_algebra("algebra big dim 3000000\nmul 1 1 = 1*1\n")
    assert str(exc.value) == "algebra 'big' has dimension 3000000 > size limit 2000000"
    with pytest.raises(SizeLimit) as exc:
        parse_algebra("algebra v dim 11\n", size_limit=10)
    assert str(exc.value) == "algebra 'v' has dimension 11 > size limit 10"
    assert built == []
    assert parse_algebra("algebra v dim 10\n", size_limit=10).dim == 10


# ---------------------------------------------------------------------------
# fuzz: every generated text ends in an Algebra or a ChainlabError
# ---------------------------------------------------------------------------

@st.composite
def coefficient(draw):
    """An integer or p/q, with zero and negative denominators among the q."""
    num = str(draw(st.integers(-3, 3)))
    den = draw(st.sampled_from([None, None, None, 1, 2, 3, 0, -2]))
    return num if den is None else f"{num}/{den}"


@st.composite
def terms(draw, dim):
    """'c*k + ...' with k in 1..dim (the junk lines of dsl_text go out of range)."""
    index = st.integers(1, max(dim, 1))
    parts = [f"{draw(coefficient())}*{draw(index)}" for _ in range(draw(st.integers(0, 2)))]
    return " + ".join(parts) if parts else draw(st.sampled_from(["0*1", "x", ""]))


@st.composite
def dsl_text(draw):
    """An algebra line, usually well formed and first, then table lines in any
    order: mul, unit, augmentation and basis lines, now and then a malformed one
    or a second algebra line."""
    dim = draw(st.sampled_from([1, 2, 3, 2, 3, 0]))
    index = st.integers(1, max(dim, 1))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["mul"] * 8 + ["unit", "unit", "augmentation", "basis",
                                                   "junk"]))
        if kind == "mul":
            lines.append(f"mul {draw(index)} {draw(index)} = {draw(terms(dim))}")
        elif kind == "unit":
            lines.append(f"unit = {draw(terms(dim))}")
        elif kind == "augmentation":
            lines.append(f"augmentation = {draw(index)}")
        elif kind == "basis":
            lines.append("basis " + " ".join(f"b{i}" for i in range(draw(st.integers(0, 4)))))
        else:
            lines.append(draw(st.sampled_from([
                "preset dual_numbers", "preset nope", "mul 1 1", "mul 0 1 = 1*1",
                f"mul 1 {dim + 1} = 1*1", f"mul 1 1 = 1*{dim + 1}", "augmentation = 0",
                "unit", "# comment", "frobnicate"])))
    header = draw(st.sampled_from([f"algebra a dim {dim}"] * 12 + [
        "algebra a dim 11", "algebra a dim -1", "algebra a dim x", "algebra a 2", None]))
    if header is not None:
        lines.insert(draw(st.sampled_from([0] * 7 + [len(lines)])), header)
        if draw(st.integers(0, 3)) == 0:  # a repeated algebra line, mostly after the table
            lines.insert(draw(st.sampled_from([len(lines)] * 3 + [1])),
                         f"algebra b dim {draw(st.sampled_from([0, 1, 2, 3]))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dsl_text())
def test_every_text_ends_in_an_algebra_or_a_chainlab_error(text):
    try:
        A = parse_algebra(text, size_limit=10)
    except ChainlabError:
        return
    assert isinstance(A, Algebra), text
    B, L = A.integral()  # the integral basis validates too
    assert B.dim == A.dim and (B is A) == (L == 1), text
