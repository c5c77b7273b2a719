from fractions import Fraction

import pytest

from chainlab.algebras import Algebra
from chainlab.dsl import parse_algebra
from chainlab.errors import AssociativityError, ParseError, SizeLimit
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
