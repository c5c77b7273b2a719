"""The index-arithmetic builders of b', the wrap term, the unit homotopy and
the Chevalley-Eilenberg differential against the word-by-word builders of
oracle.py: equal matrices on every preset, on rebased tables with real
denominators, on bimodules of another dimension than the algebra, and on
random structure constants.  The lambda complex, which walks t by index
arithmetic and projects b's runs onto its classes with neither matrix built,
against its route through both matrices: the same walks and quotient
matrices, entry for entry."""

import importlib.util
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from chainlab import lie
from chainlab.algebras import Algebra, Bimodule
from chainlab.cyclic import (b_prime_matrix, hoch_from_b_prime, hoch_matrix, lambda_complex,
                             rotation_matrix, sparser_basis, unit_homotopy)
from chainlab.dsl import parse_algebra
from chainlab.excision import ExtensionData
from chainlab.lie import LieAlgebra, ce_complex, gl, lie_from_assoc
from chainlab.presets import algebra_preset, extension_preset

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PRESETS = ["rationals", "zero", "dual_numbers", "truncated_poly:3", "truncated_poly:4",
           "square_zero:2", "fat_point", "product", "matrix:2", "upper_triangular:2",
           "upper_triangular:3", "tensor:dual_numbers,truncated_poly:3"]


def assert_builders_match(A, M, top):
    for p in range(1, top + 1):
        b_prime = oracle.b_prime_matrix(A, M, p)
        b = b_prime + oracle.wrap_matrix(A, M, p)
        assert b_prime_matrix(A, M, p) == b_prime, ("b'", p)
        assert hoch_matrix(A, M, p) == b, ("b", p)
        assert hoch_from_b_prime(b_prime, A, M, p) == b, ("b from b'", p)
    if A.is_unital:
        for p in range(0, top + 1):
            assert unit_homotopy(A, M, p) == oracle.unit_homotopy(A, M, p), ("s", p)


@pytest.mark.parametrize("spec", PRESETS)
def test_builders_match_oracle_on_presets(spec):
    A = algebra_preset(spec)
    assert_builders_match(A, Bimodule.regular(A), 4)


def test_hoch_matrix_is_b_prime_plus_wrap():
    A = algebra_preset("upper_triangular:2")
    M = Bimodule.regular(A)
    for p in range(1, 4):
        assert hoch_matrix(A, M, p) == oracle.b_prime_matrix(A, M, p) + oracle.wrap_matrix(A, M, p)


def _rebased_jobs(seed):
    """(D, algebra) of each job of perfbench/workloads.py's rebased tables."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for slot, (_, preset, D, bits) in enumerate(workloads.REBASED):
        text, fractional = workloads.generate_rebased(preset, bits, seed, slot)
        assert fractional
        yield D, parse_algebra(text)


def _rebased_algebras(seed):
    return (A for _, A in _rebased_jobs(seed))


def test_builders_match_oracle_on_rebased_tables():
    for A in _rebased_algebras(seed=1):
        assert any(type(c) is Fraction for v in A.mul.values() for c in v.values())
        assert_builders_match(A, Bimodule.regular(A), 3)


@pytest.mark.parametrize("name", ["truncated_poly:3", "upper_triangular:2", "matrix_dual:2",
                                  "split_product"])
def test_builders_match_oracle_on_other_bimodules(name):
    ext = ExtensionData(extension_preset(name))
    M_ad = ext.adapt_module(None)
    modules = [
        (ext.ideal_algebra(), ext.restrict_module_to_ideal(M_ad)),
        (ext.A_ad, Bimodule.over_morphism(ext.f_ad)),
        (ext.A_ad, oracle.module_b_tensor_ideal(ext)),
        (ext.A_ad, Bimodule.trivial(ext.A_ad, 3)),
    ]
    for A, M in modules:
        assert A.dim != M.dim or M.name == "trivial"
        assert_builders_match(A, M, 3 if A.dim <= 4 else 2)


@pytest.mark.parametrize("spec,r", [("rationals", 2), ("rationals", 3), ("dual_numbers", 2),
                                    ("dual_numbers", 3), ("upper_triangular:2", 2)])
def test_ce_matches_oracle_on_gl(spec, r):
    g = gl(algebra_preset(spec), r)
    ce = ce_complex(LieAlgebra(g.dim, g.labels, g.bracket), 5)  # ungraded: every wedge
    for p in range(1, min(5, g.dim) + 1):
        assert ce.complex.diffs[p] == oracle.ce_matrix(g, p), p
    assert ce.tuples[2] == list(combinations(range(g.dim), 2))


def test_ce_matches_oracle_on_rebased_commutators():
    for A in _rebased_algebras(seed=2):
        g = lie_from_assoc(A)
        ce = ce_complex(g, 5)
        for p in range(1, min(5, g.dim) + 1):
            assert ce.complex.diffs[p] == oracle.ce_matrix(g, p), (A.name, p)


# ---------------------------------------------------------------------------
# random structure constants, no validation: the builders read tables only
# ---------------------------------------------------------------------------

SCALARS = st.one_of(st.integers(-3, 3),
                    st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (2, 3)]))
BUILDER_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def tables(draw, n_in, n_mid, n_out):
    """{(x, y): {k: c}} with x < n_in, y < n_mid, k < n_out."""
    if not (n_in and n_mid and n_out):
        return {}
    pair = st.tuples(st.integers(0, n_in - 1), st.integers(0, n_mid - 1))
    vec = st.dictionaries(st.integers(0, n_out - 1), SCALARS, max_size=n_out)
    return draw(st.dictionaries(pair, vec, max_size=n_in * n_mid))


@st.composite
def algebras_and_modules(draw):
    d, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    unit = draw(st.dictionaries(st.integers(0, d - 1), SCALARS, min_size=1)) if d else None
    A = Algebra(d, None, tables(draw, d, d, d), unit=unit, check=False)
    M = Bimodule(A, m, tables(draw, d, m, m), tables(draw, m, d, m), check=False)
    return A, M


@BUILDER_SETTINGS
@given(algebras_and_modules(), st.integers(1, 3))
def test_builders_match_oracle_on_random_tables(pair, p):
    A, M = pair
    b_prime = oracle.b_prime_matrix(A, M, p)
    b = b_prime + oracle.wrap_matrix(A, M, p)
    assert b_prime_matrix(A, M, p) == b_prime
    assert hoch_matrix(A, M, p) == b
    assert hoch_from_b_prime(b_prime, A, M, p) == b
    if A.is_unital:
        assert unit_homotopy(A, M, p) == oracle.unit_homotopy(A, M, p)


@st.composite
def lie_tables(draw):
    n = draw(st.integers(0, 6))
    bracket = {}
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
        vec = st.dictionaries(st.integers(0, n - 1), SCALARS, max_size=3)
        bracket = draw(st.dictionaries(pair, vec, max_size=n * n))
    return LieAlgebra(n, None, bracket, check=False)


def _ce_matrix(g, p):
    """The production differential on wedge degree p, fed as ce_complex feeds it."""
    wedges = lie._weight_zero_wedges([()] * g.dim, p)  # no grading: every wedge
    index = {mask: (k, 0) for k, mask in enumerate(wedges[p - 1][1])}  # row, odd
    return lie._ce_matrix(g, *wedges[p], index, len(index))


@BUILDER_SETTINGS
@given(lie_tables(), st.integers(1, 4))
def test_ce_matches_oracle_on_random_tables(g, p):
    assert _ce_matrix(g, p) == oracle.ce_matrix(g, p)


# ---------------------------------------------------------------------------
# the lambda complex against its route through full-size matrices
# ---------------------------------------------------------------------------


def assert_lambda_matches_matrix_route(A, D):
    try:
        walks, expected = oracle.lambda_complex(A, D)
    except ValueError as verdict:
        with pytest.raises(ValueError, match=re.escape(str(verdict))):
            lambda_complex(A, D)
        return
    lam = lambda_complex(A, D)
    assert lam._walks == walks
    assert lam.complex.dims == expected.dims
    for p, d in expected.diffs.items():  # entry for entry, in the same order
        assert list(lam.complex.diffs[p].entries.items()) == list(d.entries.items()), p


def test_rotation_matches_the_word_by_word_oracle():
    for d in range(5):
        for p in range(6 if d < 4 else 5):
            A = Algebra(d, None, {})
            assert rotation_matrix(A, p) == oracle.rotation_matrix(A, p), (d, p)


@pytest.mark.parametrize("spec", PRESETS)
def test_lambda_matches_the_matrix_route_on_presets(spec):
    A = algebra_preset(spec)
    assert_lambda_matches_matrix_route(A, max(D for D in range(1, 7) if A.dim ** (D + 1) <= 3 ** 7))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lambda_matches_the_matrix_route_on_rebased_tables(seed):
    for D, A in _rebased_jobs(seed):
        assert_lambda_matches_matrix_route(A, D)
        assert_lambda_matches_matrix_route(A.integral()[0], D)  # as the CLI's lambda --reps builds it
        assert_lambda_matches_matrix_route(sparser_basis(A), D)  # as hc and lambda build it


def products(draw, n_in, n_out, offset=0):
    """{(x, y): {offset + k: c}} with x, y < n_in and k < n_out, at least one
    nonzero product when n_in and n_out are."""
    if not (n_in and n_out):
        return {}
    pair = st.tuples(st.integers(0, n_in - 1), st.integers(0, n_in - 1))
    vec = st.dictionaries(st.integers(offset, offset + n_out - 1), SCALARS.filter(bool),
                          min_size=1, max_size=n_out)
    return draw(st.dictionaries(pair, vec, min_size=1, max_size=n_in * n_in))


@st.composite
def lambda_cases(draw):
    """(A, D) with dim A <= 4 and D <= 5: an unvalidated random table, whose
    d.d check usually fails, or a random table with products only from the
    letters below k into the others, associative since those multiply to
    zero."""
    d, D = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return Algebra(d, None, products(draw, d, d), check=False), D
    k = draw(st.integers(1, d - 1)) if d >= 2 else 0
    return Algebra(d, None, products(draw, k, d - k, offset=k)), D


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lambda_cases())
def test_lambda_matches_the_matrix_route_on_random_tables(case):
    assert_lambda_matches_matrix_route(*case)
