"""The index-arithmetic builders of b', the wrap term, the unit homotopy and
the Chevalley-Eilenberg differential against the word-by-word builders of
oracle.py: equal matrices on every preset, on rebased tables with real
denominators, on bimodules of another dimension than the algebra, and on
random structure constants."""

import importlib.util
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from chainlab import lie
from chainlab.algebras import Algebra, Bimodule
from chainlab.cyclic import b_prime_matrix, hoch_from_b_prime, hoch_matrix, unit_homotopy
from chainlab.dsl import parse_algebra
from chainlab.excision import ExtensionData, module_b_tensor_ideal
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


def _rebased_algebras(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for slot, (_, preset, _, bits) in enumerate(workloads.REBASED):
        text, fractional = workloads.generate_rebased(preset, bits, seed, slot)
        assert fractional
        yield parse_algebra(text)


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
        (ext.A_ad, module_b_tensor_ideal(ext)),
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
    index = {mask: k for k, mask in enumerate(wedges[p - 1][1])}
    return lie._ce_matrix(g, *wedges[p], index)


@BUILDER_SETTINGS
@given(lie_tables(), st.integers(1, 4))
def test_ce_matches_oracle_on_random_tables(g, p):
    assert _ce_matrix(g, p) == oracle.ce_matrix(g, p)
