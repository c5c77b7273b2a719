"""The validators that walk nonzero structure constants against the loops over
every basis triple in oracle.py: the same verdict, the same exception and the
same first failing triple, on random sparse and dense tables, on every preset,
on the rebased tables of the benchmark, and on each of these with one
structure constant perturbed."""

import importlib.util
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from chainlab.algebras import Algebra, Bimodule, matrix_algebra
from chainlab.dsl import parse_algebra
from chainlab.errors import AssociativityError
from chainlab.excision import ExtensionData
from chainlab.lie import LieAlgebra, gl, lie_from_assoc
from chainlab.presets import algebra_preset, extension_preset

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PRESETS = ["rationals", "zero", "dual_numbers", "truncated_poly:3", "truncated_poly:4",
           "square_zero:2", "fat_point", "product", "matrix:2", "upper_triangular:2",
           "upper_triangular:3", "tensor:dual_numbers,truncated_poly:3"]

SCALARS = st.one_of(st.integers(-3, 3),
                    st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (2, 3)]))
NONZERO = SCALARS.filter(bool)
VALIDATOR_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def outcome(build):
    """(exception type, message, triple) raised by build(), or None."""
    try:
        build()
    except (AssociativityError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "triple", None)
    return None


def assert_associativity_agrees(dim, mul):
    got = outcome(lambda: Algebra(dim, None, mul))
    assert got == outcome(lambda: oracle.associativity(Algebra(dim, None, mul, check=False)))
    return got


def assert_jacobi_agrees(dim, bracket):
    got = outcome(lambda: LieAlgebra(dim, None, bracket))
    assert got == outcome(lambda: oracle.jacobi(LieAlgebra(dim, None, bracket, check=False)))
    return got


def assert_bimodule_agrees(A, dim, left, right):
    got = outcome(lambda: Bimodule(A, dim, left, right))
    assert got == outcome(lambda: oracle.bimodule_axioms(Bimodule(A, dim, left, right, check=False)))
    return got


def perturb(table, key, k, delta):
    """A copy of table with delta added to the coefficient of k in table[key]."""
    out = {kk: dict(v) for kk, v in table.items()}
    vec = out.setdefault(key, {})
    vec[k] = vec.get(k, 0) + delta
    return out


def draw_perturbation(data, table, n_left, n_right, n_out, distinct=False):
    """table with one structure constant perturbed at a drawn position."""
    i = data.draw(st.integers(0, n_left - 1))
    j = data.draw(st.integers(0, n_right - 1).filter(lambda j: not distinct or j != i))
    return perturb(table, (i, j), data.draw(st.integers(0, n_out - 1)), data.draw(NONZERO))


def _rebased_algebras(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for slot, (_, preset, _, bits) in enumerate(workloads.REBASED):
        yield parse_algebra(workloads.generate_rebased(preset, bits, seed, slot)[0])


TABLE_ALGEBRAS = [algebra_preset(s) for s in PRESETS] + list(_rebased_algebras(seed=3))
TABLE_IDS = PRESETS + [f"rebased{slot}" for slot in range(len(TABLE_ALGEBRAS) - len(PRESETS))]


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------


def tables(draw, n_in, n_mid, n_out, max_terms):
    """{(x, y): {k: c}} with x < n_in, y < n_mid, k < n_out: sparse or dense."""
    if not (n_in and n_mid and n_out):
        return {}
    if draw(st.booleans()):  # dense: every pair gets a product
        vec = st.dictionaries(st.integers(0, n_out - 1), SCALARS, min_size=1, max_size=n_out)
        return {(x, y): draw(vec) for x in range(n_in) for y in range(n_mid)}
    pair = st.tuples(st.integers(0, n_in - 1), st.integers(0, n_mid - 1))
    vec = st.dictionaries(st.integers(0, n_out - 1), SCALARS, max_size=max_terms)
    return draw(st.dictionaries(pair, vec, max_size=n_in * n_mid))


@st.composite
def mult_tables(draw):
    """(dim, mul): arbitrary, or with every product landing on the last basis
    vector, which multiplies to zero (associative for any coefficients)."""
    d = draw(st.integers(0, 4))
    if d and draw(st.booleans()):
        mul = {key: {d - 1: c} for key, c in
               draw(st.dictionaries(st.tuples(st.integers(0, d - 2), st.integers(0, d - 2)),
                                    SCALARS)).items()} if d > 1 else {}
        return d, mul
    return d, tables(draw, d, d, d, 2)


@VALIDATOR_SETTINGS
@given(mult_tables(), st.data())
def test_associativity_matches_the_triple_loop_on_random_tables(table, data):
    dim, mul = table
    assert_associativity_agrees(dim, mul)
    if dim:
        assert_associativity_agrees(dim, draw_perturbation(data, mul, dim, dim, dim))


@st.composite
def bracket_tables(draw):
    """(dim, bracket): arbitrary, or with every bracket landing on the last
    basis vector, which is central (Jacobi holds for any coefficients)."""
    n = draw(st.integers(0, 6))
    if n < 2:
        return n, {}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    if draw(st.booleans()):
        pair = pair.filter(lambda t: n - 1 not in t)
        return n, {key: {n - 1: c} for key, c in draw(st.dictionaries(pair, SCALARS)).items()}
    if draw(st.booleans()):  # dense: every pair i < j gets a bracket
        vec = st.dictionaries(st.integers(0, n - 1), SCALARS, min_size=1, max_size=n)
        return n, {(i, j): draw(vec) for i in range(n) for j in range(i + 1, n)}
    vec = st.dictionaries(st.integers(0, n - 1), SCALARS, max_size=3)
    return n, draw(st.dictionaries(pair, vec, max_size=n * n))


@VALIDATOR_SETTINGS
@given(bracket_tables(), st.data())
def test_jacobi_matches_the_triple_loop_on_random_tables(table, data):
    dim, bracket = table
    assert_jacobi_agrees(dim, bracket)
    if dim >= 2:
        assert_jacobi_agrees(dim, draw_perturbation(data, bracket, dim, dim, dim, distinct=True))


@st.composite
def module_tables(draw):
    """(A, dim, left, right) over a preset algebra: arbitrary actions, or,
    over the non-unital presets drawn here (zero multiplication), actions
    landing on the last module vector, which A kills from both sides, so
    every axiom holds."""
    A = algebra_preset(draw(st.sampled_from(["square_zero:2", "dual_numbers", "zero",
                                             "upper_triangular:2", "rationals"])))
    m = draw(st.integers(0, 3))
    if m and A.dim and not A.is_unital and draw(st.booleans()):
        keys = st.tuples(st.integers(0, A.dim - 1), st.integers(0, m - 2)) if m > 1 else st.nothing()
        left = {key: {m - 1: c} for key, c in draw(st.dictionaries(keys, SCALARS)).items()}
        right = {(x, a): {m - 1: c} for (a, x), c in draw(st.dictionaries(keys, SCALARS)).items()}
        return A, m, left, right
    return A, m, tables(draw, A.dim, m, m, 2), tables(draw, m, A.dim, m, 2)


@VALIDATOR_SETTINGS
@given(module_tables(), st.data())
def test_bimodule_axioms_match_the_triple_loop_on_random_tables(table, data):
    A, dim, left, right = table
    assert_bimodule_agrees(A, dim, left, right)
    if dim and A.dim:
        assert_bimodule_agrees(A, dim, draw_perturbation(data, left, A.dim, dim, dim), right)
        assert_bimodule_agrees(A, dim, left, draw_perturbation(data, right, dim, A.dim, dim))


# ---------------------------------------------------------------------------
# presets and the rebased tables, as built and with one constant perturbed
# ---------------------------------------------------------------------------


@cache
def lie_algebras(k):
    """The commutator Lie algebra and gl_2 of TABLE_ALGEBRAS[k], where of dim >= 2."""
    A = TABLE_ALGEBRAS[k]
    return [g for g in (lie_from_assoc(A), gl(A, 2)) if g.dim >= 2]


@pytest.mark.parametrize("k", range(len(TABLE_ALGEBRAS)), ids=TABLE_IDS)
def test_preset_tables_pass_every_validator(k):
    A = TABLE_ALGEBRAS[k]
    assert assert_associativity_agrees(A.dim, A.mul) is None
    M = matrix_algebra(A, 2)
    assert assert_associativity_agrees(M.dim, M.mul) is None
    for g in lie_algebras(k):
        assert assert_jacobi_agrees(g.dim, g.bracket) is None
    assert assert_bimodule_agrees(A, A.dim, A.mul, A.mul) is None


@pytest.mark.parametrize("k", range(len(TABLE_ALGEBRAS)), ids=TABLE_IDS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_preset_tables_with_one_constant_perturbed(k, data):
    A = TABLE_ALGEBRAS[k]
    d = A.dim
    if not d:
        return
    assert_associativity_agrees(d, draw_perturbation(data, A.mul, d, d, d))
    for g in lie_algebras(k):
        assert_jacobi_agrees(g.dim, draw_perturbation(data, g.bracket, g.dim, g.dim, g.dim,
                                                      distinct=True))
    assert_bimodule_agrees(A, d, draw_perturbation(data, A.mul, d, d, d), A.mul)
    assert_bimodule_agrees(A, d, A.mul, draw_perturbation(data, A.mul, d, d, d))


@pytest.mark.parametrize("name", ["truncated_poly:3", "upper_triangular:2", "matrix_dual:2",
                                  "split_product"])
def test_extension_bimodules_pass_the_axioms(name):
    ext = ExtensionData(extension_preset(name))
    M_ad = ext.adapt_module(None)
    for A, M in [(ext.ideal_algebra(), ext.restrict_module_to_ideal(M_ad)),
                 (ext.A_ad, Bimodule.over_morphism(ext.f_ad)),
                 (ext.A_ad, oracle.module_b_tensor_ideal(ext))]:
        assert assert_bimodule_agrees(A, M.dim, M.left, M.right) is None


def test_first_failing_triples_are_named():
    # (e1 e1) e2 = e2 but e1 (e1 e2) = 0; the triple loop stops there first
    assert assert_associativity_agrees(2, {(0, 0): {1: 1}, (1, 1): {1: 1}}) == (
        AssociativityError, "associativity fails on basis triple (1, 1, 2)", (1, 1, 2))
    # [x1, x2] = x3, [x2, x3] = x1, [x1, x4] = x4, [x3, x4] = x2: fails first on (1, 2, 4)
    bracket = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 3): {3: 1}, (2, 3): {1: 1}}
    assert assert_jacobi_agrees(4, bracket) == (
        ValueError, "Jacobi identity fails on triple (1,2,4)", None)
    # a left action by e on the zero-multiplication algebra that is not nilpotent
    A = algebra_preset("square_zero:2")
    assert assert_bimodule_agrees(A, 1, {(0, 0): {0: 1}}, {}) == (
        ValueError, "left action not associative at (0,0,0)", None)
    # e1 m1 = m2 and m2 e1 = m1: each action is associative, but (e1 m1) e1 = m1
    # while e1 (m1 e1) = 0
    assert assert_bimodule_agrees(A, 2, {(0, 0): {1: 1}}, {(1, 0): {0: 1}}) == (
        ValueError, "left/right actions do not commute at (0,0,0)", None)
