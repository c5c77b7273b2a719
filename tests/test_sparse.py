import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from chainlab.algebras import Algebra, Bimodule
from chainlab.dsl import parse_algebra
from chainlab.lie import LieAlgebra
from chainlab.presets import algebra_preset, truncated_poly
from chainlab.sparse import (
    SparseMatrix,
    Subspace,
    _clear_denominators,
    _echelonize,
    exact,
    exact_vec,
    vec_axpy,
    vec_sub,
)
from chainlab.tangent import nilpotent_log

import oracle
from oracle import dense_product, dense_rank, from_dense, hc_bicomplex, image_basis, to_dense


def random_matrix(rng, nrows, ncols, fill=0.3, denominators=True):
    ent = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < fill:
                num = rng.randint(-5, 5)
                den = rng.randint(1, 4) if denominators else 1
                ent[(i, j)] = Fraction(num, den)
    return SparseMatrix(nrows, ncols, ent)


def test_identity_full_rank():
    M = SparseMatrix.identity(3)
    assert M.rank() == 3
    assert M.kernel_basis() == []


def test_zero_matrix_kernel():
    M = SparseMatrix.zeros(4, 4)
    assert M.rank() == 0
    ker = M.kernel_basis()
    assert len(ker) == 4
    for v in ker:
        assert len(v) == 1


def test_rank_matches_dense_oracle_on_seeded_suite():
    rng = random.Random(2024)
    for nrows, ncols, fill in [(10, 10, 0.3), (20, 30, 0.15), (60, 80, 0.05), (80, 80, 0.05)]:
        M = random_matrix(rng, nrows, ncols, fill)
        r = M.rank()
        assert r == dense_rank(M)
        ker = M.kernel_basis()
        assert r + len(ker) == ncols
        for v in ker:
            assert not M.apply(v)
        span = Subspace(ncols)
        for v in ker:
            assert span.add(v), "kernel vectors must be independent"


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(M.ncols) if rng.random() < 0.5}
        b = M.apply(x)
        sol = M.solve_many([b])[0]
        assert sol is not None
        assert M.apply(sol) == b
    M = from_dense([[1, 0], [1, 0]])
    assert M.solve_many([{0: Fraction(1), 1: Fraction(2)}]) == [None]


def test_solve_many_mixed():
    M = from_dense([[1, 2], [2, 4]])
    good = {0: Fraction(1), 1: Fraction(2)}
    bad = {0: Fraction(1)}
    sols = M.solve_many([good, bad])
    assert sols[0] is not None and M.apply(sols[0]) == good
    assert sols[1] is None


def test_matmul_and_tensor():
    A = from_dense([[1, 2], [0, 1]])
    B = from_dense([[1, 0], [3, 1]])
    assert to_dense(A @ B) == [[7, 2], [3, 1]]
    F = from_dense([[Fraction(1, 2), Fraction(1, 3)], [0, 0], [2, Fraction(3, 4)]])
    G = from_dense([[Fraction(2, 3), 1], [-1, Fraction(3, 2)]])
    P = F @ G  # denominators divided back exactly: 1/3 - 1/3 cancels, 1/2 + 1/2 is int 1
    assert to_dense(P) == [[0, 1], [0, 0], [Fraction(7, 12), Fraction(25, 8)]]
    assert type(P.get(0, 1)) is int and P.nnz == 3
    assert F.fractional and P.fractional and not (A.fractional or (A @ B).fractional)
    assert not SparseMatrix(1, 1, {(0, 0): Fraction(4, 2)}).fractional
    T = A.tensor(B)
    assert T.nrows == 4 and T.ncols == 4
    assert T.get(0, 0) == 1 and T.get(1, 0) == 3 and T.get(0, 2) == 2


def test_image_basis_spans_columns():
    rng = random.Random(8)
    M = random_matrix(rng, 12, 20, 0.2)
    basis = image_basis(M)
    assert len(basis) == M.rank()
    span = Subspace(M.nrows, basis)
    for col in M.columns():
        assert span.contains(col)


def test_subspace_reduce_canonical():
    s = Subspace(3)
    s.add({0: Fraction(1), 1: Fraction(1)})
    r1 = s.reduce({0: Fraction(2)})
    r2 = s.reduce({1: Fraction(-2)})
    assert r1 == r2  # e0 and -e1 agree modulo span(e0 + e1)
    assert s.contains({0: Fraction(3), 1: Fraction(3)})


def test_quotient_space_projection_section():
    q = oracle.QuotientSpace(4, [{0: Fraction(1), 2: Fraction(1)}])
    assert q.qdim == 3
    for j in range(q.qdim):
        v = q.lift({j: Fraction(1)})
        assert q.project(v) == {j: Fraction(1)}
    # projection kills the span
    assert q.project({0: Fraction(1), 2: Fraction(1)}) == {}


def test_empty_shapes():
    M = SparseMatrix.zeros(0, 5)
    assert M.rank() == 0
    assert len(M.kernel_basis()) == 5
    N = SparseMatrix.zeros(5, 0)
    assert N.rank() == 0
    assert N.kernel_basis() == []


# ---------------------------------------------------------------------------
# scalar discipline: int where integral, Fraction only with a real denominator
# ---------------------------------------------------------------------------


def is_canonical(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_exact_normalises_and_rejects_float():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert type(exact(True)) is int
    with pytest.raises(TypeError):
        exact(0.5)


def test_float_rejected_at_every_entry_point():
    with pytest.raises(TypeError):
        SparseMatrix(2, 2, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        exact_vec({0: 0.5})
    with pytest.raises(TypeError):
        vec_axpy({}, 0.5, {0: 1})
    with pytest.raises(TypeError):
        Algebra(1, ["1"], {(0, 0): {0: 1.0}})
    Q = Algebra(1, ["1"], {(0, 0): {0: 1}})
    with pytest.raises(TypeError):
        Bimodule(Q, 1, {(0, 0): {0: 1.0}}, {(0, 0): {0: 1}})
    with pytest.raises(TypeError):
        LieAlgebra(2, None, {(0, 1): {0: 0.5}})


HALF_DUAL = """
algebra half_dual dim 2
basis f1 f2        # f1 = 1/2, f2 = 1 + e in Q[e]
mul 1 1 = 1/2*1
mul 1 2 = 1/2*2
mul 2 1 = 1/2*2
mul 2 2 = -2*1 + 2*2
unit = 2*1
"""


@pytest.mark.parametrize("make", [lambda: algebra_preset("matrix:2"),
                                  lambda: parse_algebra(HALF_DUAL)])
def test_bicomplex_entries_canonical(make):
    A = make()
    assert all(is_canonical(c) for v in A.mul.values() for c in v.values())
    bc = hc_bicomplex(A, 3)
    values = [v for d in bc.total.diffs.values() for v in d.entries.values()]
    assert values and all(is_canonical(v) for v in values)


def test_rational_constants_keep_real_denominators():
    bc = hc_bicomplex(parse_algebra(HALF_DUAL), 3)
    assert any(type(v) is Fraction for d in bc.total.diffs.values() for v in d.entries.values())


def test_subspace_normalisation_is_exact():
    s = Subspace(2)
    s.add({0: 2, 1: 3})
    row = s.basis()[0]
    assert row == {0: 1, 1: Fraction(3, 2)}
    assert type(row[0]) is int and type(row[1]) is Fraction


def test_kernel_and_solution_vectors_canonical():
    M = from_dense([[2, 3, 0], [0, 0, 0]])
    for v in M.kernel_basis():
        assert all(is_canonical(c) for c in v.values())
    sol = from_dense([[2, 0], [0, 4]]).solve_many([{0: 4, 1: 2}])[0]
    assert sol == {0: 2, 1: Fraction(1, 2)} and all(is_canonical(c) for c in sol.values())


def test_nilpotent_log_coefficients_are_fractions():
    lg = nilpotent_log(truncated_poly(4), {1: 1})
    assert lg == {1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3)}
    assert type(lg[2]) is Fraction and type(lg[3]) is Fraction


def test_vec_axpy_folds_integral_fraction():
    out = {0: 1}
    vec_axpy(out, Fraction(4, 2), {0: 1, 1: 3})
    assert out == {0: 3, 1: 6} and all(type(v) is int for v in out.values())


def test_vec_sub_folds_integral_fraction():
    out = vec_sub({0: Fraction(3, 2), 1: Fraction(1, 3)}, {0: Fraction(1, 2), 2: 4})
    assert out == {0: 1, 1: Fraction(1, 3), 2: -4}
    assert type(out[0]) is int and type(out[1]) is Fraction
    assert vec_sub({0: Fraction(1, 2)}, {0: Fraction(1, 2)}) == {}


# ---------------------------------------------------------------------------
# fraction-free products against the dense oracle
# ---------------------------------------------------------------------------

INTS = st.integers(-4, 4)
FRACTIONS = st.sampled_from(sorted({Fraction(n, d) for n in range(-5, 6) for d in range(2, 7)}
                                   - set(range(-5, 6))))
SCALARS = {"int": INTS, "mixed": st.one_of(INTS, FRACTIONS), "fraction": FRACTIONS}
PRODUCT_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    if not (nrows and ncols):
        return SparseMatrix(nrows, ncols)
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    scalar = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    return SparseMatrix(nrows, ncols, draw(st.dictionaries(cell, scalar, max_size=nrows * ncols)))


@st.composite
def factor_pairs(draw):
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


@PRODUCT_SETTINGS
@given(factor_pairs())
def test_product_matches_dense_oracle(pair):
    A, B = pair
    P = A @ B
    assert (P.nrows, P.ncols) == (A.nrows, B.ncols)
    assert to_dense(P) == dense_product(A, B)
    assert all(is_canonical(v) for v in P.entries.values())


@PRODUCT_SETTINGS
@given(matrices())
def test_product_with_kernel_cancels_exactly(A):
    K = SparseMatrix.from_columns(A.ncols, A.kernel_basis())
    assert (A @ K).is_zero()


@PRODUCT_SETTINGS
@given(matrices())
def test_kernel_vectors_lead_with_their_free_column(A):
    ker = A.kernel_basis()
    free = [next(iter(v)) for v in ker]
    assert len(set(free)) == len(ker) == A.ncols - dense_rank(A)
    for f, v in zip(free, ker):
        assert v[f] == 1 and set(v) & set(free) == {f}


# ---------------------------------------------------------------------------
# the column-indexed Subspace against the parent's back-substitute-everything one
# ---------------------------------------------------------------------------


def holders(rows):
    """{column: pivots of the rows that hold it}, over the non-pivot entries."""
    out = {}
    for pc, row in rows.items():
        for c in row:
            if c != pc:
                out.setdefault(c, set()).add(pc)
    return out


@st.composite
def subspace_inputs(draw):
    dim = draw(st.integers(1, 8))
    scalar = SCALARS[draw(st.sampled_from(sorted(SCALARS)))].filter(bool)
    vector = st.dictionaries(st.integers(0, dim - 1), scalar, max_size=dim)
    vectors = draw(st.lists(vector, max_size=12))
    order = draw(st.permutations(range(len(vectors))))
    return dim, vectors, order, draw(st.lists(vector, max_size=4))


@PRODUCT_SETTINGS
@given(subspace_inputs())
def test_subspace_matches_the_oracle(case):
    dim, vectors, order, queries = case
    expected = oracle.Subspace(dim)
    grew = [expected.add(v) for v in vectors]
    same = Subspace(dim)
    assert [same.add(v) for v in vectors] == grew
    assert [list(row.items()) for row in same._rows.values()] == \
        [list(row.items()) for row in expected._rows.values()]
    shuffled = Subspace(dim, [vectors[i] for i in order])
    for span in (same, shuffled):
        assert span._rows == expected._rows  # the reduced row echelon form is unique
        index = holders(span._rows)
        assert not index.keys() & span._rows.keys()  # fully reduced
        assert {c: rows for c, rows in span._col_rows.items() if rows} == index
        for q in queries + vectors:
            assert span.reduce(q) == expected.reduce(q)


# ---------------------------------------------------------------------------
# rows cleared by the gcd-reduced pivot value and entry: the pivots of the
# undivided combination
# ---------------------------------------------------------------------------


@st.composite
def row_systems(draw):
    ncols = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(sorted(SCALARS) + ["wide int"]))
    scalar = (st.integers(-60, 60) if kind == "wide int" else SCALARS[kind]).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols)
    rows = draw(st.lists(row, max_size=9))
    return rows, draw(st.sets(st.integers(0, ncols - 1), max_size=2))


@PRODUCT_SETTINGS
@given(row_systems())
def test_echelonize_matches_the_undivided_combination(case):
    rows, forbidden = case
    int_rows = [_clear_denominators(r) for r in rows]
    expected = oracle.echelonize([dict(r) for r in int_rows], forbidden)
    got = _echelonize([dict(r) for r in int_rows], forbidden)
    assert [(pc, list(row.items())) for pc, row in got] == \
        [(pc, list(row.items())) for pc, row in expected]


# ---------------------------------------------------------------------------
# one elimination per matrix and one backward pass against the per-component
# elimination and per-column back substitution
# ---------------------------------------------------------------------------


@st.composite
def block_sums(draw):
    """A block-diagonal sum of matrices() with empty columns between and around
    the blocks, its rows and columns then shuffled so the blocks interleave."""
    blocks = draw(st.lists(matrices(), min_size=1, max_size=4))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(blocks) + 1, max_size=len(blocks) + 1))
    ent, nrows, ncols = {}, 0, gaps[0]
    for B, gap in zip(blocks, gaps[1:]):
        ent.update({(nrows + i, ncols + j): v for (i, j), v in B.entries.items()})
        nrows, ncols = nrows + B.nrows, ncols + B.ncols + gap
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return SparseMatrix(nrows, ncols, {(row_order[i], col_order[j]): v for (i, j), v in ent.items()})


@PRODUCT_SETTINGS
@given(block_sums())
def test_kernel_matches_the_per_component_back_substitution(M):
    expected = oracle.kernel_basis(M)
    assert [list(v.items()) for v in M.kernel_basis()] == [list(v.items()) for v in expected]
    assert M.rank() == M.ncols - len(expected)
    assert M.pivots == oracle.component_pivots(M)


@st.composite
def solve_cases(draw):
    """M with Fraction entries and 1-4 right-hand sides, each M x for a drawn x
    or drawn outright, so some lie outside the image."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    M = SparseMatrix(nrows, ncols, draw(st.dictionaries(cell, FRACTIONS, max_size=nrows * ncols))
                     if ncols else {})
    mixed = SCALARS["mixed"].filter(bool)
    bs = []
    for _ in range(draw(st.integers(1, 4))):
        if ncols and draw(st.booleans()):
            bs.append(M.apply(draw(st.dictionaries(st.integers(0, ncols - 1), mixed, max_size=ncols))))
        else:
            bs.append(draw(st.dictionaries(st.integers(0, nrows - 1), mixed, max_size=nrows)))
    return M, bs


@PRODUCT_SETTINGS
@given(solve_cases())
def test_solve_many_matches_the_substitution_solver(case):
    M, bs = case
    sols = M.solve_many(bs)
    expected = oracle.solve_many(M, bs)
    assert [s if s is None else list(s.items()) for s in sols] == \
        [s if s is None else list(s.items()) for s in expected]
    for b, sol in zip(bs, sols):
        aug = SparseMatrix(M.nrows, M.ncols + 1, {**M.entries, **{(i, M.ncols): v for i, v in b.items()}})
        assert (sol is None) == (dense_rank(aug) > dense_rank(M))
        if sol is not None:
            assert M.apply(sol) == b and all(is_canonical(v) for v in sol.values())


def test_solve_many_refuses_a_right_hand_side_outside_the_rows():
    I2 = SparseMatrix.identity(2)
    with pytest.raises(IndexError, match=r"^entry \(5,2\) outside 2x4$"):
        I2.solve_many([{5: 1}, {-1: 2}])
    with pytest.raises(IndexError, match=r"^entry \(-1,2\) outside 2x3$"):
        I2.solve_many([{-1: 2}])


@st.composite
def systems(draw):
    M = draw(matrices())
    vector = st.dictionaries(st.integers(0, M.nrows - 1), SCALARS["mixed"].filter(bool),
                             max_size=M.nrows) if M.nrows else st.just({})
    return M, draw(st.lists(vector, max_size=3))


@PRODUCT_SETTINGS
@given(systems())
def test_queries_leave_their_inputs_unchanged(case):
    M, bs = case
    entries = list(M.entries.items())
    rhs = [list(b.items()) for b in bs]
    for query in (M.rank, M.kernel_basis, lambda: M.solve_many(bs)):
        assert query() == query()
        assert list(M.entries.items()) == entries
        assert [list(b.items()) for b in bs] == rhs


@PRODUCT_SETTINGS
@given(factor_pairs(), st.sets(st.integers(0, 5)), SCALARS["mixed"])
def test_fractional_flags_exactly_the_matrices_holding_a_fraction(pair, rows, c):
    A, B = pair
    for M in (A, B, A @ B, A.without_rows(rows), A.scale(c), B.scale(c)):
        assert M.fractional == any(type(v) is not int for v in M.entries.values())


@PRODUCT_SETTINGS
@given(matrices(), st.sampled_from([2, 3, 5, 7, 2**31 - 1]))
def test_the_rank_mod_p_is_never_above_the_rank(M, p):
    # a minor that is nonzero mod p is nonzero over Q
    assume(all(Fraction(v).denominator % p for v in M.entries.values()))
    assert oracle.rank_mod_p(M, p) <= M.rank()


@pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (-3, -3)])
def test_a_matrix_refuses_a_negative_shape(shape):
    with pytest.raises(ValueError, match=f"^matrix shape {shape[0]}x{shape[1]} is negative$"):
        SparseMatrix(*shape)
