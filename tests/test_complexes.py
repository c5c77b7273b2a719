from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from chainlab.complexes import (
    ChainComplex,
    ChainMap,
    HomologySpace,
    Interval,
    cone,
    entries_of,
    homotopy_fiber,
    is_quasi_iso,
    quotient_complex,
    selection,
    shift,
    subcomplex,
)
from chainlab.errors import RangeNotCertified
from chainlab.sparse import SparseMatrix, vec_axpy
from oracle import euler_characteristic, from_dense, vec_scale


def two_step(matrix):
    """0 -> Q^a -> Q^b -> 0 with the given degree-1 differential."""
    m = from_dense(matrix)
    return ChainComplex({0: m.nrows, 1: m.ncols}, {1: m}, Interval(0, 1), bounded_above=True)


def test_acyclic_identity_complex():
    C = two_step([[1]])
    assert C.homology(Interval(0, 1)).betti == {0: 0, 1: 0}


def test_zero_differentials_betti_equal_dims():
    C = ChainComplex(
        {0: 2, 1: 3, 2: 1},
        {1: SparseMatrix.zeros(2, 3), 2: SparseMatrix.zeros(3, 1)},
        Interval(0, 1),
    )
    assert C.homology(Interval(0, 1)).betti == {0: 2, 1: 3}


def test_d_squared_enforced():
    bad = from_dense([[1]])
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: bad, 2: bad}, Interval(0, 1))


def test_d_squared_fractional_defect_named():
    d1 = from_dense([[Fraction(1, 2), Fraction(1, 3)]])
    good = from_dense([[Fraction(2, 3)], [-1]])
    ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: good}, Interval(0, 1))
    off = from_dense([[Fraction(2, 3)], [Fraction(-6, 7)]])  # d.d = 1/21
    with pytest.raises(ValueError, match=r"d_1 \. d_2 != 0"):
        ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: off}, Interval(0, 1))


def test_range_not_certified():
    C = two_step([[0]])
    with pytest.raises(RangeNotCertified):
        C.homology(Interval(0, 5))


def test_cone_of_identity_acyclic():
    C = ChainComplex(
        {0: 2, 1: 3, 2: 1},
        {1: SparseMatrix.zeros(2, 3), 2: SparseMatrix.zeros(3, 1)},
        Interval(0, 1),
    )
    idm = ChainMap(C, C, {n: SparseMatrix.identity(C.dim(n)) for n in range(3)})
    cn = cone(idm)
    assert all(v == 0 for v in cn.homology(cn.certified).betti.values())
    assert is_quasi_iso(idm, Interval(0, 1)).ok


def test_cone_of_zero_map_adds_shifted_betti():
    C = ChainComplex(
        {0: 2, 1: 3, 2: 1},
        {1: SparseMatrix.zeros(2, 3), 2: SparseMatrix.zeros(3, 1)},
        Interval(0, 1),
    )
    z = ChainMap(C, C, {})
    h = cone(z).homology(Interval(0, 1)).betti
    assert h[0] == 2 and h[1] == 3 + 2


def test_cone_of_inclusion_example():
    S = ChainComplex({0: 1}, {}, Interval(0, 0), bounded_above=True)
    T = ChainComplex({0: 2}, {}, Interval(0, 0), bounded_above=True)
    inc = ChainMap(S, T, {0: from_dense([[1], [0]])})
    cn = cone(inc)
    assert cn.homology(cn.certified).betti == {0: 1, 1: 0}


def test_cone_degree_mismatch():
    from chainlab.errors import DegreeMismatch

    # two truncated single-degree complexes leave no certifiable cone degree
    S = ChainComplex({0: 1}, {}, Interval(0, 0))
    T = ChainComplex({0: 1}, {}, Interval(0, 0))
    with pytest.raises(DegreeMismatch):
        cone(ChainMap(S, T, {0: SparseMatrix.identity(1)}))


def test_quasi_iso_zero_map_failure_report():
    C = ChainComplex({0: 1}, {}, Interval(0, 0), bounded_above=True)
    z = ChainMap(C, C, {})
    verdict = is_quasi_iso(z, Interval(0, 1))
    assert not verdict.ok
    assert verdict.failing_degree == 0
    assert verdict.defect == 1


def test_shift_and_homotopy_fiber():
    C = two_step([[1, 0]])
    S = shift(C, 2)
    assert S.dim(2) == 1 and S.dim(3) == 2
    assert S.diffs[3] == C.diffs[1].scale(1)  # even shift keeps the sign
    idm = ChainMap(C, C, {n: SparseMatrix.identity(C.dim(n)) for n in range(2)})
    fib = homotopy_fiber(idm)
    rep = fib.homology(fib.certified)
    assert all(v == 0 for v in rep.betti.values())


def test_euler_characteristic_matches_betti():
    d1 = from_dense([[1, 0, 0], [0, 0, 0]])
    C = ChainComplex({0: 2, 1: 3}, {1: d1}, Interval(0, 1), bounded_above=True)
    rep = C.homology(Interval(0, 1))
    assert euler_characteristic(C) == rep.betti[0] - rep.betti[1]


def test_chain_map_must_commute():
    C = two_step([[1]])
    with pytest.raises(ValueError):
        ChainMap(C, C, {0: from_dense([[1]]), 1: from_dense([[2]])})


def test_fractional_chain_map_must_commute():
    C = two_step([[Fraction(2, 3)]])
    half = from_dense([[Fraction(1, 2)]])
    ChainMap(C, C, {0: half, 1: half})
    with pytest.raises(ValueError, match="degree 1"):
        ChainMap(C, C, {0: half, 1: from_dense([[Fraction(1, 3)]])})


def test_homology_space_classify():
    d1 = from_dense([[1, 0], [0, 0]])
    C = ChainComplex({0: 2, 1: 2}, {1: d1}, Interval(0, 0))
    hs = HomologySpace(C, 0)
    assert hs.dim == 1
    assert hs.classify({0: Fraction(7)}) == {}  # boundary
    cls = hs.classify({1: Fraction(2)})
    assert list(cls.values()) == [Fraction(2)]
    # representatives are cycles independent modulo boundaries
    assert len(hs.representatives) == 1
    # non-cycles are rejected
    C2 = ChainComplex({0: 1, 1: 1}, {1: SparseMatrix.identity(1)}, Interval(0, 0))
    hs2 = HomologySpace(C2, 0)
    one_up = HomologySpace(
        ChainComplex({0: 1, 1: 1, 2: 1},
                     {1: SparseMatrix.identity(1), 2: SparseMatrix.zeros(1, 1)},
                     Interval(0, 1)),
        1,
    )
    with pytest.raises(ValueError):
        one_up.classify({0: Fraction(1)})


def test_homology_space_classify_rejects_coordinates_outside_the_degree():
    # apply ignores keys past ncols, so without the check {0: 1, 7: 3} classified as {}
    C = ChainComplex({0: 1, 1: 2}, {1: from_dense([[1, 0]])}, Interval(0, 0))
    hs = HomologySpace(C, 0)
    assert hs.classify({0: 1}) == {}
    for bad in ({0: 1, 7: 3}, {-1: 2}, {1: 1}):
        with pytest.raises(ValueError, match="outside degree 0 of dimension 1"):
            hs.classify(bad)


def test_subcomplex_rejects_leak():
    full = {1: SparseMatrix(2, 2, {(1, 0): 1})}
    assert subcomplex(full, {0: [1], 1: [0]}, "S").diffs[1] == SparseMatrix.identity(1)
    with pytest.raises(ValueError, match="S: differential leaks out of the subcomplex at degree 1"):
        subcomplex(full, {0: [0], 1: [0]}, "S")


def test_quotient_complex_rejects_a_dropped_coordinate_hitting_a_kept_one():
    # d_2 e_1 = e_0; degree 1 keeps coordinate 0, degree 2 drops coordinate 1
    diffs = {1: SparseMatrix(1, 2), 2: SparseMatrix(2, 2, {(0, 1): 1})}
    walks = {0: selection([0], 1), 1: selection([0], 2), 2: selection([0], 2)}
    with pytest.raises(ValueError, match="Q: induced differential ill-defined at degree 2"):
        quotient_complex(entries_of(diffs), walks, "Q")
    walks[1] = selection([1], 2)  # the image of the dropped coordinate is dropped too
    assert quotient_complex(entries_of(diffs), walks, "Q").diffs[2] == SparseMatrix(1, 1)


def test_quotient_complex_rejects_a_signed_class_whose_members_disagree():
    # degree 1: [e_1] = -[e_0]; degree 0: [e_1] = -[e_0] as well
    walks = {0: ([(0, 1), (0, -1)], [0]), 1: ([(0, 1), (0, -1)], [0])}
    same_sign = {1: SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1})}
    with pytest.raises(ValueError, match="Q: induced differential ill-defined at degree 1"):
        quotient_complex(entries_of(same_sign), walks, "Q")
    # d e_0 = e_1 projects to -[e_0], and d e_1 = -e_1 to +[e_0] = -(-[e_0])
    descends = {1: SparseMatrix(2, 2, {(1, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2)})}
    assert (quotient_complex(entries_of(descends), walks, "Q").diffs[1]
            == SparseMatrix(1, 1, {(0, 0): Fraction(-1, 2)}))


def test_quotient_complex_rejects_an_entry_outside_the_degrees():
    # d_1 : Q^2 -> Q^1; an entry in column 2 or row 1 lies outside
    walks = {0: selection([0], 1), 1: selection([0, 1], 2)}
    quot = quotient_complex({1: [((0, 1), 3)]}, walks, "Q")
    assert quot.diffs[1] == SparseMatrix(1, 2, {(0, 1): 3})
    for r, c in [(0, 2), (1, 0), (-1, 0), (0, -1)]:  # a negative index does not wrap round
        with pytest.raises(IndexError, match=f"Q: entry \\({r},{c}\\) of d_1 outside 1x2"):
            quotient_complex({1: [((0, 0), 1), ((r, c), 3)]}, walks, "Q")
    with pytest.raises(IndexError, match=r"Q: entry \(-1,-2\) of d_1 outside 1x2"):
        quotient_complex({1: [((-1, -2), 3)]}, walks, "Q")


QUOTIENT_VALUES = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
QUOTIENT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def signed_classes(draw, dim):
    """(classes, tops) of a quotient of Q^dim by signed coordinate classes."""
    labels = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))  # -1: [e_y] = 0
    classes, tops = [None] * dim, []
    for label in sorted(set(labels) - {-1}):
        members = [y for y in range(dim) if labels[y] == label]
        top = draw(st.sampled_from(members))
        for y in members:
            classes[y] = (len(tops), 1 if y == top else draw(st.sampled_from([1, -1])))
        tops.append(top)
    return classes, tops


@st.composite
def quotient_cases(draw):
    """d_1 : Q^m -> Q^k with signed-class quotients of both; built to descend,
    then perturbed in one entry half of the time."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    (rows, row_tops), (cols, col_tops) = signed_classes(draw, k), signed_classes(draw, m)
    relations = [{y: 1} if hit is None else {y: 1, row_tops[hit[0]]: -hit[1]}  # span ker proj
                 for y, hit in enumerate(rows) if hit is None or y != row_tops[hit[0]]]
    columns = {top: draw(st.dictionaries(st.integers(0, k - 1), QUOTIENT_VALUES)) for top in col_tops}
    for y, hit in enumerate(cols):
        if y not in columns:
            columns[y] = {} if hit is None else vec_scale(hit[1], columns[col_tops[hit[0]]])
            for rel in draw(st.lists(st.sampled_from(relations), max_size=2)) if relations else ():
                vec_axpy(columns[y], draw(QUOTIENT_VALUES), rel)
    if draw(st.booleans()):
        vec_axpy(columns[draw(st.integers(0, m - 1))], draw(QUOTIENT_VALUES),
                 {draw(st.integers(0, k - 1)): 1})
    d = SparseMatrix(k, m, (((i, y), v) for y, col in columns.items() for i, v in col.items()))
    return {1: d}, {0: (rows, row_tops), 1: (cols, col_tops)}


@QUOTIENT_SETTINGS
@given(quotient_cases())
def test_quotient_complex_matches_the_product_oracle(case):
    diffs, walks = case
    try:
        expected = oracle.quotient_differentials(diffs, walks)
    except ValueError:
        with pytest.raises(ValueError, match="Q: induced differential ill-defined at degree 1"):
            quotient_complex(entries_of(diffs), walks, "Q")
        return
    assert quotient_complex(entries_of(diffs), walks, "Q").diffs == expected


@QUOTIENT_SETTINGS
@given(quotient_cases())
def test_quotient_complex_emits_each_column_with_its_rows_ascending(case):
    # the canonical order the lambda complex's run projection shares: column
    # by column, rows ascending, whatever order d's entries came in
    diffs, walks = case
    try:
        quot = quotient_complex(entries_of(diffs), walks, "Q")
    except ValueError:
        return
    keys = list(quot.diffs[1].entries)
    assert keys == sorted(keys, key=lambda key: (key[1], key[0]))


# ---------------------------------------------------------------------------
# HomologySpace against the parent's span-and-solve one
# ---------------------------------------------------------------------------


@st.composite
def homology_cases(draw):
    """0 -> Q^c -> Q^b -> Q^a -> 0 with d_2 = K Y for K the kernel basis of a
    random d_1, so d_1 d_2 = 0 and im d_2 reaches part of ker d_1; a degree
    to classify in, and cycles of that degree as coefficient draws."""
    a, b, c = (draw(st.integers(1, 4)) for _ in range(3))
    cell = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1))
    d1 = SparseMatrix(a, b, draw(st.dictionaries(cell, QUOTIENT_VALUES, max_size=a * b)))
    kernel = d1.kernel_basis()
    cols = []
    for _ in range(c):
        col = {}
        for v in kernel:
            if draw(st.booleans()):
                vec_axpy(col, draw(QUOTIENT_VALUES), v)
        cols.append(col)
    C = ChainComplex({0: a, 1: b, 2: c}, {1: d1, 2: SparseMatrix.from_columns(b, cols)},
                     Interval(0, 1))
    n = draw(st.integers(0, 1))
    cycles = draw(st.lists(st.tuples(st.lists(QUOTIENT_VALUES, min_size=b, max_size=b),
                                     st.lists(QUOTIENT_VALUES, min_size=c, max_size=c)),
                           min_size=1, max_size=3))
    return C, n, cycles


@QUOTIENT_SETTINGS
@given(homology_cases())
def test_homology_space_matches_the_span_and_solve_oracle(case):
    C, n, draws = case
    new, old = HomologySpace(C, n), oracle.HomologySpace(C, n)
    assert new.representatives == old.representatives
    d_out, d_in = C.differential(n), C.differential(n + 1)
    kernel = d_out.kernel_basis()
    cycles = []
    for coeffs, pre in draws:  # a kernel combination plus a boundary
        z = d_in.apply(dict(enumerate(pre)))
        for coef, v in zip(coeffs, kernel):
            vec_axpy(z, coef, v)
        cycles.append(z)
        assert new.classify(z) == old.classify(z)
    assert new.classify_many(cycles) == old.classify_many(cycles)
    moved = [j for j in range(C.dim(n)) if d_out.apply({j: 1})]
    if moved:  # a cycle plus a coordinate d_n does not kill
        bad = dict(cycles[0])
        vec_axpy(bad, 1, {moved[0]: 1})
        for hs in (new, old):
            with pytest.raises(ValueError):
                hs.classify(bad)
            with pytest.raises(ValueError):
                hs.classify_many(cycles + [bad])


# ---------------------------------------------------------------------------
# rank_d, which cuts d_n down to the rows d_{n-1}'s pivot columns left free
# ---------------------------------------------------------------------------


@st.composite
def zero_composing_complexes(draw):
    """dims and differentials of 0 -> C_top -> ... -> C_0 -> 0 with int or
    Fraction entries: d_1 is drawn, each d_{n+1} has columns drawn from the
    span of d_n's kernel basis, so every d_n d_{n+1} = 0."""
    values = draw(st.sampled_from([st.sampled_from([1, -1, 2, -3]), QUOTIENT_VALUES]))
    top = draw(st.integers(2, 4))
    dims = {n: draw(st.integers(1, 5)) for n in range(top + 1)}
    cell = st.tuples(st.integers(0, dims[0] - 1), st.integers(0, dims[1] - 1))
    diffs = {1: SparseMatrix(dims[0], dims[1], draw(st.dictionaries(cell, values)))}
    for n in range(2, top + 1):
        kernel = diffs[n - 1].kernel_basis()
        cols = []
        for _ in range(dims[n]):
            col = {}
            for v in kernel:
                if draw(st.booleans()):
                    vec_axpy(col, draw(values), v)
            cols.append(col)
        diffs[n] = SparseMatrix.from_columns(dims[n - 1], cols)
    return dims, diffs


@QUOTIENT_SETTINGS
@given(zero_composing_complexes(), st.data())
def test_rank_d_matches_the_dense_rank(case, data):
    dims, diffs = case
    top = max(dims)
    degrees = range(top + 2)
    expected = {n: oracle.dense_rank(diffs[n]) if n in diffs else 0 for n in degrees}

    def fresh():
        return ChainComplex(dims, diffs, Interval(0, top - 1))

    ascending = fresh()
    assert {n: ascending.rank_d(n) for n in degrees} == expected
    descending = fresh()
    assert {n: descending.rank_d(n) for n in reversed(degrees)} == expected
    # a shift taken after ranking the degrees up to some n carries their pivots
    C, n, k = fresh(), data.draw(st.integers(0, top)), data.draw(st.integers(-2, 2))
    for m in range(n + 1):
        C.rank_d(m)
    moved = shift(C, k)
    assert {m - k: moved.rank_d(m) for m in range(k, top + 2 + k)} == expected
    assert {m: C.rank_d(m) for m in degrees} == expected


def test_a_complex_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="^degree 0 has negative dimension -1$"):
        ChainComplex({0: -1}, {}, Interval(0, 0))


@pytest.mark.parametrize("n", [0, 2, -4])
def test_a_complex_refuses_a_differential_outside_its_degrees(n):
    # dims {0, 1} leave room for d_1 alone, checked or not
    for check in (True, False):
        with pytest.raises(ValueError, match=f"^d_{n} has no source and target among degrees 0..1$"):
            ChainComplex({0: 1, 1: 1}, {1: SparseMatrix(1, 1), n: SparseMatrix(1, 1)},
                         Interval(0, 1), check=check)
