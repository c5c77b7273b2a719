from fractions import Fraction

import pytest

from chainlab.complexes import (
    ChainComplex,
    ChainMap,
    HomologySpace,
    Interval,
    cone,
    homotopy_fiber,
    is_quasi_iso,
    shift,
)
from chainlab.errors import RangeNotCertified
from chainlab.sparse import SparseMatrix


def two_step(matrix):
    """0 -> Q^a -> Q^b -> 0 with the given degree-1 differential."""
    m = SparseMatrix.from_dense(matrix)
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
    bad = SparseMatrix.from_dense([[1]])
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: bad, 2: bad}, Interval(0, 1))


def test_d_squared_fractional_defect_named():
    d1 = SparseMatrix.from_dense([[Fraction(1, 2), Fraction(1, 3)]])
    good = SparseMatrix.from_dense([[Fraction(2, 3)], [-1]])
    ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: good}, Interval(0, 1))
    off = SparseMatrix.from_dense([[Fraction(2, 3)], [Fraction(-6, 7)]])  # d.d = 1/21
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
    inc = ChainMap(S, T, {0: SparseMatrix.from_dense([[1], [0]])})
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
    d1 = SparseMatrix.from_dense([[1, 0, 0], [0, 0, 0]])
    C = ChainComplex({0: 2, 1: 3}, {1: d1}, Interval(0, 1), bounded_above=True)
    rep = C.homology(Interval(0, 1))
    assert C.euler_characteristic() == rep.betti[0] - rep.betti[1]


def test_chain_map_must_commute():
    C = two_step([[1]])
    with pytest.raises(ValueError):
        ChainMap(C, C, {0: SparseMatrix.from_dense([[1]]), 1: SparseMatrix.from_dense([[2]])})


def test_fractional_chain_map_must_commute():
    C = two_step([[Fraction(2, 3)]])
    half = SparseMatrix.from_dense([[Fraction(1, 2)]])
    ChainMap(C, C, {0: half, 1: half})
    with pytest.raises(ValueError, match="degree 1"):
        ChainMap(C, C, {0: half, 1: SparseMatrix.from_dense([[Fraction(1, 3)]])})


def test_homology_space_classify():
    d1 = SparseMatrix.from_dense([[1, 0], [0, 0]])
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
