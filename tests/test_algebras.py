import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from chainlab import algebras
from chainlab.algebras import (
    Algebra,
    AlgebraMorphism,
    Bimodule,
    Ideal,
    augmentation_ideal,
    commutator_subspace,
    matrix_algebra,
    matrix_units,
    matrix_units_trace,
    product_algebra,
    quotient,
    tensor,
    unitalization,
)
from chainlab.dsl import parse_algebra
from chainlab.errors import AssociativityError, IdealNotNilpotent, NotAnIdeal, UnitError
from chainlab.lie import LieAlgebra
from chainlab.presets import (
    dual_numbers,
    fat_point,
    product_qq,
    rationals,
    square_zero,
    truncated_poly,
    upper_triangular,
    zero_algebra,
)
from chainlab.sparse import SparseMatrix

ONE = Fraction(1)


def test_presets_validate():
    for A in [rationals(), dual_numbers(), truncated_poly(4), square_zero(2),
              fat_point(), product_qq(), upper_triangular(2), upper_triangular(3)]:
        assert A.dim == len(A.labels)


def test_associativity_error_names_triple():
    # e1e1 = e2, e2e2 = e2, mixed products zero: (e1e1)e2 = e2 but e1(e1e2) = 0
    mul = {(0, 0): {1: ONE}, (1, 1): {1: ONE}}
    with pytest.raises(AssociativityError) as exc:
        Algebra(2, None, mul)
    assert exc.value.triple == (1, 1, 2)


def test_unit_error():
    with pytest.raises(UnitError):
        Algebra(1, None, {}, unit={0: ONE})  # zero multiplication cannot be unital


def test_matrix_algebra_dims_and_unit():
    M2 = matrix_algebra(rationals(), 2)
    assert M2.dim == 4
    assert M2.unit == {0: ONE, 3: ONE}
    M2e = matrix_algebra(dual_numbers(), 2)
    assert M2e.dim == 8
    matrix_algebra(truncated_poly(3), 2)  # associativity revalidated on build


def test_matrix_trace():
    M2 = matrix_algebra(dual_numbers(), 2)
    v = {0 * 2 + 1: ONE, 3 * 2 + 0: Fraction(5)}  # e*E11 + 1*E22
    tr = matrix_units_trace(dual_numbers(), 2, v)
    assert tr == {1: ONE, 0: Fraction(5)}


def test_unitalization_of_zero_mult_is_dual_numbers():
    plus, inc = unitalization(square_zero(1))
    E = dual_numbers()
    assert plus.dim == 2 and plus.mul == E.mul and plus.unit == E.unit
    assert inc.apply_basis(0) == {1: ONE}


def test_unitalization_recovers_augmented_presets():
    for A in [dual_numbers(), truncated_poly(3), truncated_poly(4), fat_point()]:
        ideal = augmentation_ideal(A)
        plus, _ = unitalization(ideal.as_algebra())
        assert plus.dim == A.dim
        assert plus.mul == A.mul and plus.unit == A.unit, A.name


def test_unitalization_of_random_graded_nonunital():
    rng = random.Random(3)
    for _ in range(10):
        # products land in the last basis vector, which multiplies to zero:
        # associative for any coefficients
        mul = {}
        for i in range(2):
            for j in range(2):
                c = rng.randint(-3, 3)
                if c:
                    mul[(i, j)] = {2: Fraction(c)}
        A = Algebra(3, None, mul)
        unitalization(A)  # revalidates associativity on build


def test_tensor_unit_and_commutative_flag():
    Q = rationals()
    E = dual_numbers()
    T = tensor(Q, E)
    assert T.dim == E.dim and T.mul == E.mul
    assert tensor(E, truncated_poly(3)).commutative
    M2 = matrix_algebra(Q, 2)
    assert not tensor(M2, E).commutative


def test_tensor_matrix_algebra_isomorphism():
    E = dual_numbers()
    A = tensor(matrix_algebra(rationals(), 2), E)
    B = matrix_algebra(E, 2)
    assert A.dim == B.dim == 8
    assert A.mul == B.mul  # same structure constants in matching index order
    assert A.unit == B.unit


def test_tensor_associative_on_preset_triples():
    A, B, C = dual_numbers(), truncated_poly(3), product_qq()
    left = tensor(tensor(A, B), C)
    right = tensor(A, tensor(B, C))
    assert left.mul == right.mul and left.dim == right.dim


def test_augmentation_ideal_cases():
    ideal = augmentation_ideal(dual_numbers())
    assert ideal.dim == 1 and ideal.nilpotency_order() == 2
    ideal4 = augmentation_ideal(truncated_poly(4))
    assert ideal4.dim == 3 and ideal4.nilpotency_order() == 4
    with pytest.raises(IdealNotNilpotent):
        augmentation_ideal(product_qq())  # idempotent complement, not nilpotent


def test_quotient_examples():
    E = dual_numbers()
    ideal = augmentation_ideal(E)
    B, proj = quotient(E, ideal)
    assert B.dim == 1 and B.is_unital
    assert proj.is_surjective()

    UT = upper_triangular(2)
    strict = Ideal(UT, [{1: ONE}])  # E12 spans the strictly upper part
    B2, proj2 = quotient(UT, strict)
    QQ = product_qq()
    assert B2.dim == 2 and B2.mul == QQ.mul

    full = Ideal(E, [{0: ONE}, {1: ONE}])
    Z, _ = quotient(E, full)
    assert Z.dim == 0


def test_not_an_ideal_detected():
    M2 = matrix_algebra(rationals(), 2)
    with pytest.raises(NotAnIdeal):
        Ideal(M2, [{0: ONE}])  # span(E11) is not two-sided


def test_ideal_closure_property():
    UT = upper_triangular(2)
    strict = Ideal(UT, [{1: ONE}])
    for i in range(UT.dim):
        for b in strict.basis:
            assert strict.contains(UT.mul_vec({i: ONE}, b))
            assert strict.contains(UT.mul_vec(b, {i: ONE}))


def test_commutator_subspace():
    assert commutator_subspace(truncated_poly(4)) == []
    assert len(commutator_subspace(matrix_algebra(rationals(), 2))) == 3
    assert commutator_subspace(square_zero(3)) == []


def test_bimodule_regular_and_morphism():
    E = dual_numbers()
    M = Bimodule.regular(E)
    assert M.dim == 2
    proj = AlgebraMorphism(E, rationals(), SparseMatrix(1, 2, {(0, 0): ONE}))
    MB = Bimodule.over_morphism(proj)
    assert MB.dim == 1
    # epsilon acts by zero on B
    assert MB.right_basis(0, 1) == {}


def test_morphism_validation():
    E = dual_numbers()
    with pytest.raises(ValueError, match=r"^not multiplicative on basis pair \(1,1\)$"):
        AlgebraMorphism(E, E, SparseMatrix(2, 2, {(0, 1): ONE, (1, 0): ONE}))  # swap is not multiplicative
    # e -> 2e is multiplicative; e -> 1 + e first fails at (2, 2): e.e = 0 goes
    # to 0, but (1 + e)^2 = 1 + 2e
    AlgebraMorphism(E, E, SparseMatrix(2, 2, {(0, 0): ONE, (1, 1): 2}))
    with pytest.raises(ValueError, match=r"^not multiplicative on basis pair \(2,2\)$"):
        AlgebraMorphism(E, E, SparseMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE}))


def test_product_algebra():
    P = product_algebra(rationals(), rationals())
    assert P.dim == 2 and P.unit == {0: ONE, 1: ONE}
    assert P.mul == product_qq().mul


def test_power_chains():
    # nilpotency orders and the lower central series share one rank chain
    from chainlab.lie import gl, triangular_lie

    Q, E = rationals(), dual_numbers()
    assert square_zero(2).nilpotency_order() == 2
    assert augmentation_ideal(truncated_poly(4)).as_algebra().nilpotency_order() == 4
    assert zero_algebra().nilpotency_order() == 2
    assert Q.nilpotency_order() is None and product_qq().nilpotency_order() is None
    assert Ideal(Q, []).nilpotency_order() == 1
    assert Ideal(Q, [{0: 1}]).nilpotency_order() is None
    assert augmentation_ideal(truncated_poly(5)).nilpotency_order() == 5
    assert gl(Q, 2).lower_central_series() == [4, 3, 3]
    t = triangular_lie(E, augmentation_ideal(E), 3, [(1, 2), (2, 3)])
    assert t.lower_central_series() == [12, 8, 5, 3, 1, 0]
    chain = triangular_lie(Q, Ideal(Q, []), 4, [(1, 2), (2, 3), (3, 4)])
    assert chain.lower_central_series() == [6, 3, 1, 0]


# ---------------------------------------------------------------------------
# Algebra.integral: the same algebra in the basis L e_i
# ---------------------------------------------------------------------------


def test_integral_of_an_integer_table_is_the_same_object():
    for A in [rationals(), truncated_poly(3), upper_triangular(2), square_zero(2), zero_algebra()]:
        B, L = A.integral()
        assert B is A and L == 1


def _rational_q_times_q():
    """Q x Q in the basis e1 = p1 / 2, e2 = p2 / 3 (p1, p2 the idempotents):
    e1 e1 = e1 / 2, e2 e2 = e2 / 3, unit 2 e1 + 3 e2, augmentation onto p1."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    mul = {(0, 0): {0: half}, (1, 1): {1: third}}
    return Algebra(2, ["a", "b"], mul, unit={0: 2, 1: 3}, augmentation={0: half}, name="QxQ'")


def test_integral_clears_the_lcm_of_the_denominators():
    A = _rational_q_times_q()
    B, L = A.integral()
    assert L == 6
    assert B.mul == {(0, 0): {0: 3}, (1, 1): {1: 2}}
    assert all(type(c) is int for v in B.mul.values() for c in v.values())
    assert (B.dim, B.labels, B.name) == (A.dim, A.labels, A.name)


def test_integral_scales_the_unit_and_the_augmentation_and_revalidates(monkeypatch):
    A = _rational_q_times_q()
    validated = []
    check = Algebra._validate

    def spy(self):
        validated.append(self)
        check(self)
    monkeypatch.setattr(Algebra, "_validate", spy)
    B, L = A.integral()
    assert validated == [B]
    assert B.unit == {0: Fraction(1, 3), 1: Fraction(1, 2)}  # u / 6
    assert B.augmentation == {0: 3}  # 6 eps
    assert B.counit(B.unit) == 1


def test_integral_of_a_nonunital_rational_table():
    # span{x, y} with x x = (2/5) y: non-unital, nilpotent
    A = Algebra(2, None, {(0, 0): {1: Fraction(2, 5)}})
    B, L = A.integral()
    assert L == 5 and not B.is_unital and B.augmentation is None
    assert B.mul == {(0, 0): {1: 2}}
    assert B.nilpotency_order() == A.nilpotency_order() == 3


def test_an_integral_fraction_folds_to_an_int():
    A = Algebra(1, None, {(0, 0): {0: Fraction(4, 2)}}, unit={0: Fraction(1, 2)})
    assert A.mul == {(0, 0): {0: 2}} and type(A.mul[(0, 0)][0]) is int
    B, L = A.integral()
    assert B is A and L == 1


def test_a_rational_non_associative_table_names_the_same_triple():
    # (e2 e3) e3 = (2/3)(-1/6) e1 but e2 (e3 e3) = 0; (e2 e2) e3 and (e2 e3) e2
    # agree with the other bracketing, so the smallest failing triple is (2, 3, 3)
    mul = {(1, 1): {1: Fraction(2, 3)}, (1, 2): {2: Fraction(2, 3)},
           (2, 1): {2: Fraction(5, 7)}, (2, 2): {0: Fraction(-1, 6)}}
    with pytest.raises(AssociativityError) as exc:
        Algebra(3, None, mul)
    assert exc.value.triple == (2, 3, 3)
    assert str(exc.value) == "associativity fails on basis triple (2, 3, 3)"


def test_associativity_of_a_rebased_table_is_checked_in_ints(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen = []
    nested = algebras.nested_products

    def spy(inner, outer, left):
        seen.extend(type(c) for table in (inner, outer) for v in table.values() for c in v.values())
        return nested(inner, outer, left)
    monkeypatch.setattr(algebras, "nested_products", spy)
    for slot, (_, preset, _, bits) in enumerate(workloads.REBASED):
        A = parse_algebra(workloads.generate_rebased(preset, bits, 1, slot)[0])
        assert A.integral()[1] > 1, slot
    assert seen and set(seen) == {int}


# ints and Fractions whose partial sums cancel, Fraction(4, 2) an integral one
COEFFS = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                          Fraction(-3, 2), Fraction(4, 2)])


@st.composite
def product_tables(draw):
    """(dim, {(i, j): product}, x, y) over the letters 0..dim-1."""
    dim = draw(st.integers(1, 4))
    idx = st.integers(0, dim - 1)
    vec = st.dictionaries(idx, COEFFS, max_size=dim)
    table = draw(st.dictionaries(st.tuples(idx, idx), st.dictionaries(idx, COEFFS, min_size=1, max_size=dim),
                                 max_size=dim * dim))
    return dim, table, draw(vec), draw(vec)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(product_tables())
def test_products_match_the_reference_product_key_for_key(case):
    # the same values in the same key order as the oracle's product, which
    # reads the raw table one coefficient at a time
    dim, table, x, y = case
    want = oracle.bilinear(lambda i, j: table.get((i, j), {}), x, y)
    A = Algebra(dim, None, table, check=False)
    M = Bimodule(A, dim, table, table, check=False)
    for got in (A.mul_vec(x, y), M.left_vec(x, y), M.right_vec(x, y)):
        assert list(got.items()) == list(want.items())
    bracket = {(i, j): v for (i, j), v in table.items() if i < j}
    both = {**bracket, **{(j, i): {k: -c for k, c in v.items()} for (i, j), v in bracket.items()}}
    g = LieAlgebra(dim, None, bracket, check=False)
    want = oracle.bilinear(lambda i, j: both.get((i, j), {}), x, y)
    assert list(g.bracket_vec(x, y).items()) == list(want.items())


@pytest.mark.parametrize("side, key", [("left", (0, 5)), ("left", (9, 0)),
                                       ("right", (0, 5)), ("right", (9, 0))])
def test_a_bimodule_refuses_a_key_outside_its_dimensions(side, key):
    A = dual_numbers()
    R = Bimodule.regular(A)
    tables = {"left": dict(R.left), "right": dict(R.right)}
    tables[side][key] = {0: ONE}
    msg = f"{side} action key {key} out of range: algebra dim 2, module dim 2"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        Bimodule(A, 2, tables["left"], tables["right"])


def test_a_bimodule_refuses_a_coordinate_outside_the_module():
    A = dual_numbers()
    R = Bimodule.regular(A)
    with pytest.raises(ValueError, match=r"^left action \(0, 1\) has a coordinate outside "
                                         r"module dim 2: \{5: 1\}$"):
        Bimodule(A, 2, {**R.left, (0, 1): {5: 1}}, R.right)


def test_an_ideal_refuses_a_coordinate_outside_the_algebra():
    with pytest.raises(ValueError, match="^ideal vector coordinate 5 outside algebra dim 2$"):
        Ideal(dual_numbers(), [{5: 1}])


@pytest.mark.parametrize("kwargs, msg", [
    ({"unit": {0: 1, 4: 2}}, "unit coordinate 4 outside algebra dim 1"),
    ({"augmentation": {0: 1, 5: 3}}, "augmentation coordinate 5 outside algebra dim 1"),
    ({"augmentation": {-1: 1}}, "augmentation coordinate -1 outside algebra dim 1"),
])
def test_an_algebra_refuses_a_unit_or_augmentation_coordinate_outside_it(kwargs, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        Algebra(1, ["1"], {(0, 0): {0: 1}}, **kwargs)


MATRIX_BASES = {"Q": rationals, "Q[e]": dual_numbers, "Q[t]/t^3": lambda: truncated_poly(3),
                "fat_point": fat_point, "M2(Q)": lambda: matrix_algebra(rationals(), 2)}


def _same_algebra(got, want):
    assert (got.dim, got.labels, got.name, got.unit) == (want.dim, want.labels, want.name, want.unit)
    assert got.mul == want.mul


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("base", sorted(MATRIX_BASES))
def test_matrix_and_upper_triangular_algebras_match_the_word_by_word_reference(base, n):
    A = MATRIX_BASES[base]()
    full = [(i, j) for i in range(n) for j in range(n)]
    upper = [(i, j) for i, j in full if i <= j]
    M, U = matrix_algebra(A, n), upper_triangular(n, A)
    _same_algebra(M, oracle.matrix_units(A, full, f"M{n}({A.name})"))
    _same_algebra(U, oracle.matrix_units(A, upper, f"UT{n}({A.name})"))
    # UT_n(A) is the sub-table of M_n(A) on the upper positions, re-indexed
    d = A.dim
    new = {(i * n + j) * d + a: k for k, (i, j, a) in
           enumerate((i, j, a) for i, j in upper for a in range(d))}
    assert U.mul == {(new[x], new[y]): {new[z]: v for z, v in vec.items()}
                     for (x, y), vec in M.mul.items() if x in new and y in new}
    assert U.unit == {new[k]: v for k, v in M.unit.items()}


@st.composite
def closed_positions(draw):
    """A shuffled list of positions closed under E_ij E_jl = E_il: the
    transitive closure of a random relation on at most 4 indices, with or
    without the diagonal."""
    n = draw(st.integers(1, 4))
    pairs = set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)))
    if draw(st.booleans()):
        pairs |= {(i, i) for i in range(n)}
    while True:
        more = {(i, l) for i, j in pairs for k, l in pairs if j == k} - pairs
        if not more:
            break
        pairs |= more
    return draw(st.permutations(sorted(pairs)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(MATRIX_BASES)), closed_positions())
def test_matrix_units_on_any_closed_positions_match_the_reference(base, positions):
    A = MATRIX_BASES[base]()
    _same_algebra(matrix_units(A, positions, "P"), oracle.matrix_units(A, positions, "P"))


def test_matrix_units_refuse_positions_a_product_leaves():
    with pytest.raises(ValueError, match="^positions not closed under products: E11 is missing$"):
        matrix_units(rationals(), [(0, 1), (1, 0)], "P")


def test_an_algebra_refuses_a_negative_dimension_by_name():
    with pytest.raises(ValueError, match="^algebra dimension -1 is negative$"):
        Algebra(-1, None, {})


def test_a_bimodule_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="^module dimension -3 is negative$"):
        Bimodule(rationals(), -3, {}, {})
