import hashlib
import importlib.util
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from chainlab import lie
from chainlab.algebras import Ideal, augmentation_ideal, matrix_algebra
from chainlab.cli import main as cli_main
from chainlab.complexes import Interval
from chainlab.cyclic import lambda_complex
from chainlab.dsl import parse_algebra
from chainlab.errors import NotNilpotent, SizeLimit
from chainlab.lie import (
    TRACE_CHAIN_SIGN,
    LieAlgebra,
    _weight_zero_wedges,
    ce_complex,
    ce_homology,
    generalized_trace_matrix,
    gl,
    h2_vs_hc1,
    lie_from_assoc,
    lqt_verify,
    sym_model_betti,
    trace_chain_check,
    triangular_lie,
)
from chainlab.presets import algebra_preset, dual_numbers, product_qq, rationals, upper_triangular

ONE = Fraction(1)

PRESETS = ["rationals", "zero", "dual_numbers", "truncated_poly:3", "truncated_poly:4",
           "square_zero:2", "fat_point", "product", "matrix:2", "upper_triangular:2",
           "upper_triangular:3", "tensor:dual_numbers,truncated_poly:3"]

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def sl2():
    return LieAlgebra(3, ["e", "f", "h"], {
        (0, 1): {2: ONE},
        (0, 2): {0: Fraction(-2)},
        (1, 2): {1: Fraction(2)},
    })


def test_jacobi_enforced():
    # [x1,x2] = x1 and [x2,x3] = x2 with [x1,x3] = 0 violates Jacobi on (1,2,3)
    with pytest.raises(ValueError):
        LieAlgebra(3, None, {(0, 1): {0: ONE}, (1, 2): {1: ONE}})


def test_jacobi_failing_on_several_triples_reports_the_smallest():
    # Jacobi fails on (1,2,3) and (1,3,4); the walk meets [x3, x4] first
    with pytest.raises(ValueError, match=r"^Jacobi identity fails on triple \(1,2,3\)$"):
        LieAlgebra(4, None, {(2, 3): {0: ONE}, (1, 2): {3: ONE}, (0, 3): {1: ONE}})


@pytest.mark.parametrize("bracket, msg", [
    ({(0, 5): {0: ONE}}, "bracket key (0, 5) out of range: dim 2"),
    ({(0, 1): {7: ONE}}, "bracket (0, 1) has a coordinate outside dim 2: {7: 1}"),
])
def test_a_bracket_outside_the_dimension_is_refused(bracket, msg):
    # the Jacobi check packs a triple and a coordinate into one int key, where
    # an index out of range would land on another key, so it is refused first
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        LieAlgebra(2, None, bracket)


def test_a_lie_algebra_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="^Lie algebra dimension -2 is negative$"):
        LieAlgebra(-2, None, {})


def test_lie_from_assoc_commutative_gives_abelian():
    g = lie_from_assoc(dual_numbers())
    assert not g.bracket


def test_gl2_elementary_bracket():
    g = gl(rationals(), 2)
    assert g.bracket_basis(1, 2) == {0: ONE, 3: -ONE}  # [E12, E21] = E11 - E22
    assert g.bracket_basis(2, 1) == {0: -ONE, 3: ONE}


def test_jacobi_on_random_associative_algebras():
    rng = random.Random(9)
    for _ in range(5):
        mul = {}
        for i in range(3):
            for j in range(3):
                c = rng.randint(-2, 2)
                if c:
                    mul[(i, j)] = {3: Fraction(c)}
        from chainlab.algebras import Algebra

        A = Algebra(4, None, mul)
        lie_from_assoc(A)  # Jacobi validated on construction


def test_abelian_betti_binomial():
    g = LieAlgebra(4, None, {})
    rep = ce_homology(g, 5)
    assert [rep.betti[p] for p in range(5)] == [comb(4, p) for p in range(5)]


def test_sl2_betti():
    rep = ce_homology(sl2(), 4)
    assert [rep.betti[p] for p in range(4)] == [1, 0, 0, 1]


def test_ce_d_squared_and_bounded_top():
    ce = ce_complex(sl2(), 10)
    assert ce.complex.hi == 3  # exterior powers stop at dim g
    assert ce.complex.bounded_above


def test_size_limit():
    with pytest.raises(SizeLimit):
        ce_complex(gl(rationals(), 4), 5, size_limit=100)


@pytest.mark.parametrize("argv, msg", [
    (["ce", "--preset", "rationals", "--gl", "45", "-D", "2"], "exterior power C(2025,2) exceeds limit 2000000"),
    (["trace", "--preset", "rationals", "-r", "40", "-D", "2"], "exterior power C(1600,3) exceeds limit 2000000"),
    (["lqt", "--preset", "rationals", "-r", "40", "-D", "2"], "exterior power C(1600,3) exceeds limit 2000000"),
    (["h2hc1", "--preset", "rationals", "-r", "40"], "exterior power C(1600,3) exceeds limit 2000000"),
    (["ce", "--preset", "dual_numbers", "--gl", "3", "-D", "5", "--size-limit", "100"],
     "exterior power C(18,2) exceeds limit 100"),
    (["trace", "--preset", "rationals", "-r", "3", "-D", "9", "--size-limit", "50"],
     "exterior power C(9,3) exceeds limit 50"),
    # the checks that came before the guard still come first
    (["trace", "--preset", "rationals", "-r", "1", "-D", "3"], "trace needs dim gl_r(A) >= 2, got 1 for r = 1"),
    (["lqt", "--preset", "square_zero:1", "-r", "40", "-D", "2"], "the stable comparison expects a unital algebra"),
])
def test_gl_is_refused_before_it_is_built(monkeypatch, capsys, argv, msg):
    def unbuilt(*args):
        raise AssertionError("gl_r(A) was built")

    monkeypatch.setattr(lie, "gl", unbuilt)
    monkeypatch.setattr(lie, "matrix_algebra", unbuilt)
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_gl2_of_m2_matches_gl4():
    a = ce_homology(gl(matrix_algebra(rationals(), 2), 2), 4)
    b = ce_homology(gl(rationals(), 4), 4)
    assert all(a.betti[n] == b.betti[n] for n in range(4))


def test_triangular_lie_total_order_dim():
    t = triangular_lie(rationals(), Ideal(rationals(), []), 2, [(1, 2)])
    assert t.dim == 1
    assert t.is_nilpotent


def test_triangular_lie_empty_order_abelian():
    E = dual_numbers()
    t = triangular_lie(E, augmentation_ideal(E), 1, [])
    assert t.dim == 1 and not t.bracket


def test_triangular_lie_lower_central_series_terminates():
    E = dual_numbers()
    t = triangular_lie(E, augmentation_ideal(E), 3, [(1, 2), (2, 3)])
    series = t.lower_central_series()
    assert series[-1] == 0


def test_triangular_lie_rejects_non_nilpotent():
    Q = rationals()
    full = Ideal(Q, [{0: ONE}])  # I = A: diagonal entries unconstrained
    with pytest.raises(NotNilpotent):
        triangular_lie(Q, full, 2, [(1, 2)])


def test_trace_chain_map_identity():
    for A, r in [(rationals(), 2), (dual_numbers(), 2),
                 (matrix_algebra(rationals(), 2), 1), (upper_triangular(2), 2)]:
        rep, traces, lam, ce = trace_chain_check(A, r, 3)
        assert rep.chain_map_ok, (A.name, rep.failing_degree)


def test_trace_degree_zero_values():
    from chainlab.cyclic import lambda_complex
    from chainlab.lie import generalized_trace_matrix

    Q = rationals()
    lam = lambda_complex(Q, 2)
    ce = ce_complex(ungraded(gl(Q, 2)), 3)  # every wedge, so E12 has a column
    tr0 = generalized_trace_matrix(Q, 2, 0, lam, ce)
    assert tr0.column(0) == {0: ONE}   # E11 -> [1]
    assert tr0.column(1) == {}         # E12 -> 0
    assert tr0.column(3) == {0: ONE}   # E22 -> [1]


def test_trace_image_consists_of_cycles():
    rep, traces, lam, ce = trace_chain_check(dual_numbers(), 2, 3)
    assert rep.chain_map_ok
    for n in range(1, 3):
        # d_lambda . Tr = sign * Tr . d_CE, so trace images of CE cycles are cycles
        composite = lam.complex.diffs[n] @ traces[n]
        kernel_cols = ce.complex.diffs[n + 1].kernel_basis()
        for v in kernel_cols:
            assert not composite.apply(v)


def test_sym_model_series():
    assert sym_model_betti({1: 1, 3: 1, 5: 1}, 4) == [1, 1, 0, 1, 1]
    assert sym_model_betti({2: 1}, 6) == [1, 0, 1, 0, 1, 0, 1]
    assert sym_model_betti({1: 2}, 3) == [1, 2, 1, 0]


def test_lqt_stable_match_small():
    rep = lqt_verify(rationals(), 3, 3)
    assert rep.all_match and rep.stable


def test_lqt_unstable_reports_no_fail():
    rep = lqt_verify(rationals(), 2, 4)
    assert not rep.stable
    assert isinstance(rep.all_match, bool)  # mismatch is reported, not raised


def test_lqt_matrix_coefficients():
    rep = lqt_verify(matrix_algebra(rationals(), 2), 2, 3)
    assert rep.all_match, rep.matches


def test_h2_hc1_ground_field():
    rep = h2_vs_hc1(rationals(), 3)
    assert rep.equal and rep.hc1 == 0 and rep.h2 == 0


def test_h2_hc1_product_additivity():
    rep = h2_vs_hc1(product_qq(), 3)
    q = h2_vs_hc1(rationals(), 3)
    assert rep.hc1 == 2 * q.hc1
    assert rep.h2_indecomposable == 2 * q.h2_indecomposable
    assert rep.equal


# ---------------------------------------------------------------------------
# the weight-0 summand of gl_r(A) and the generalized trace
# ---------------------------------------------------------------------------


def ungraded(g):
    """g with no grading declared, whose CE complex has every wedge."""
    return LieAlgebra(g.dim, g.labels, g.bracket)


def full_homology(g, D, reps=False):
    """Homology read off every wedge, as ce_homology did before the grading."""
    ce = ce_complex(ungraded(g), D)
    return ce.homology(Interval(0, min(D - 1, ce.complex.certified.hi)), reps=reps)


def _rebased_algebras(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for slot, (_, preset, _, bits) in enumerate(workloads.REBASED):
        yield parse_algebra(workloads.generate_rebased(preset, bits, seed, slot)[0])


def test_gradings_declared():
    assert gl(dual_numbers(), 3).weights[1 * 2] == (1, -1, 0)  # E12 (x) 1
    assert gl(dual_numbers(), 3).inner[2] == {(2 * 3 + 2) * 2: 1}  # h_3 = E33 (x) 1
    assert lie_from_assoc(matrix_algebra(rationals(), 2)).weights is None
    assert gl(algebra_preset("square_zero:2"), 2).weights is None
    E = dual_numbers()
    assert triangular_lie(E, augmentation_ideal(E), 3, [(1, 2), (2, 3)]).weights is None


def test_weight_zero_wedges_are_the_balanced_ones():
    g = gl(dual_numbers(), 3)
    ce = ce_complex(g, 4)
    assert ce.weight_zero
    for p in range(5):
        rows_cols = [[divmod(k // 2, 3) for k in t] for t in combinations(range(g.dim), p)]
        balanced = [t for t, rc in zip(combinations(range(g.dim), p), rows_cols)
                    if sorted(i for i, _ in rc) == sorted(j for _, j in rc)]
        assert ce.tuples[p] == balanced


@st.composite
def weight_lists(draw):
    r = draw(st.integers(1, 3))
    weights = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=10))
    return weights, draw(st.integers(0, len(weights)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weight_lists())
@example(([(0, 0)] * 7, 5))  # m = 0: every subset sums to zero
@example(([(1,), (2,), (3,), (1,)], 4))  # no nonempty subset sums to zero
@example(([(1, 0), (1, -1)], 2))  # packs to 1 - 1 = 0 in a base of top * m = 2
def test_weight_zero_wedges_are_the_zero_sum_subsets_in_order(case):
    weights, top = case
    wedges = _weight_zero_wedges(weights, top)
    assert sorted(wedges) == list(range(top + 1))
    for p, (tuples, masks) in wedges.items():
        assert tuples == sorted(tuples)
        assert tuples == [t for t in combinations(range(len(weights)), p)
                          if not any(map(sum, zip(*(weights[k] for k in t))))]
        assert masks == [sum(1 << k for k in t) for t in tuples]


def _weight_zero_counts(weights, top) -> list:
    """Coefficients of x^0..x^top in the constant term in z of
    prod_k (1 + x z^{w_k}), by a dict over (degree, weight sum)."""
    poly = {(0, (0,) * len(weights[0])): 1}
    for w in weights:
        for (p, s), c in list(poly.items()):
            if p < top:
                key = (p + 1, tuple(map(sum, zip(s, w))))
                poly[key] = poly.get(key, 0) + c
    return [poly.get((p, (0,) * len(weights[0])), 0) for p in range(top + 1)]


def _dims_cases():
    """(spec, r, D) for the unital presets and r <= 4, D the largest <= 5
    whose weight-0 wedges number at most 2500, and the lie workload's gl_4(Q)
    and gl_3(Q[e]) at D 5."""
    cases = {("rationals", 4, 5), ("dual_numbers", 3, 5)}
    for spec in PRESETS:
        A = algebra_preset(spec)
        for r in range(1, 5):
            if not A.is_unital:
                continue
            g = gl(A, r)
            D = next((D for D in (5, 4, 3, 2, 1)
                      if sum(_weight_zero_counts(g.weights, min(D, g.dim))) <= 2500), None)
            if D is not None:
                cases.add((spec, r, D))
    return sorted(cases)


@pytest.mark.parametrize("spec,r,D", _dims_cases())
def test_weight_zero_dims_are_the_generating_function(spec, r, D):
    g = gl(algebra_preset(spec), r)
    top = min(D, g.dim)
    assert list(ce_complex(g, D).complex.dims.values()) == _weight_zero_counts(g.weights, top)


@pytest.mark.parametrize("spec", [s for s in PRESETS if algebra_preset(s).is_unital])
def test_weight_zero_betti_equal_full_betti_on_presets(spec):
    A = algebra_preset(spec)
    for r in (1, 2, 3):
        g = gl(A, r)
        D = next((D for D in (5, 4, 3) if sum(comb(g.dim, p) for p in range(D + 1)) <= 6000),
                 None)
        if D is None:
            continue  # the full complex does not fit
        assert ce_homology(g, D).betti == full_homology(g, D).betti, (spec, r, D)


def test_weight_zero_betti_equal_full_betti_on_rebased_tables():
    for A in _rebased_algebras(seed=3):
        for r, D in ((1, 5), (2, 4 if A.dim <= 3 else 3)):
            g = gl(A, r)
            assert g.weights is not None
            assert ce_homology(g, D).betti == full_homology(g, D).betti, (A.name, r)


# ---------------------------------------------------------------------------
# the S_r-coinvariants of the weight-0 summand
# ---------------------------------------------------------------------------


def weight_zero_betti(g, D):
    """Betti numbers of the weight-0 summand itself, with no S_r quotient."""
    ce = ce_complex(g, D)
    return ce.homology(Interval(0, min(D - 1, ce.complex.certified.hi))).betti


def test_coinvariant_cases_include_non_commutative_coefficients():
    assert {("matrix:2", 2), ("upper_triangular:2", 2), ("upper_triangular:2", 3)} <= \
        {(spec, r) for spec, r, _ in _dims_cases()}


@pytest.mark.parametrize("spec,r,D", _dims_cases())
def test_coinvariant_betti_equal_weight_zero_betti(spec, r, D):
    g = gl(algebra_preset(spec), r)
    assert ce_complex(g, D, coinvariants=True).coinvariants == (r > 1)
    assert ce_homology(g, D).betti == weight_zero_betti(g, D)


def test_coinvariant_betti_equal_weight_zero_betti_on_rebased_tables():
    for A in _rebased_algebras(seed=1):
        for r, D in ((2, 5 if A.dim <= 3 else 4), (3, 4 if A.dim <= 3 else 3)):
            g = gl(A, r)
            assert ce_homology(g, D).betti == weight_zero_betti(g, D), (A.name, r, D)


def test_gl_declares_the_permutations_of_the_matrix_indices():
    g = gl(dual_numbers(), 3)  # E_kl (x) a at (3k + l) * 2 + a
    swap, cycle = g.symmetries
    assert swap[(0 * 3 + 2) * 2 + 1] == (1 * 3 + 2) * 2 + 1  # E13 (x) e -> E23 (x) e
    assert cycle[(0 * 3 + 2) * 2 + 1] == (1 * 3 + 0) * 2 + 1  # E13 (x) e -> E21 (x) e
    assert len(gl(rationals(), 2).symmetries) == 1  # the transposition is the 2-cycle
    assert gl(rationals(), 1).symmetries == []
    assert gl(algebra_preset("square_zero:2"), 2).symmetries == []


def test_a_permutation_that_is_no_automorphism_is_refused():
    # the transposition of gl_2 composed with t <-> t^2 on Q[t]/t^3 keeps every
    # weight, but [E11*t, E12*t] = E12*t^2 while [E22*t^2, E21*t^2] = 0, not E21*t
    g = gl(algebra_preset("truncated_poly:3"), 2)
    pi, = g.symmetries
    mutant = [pi[k] - k % 3 + (0, 2, 1)[k % 3] for k in range(g.dim)]
    with pytest.raises(ValueError, match=re.escape(
            "symmetry 1: [E22*t^2, E21*t^2] is not the image of [E11*t, E12*t]")):
        LieAlgebra(g.dim, g.labels, g.bracket, grading=(g.weights, g.inner, [((1, 0), mutant)]))
    LieAlgebra(g.dim, g.labels, g.bracket, grading=(g.weights, g.inner, [((1, 0), pi)]))


def test_a_permutation_that_moves_weights_wrongly_is_refused():
    g = gl(rationals(), 3)
    with pytest.raises(ValueError, match=re.escape(
            "symmetry 1 sends E12*1 of weight (1, -1, 0) to E21*1 of weight (-1, 1, 0)")):
        LieAlgebra(g.dim, g.labels, g.bracket,  # s must be the transposition (1 2)
                   grading=(g.weights, g.inner, [((0, 1, 2), g.symmetries[0])]))
    with pytest.raises(ValueError, match="^symmetry 2 is not a pair of permutations$"):
        LieAlgebra(g.dim, g.labels, g.bracket,
                   grading=(g.weights, g.inner, [((1, 0, 2), g.symmetries[0]), ((1, 0), [0] * 9)]))


def test_a_sign_killed_orbit_is_dropped():
    # the transposition sends E12 ^ E21 to E21 ^ E12 = -E12 ^ E21, and
    # E11 ^ E22 to -E11 ^ E22: both weight-0 classes of degree 2 are 0
    g = gl(rationals(), 2)  # basis E11, E12, E21, E22
    tuples, masks = lie._weight_zero_wedges(g.weights, 2)[2]
    assert tuples == [(0, 3), (1, 2)]
    reps, rep_masks, index = lie._wedge_classes(tuples, masks, g.symmetries)
    assert reps == rep_masks == [] and set(index.values()) == {(-1, 0)}
    ce = ce_complex(g, 4, coinvariants=True)
    assert ce.complex.dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    assert ce.tuples[3] == [(0, 1, 2)]  # E11 ^ E12 ^ E21, the lex-first of its orbit


def _sort_sign(seq) -> int:
    return (-1) ** sum(a > b for a, b in combinations(seq, 2))


@pytest.mark.parametrize("spec,r,D", [("rationals", 3, 5), ("dual_numbers", 3, 4),
                                      ("rationals", 4, 4), ("matrix:2", 2, 4)])
def test_wedge_classes_against_the_whole_group(spec, r, D):
    # every sigma in S_r, not the two generators: sigma(x_rep) = sign * x_T
    # for T the sorted image, so x_T = sign * x_rep in the quotient, and an
    # orbit is 0 exactly when some sigma fixes rep with an odd re-sorting
    A = algebra_preset(spec)
    g = gl(A, r)
    group = [[(s[k] * r + s[l]) * A.dim + a for k in range(r) for l in range(r)
              for a in range(A.dim)] for s in permutations(range(r))]
    for p, (tuples, masks) in lie._weight_zero_wedges(g.weights, D).items():
        reps, rep_masks, index = lie._wedge_classes(tuples, masks, g.symmetries)
        assert sorted(index) == sorted(masks)
        assert rep_masks == [sum(1 << k for k in t) for t in reps]
        for tup in tuples:
            images = {tuple(sorted(pi[k] for k in tup)): _sort_sign([pi[k] for k in tup])
                      for pi in group}
            killed = any(_sort_sign([pi[k] for k in tup]) == -1 and
                         sorted(pi[k] for k in tup) == list(tup) for pi in group)
            rep = min(images)
            for image, sign in images.items():
                row, odd = index[sum(1 << k for k in image)]
                if killed:  # (-1, 0), whatever the walk met first
                    assert (row, odd) == (-1, 0) and rep not in reps, (p, tup)
                else:
                    assert reps[row] == rep and (-1) ** odd == sign * images[rep], (p, tup)


def test_gl_1_builds_the_weight_zero_complex_unchanged():
    for spec in ("dual_numbers", "matrix:2", "truncated_poly:4"):
        g = gl(algebra_preset(spec), 1)
        a, b = ce_complex(g, 5, coinvariants=True), ce_complex(g, 5)
        assert not a.coinvariants and (a.complex.dims, a.tuples) == (b.complex.dims, b.tuples)
        assert a.complex.diffs == b.complex.diffs


def test_the_coinvariant_complex_reports_no_representatives():
    ce = ce_complex(gl(rationals(), 2), 3, coinvariants=True)
    with pytest.raises(ValueError, match="no representatives"):
        ce.homology(reps=True)


# sha256 of the reports these commands gave while ce built every wedge
FULL_REPORT_SHA256 = {
    ("dual_numbers", "3", "4"): "5be05db9dccd10bca81504038e7dbc71329e23acb5024e43b1aec68b85224ddd",
    ("rationals", "4", "5"): "efe2ff4fc2b06d618da1907460f78287bab21e7690fd3f0ffa51c3571eccf316",
    ("truncated_poly:3", "2", "5"): "ead481c73e1c50c3ae9f09818272d549a3054373f515ec7f532a20df75bfbad8",
    ("matrix:2", "2", "4"): "c604dc0d82ff48ce357e899e007ae3f0d3e56c5aee51c04bc6bfcb9db39eb729",
}


@pytest.mark.parametrize("spec,r,D", sorted(FULL_REPORT_SHA256))
def test_reps_reports_are_those_of_the_full_complex(spec, r, D, capsys):
    assert cli_main(["ce", "--preset", spec, "--gl", r, "-D", D, "--reps", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_REPORT_SHA256[(spec, r, D)]
    g = gl(algebra_preset(spec), int(r))
    full = full_homology(g, int(D), reps=True).to_jsonable()
    assert json.dumps(ce_homology(g, int(D), reps=True).to_jsonable()) == json.dumps(full)


def test_wrong_weight_is_rejected():
    g = gl(rationals(), 2)  # basis E11, E12, E21, E22
    weights = list(g.weights)
    weights[1] = (-1, 1)
    with pytest.raises(ValueError, match=r"\[E12\*1, E21\*1\] has the term E11\*1"):
        LieAlgebra(g.dim, g.labels, g.bracket, grading=(weights, g.inner))


def test_wrong_inner_element_is_rejected():
    g = gl(rationals(), 2)
    identity = {0: 1, 3: 1}  # central: [1, E12] = 0, not E12
    with pytest.raises(ValueError, match=r"\[h1, E12\*1\] is not 1\*E12\*1"):
        LieAlgebra(g.dim, g.labels, g.bracket, grading=(g.weights, [identity, g.inner[1]]))
    with pytest.raises(ValueError, match=r"h1 has the term E12\*1 of nonzero weight"):
        LieAlgebra(g.dim, g.labels, g.bracket, grading=(g.weights, [{0: 1, 1: 1}, g.inner[1]]))


def test_gl_of_a_non_unital_algebra_builds_every_wedge():
    for spec in ("square_zero:2", "zero"):
        g = gl(algebra_preset(spec), 2)
        assert g.weights is None and not ce_complex(g, 4).weight_zero
        assert ce_homology(g, 4, reps=True) == full_homology(g, 4, reps=True)


@pytest.mark.parametrize("argv,message", [
    (["ce", "--preset", "rationals", "--gl", "4", "-D", "5", "--size-limit", "1000"],
     "error: exterior power C(16,4) exceeds limit 1000\n"),
    (["lqt", "--preset", "rationals", "-r", "4", "-D", "4", "--size-limit", "500"],
     "error: exterior power C(16,3) exceeds limit 500\n"),
    (["h2hc1", "--preset", "truncated_poly:3", "-r", "3", "--size-limit", "2000"],
     "error: exterior power C(27,3) exceeds limit 2000\n"),
    (["trace", "--preset", "dual_numbers", "-r", "3", "-D", "4", "--size-limit", "1000"],
     "error: exterior power C(18,4) exceeds limit 1000\n"),
])
def test_size_guard_reads_the_full_exterior_power(argv, message, capsys):
    # the weight-0 wedges would fit (C(16,4) = 1820 wedges hold 132 of weight
    # 0), but the guard keeps rejecting what the full complex would exceed
    assert cli_main(argv + ["--format", "json"]) == 2
    assert capsys.readouterr().err == message


def test_lqt_at_degree_zero_compares_degree_zero():
    rep = lqt_verify(rationals(), 2, 0)
    assert (rep.ce_betti, rep.sym_betti, rep.all_match) == ({0: 1}, {0: 1}, True)


def test_lqt_guards_only_the_cyclic_degrees_it_reads(capsys):
    # HC_0..HC_2 of Q[t]/t^3 come off the lambda complex to degree 3, guarded
    # as the bicomplex row 3^5 = 243 (3^6 = 729 while HC_3 was built too)
    argv = ["lqt", "--preset", "truncated_poly:3", "-r", "1", "-D", "3", "--format", "json"]
    assert cli_main(argv) == 0
    unguarded = json.loads(capsys.readouterr().out)["results"]
    assert cli_main(argv + ["--size-limit", "243"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == unguarded
    assert cli_main(argv + ["--size-limit", "242"]) == 2
    assert capsys.readouterr().err == "error: bicomplex row has dimension 243 > size limit 242\n"


# gl_r(A) whose trace is also checked at n = 4, on the weight-0 wedges: the
# full exterior power is too large for the oracle's n! walk per wedge
WEIGHT_ZERO_TRACE = {"dual_numbers": 3, "truncated_poly:3": 2}


@pytest.mark.parametrize("spec", PRESETS)
def test_generalized_trace_matches_the_permutation_walk(spec):
    A = algebra_preset(spec)
    lam = lambda_complex(A, 4 if spec in WEIGHT_ZERO_TRACE else 3)
    for r in (1, 2, 3):
        dim = r * r * A.dim
        for n in range(4):
            if n + 1 > dim or comb(dim, n + 1) > 60000:
                continue
            tuples = list(combinations(range(dim), n + 1))
            ce = SimpleNamespace(tuples={n + 1: tuples})
            assert generalized_trace_matrix(A, r, n, lam, ce) == \
                oracle.generalized_trace_matrix(A, r, n, lam, tuples), (spec, r, n)
    if spec in WEIGHT_ZERO_TRACE:
        r = WEIGHT_ZERO_TRACE[spec]
        ce = ce_complex(gl(A, r), 5)
        assert ce.weight_zero and ce.tuples[5]
        assert generalized_trace_matrix(A, r, 4, lam, ce) == \
            oracle.generalized_trace_matrix(A, r, 4, lam, ce.tuples[5]), (spec, r, 4)


# the trace checked on every wedge: trace_chain_check builds only the weight-0
# wedges of a graded gl_r(A) (one per S_r-class, tested below), which is sound
# because every other column of Tr is 0 and d_CE preserves weight
FULL_TRACE_CASES = [(s, r, 3) for s in PRESETS for r in (1, 2)
                    if algebra_preset(s).is_unital and r * r * algebra_preset(s).dim > 1]


@pytest.mark.parametrize("spec,r,N", FULL_TRACE_CASES + [("dual_numbers", 3, 2)])
def test_trace_identity_holds_on_every_wedge(spec, r, N):
    A = algebra_preset(spec)
    g = gl(A, r)
    N = min(N, g.dim - 1)
    ce = ce_complex(ungraded(g), N + 1)
    assert not ce.weight_zero
    lam = lambda_complex(A, N)
    traces = {n: generalized_trace_matrix(A, r, n, lam, ce) for n in range(N + 1)}
    for n, tr in traces.items():
        for col, tup in enumerate(ce.tuples[n + 1]):
            if any(map(sum, zip(*(g.weights[k] for k in tup)))):
                assert not tr.column(col), (n, tup)
    for n in range(1, N + 1):
        assert traces[n - 1] @ ce.complex.diffs[n + 1] == \
            (lam.complex.diffs[n] @ traces[n]).scale(TRACE_CHAIN_SIGN), n


def test_trace_on_an_ungraded_gl_builds_every_wedge():
    A = algebra_preset("square_zero:2")
    rep, traces, lam, ce = trace_chain_check(A, 2, 3)
    assert rep.chain_map_ok and not ce.weight_zero
    for p in range(5):
        assert ce.tuples[p] == list(combinations(range(ce.lie.dim), p))


# ---------------------------------------------------------------------------
# the trace checked on the S_r-classes: trace_chain_check reads one column per
# class of a graded gl_r(A), which is sound because d_CE commutes with each
# declared pi and Tr . pi = Tr, the fact these tests pin
# ---------------------------------------------------------------------------


def _trace_moved_by_a_symmetry(A, r, D):
    """The first (n, wedge, generator) of the full weight-0 complex of gl_r(A)
    whose trace column is not the column of its pi-image times the sign of
    re-sorting that image, or None."""
    g = gl(A, r)
    ce = ce_complex(g, D)
    lam = lambda_complex(A, D - 1)
    for n in range(min(D, g.dim)):
        cols = generalized_trace_matrix(A, r, n, lam, ce).columns()
        where = {tup: k for k, tup in enumerate(ce.tuples[n + 1])}
        for tup, k in where.items():
            for m, pi in enumerate(g.symmetries):
                image = [pi[x] for x in tup]
                moved = cols[where[tuple(sorted(image))]]
                if cols[k] != {i: _sort_sign(image) * c for i, c in moved.items()}:
                    return n, tup, m
    return None


def _weight_zero_failing_degree(A, r, N):
    """trace_chain_check's failing degree, read off every weight-0 wedge."""
    ce = ce_complex(gl(A, r), N + 1)
    lam = lambda_complex(A, N)
    traces = {n: generalized_trace_matrix(A, r, n, lam, ce) for n in range(N + 1)}
    return next((n for n in range(1, N + 1) if traces[n - 1] @ ce.complex.diffs[n + 1] !=
                 (lam.complex.diffs[n] @ traces[n]).scale(TRACE_CHAIN_SIGN)), None)


CLOSED_CHAINS = lie._closed_chains


def _sign_by_row_of_slot_0(units, n):
    # a trace that reads the row index k of slot 0: lex-first class members
    # all have k = 0 there, so only their pi-images can see it
    return [(sgn * (-1) ** units[0][0], order) for sgn, order in CLOSED_CHAINS(units, n)]


def _sign_flipped_on_three_slots(units, n):
    return [(-sgn if len(order) == 3 else sgn, order) for sgn, order in CLOSED_CHAINS(units, n)]


SYMMETRY_TRACE_CASES = [(s, r, 5 if r == 2 else 4) for s in PRESETS
                        if algebra_preset(s).is_unital for r in (2, 3)]


@pytest.mark.parametrize("spec,r,D", SYMMETRY_TRACE_CASES)
def test_the_trace_is_invariant_under_the_declared_symmetries(spec, r, D):
    g = gl(algebra_preset(spec), r)
    assert len(g.symmetries) == r - 1  # the transposition, and for r = 3 the 3-cycle
    assert _trace_moved_by_a_symmetry(algebra_preset(spec), r, D) is None


@pytest.mark.parametrize("spec,r", [("rationals", 2), ("dual_numbers", 2), ("matrix:2", 2),
                                    ("dual_numbers", 3)])
def test_a_trace_that_reads_the_row_index_is_not_invariant(spec, r, monkeypatch):
    A = algebra_preset(spec)
    monkeypatch.setattr(lie, "_closed_chains", _sign_by_row_of_slot_0)
    assert _trace_moved_by_a_symmetry(A, r, 3) is not None
    # the class route cannot see this mutant, which is why the test above exists
    assert trace_chain_check(A, r, 3)[0].chain_map_ok
    assert _weight_zero_failing_degree(A, r, 3) == 1


@pytest.mark.parametrize("spec,r", [("dual_numbers", 3), ("truncated_poly:3", 3),
                                    ("matrix:2", 2), ("upper_triangular:2", 2)])
def test_a_broken_trace_fails_at_the_same_degree_on_the_classes(spec, r, monkeypatch):
    A = algebra_preset(spec)
    rep, _, _, ce = trace_chain_check(A, r, 3)
    assert ce.coinvariants and rep.chain_map_ok
    assert _weight_zero_failing_degree(A, r, 3) is None
    monkeypatch.setattr(lie, "_closed_chains", _sign_flipped_on_three_slots)
    rep = trace_chain_check(A, r, 3)[0]
    assert (rep.chain_map_ok, rep.failing_degree) == (False, 2)
    assert _weight_zero_failing_degree(A, r, 3) == 2


@pytest.mark.parametrize("spec,r,D", [
    ("rationals", 2, 4), ("rationals", 3, 5), ("rationals", 4, 5), ("dual_numbers", 2, 5),
    ("dual_numbers", 3, 5), ("matrix:2", 2, 4), ("upper_triangular:2", 2, 4),
    ("truncated_poly:3", 3, 4), ("fat_point", 2, 4), ("product", 3, 4)])
def test_the_live_classes_are_the_signed_burnside_count(spec, r, D):
    A = algebra_preset(spec)
    g = gl(A, r)
    live = [len(lie._wedge_classes(*wedges, g.symmetries)[0])
            for _, wedges in sorted(lie._weight_zero_wedges(g.weights, D).items())]
    assert live == oracle.coinvariant_dims(A, r, D)
