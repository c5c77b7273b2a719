import importlib.util
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from chainlab import cyclic, sparse
from chainlab.algebras import (Algebra, Bimodule, augmentation_ideal, commutator_subspace,
                               matrix_algebra, unitalization)
from chainlab.cli import main
from chainlab.complexes import ChainComplex, Interval
from chainlab.cyclic import (
    CyclicBicomplex,
    LambdaComplex,
    WordBasis,
    b_prime_matrix,
    bar_complex,
    connes_check,
    hc_homology,
    hh_homology,
    hoch_matrix,
    lambda_complex,
    norm_matrix,
    rotation_matrix,
    sparser_basis,
    words,
)
from chainlab.dsl import parse_algebra
from chainlab.errors import SizeLimit
from chainlab.excision import ExtensionData
from chainlab.presets import (
    algebra_preset,
    dual_numbers,
    extension_preset,
    fat_point,
    product_qq,
    rationals,
    square_zero,
    truncated_poly,
    upper_triangular,
    zero_algebra,
)
from chainlab.sparse import SparseMatrix, exact_vec

import oracle
from oracle import dense_betti, hc_bicomplex

UNITAL_PRESETS = [rationals(), dual_numbers(), truncated_poly(3), fat_point(),
                  product_qq(), upper_triangular(2), matrix_algebra(rationals(), 2)]


def test_bar_of_ground_field_acyclic():
    rep = bar_complex(rationals(), D=6).homology(Interval(0, 5))
    assert all(v == 0 for v in rep.betti.values())


def test_bar_of_zero_multiplication():
    A = square_zero(1)
    rep = bar_complex(A, D=4).homology(Interval(0, 3))
    assert all(v == 1 for v in rep.betti.values())


def test_bar_nonunital_truncated_ideal_not_acyclic():
    I = augmentation_ideal(truncated_poly(3)).as_algebra()
    rep = bar_complex(I, D=4).homology(Interval(0, 3))
    assert any(v for v in rep.betti.values())


def test_word_basis_mixed_radices():
    basis = WordBasis((2, 3, 1, 4))
    listed = list(basis)
    assert len(basis) == len(listed) == 24
    assert listed == sorted(listed)  # slot 0 most significant
    for i, w in enumerate(listed):
        assert basis.index(w) == i
        assert basis.word(basis.index(w)) == w


@pytest.mark.parametrize("radices", [(0,), (3, 0), (2, 0, 5)])
def test_word_basis_zero_radix_is_empty(radices):
    basis = WordBasis(radices)
    assert len(basis) == 0
    assert list(basis) == []


@st.composite
def word_boxes(draw):
    """(radices, box): every slot named once, in a drawn order, with a drawn
    subrange of its radix."""
    radices = draw(st.lists(st.integers(0, 3), max_size=4))
    order = draw(st.permutations(range(len(radices))))
    box = []
    for t in order:
        lo = draw(st.integers(0, radices[t]))
        box.append((t, lo, draw(st.integers(lo, radices[t]))))
    return radices, box


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(word_boxes())
def test_positions_are_the_indices_of_the_box_words_in_its_slot_order(radices_box):
    radices, box = radices_box
    basis = WordBasis(radices)
    want = []
    for values in product(*(range(lo, hi) for _, lo, hi in box)):
        word = [0] * len(radices)
        for (t, _, _), w in zip(box, values):
            word[t] = w
        want.append(basis.index(word))
    assert basis.positions(box) == want


def test_words_of_tensor_powers():
    A, Z = dual_numbers(), zero_algebra()
    assert list(words(A, Bimodule.regular(A), 0)) == [(0,), (1,)]
    assert len(words(A, Bimodule.regular(A), 3)) == 16
    assert len(words(Z, Bimodule.regular(Z), 2)) == 0


@pytest.mark.parametrize("A", UNITAL_PRESETS, ids=lambda a: a.name)
def test_unit_homotopy_identity(A):
    ok, failing = oracle.verify_unit_homotopy(A, D=3)
    assert ok, f"b's + sb' = id fails at degree {failing}"


def test_rotation_and_norm_small_cases():
    Q = rationals()
    assert rotation_matrix(Q, 0) == SparseMatrix.identity(1)
    assert rotation_matrix(Q, 1) == SparseMatrix.identity(1).scale(-1)
    assert norm_matrix(Q, 1).is_zero()
    assert norm_matrix(Q, 0) == SparseMatrix.identity(1)


@pytest.mark.parametrize("A", [rationals(), dual_numbers(), truncated_poly(3)],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("p", range(6))
def test_norm_equals_sum_of_rotation_powers(A, p):
    t = rotation_matrix(A, p)
    power = SparseMatrix.identity(t.nrows)
    by_products = power
    for _ in range(p):
        power = t @ power
        by_products = by_products + power
    assert norm_matrix(A, p) == by_products
    if A.dim == 1 and p % 2:
        assert norm_matrix(A, p).is_zero()  # the signed terms cancel


def test_rotation_power_is_identity():
    E = dual_numbers()
    for p in range(0, 6):
        t = rotation_matrix(E, p)
        acc = SparseMatrix.identity(t.nrows)
        for _ in range(p + 1):
            acc = t @ acc
        assert acc == SparseMatrix.identity(t.nrows)


def test_chain_identities_rotation_norm():
    E = dual_numbers()
    M = Bimodule.regular(E)
    for p in range(1, 5):
        b = hoch_matrix(E, M, p)
        bp = b_prime_matrix(E, M, p)
        omt_p = SparseMatrix.identity(E.dim ** (p + 1)) - rotation_matrix(E, p)
        omt_q = SparseMatrix.identity(E.dim ** p) - rotation_matrix(E, p - 1)
        assert b @ omt_p == omt_q @ bp
        assert bp @ norm_matrix(E, p) == norm_matrix(E, p - 1) @ b


def test_hh_of_ground_field():
    rep = hh_homology(rationals(), 5)
    assert rep.betti_tuple(0, 3) == (1, 0, 0, 0)


def test_hc_of_ground_field_with_dense_oracle():
    bc = hc_bicomplex(rationals(), 6)
    rep = bc.total.homology(Interval(0, 4))
    assert rep.betti_tuple(0, 4) == (1, 0, 1, 0, 1)
    assert dense_betti(bc.total, 0, 4) == rep.betti


def test_hh0_equals_commutator_quotient():
    for A in UNITAL_PRESETS + [square_zero(2)]:
        rep = hh_homology(A, 3)
        assert rep.betti[0] == A.dim - len(commutator_subspace(A))


def test_hc0_for_all_presets():
    for A in UNITAL_PRESETS + [square_zero(1)]:
        rep = hc_homology(A, 3)
        assert rep.betti[0] == A.dim - len(commutator_subspace(A))


def test_hc_of_dual_numbers_dense_cross_check():
    bc = hc_bicomplex(dual_numbers(), 5)
    rep = bc.total.homology(Interval(0, 3))
    assert [rep.betti[n] for n in range(4)] == [2, 0, 2, 0]
    assert dense_betti(bc.total, 0, 3) == rep.betti


def test_hh_of_dual_numbers_dense_cross_check():
    bc = CyclicBicomplex(dual_numbers(), 2, 5)
    rep = bc.total.homology(Interval(0, 3))
    assert [rep.betti[n] for n in range(4)] == [2, 1, 1, 1]
    assert dense_betti(bc.total, 0, 3) == rep.betti


def test_morita_smoke_low_degree():
    M2 = matrix_algebra(rationals(), 2)
    assert hh_homology(M2, 4).betti_tuple(0, 2) == (1, 0, 0)
    assert hc_homology(M2, 4).betti_tuple(0, 2) == (1, 0, 1)


def test_morita_rank_three():
    # degree 3 for M3(Q) needs half-million-column totals; degree 2 is the
    # routine-suite compromise, rank 2 covers degree 3 in the acceptance run
    M3 = matrix_algebra(rationals(), 3)
    assert hh_homology(M3, 4).betti_tuple(0, 2) == (1, 0, 0)
    assert hc_homology(M3, 4).betti_tuple(0, 2) == (1, 0, 1)


def test_connes_exactness():
    for A in [rationals(), dual_numbers(), zero_algebra()]:
        res = connes_check(A, 5)
        assert res.exact, (A.name, res.degrees)


def test_lambda_dims_ground_field():
    lam = lambda_complex(rationals(), 5)
    assert [lam.complex.dim(p) for p in range(6)] == [1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("A", [zero_algebra(), rationals(), dual_numbers(), truncated_poly(3)],
                         ids=lambda A: f"dim{A.dim}")
def test_lambda_orbit_walk_matches_the_elimination_oracle(A):
    D = max(p for p in range(7) if A.dim ** (p + 1) <= 3 ** 6)
    lam = lambda_complex(A, D)
    for p in range(D + 1):
        one_minus_t = SparseMatrix.identity(A.dim ** (p + 1)) - rotation_matrix(A, p)
        quotient = oracle.QuotientSpace(one_minus_t.nrows, one_minus_t.columns())
        assert lam._walks[p][1] == quotient.complement  # the section: e_j -> e_tops[j]
        assert lam.complex.dim(p) == one_minus_t.nrows - one_minus_t.rank()
        for y in range(one_minus_t.nrows):  # the projection, column by column
            assert oracle.project_element(lam, p, {y: 1}) == quotient.project({y: 1})
        v = {y: Fraction(y - 2, 3) for y in range(0, one_minus_t.nrows, 2) if y != 2}
        assert oracle.project_element(lam, p, v) == exact_vec(quotient.project(v))


def test_lambda_checks_the_orbit_projection(monkeypatch):
    walk = cyclic._orbit_classes

    def one_wrong_sign(image, s):
        classes, tops = walk(image, s)
        if len(image) == 8:  # degree 2 of a 2-dimensional algebra
            y = next(y for y, hit in enumerate(classes) if hit and tops[hit[0]] != y)
            classes[y] = (classes[y][0], -classes[y][1])
        return classes, tops

    monkeypatch.setattr(cyclic, "_orbit_classes", one_wrong_sign)
    with pytest.raises(ValueError, match="projection does not kill im\\(1-t\\) at degree 2"):
        lambda_complex(dual_numbers(), 3)


def test_lambda_checks_that_the_differential_descends(monkeypatch):
    # without the wrap runs b is b', which does not map im(1 - t) into
    # itself: on A (x) A, b'(1 - t)(a (x) a') = aa' + a'a
    monkeypatch.setattr(cyclic, "_wrap_runs", lambda A, M, p: [])
    with pytest.raises(ValueError, match="LambdaComplex: induced differential ill-defined at degree 1"):
        lambda_complex(dual_numbers(), 3)


def test_lambda_checks_the_descent_of_every_face(monkeypatch):
    # b_2 with its inner face's sign flipped sends (1 - t)(1 (x) 1 (x) e) to
    # 4 [1 (x) e] != 0 in coker(1 - t), so it does not descend
    faces = cyclic._b_prime_faces

    def inner_face_flipped(A, M, p):
        out = faces(A, M, p)
        if p == 2:
            out[1] = ((-v, *rest) for v, *rest in out[1])
        return out

    monkeypatch.setattr(cyclic, "_b_prime_faces", inner_face_flipped)
    with pytest.raises(ValueError, match="LambdaComplex: induced differential ill-defined at degree 2"):
        lambda_complex(dual_numbers(), 3)


def test_lambda_rejects_an_entry_of_b_beyond_its_last_column(monkeypatch):
    # b_1 of a 2-dimensional algebra is 2 x 4: a one-entry run at row 0 of
    # column 4 lies one past its last column
    wrap = cyclic._wrap_runs

    def one_beyond(A, M, p):
        return [*wrap(A, M, p), (1, 0, 4, 1, 1, 1, 1)] if p == 1 else wrap(A, M, p)

    monkeypatch.setattr(cyclic, "_wrap_runs", one_beyond)
    with pytest.raises(IndexError, match="LambdaComplex: entry \\(0,4\\) of d_1 outside 2x4"):
        lambda_complex(dual_numbers(), 3)


def _nonunital_algebras():
    ideals = [ExtensionData(extension_preset(spec)).ideal_algebra()
              for spec in ("matrix_dual:2", "upper_triangular:3", "truncated_poly:3")]
    return ideals + [augmentation_ideal(truncated_poly(4)).as_algebra()]


def test_lambda_agrees_with_hc():
    # hc_homology reads the lambda complex itself, so the second model here is
    # the cyclic bicomplex of the oracle
    for A in [dual_numbers(), truncated_poly(3), fat_point(), product_qq(),
              upper_triangular(2), square_zero(1)] + _nonunital_algebras():
        lam = lambda_complex(A, 5).homology(Interval(0, 3))
        hc = oracle.hc_homology(A, 5)
        assert all(lam.betti[n] == hc.betti[n] for n in range(4)), A.name


@pytest.mark.parametrize("D", [3, 4, 5])
def test_hc_matches_the_bicomplex_on_nonunital_algebras(D):
    # Connes' theorem needs no unit: C^lambda computes HC of the ideals too.
    # HH and Connes' sequence are read off the normalized (b, B) model of
    # A+ = Q.1 + A, against the cyclic bicomplex of A itself
    for A in _nonunital_algebras():
        assert not A.is_unital
        for run, ref in ((hc_homology, oracle.hc_homology), (hh_homology, oracle.hh_homology),
                         (connes_check, oracle.connes_check)):
            assert run(A, D).to_jsonable() == ref(A, D).to_jsonable(), (A.name, run.__name__, D)


def test_the_reduced_cut_refuses_a_boundary_on_the_word_1(monkeypatch):
    # non-unital hh drops the word 1 (row 0) from d_1 alone; a d_1 with an entry
    # there would make 1 a boundary, and the cut refuses it instead of dropping it
    normalized_b = cyclic._normalized_b

    def leaky(A, D):
        b, w = normalized_b(A, D)
        b[1] = b[1] + sparse.SparseMatrix(b[1].nrows, b[1].ncols, {(0, 0): 1})
        return b, w

    monkeypatch.setattr(cyclic, "_normalized_b", leaky)
    with pytest.raises(ValueError, match=r"^reduced normalized complex: differential leaks "
                                         r"out of the subcomplex at degree 1$"):
        hh_homology(square_zero(2), 3)


@pytest.mark.parametrize("k, D", [(2, 9), (3, 9), (4, 8)])
def test_hc_of_truncated_polynomials_in_closed_form(k, D):
    # HC_n(Q[t]/t^k) = k for n even and 0 for n odd over Q: HC_n(Q) plus the
    # k - 1 classes of the reduced part, all in even degrees.  The bicomplex
    # at these bounds is beyond the suite's oracle
    betti = hc_homology(truncated_poly(k), D).betti
    assert betti == {n: k if n % 2 == 0 else 0 for n in range(D - 1)}


def test_zero_algebra_everything_vanishes():
    Z = zero_algebra()
    assert all(v == 0 for v in hh_homology(Z, 4).betti.values())
    assert all(v == 0 for v in hc_homology(Z, 4).betti.values())


def test_size_limit_guard():
    with pytest.raises(SizeLimit):
        bar_complex(matrix_algebra(rationals(), 2), D=6, size_limit=1000)


def test_bicomplex_rotation_norm_composites_vanish():
    # (1-t)N = N(1-t) = 0 is asserted on build; exercise the build path
    CyclicBicomplex(fat_point(), 4, 3)


def test_bicomplex_size_guard_runs_before_any_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was built before the size guard ran")

    monkeypatch.setattr(cyclic, "b_prime_matrix", refuse)
    with pytest.raises(SizeLimit, match="bicomplex row"):
        hc_homology(matrix_algebra(rationals(), 2), 6, size_limit=100)


def test_bicomplex_builds_only_the_blocks_it_places(monkeypatch):
    # b' once per row 1..D (b on every row, the Bar columns' -b' on rows
    # 1..D-1), 1-t on rows 0..D-1, N on rows 0..D-2 only with a column q >= 2
    rows = {"b_prime_matrix": [], "rotation_matrix": [], "norm_matrix": []}
    for name, seen in rows.items():
        def spy(*args, build=getattr(cyclic, name), seen=seen):
            seen.append(args[-1])  # the row p
            return build(*args)
        monkeypatch.setattr(cyclic, name, spy)
    E = dual_numbers()
    hh = CyclicBicomplex(E, 2, 4)
    assert rows == {"b_prime_matrix": [1, 2, 3, 4], "rotation_matrix": [0, 1, 2, 3],
                    "norm_matrix": []}
    assert sorted(hh.b_prime) == [1, 2, 3, 4]
    for seen in rows.values():
        seen.clear()
    CyclicBicomplex(E, 5, 4)
    assert rows == {"b_prime_matrix": [1, 2, 3, 4], "rotation_matrix": [0, 1, 2, 3],
                    "norm_matrix": [0, 1, 2]}


def test_bicomplex_checks_every_norm_it_builds(monkeypatch):
    # a wrong N on the last row that carries one (row D-2) must be caught
    def norm(A, p):
        return SparseMatrix.identity(A.dim ** (p + 1)) if p == 2 else norm_matrix(A, p)

    monkeypatch.setattr(cyclic, "norm_matrix", norm)
    with pytest.raises(ValueError, match=r"N\(1-t\) != 0 at row 2"):
        CyclicBicomplex(dual_numbers(), 5, 4)


# ---------------------------------------------------------------------------
# hh, hc and connes read off the build to D - 1 against the full-bound oracle
# ---------------------------------------------------------------------------

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

PRESETS = ["rationals", "zero", "dual_numbers", "truncated_poly:3", "truncated_poly:4",
           "square_zero:2", "fat_point", "product", "matrix:2", "upper_triangular:2",
           "upper_triangular:3", "tensor:dual_numbers,truncated_poly:3"]


def assert_reports_match_full_bound(A, D, reps=(False, True)):
    for name in ("hh_homology", "hc_homology"):
        for r in reps:
            got = getattr(cyclic, name)(A, D, reps=r)
            assert got.to_jsonable() == getattr(oracle, name)(A, D, reps=r).to_jsonable(), \
                (A.name, name, D, r)
    if D >= 3:
        assert connes_check(A, D).to_jsonable() == oracle.connes_check(A, D).to_jsonable(), \
            (A.name, D)


@pytest.mark.parametrize("spec", PRESETS)
def test_reports_match_the_full_bound_build(spec):
    A = algebra_preset(spec)
    for D in range(2, 6):
        if A.dim ** (D + 1) <= 8000:  # the full build's top row
            assert_reports_match_full_bound(A, D)


def test_connes_matches_the_full_bound_build_on_matrices_to_degree_six():
    A = matrix_algebra(rationals(), 2)
    assert connes_check(A, 6).to_jsonable() == oracle.connes_check(A, 6).to_jsonable()


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def rebased_jobs(seed):
    """(slot, cmd, D, A, DSL text of A) of each rebased benchmark job at seed."""
    workloads = _workloads()
    for slot, (cmd, preset, D, bits) in enumerate(workloads.REBASED):
        text = workloads.generate_rebased(preset, bits, seed, slot)[0]
        yield slot, cmd, D, parse_algebra(text), text


def test_reports_match_the_full_bound_build_on_rebased_tables():
    for slot, cmd, D, A, _ in rebased_jobs(3):
        assert_reports_match_full_bound(A, 3)
        # the benchmark job's own report, without --reps
        if cmd == "connes":
            assert connes_check(A, D).to_jsonable() == oracle.connes_check(A, D).to_jsonable()
        elif cmd in ("hh", "hc"):
            name = cmd + "_homology"
            assert getattr(cyclic, name)(A, D).to_jsonable() == \
                getattr(oracle, name)(A, D).to_jsonable(), (slot, D)


# hh and hc --reps build on the table's integral basis (Algebra.integral), the
# CLI's lambda --reps too; hh and connes read the unit-adapted copy
# (Algebra.unit_adapted), and hc and lambda the sparser of the two
# (cyclic.sparser_basis); the oracle and the rational-table builds below do not


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reps_match_the_full_bound_build_at_each_rebased_jobs_degree(seed):
    # column q of degree n holds words of n - q + 1 letters, so the reps read
    # in the basis L e_i scale by L^(q_f - q_k), q_f - q_k up to D - 2
    for slot, cmd, D, A, _ in rebased_jobs(seed):
        for name in ("hh_homology", "hc_homology"):
            want = getattr(oracle, name)(A, D, reps=True).to_jsonable()
            assert getattr(cyclic, name)(A, D, reps=True).to_jsonable() == want, (slot, name)
            del want["representatives"]
            assert getattr(cyclic, name)(A, D).to_jsonable() == want, (slot, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_connes_matches_the_full_bound_build_at_each_rebased_jobs_degree(seed):
    # every rebased table is unital, so connes reads the normalized (b, B) total;
    # hh without reps is checked at the same degrees above
    for slot, cmd, D, A, _ in rebased_jobs(seed):
        assert A.is_unital, slot
        assert connes_check(A, D).to_jsonable() == oracle.connes_check(A, D).to_jsonable(), \
            (slot, D)


def _cli_bytes(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_lambda_reps_match_the_build_on_the_rational_table(seed, tmp_path, monkeypatch,
                                                               capsys):
    # each degree of the lambda complex has one word length, so the scale L^(n+1)
    # cancels when a representative is normalised to 1 at its free column
    for slot, cmd, D, A, text in rebased_jobs(seed):
        path = tmp_path / f"rebased_{slot}.alg"
        path.write_text(text, encoding="utf-8")
        argv = ["lambda", "--file", str(path), "-D", str(D), "--reps", "--format", "json"]
        got = _cli_bytes(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(Algebra, "integral", lambda self: (self, 1))
            assert _cli_bytes(capsys, argv) == got, slot


def test_no_differential_built_on_a_rebased_table_holds_a_fraction(tmp_path, monkeypatch,
                                                                   capsys):
    built = []
    init = ChainComplex.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(ChainComplex, "__init__", spy)
    for slot, cmd, D, A, text in rebased_jobs(1):
        assert A.integral()[1] > 1, slot  # every rebased table has a real denominator
        path = tmp_path / f"rebased_{slot}.alg"
        path.write_text(text, encoding="utf-8")
        # hc reads the lambda complex, and the bicomplex with --reps
        # hh without --reps and connes (which has no reps to write) read the
        # unit-adapted copy (Algebra.unit_adapted)
        for sub, *reps in (("hh", "--reps"), ("hh",), ("hc", "--reps"), ("hc",),
                           ("lambda", "--reps"), ("connes",)):
            built.clear()
            _cli_bytes(capsys, [sub, "--file", str(path), "-D", str(D), *reps])
            assert built, (slot, sub)
            fractional = [n for C in built for n, d in C.diffs.items() if d.fractional]
            assert fractional == [], (slot, sub)


def test_connes_checks_that_the_quotient_is_the_shifted_total(monkeypatch):
    # a quotient cut that differs from the total's d_{n-2} in one entry at the
    # top built degree (n = D - 1 = 4) must be caught
    cut = cyclic.quotient_complex

    def perturbed(diffs, walks, what):
        quot = cut(diffs, walks, what)
        d = quot.diffs[4]
        (key, v), *_ = d.entries.items()
        quot.diffs[4] = SparseMatrix(d.nrows, d.ncols, {**d.entries, key: v + 1})
        return quot

    monkeypatch.setattr(cyclic, "quotient_complex", perturbed)
    with pytest.raises(ValueError, match="not the total shifted by two at degree 4"):
        connes_check(dual_numbers(), 5)


# ---------------------------------------------------------------------------
# unital hh and connes read the normalized complex and its (b, B) total
# ---------------------------------------------------------------------------

FACTORS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


def _rebased(draw, A):
    """(mul, in_f): A's table in the basis f_i = sum_a P[a][i] e_a, P = L U with
    L unit lower and U upper triangular, and the map from e- to f-coordinates."""
    n = A.dim
    lower = SparseMatrix(n, n, {(i, j): 1 if i == j else draw(FACTORS)
                                for i in range(n) for j in range(i + 1)})
    upper = SparseMatrix(n, n, {(i, j): draw(FACTORS.filter(bool) if i == j else FACTORS)
                                for i in range(n) for j in range(i, n)})
    P = lower @ upper
    f = [P.column(i) for i in range(n)]

    def in_f(v):
        return P.solve_many([v])[0]

    return {(i, j): in_f(A.mul_vec(f[i], f[j])) for i in range(n) for j in range(n)}, in_f


@st.composite
def unital_tables(draw):
    """A unital preset rebased (_rebased), drawn so that the unit is not a
    basis vector."""
    A = draw(st.sampled_from(UNITAL_PRESETS[1:]))
    mul, in_f = _rebased(draw, A)
    unit = in_f(A.unit)
    assume(len(unit) > 1)
    return Algebra(A.dim, None, mul, unit=unit, name=f"{A.name} rebased")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(unital_tables(), st.sampled_from([3, 4]))
def test_unital_reports_match_the_bicomplex_when_the_unit_is_no_basis_vector(A, D):
    G = A.unit_adapted()
    assert G.unit == {0: 1}
    assert all(type(c) is int for v in G.mul.values() for c in v.values())
    assert hh_homology(A, D).to_jsonable() == oracle.hh_homology(A, D).to_jsonable()
    assert connes_check(A, D).to_jsonable() == oracle.connes_check(A, D).to_jsonable()


NONUNITAL_PRODUCTS = [A for A in _nonunital_algebras() if A.mul and A.dim <= 3]


@st.composite
def nonunital_tables(draw):
    """A non-unital algebra with a nonzero product rebased (_rebased), drawn so
    that a constant has a denominator: A+.unit_adapted() then scales A's
    letters by L > 1."""
    A = draw(st.sampled_from(NONUNITAL_PRODUCTS))
    mul, _ = _rebased(draw, A)
    B = Algebra(A.dim, None, mul, name=f"{A.name} rebased")
    assume(B.integral()[1] > 1)
    return B


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(nonunital_tables(), st.sampled_from([3, 4]))
def test_nonunital_reports_match_the_bicomplex_on_tables_with_denominators(A, D):
    G = unitalization(A)[0].unit_adapted()
    assert G.unit == {0: 1} and G.labels[1].startswith(f"{A.integral()[1]}*")
    assert all(type(c) is int for v in G.mul.values() for c in v.values())
    assert hh_homology(A, D).to_jsonable() == oracle.hh_homology(A, D).to_jsonable()
    assert connes_check(A, D).to_jsonable() == oracle.connes_check(A, D).to_jsonable()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hh_of_truncated_polynomials_in_closed_form(k):
    # HH_n(Q[t]/t^k) = k - 1 for n >= 1 and k for n = 0 over Q.  The two-column
    # bicomplex at D = 9 is beyond the suite's oracle
    assert hh_homology(truncated_poly(k), 9).betti == {n: k - 1 if n else k for n in range(8)}


@pytest.mark.parametrize("A, D", [(A, 6 if A.dim < 4 else 5) for A in UNITAL_PRESETS]
                         + [(truncated_poly(4), 7)], ids=lambda x: getattr(x, "name", x))
def test_the_bB_total_and_the_lambda_complex_agree_on_hc(A, D):
    # two models of HC: Connes' (b, B) bicomplex on the normalized complex, and
    # the coinvariants of the rotation that hc_homology reads
    total, w = cyclic._connes_total(A, D)
    assert total.homology(Interval(0, D - 2)).betti == hc_homology(A, D).betti
    assert w == {p: A.dim * (A.dim - 1) ** p for p in range(D)}


def test_the_bB_total_is_checked_for_d_squared(monkeypatch):
    # B with one sign flipped no longer anticommutes with b
    build = cyclic._connes_B

    def flipped(e, p):
        B = build(e, p)
        if p == 1:
            (key, v), *_ = B.entries.items()
            B = SparseMatrix(B.nrows, B.ncols, {**B.entries, key: -v})
        return B

    monkeypatch.setattr(cyclic, "_connes_B", flipped)
    with pytest.raises(ValueError, match="!= 0"):
        connes_check(truncated_poly(3), 5)


def test_unital_size_guard_runs_before_the_adapted_copy(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the adapted copy was built before the size guard ran")

    monkeypatch.setattr(Algebra, "unit_adapted", refuse)
    monkeypatch.setattr(cyclic, "unitalization", refuse)
    # a non-unital input is guarded on its own row, 3^7 = 2 187, not on A+'s
    for A in (matrix_algebra(rationals(), 2), square_zero(3)):
        for check in (hh_homology, hc_homology, connes_check):
            with pytest.raises(SizeLimit, match="bicomplex row"):
                check(A, 6, size_limit=100)
    for preset in ("matrix:2", "square_zero:3"):
        assert main(["lambda", "--preset", preset, "-D", "6", "--size-limit", "100"]) == 2
        assert "lambda complex top degree" in capsys.readouterr().err, preset


# ---------------------------------------------------------------------------
# hc and lambda build on the sparser of a unital table's two int bases
# ---------------------------------------------------------------------------


def _spy_adapted(monkeypatch, built):
    """Record in built what each Algebra.unit_adapted call returns."""
    adapted = Algebra.unit_adapted

    def spy(self, *args, **kwargs):
        built.append(adapted(self, *args, **kwargs))
        return built[-1]
    monkeypatch.setattr(Algebra, "unit_adapted", spy)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_rebased_table_builds_hc_and_lambda_on_the_adapted_copy(seed, tmp_path, monkeypatch,
                                                                     capsys):
    # a rebased table has all d^3 constants nonzero, the adapted copy about half
    for slot, cmd, D, A, text in rebased_jobs(seed):
        path = tmp_path / f"rebased_{slot}.alg"
        path.write_text(text, encoding="utf-8")
        for sub in ("hc", "lambda"):
            argv = [sub, "--file", str(path), "-D", str(D), "--format", "json"]
            built, on = [], []
            init = LambdaComplex.__init__

            def spy_init(self, G, *args):
                on.append(G)
                init(self, G, *args)
            with monkeypatch.context() as m:
                _spy_adapted(m, built)
                m.setattr(LambdaComplex, "__init__", spy_init)
                got = _cli_bytes(capsys, argv)
            (G,) = built
            assert G is not None and on == [G], (slot, sub)
            assert sum(map(len, G.mul.values())) < sum(map(len, A.mul.values())), slot
            with monkeypatch.context() as m:  # forced onto A.integral()
                m.setattr(Algebra, "unit_adapted", lambda self, *args, **kwargs: None)
                assert _cli_bytes(capsys, argv) == got, (slot, sub)


@pytest.mark.parametrize("spec", ["matrix:2", "matrix:3", "upper_triangular:2", "upper_triangular:3"])
def test_the_support_bound_keeps_the_integral_basis_of_sparse_presets(spec, monkeypatch):
    # (2d - 1) + #{nonzero e_a e_b, a, b != j} already reaches the table's own
    # count, so no adapted table is computed and no Algebra is built
    A = algebra_preset(spec)
    j = min(A.unit)
    assert len(A.unit) > 1
    assert 2 * A.dim - 1 + sum(j not in ab for ab in A.mul) >= sum(map(len, A.mul.values()))
    built, algebras = [], []
    _spy_adapted(monkeypatch, built)
    init = Algebra.__init__

    def spy_init(self, *args, **kwargs):
        algebras.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Algebra, "__init__", spy_init)
    assert sparser_basis(A) is A
    hc_homology(A, 3)
    assert built == [None, None] and algebras == []


def test_a_one_coordinate_unit_keeps_the_integral_basis(monkeypatch, capsys):
    # the adapted table of a unit c e_j is A's with e_j rescaled: a tie, never computed
    def refuse(*args, **kwargs):
        raise AssertionError("unit_adapted was called on a one-coordinate unit")

    monkeypatch.setattr(Algebra, "unit_adapted", refuse)
    half = Algebra(2, None, {(0, 0): {0: Fraction(1, 2)}, (0, 1): {1: Fraction(1, 2)},
                             (1, 0): {1: Fraction(1, 2)}}, unit={0: 2})  # e_1 = 1/2
    for A in UNITAL_PRESETS[:4] + [half]:
        assert len(A.unit) == 1, A
        G = sparser_basis(A)
        assert G is A.integral()[0] or G.mul == A.integral()[0].mul, A
        assert hc_homology(A, 4).betti == oracle.hc_homology(A, 4).betti, A
    assert main(["lambda", "--preset", "truncated_poly:3", "-D", "4"]) == 0
    assert main(["hc", "--preset", "fat_point", "-D", "4"]) == 0
    capsys.readouterr()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(unital_tables())
def test_the_support_bound_is_at_most_the_adapted_count(A):
    # one constant for each g_0 g_k and g_k g_0, and at least one for each
    # nonzero e_a e_b with a, b != j, since the change of basis is injective
    j = min(A.unit)
    bound = 2 * A.dim - 1 + sum(j not in ab for ab in A.mul)
    G = A.unit_adapted()
    count = sum(map(len, G.mul.values()))
    assert bound <= count
    assert A.unit_adapted(fewer_than=count) is None
    assert A.unit_adapted(fewer_than=count + 1).mul == G.mul


def test_hc_ranks_each_differential_on_the_rows_the_degree_below_left_free(monkeypatch):
    # d_n is eliminated without the rows at d_{n-1}'s pivot columns: at most
    # dim ker d_{n-1} = rank d_n + betti_{n-1} rows, where the whole of d_n has
    # dim C_{n-1} of them
    workloads = _workloads()
    slot = next(i for i, job in enumerate(workloads.REBASED) if job[:2] == ("hc", "matrix:2"))
    _, preset, D, bits = workloads.REBASED[slot]
    A = parse_algebra(workloads.generate_rebased(preset, bits, 1, slot)[0])
    rows, degree, complexes = {}, [], []
    rank_d, echelonize = ChainComplex.rank_d, sparse._echelonize

    def spy_rank_d(self, n):
        complexes.append(self)
        degree.append(n)
        try:
            return rank_d(self, n)
        finally:
            degree.pop()

    def spy_echelonize(comp_rows, forbidden):
        rows[degree[-1]] = rows.get(degree[-1], 0) + len(comp_rows)
        return echelonize(comp_rows, forbidden)

    monkeypatch.setattr(ChainComplex, "rank_d", spy_rank_d)
    monkeypatch.setattr(sparse, "_echelonize", spy_echelonize)
    betti = hc_homology(A, D).betti
    monkeypatch.undo()
    (C,) = set(complexes)
    assert sorted(rows) == list(range(1, D))
    for n, count in rows.items():
        assert count <= C.rank_d(n) + betti[n - 1], n
        assert n == 1 or count < C.dim(n - 1), n  # d_0 = 0 has no pivots
