from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracle
from oracle import hc_bicomplex, hh_bicomplex
from chainlab import excision
from chainlab.algebras import Algebra, AlgebraMorphism, Bimodule, product_algebra
from chainlab.complexes import ChainMap, Interval, is_quasi_iso, subcomplex
from chainlab.cyclic import _connes_total, b_prime_matrix, bar_complex, hoch_complex
from chainlab.errors import SizeLimit
from chainlab.excision import (
    ExtensionData,
    comparison_map,
    filtration_F,
    filtration_Q,
    graded_piece_check,
    h_unitality_check,
    h_unitary_check,
    q_kernel_complex,
    relative_homology,
    wodzicki_verify,
)
from chainlab.presets import (
    _EXTENSION_BUILDERS,
    dual_numbers,
    extension_preset,
    rationals,
    square_zero,
    truncated_poly,
)
from chainlab.sparse import SparseMatrix
from chainlab.tangent import ArtinianBase, LogTraceProbe, tangent_table

ONE = Fraction(1)


def ext_of(name):
    return ExtensionData(extension_preset(name))


def test_h_unitality_unital_presets_pass():
    for A in [rationals(), dual_numbers(), truncated_poly(3)]:
        verdict = h_unitality_check(A, 6)
        assert verdict.passed, A.name


def test_h_unitality_zero_mult_fails_at_zero():
    verdict = h_unitality_check(square_zero(1), 4)
    assert not verdict.passed and verdict.first_failing == 0


def test_h_unitality_truncated_ideal_fails():
    ext = ext_of("truncated_poly:3")
    verdict = h_unitality_check(ext.ideal_algebra(), 4)
    assert not verdict.passed
    assert verdict.first_failing is not None


def test_h_unitary_module_with_zero_right_action_fails():
    A = dual_numbers()
    M = Bimodule.trivial(A, 2)
    verdict = h_unitary_check(A, M, 3)
    assert not verdict.passed and verdict.first_failing == 0


def test_h_unitary_free_right_module_passes():
    # N (x) A with a unital algebra acting on the right factor
    A = dual_numbers()
    k = 2
    right = {}
    for n in range(k):
        for m in range(A.dim):
            for a in range(A.dim):
                prod = A.mul_basis(m, a)
                if prod:
                    right[(n * A.dim + m, a)] = {n * A.dim + c: v for c, v in prod.items()}
    M = Bimodule(A, k * A.dim, {}, right)
    verdict = h_unitary_check(A, M, 5)
    assert verdict.passed


def test_h_unitary_b_module_over_split_extension():
    ext = ext_of("split_product")
    MB = Bimodule.over_morphism(ext.f_ad)
    verdict = h_unitary_check(ext.A_ad, MB, 4)
    assert verdict.passed


def test_filtration_stage_zero_equals_ideal_bar():
    ext = ext_of("dual_numbers")
    st = filtration_F(ext, None, 0, 4, "bar")
    bc = bar_complex(ext.ideal_algebra(), ext.restrict_module_to_ideal(ext.adapt_module(None)), 4)
    for p in range(1, 5):
        assert st.complex.diffs[p] == bc.diffs[p]


def test_filtration_builders_guard_the_top_degree():
    # (A, M) words in degree 4: 3 * 3^4 = 243 for F (M = A), 1 * 3^4 = 81 for Q (M = B)
    ext = ext_of("truncated_poly:3")
    for build, dim in [(lambda limit: filtration_F(ext, None, 1, 4, "bar", limit), 243),
                       (lambda limit: graded_piece_check(ext, None, 1, 4, limit), 243),
                       (lambda limit: filtration_Q(ext, 1, 4, "hoch", limit), 81)]:
        with pytest.raises(SizeLimit, match=f"has dimension {dim} > size limit {dim - 1}$"):
            build(dim - 1)
        build(dim)


def test_filtration_exhausts_at_high_level():
    ext = ext_of("truncated_poly:3")
    st = filtration_F(ext, None, 7, 4, "hoch")
    full = hoch_complex(ext.A_ad, ext.adapt_module(None), 4)
    for p in range(1, 5):
        assert st.complex.diffs[p] == full.diffs[p]


def test_filtration_dims_formula():
    ext = ext_of("dual_numbers")
    st = filtration_F(ext, None, 1, 4, "bar")
    # M (x) A^p for p <= 1, then M (x) A (x) I^{p-1}
    assert tuple(st.complex.dims.values()) == (2, 4, 4, 4, 4)


def test_stage_inclusions_are_chain_maps():
    ext = ext_of("truncated_poly:3")
    stages = [filtration_F(ext, None, n, 4, "bar") for n in range(3)]
    for inner, outer in zip(stages, stages[1:]):
        oracle.stage_inclusion(inner, outer)  # validates commuting on build


@pytest.mark.parametrize("name", ["dual_numbers", "truncated_poly:3",
                                  "upper_triangular:2", "split_product"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_graded_pieces_pass(name, level):
    rep = graded_piece_check(ext_of(name), None, level, 5)
    assert rep.passed, rep.kind_results


@pytest.mark.parametrize("level,failing", [(0, 3), (1, 4)])
def test_graded_piece_check_fails_on_a_wrong_model(monkeypatch, level, failing):
    # one entry of the ideal's b'_2 negated: the model is wrong from its Bar
    # degree 2 on, which sits at degree level + 3
    ext = ext_of("truncated_poly:3")

    def wrong(A, M, p):
        bp = b_prime_matrix(A, M, p)
        if p == 2 and A.dim == ext.ideal_dim:  # the ideal's b', not the ambient's
            key = min(bp.entries)
            bp = bp - SparseMatrix(bp.nrows, bp.ncols, {key: 2 * bp.entries[key]})
        return bp

    monkeypatch.setattr(excision, "b_prime_matrix", wrong)
    rep = graded_piece_check(ext, None, level, 5)
    assert not rep.passed
    assert rep.kind_results == {"bar": (False, failing), "hoch": (False, failing)}


@pytest.mark.parametrize("name,level", [("truncated_poly:3", 1), ("split_product", 0),
                                        ("upper_triangular:2", 2), ("truncated_poly:3", 7)])
def test_graded_piece_stage_dims_are_the_filtration_dims(name, level):
    # the check builds F^{n+1} alone and reports F^n's dimensions by formula
    ext = ext_of(name)
    rep = graded_piece_check(ext, None, level, 5)
    for kind in ("bar", "hoch"):
        assert rep.stage_dims == filtration_F(ext, None, level, 5, kind).complex.dims, kind


def test_graded_piece_check_rejects_a_negative_level_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("b' built for a negative level")

    monkeypatch.setattr(excision, "b_prime_matrix", refuse)
    with pytest.raises(ValueError, match="need n >= 0"):
        graded_piece_check(ext_of("truncated_poly:3"), None, -30, 4)


def test_graded_piece_identity_extension_vacuous():
    assert graded_piece_check(ext_of("identity:dual_numbers"), None, 0, 4).passed


def test_zero_ideal_gives_empty_word_families():
    ext = ext_of("identity:dual_numbers")
    stage = filtration_F(ext, None, 0, 4)
    assert [stage.complex.dim(p) for p in range(5)] == [2, 0, 0, 0, 0]
    inc = oracle.hoch_inclusion(ext, None, 3)
    assert [inc.component(p).ncols for p in range(4)] == [2, 0, 0, 0]


def test_q_stage_zero_is_bar_of_a_with_b_coefficients():
    ext = ext_of("dual_numbers")
    st = filtration_Q(ext, 0, 4, "bar")
    MB = Bimodule.over_morphism(ext.f_ad)
    bc = bar_complex(ext.A_ad, MB, 4)
    for p in range(1, 5):
        assert st.complex.diffs[p] == bc.diffs[p]


def test_q_stage_checks_that_the_differential_descends(monkeypatch):
    ext = ext_of("dual_numbers")

    def leaky(A, M, p):  # (b; x_1) with x_1 in I is 0 in Q^1; let it hit the kept word (b)
        bp = b_prime_matrix(A, M, p)
        return bp + SparseMatrix(bp.nrows, bp.ncols, {(0, 0): 1}) if p == 1 else bp

    monkeypatch.setattr(excision, "b_prime_matrix", leaky)
    with pytest.raises(ValueError, match=r"Q\^1: induced differential ill-defined at degree 1"):
        filtration_Q(ext, 1, 3, "bar")


def test_q_stage_exhausts_to_quotient_complex():
    ext = ext_of("dual_numbers")
    st = filtration_Q(ext, 9, 4, "bar")
    bq = bar_complex(ext.B, None, 4)
    for p in range(1, 5):
        assert st.complex.diffs[p] == bq.diffs[p]
    sth = filtration_Q(ext, 9, 4, "hoch")
    hq = hoch_complex(ext.B, None, 4)
    for p in range(1, 5):
        assert sth.complex.diffs[p] == hq.diffs[p]


def test_q_kernel_dims_match_lemma():
    ext = ext_of("dual_numbers")
    dB, dI, dA = ext.B.dim, ext.ideal_dim, ext.A_ad.dim
    for n in range(0, 3):
        kern = q_kernel_complex(ext, filtration_Q(ext, n, 5, "bar"))
        for p in range(0, 6):
            expect = dB ** (n + 1) * dI * dA ** (p - n - 1) if p > n else 0
            assert kern.dim(p) == expect, (n, p)


def test_relative_identities():
    relid = relative_homology(ext_of("identity:dual_numbers"), 4, "hc")
    assert all(v == 0 for v in relid.betti.values())
    rel = relative_homology(ext_of("dual_numbers"), 4, "hc")
    assert rel.betti[0] == 1
    relm = relative_homology(ext_of("matrix_dual:2"), 3, "hc")
    assert relm.betti[0] == 1


def test_wodzicki_split_extension_passes():
    rep = wodzicki_verify(ext_of("split_product"), 5)
    assert rep.passed
    assert rep.ideal_h_unitality.passed
    assert rep.hh.ok and rep.hc.ok and rep.hoch_level.ok and rep.bar_level.ok


def test_wodzicki_square_zero_fails_with_degree():
    rep = wodzicki_verify(ext_of("square_zero"), 5)
    assert not rep.passed
    assert rep.first_failing is not None
    assert not rep.ideal_h_unitality.passed
    # the totalized comparisons hold for a unitalization; the failure is in
    # the single-column comparisons the proof factors through
    assert rep.hh.ok and rep.hc.ok
    assert not rep.hoch_level.ok and not rep.bar_level.ok


def test_wodzicki_triangular_extension_fails_everywhere():
    rep = wodzicki_verify(ext_of("upper_triangular:2"), 5)
    assert not rep.passed
    assert not rep.hh.ok and not rep.hc.ok


def test_wodzicki_trivial_extensions_pass():
    for name in ["identity:dual_numbers", "collapse:dual_numbers"]:
        rep = wodzicki_verify(ext_of(name), 4)
        assert rep.passed, name


def test_corollary_h_unitary_coefficients():
    # I H-unital, M = B (x) I: Bar(A, M) acyclic and the (I, M) complex maps
    # quasi-isomorphically to the (A, M) one
    ext = ext_of("split_product")
    M = oracle.module_b_tensor_ideal(ext)
    M_res = ext.restrict_module_to_ideal(M)
    assert h_unitary_check(ext.ideal_algebra(), M_res, 4).passed
    assert h_unitary_check(ext.A_ad, M, 4).passed
    eta = oracle.hoch_inclusion(ext, M, 4)
    assert is_quasi_iso(eta, Interval(0, 2)).ok
    # Hochschild complex of (A, B (x) I) is acyclic as well
    rep = hoch_complex(ext.A_ad, M, 4).homology(Interval(0, 3))
    assert all(v == 0 for v in rep.betti.values())


def test_corollary_quotient_coefficients():
    # I H-unital: (A, B) complexes compare quasi-isomorphically to (B, B)
    ext = ext_of("split_product")
    MB = Bimodule.over_morphism(ext.f_ad)
    for make in (bar_complex, hoch_complex):
        src = make(ext.A_ad, MB, 4)
        tgt = make(ext.B, None, 4)
        comps = {}
        f_pow = SparseMatrix.identity(ext.B.dim)
        for p in range(0, 5):
            comps[p] = f_pow
            f_pow = f_pow.tensor(ext.f_ad.matrix)
        cm = ChainMap(src, tgt, comps)
        assert is_quasi_iso(cm, Interval(0, 2)).ok


def test_cone_betti_bounded_by_long_exact_sequence():
    # betti_n(cone) <= betti_n(target) + betti_{n-1}(source) on real maps
    from chainlab.complexes import cone
    from chainlab.excision import comparison_map

    for name in ["split_product", "square_zero", "upper_triangular:2"]:
        ext = ext_of(name)
        eta = comparison_map(ext, 4)
        cn = cone(eta)
        src = eta.source.homology(Interval(0, 2)).betti
        tgt = eta.target.homology(Interval(0, 2)).betti
        cb = cn.homology(Interval(1, 2)).betti
        for n in (1, 2):
            assert cb[n] <= tgt[n] + src[n - 1], (name, n)


def test_square_zero_quotient_coefficients_fail():
    # contrast: for the non-H-unital square-zero ideal the Hochschild-flavor
    # comparison (A, B) -> (B, B) fails (the Bar flavor is acyclic on both
    # sides whenever A is unital and so cannot see the defect)
    ext = ext_of("square_zero")
    MB = Bimodule.over_morphism(ext.f_ad)
    src = hoch_complex(ext.A_ad, MB, 4)
    tgt = hoch_complex(ext.B, None, 4)
    comps = {}
    f_pow = SparseMatrix.identity(ext.B.dim)
    for p in range(0, 5):
        comps[p] = f_pow
        f_pow = f_pow.tensor(ext.f_ad.matrix)
    cm = ChainMap(src, tgt, comps)
    verdict = is_quasi_iso(cm, Interval(0, 2))
    assert not verdict.ok and verdict.failing_degree == 2


@pytest.mark.parametrize("name", ["split_product", "square_zero", "upper_triangular:2",
                                  "identity:dual_numbers", "collapse:dual_numbers",
                                  "dual_numbers", "truncated_poly:3", "matrix_dual:2"])
def test_wodzicki_reads_the_reference_relative_homology(name):
    # the verifier reads relative HH/HC off its comparison maps' fibers and
    # the ideal's certificate off the Bar comparison's source; the reference
    # path builds each of them again on its own, HH on the HH bicomplexes
    ext = ext_of(name)
    D = 4
    rep = wodzicki_verify(ext, D)
    for flavor, got in (("hh", rep.relative_hh), ("hc", rep.relative_hc)):
        ref = oracle.relative_homology(ext, D, flavor)
        assert (got.betti, got.certified) == (ref.betti, ref.certified), flavor
    assert rep.ideal_h_unitality == h_unitality_check(ext.ideal_algebra(), D)


# every extension preset with its default parameters, and a few others
EXTENSION_SPECS = sorted(_EXTENSION_BUILDERS) + [
    "aug:product", "truncated_poly:4", "upper_triangular:3", "identity:dual_numbers",
    "collapse:dual_numbers", "identity:square_zero:2", "collapse:square_zero:2"]


def _wodzicki_payload(verify, ext, D, size_limit=5000):
    """The report's JSON payload, or the message of the size limit it hit."""
    try:
        rep = verify(ext, D, size_limit)
    except SizeLimit as exc:
        return str(exc)
    return {**rep.to_jsonable(), "relative_hh": rep.relative_hh.to_jsonable(),
            "relative_hc": rep.relative_hc.to_jsonable()}


@pytest.mark.parametrize("spec", EXTENSION_SPECS)
def test_wodzicki_matches_the_verifier_that_builds_every_comparison(spec):
    # the HH and Hochschild-column verdicts are read off cuts of the HC
    # comparison; the oracle builds all four comparisons on their own
    ext = ext_of(spec)
    payloads = [(_wodzicki_payload(wodzicki_verify, ext, D),
                 _wodzicki_payload(oracle.wodzicki_verify, ext, D)) for D in range(2, 6)]
    assert isinstance(payloads[0][0], dict)  # D = 2 fits every spec
    for D, (got, ref) in enumerate(payloads, start=2):
        assert got == ref, D


@pytest.mark.parametrize("spec", EXTENSION_SPECS)
def test_wodzicki_matches_the_bicomplex_cut(spec):
    # a unital A with 1 not in I reads HH and HC off the normalized (b, B)
    # total, the Hochschild and Bar complexes off b' on A^(p+1); the
    # reference cuts all four from A's HC bicomplex, as non-unital A and an
    # ideal holding 1 still do
    ext = ext_of(spec)
    for D in range(2, 7):
        assert _wodzicki_payload(wodzicki_verify, ext, D) == \
            _wodzicki_payload(oracle.kernel_cut_wodzicki, ext, D), D


@pytest.mark.parametrize("spec, D", [("upper_triangular:3", 5), ("matrix_dual:2", 4),
                                     ("truncated_poly:4", 6)])
def test_wodzicki_matches_the_bicomplex_cut_past_the_small_limit(spec, D):
    ext = ext_of(spec)
    assert _wodzicki_payload(wodzicki_verify, ext, D, None) == \
        _wodzicki_payload(oracle.kernel_cut_wodzicki, ext, D, None)


@pytest.mark.parametrize("spec, normalized", [
    ("truncated_poly:3", True), ("split_product", True), ("identity:dual_numbers", True),
    ("collapse:dual_numbers", False), ("identity:square_zero:2", False)])
def test_the_model_follows_the_unit(spec, normalized):
    # the (b, B) model needs a unit with a complement coordinate: 1 not in I
    assert (excision._unit_basis(ext_of(spec)) is not None) == normalized


def test_the_unit_basis_is_built_once_per_call_and_only_where_read(monkeypatch):
    calls = []
    adapted = Algebra.unit_adapted

    def counted(self, *args):
        calls.append(self)
        return adapted(self, *args)

    monkeypatch.setattr(Algebra, "unit_adapted", counted)
    ext = ext_of("upper_triangular:2")
    LogTraceProbe(ext, 1)
    graded_piece_check(ext, None, 1, 4)
    assert calls == []
    for run in (wodzicki_verify, relative_homology):
        run(ext, 4)
        assert calls == [ext.A_ad]
        calls.clear()
    tangent_table(rationals(), [ArtinianBase.from_algebra(dual_numbers())] * 2, 3)
    assert len(calls) == 2


def test_the_guard_runs_before_the_unit_basis(monkeypatch):
    # upper_triangular:3 at D = 4: the row 6^5 = 7 776 of total degree 4, on
    # either model, before the adapted algebra is built; with 1 in I, before
    # the unitalization is built, and on A's row, not on A+'s 7^5
    def refuse(*args):
        raise AssertionError("the adapted algebra was built before the size guard ran")

    monkeypatch.setattr(Algebra, "unit_adapted", refuse)
    monkeypatch.setattr(excision, "unitalization", refuse)
    runs = (wodzicki_verify, lambda ext, D, limit: relative_homology(ext, D, "hc", limit),
            lambda ext, D, limit: relative_homology(ext, D, "hh", limit))
    for spec in ("upper_triangular:3", "collapse:upper_triangular:3"):
        ext = ext_of(spec)
        for run in runs:
            with pytest.raises(SizeLimit,
                               match="^bicomplex row has dimension 7776 > size limit 7775$"):
                run(ext, 4, 7775)


def _unit_in_the_ideal_factor():
    """Q x Q[e] -> Q[e] onto the second factor: the unit has an ideal
    coordinate, and the two factors are not interchangeable."""
    A = product_algebra(rationals(), dual_numbers())
    f = SparseMatrix(2, 3, {(0, 1): ONE, (1, 2): ONE})
    return ExtensionData(AlgebraMorphism(A, dual_numbers(), f))


def test_the_unit_basis_keeps_the_ideal_letters_at_g1_to_gdI():
    # split_product's unit {0: 1, 1: 1} has an ideal coordinate: unit_adapted()
    # drops its first coordinate, the ideal letter i1, and puts c:1 at g_1
    ext = ext_of("split_product")
    assert ext.A_ad.unit == {0: 1, 1: 1} and ext.A_ad.labels == ["i1", "c:1"]
    assert excision._unit_basis(ext).labels == ["1", "i1"]
    assert ext.A_ad.unit_adapted().labels == ["1", "c:1"]
    ext = _unit_in_the_ideal_factor()
    assert ext.A_ad.unit == {0: 1, 1: 1} and ext.ideal_dim == 1
    assert excision._unit_basis(ext).labels == ["1", "i1", "c:e"]


def test_a_unit_in_the_ideal_factor_matches_both_references():
    # on Q x Q[e] -> Q[e], a cut that took the complement letter c:1 for the
    # ideal one is no subcomplex
    ext = _unit_in_the_ideal_factor()
    for D in range(2, 6):
        got = _wodzicki_payload(wodzicki_verify, ext, D)
        assert got == _wodzicki_payload(oracle.kernel_cut_wodzicki, ext, D), D
        assert got == _wodzicki_payload(oracle.wodzicki_verify, ext, D), D


def test_a_non_unital_extension_with_a_proper_ideal_matches_both_references():
    # the fallback presets have I = A or I = 0, where both sides are acyclic;
    # V2 -> V1 with zero products keeps a proper ideal, and its Hochschild
    # comparison, the words of A+'s hh cut not led by 1, fails at degree 1
    ext = ExtensionData(AlgebraMorphism(square_zero(2), square_zero(1),
                                        SparseMatrix(1, 2, {(0, 0): ONE})))
    assert ext.ideal_dim == 1 and excision._unit_basis(ext) is None
    for D in range(2, 7):
        got = _wodzicki_payload(wodzicki_verify, ext, D)
        assert got == _wodzicki_payload(oracle.kernel_cut_wodzicki, ext, D), D
        assert got == _wodzicki_payload(oracle.wodzicki_verify, ext, D), D
        assert got["hoch_level"]["quasi_iso"] == (D == 2), D
    assert got["hoch_level"]["failing_degree"] == 1 and got["hoch_level"]["defect"] == 2


def test_the_ideal_complex_needs_the_unit_in_slot_0():
    # B sends a word of ideal letters in column C_0 of degree 2 to one led by
    # 1 in C_1: without the words led by 1 the ideal's words are no
    # subcomplex of K, and the quotient K / C(I) refuses to descend
    ext = ext_of("upper_triangular:2")
    total, _ = _connes_total(excision._unit_basis(ext), 5, adapted=True)
    slot = excision._letters(ext)[:-1]
    cuts = {head: excision._word_cut(total.diffs, {
        n: [(head + slot,) + (slot,) * p for p in range(n, -1, -2)] for n in total.dims}, "K")
        for head in "uc"}
    assert excision._mod_ideal(*cuts["u"]).dims == {0: 0, 1: 2, 2: 8, 3: 22, 4: 52}
    with pytest.raises(ValueError, match=r"^K / C\(I\): induced differential ill-defined "
                                         r"at degree 2$"):
        excision._mod_ideal(*cuts["c"])


def _relative_hh(relative, ext, D):
    """Relative HH's betti numbers and range, or the message of the size limit it hit."""
    try:
        rep = relative(ext, D, "hh", 5000)
    except SizeLimit as exc:
        return str(exc)
    return rep.betti, rep.certified


@pytest.mark.parametrize("spec", EXTENSION_SPECS)
def test_relative_hh_is_the_two_column_cut_of_the_hc_fiber(spec):
    # relative_homology reads HH off the columns q < 2 of the HC fiber; the
    # oracle builds the two-column HH bicomplexes of A and B on their own
    ext = ext_of(spec)
    for D in range(2, 6):
        assert _relative_hh(relative_homology, ext, D) == _relative_hh(
            oracle.relative_homology, ext, D), D


@pytest.mark.parametrize("name", ["split_product", "square_zero", "upper_triangular:2",
                                  "identity:dual_numbers", "collapse:dual_numbers",
                                  "truncated_poly:3"])
def test_column_cuts_are_the_direct_comparisons(name):
    # the columns q < 2 of A's HC bicomplex are its HH bicomplex, q < 1 the
    # Hochschild column: their K, K / C(I) and positions of C(I) are those of
    # the same cuts of hh_bicomplex's total
    ext = ext_of(name)
    D = 4
    bc, ref = oracle._hc_of_A(ext, D), hh_bicomplex(ext.A_ad, D - 1)
    for k in (2, 1):
        (K, inner), (ref_K, ref_inner) = (oracle._kernel_cut(ext, b, k) for b in (bc, ref))
        Q, ref_Q = excision._mod_ideal(K, inner), excision._mod_ideal(ref_K, ref_inner)
        for got, want in ((K, ref_K), (Q, ref_Q)):
            assert (got.dims, got.diffs, got.certified) == \
                (want.dims, want.diffs, want.certified), k
        assert inner == ref_inner, k


def test_a_cut_that_is_not_closed_is_refused():
    # the column q = 1 without q = 0: 1 - t carries it into q = 0 from degree 2 on
    bc = hc_bicomplex(truncated_poly(3), 3)
    keep = {n: range(off, off + w) for n, comps in bc.layout.items() for q, _, off, w in comps
            if q == 1}
    with pytest.raises(ValueError, match="column q = 1: differential leaks out of the "
                                         "subcomplex at degree 2"):
        subcomplex(bc.total.diffs, keep, "column q = 1")


def test_a_cut_whose_letters_are_not_an_ideal_is_refused():
    # the letter 1 of Q[t]/t^3 spans no ideal: the Bar column's -b' sends the
    # word (1, t) of total degree 2 to -(t), which holds no letter 1
    A = truncated_poly(3)
    with pytest.raises(ValueError, match="^columns q < 4: differential leaks out of the "
                                         "subcomplex at degree 2$"):
        oracle._kernel_cut(SimpleNamespace(A_ad=A, ideal_dim=1), hc_bicomplex(A, 3))
