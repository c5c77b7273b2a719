"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected number is either produced by an independent in-repo oracle
(dense elimination in oracle.py, or a second computation path) or is an exact
structural identity checked matrix-by-matrix.  Run with `pytest -s` to see
the checklist.
"""

import io
import json
import time
from contextlib import redirect_stdout

from chainlab.algebras import matrix_algebra
from chainlab.cli import main as cli_main
from chainlab.complexes import Interval
from chainlab.cyclic import (
    bar_complex,
    connes_check,
    hc_homology,
    hh_homology,
    hoch_complex,
    lambda_complex,
)
from chainlab.excision import (
    ExtensionData,
    comparison_map,
    filtration_F,
    filtration_Q,
    graded_piece_check,
    wodzicki_verify,
)
from chainlab.lie import h2_vs_hc1, lie_from_assoc, lqt_verify, trace_chain_check
from chainlab.presets import (
    dual_numbers,
    extension_preset,
    fat_point,
    product_qq,
    rationals,
    square_zero,
    truncated_poly,
    upper_triangular,
)
from chainlab.tangent import LogTraceProbe, chern1, k1_rel_probe
from chainlab.complexes import cone

import oracle
from oracle import dense_betti, hc_bicomplex, hh_bicomplex

ALGEBRA_PRESETS = [
    rationals(),
    dual_numbers(),
    truncated_poly(3),
    square_zero(1),
    matrix_algebra(rationals(), 2),
    product_qq(),
    upper_triangular(2),
    fat_point(),
]
UNITAL_PRESETS = [A for A in ALGEBRA_PRESETS if A.is_unital]
EXTENSION_PRESETS = ["dual_numbers", "truncated_poly:3", "upper_triangular:2", "split_product"]


def _ok(msg):
    print(f"PASS: {msg}")


def _assert_d_squared(cx):
    for n in range(cx.lo + 2, cx.hi + 1):
        assert (cx.diffs[n - 1] @ cx.diffs[n]).is_zero(), f"d.d != 0 at degree {n}"


def test_a01_complex_well_formedness():
    """d.d = 0 exactly for every preset and every constructed complex, D = 5."""
    start = time.monotonic()
    D = 5
    for A in ALGEBRA_PRESETS:
        _assert_d_squared(bar_complex(A, D=D))
        _assert_d_squared(hoch_complex(A, D=D))
        _assert_d_squared(hh_bicomplex(A, D).total)
        _assert_d_squared(hc_bicomplex(A, D).total)
        _assert_d_squared(lambda_complex(A, D).complex)
        if A.dim:
            _assert_d_squared(ce_complex_of(A, D))
    for name in EXTENSION_PRESETS:
        ext = ExtensionData(extension_preset(name))
        for level in (0, 1, 2):
            for flavor in ("bar", "hoch"):
                _assert_d_squared(filtration_F(ext, None, level, D, flavor).complex)
                _assert_d_squared(filtration_Q(ext, level, D, flavor).complex)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"well-formedness sweep took {elapsed:.1f}s"
    _ok(f"complex well-formedness: d.d = 0 for all presets and complex kinds at D={D} "
        f"({elapsed:.1f}s)")


def ce_complex_of(A, D):
    from chainlab.lie import ce_complex

    return ce_complex(lie_from_assoc(A), D).complex


def test_a02_unital_contracting_homotopy():
    """b's + sb' = id degreewise <= 4 for all unital presets, exact matrices."""
    for A in UNITAL_PRESETS:
        ok, failing = oracle.verify_unit_homotopy(A, D=4)
        assert ok, f"{A.name}: homotopy identity fails at degree {failing}"
    _ok(f"unital contracting homotopy identity on degrees <= 4 for "
        f"{len(UNITAL_PRESETS)} unital presets")


def test_a03_ground_field_homology_with_dense_oracle():
    """hh(Q) = (1,0,0,0,0), hc(Q) = (1,0,1,0,1) certified to degree 4."""
    Q = rationals()
    bc_hh = hh_bicomplex(Q, 6)
    rep_hh = bc_hh.total.homology(Interval(0, 4))
    assert rep_hh.betti_tuple(0, 4) == (1, 0, 0, 0, 0)
    assert dense_betti(bc_hh.total, 0, 4) == rep_hh.betti
    bc_hc = hc_bicomplex(Q, 6)
    rep_hc = bc_hc.total.homology(Interval(0, 4))
    assert rep_hc.betti_tuple(0, 4) == (1, 0, 1, 0, 1)
    assert dense_betti(bc_hc.total, 0, 4) == rep_hc.betti
    _ok("ground-field homology (1,0,0,0,0) and (1,0,1,0,1) on degrees <= 4, "
        "reproduced by the dense oracle")


def test_a04_morita_invariance():
    """hh and hc of M2(Q) match those of Q in degrees <= 3."""
    start = time.monotonic()
    M2 = matrix_algebra(rationals(), 2)
    Q = rationals()
    hh_m2 = hh_homology(M2, 5)
    hh_q = hh_homology(Q, 5)
    assert hh_m2.betti_tuple(0, 3) == hh_q.betti_tuple(0, 3) == (1, 0, 0, 0)
    hc_m2 = hc_homology(M2, 5)
    hc_q = hc_homology(Q, 5)
    assert hc_m2.betti_tuple(0, 3) == hc_q.betti_tuple(0, 3) == (1, 0, 1, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"Morita comparison took {elapsed:.1f}s"
    _ok(f"Morita invariance: hh and hc of M2(Q) equal those of Q on degrees <= 3 "
        f"({elapsed:.1f}s)")


def test_a05_degree_lowering_exact_sequence():
    """Exactness of HH_n -> HC_n -> HC_(n-2) -> HH_(n-1) in degrees <= 3."""
    for A in [rationals(), dual_numbers(), truncated_poly(3),
              matrix_algebra(rationals(), 2)]:
        res = connes_check(A, 5)
        assert res.checked.hi >= 3
        assert res.exact, (A.name, res.degrees)
    _ok("long exact sequence of the column shift exact in degrees <= 3 for "
        "Q, Q[e], Q[t]/t^3, M2(Q)")


def test_a06_rotation_coinvariants_model_agreement():
    """Quotient-by-rotation complex homology equals the bicomplex hc <= 3."""
    for A in [rationals(), dual_numbers(), truncated_poly(3),
              matrix_algebra(rationals(), 2)]:
        lam = lambda_complex(A, 4).homology(Interval(0, 3))
        hc = oracle.hc_homology(A, 5)  # hc_homology reads the lambda complex itself
        assert all(lam.betti[n] == hc.betti[n] for n in range(4)), A.name
    _ok("rotation-coinvariants model agrees with the cyclic bicomplex on "
        "degrees <= 3 for Q, Q[e], Q[t]/t^3, M2(Q)")


def test_a07_graded_pieces_of_the_filtration():
    """Exact chain isomorphisms for the consecutive-stage quotients."""
    for name in ["dual_numbers", "truncated_poly:3", "upper_triangular:2"]:
        ext = ExtensionData(extension_preset(name))
        for level in (0, 1, 2):
            rep = graded_piece_check(ext, None, level, 5)
            assert rep.passed, (name, level, rep.kind_results)
    _ok("graded pieces of the ideal filtration are the predicted tensor "
        "models, exact chain isomorphisms (3 extensions, levels <= 2, D = 5)")


def test_a08_excision_verifier():
    """Split unital-ideal extension passes; square-zero extension fails with a
    reported degree; both sides cross-checked against the dense oracle."""
    split = ExtensionData(extension_preset("split_product"))
    rep = wodzicki_verify(split, 5)
    assert rep.passed and rep.hh.checked.hi >= 3
    assert rep.ideal_h_unitality.passed

    sz = ExtensionData(extension_preset("square_zero"))
    rep_sz = wodzicki_verify(sz, 5)
    assert not rep_sz.passed
    assert rep_sz.first_failing is not None
    assert not rep_sz.ideal_h_unitality.passed

    # dense-oracle cross-check of both sides of the comparison cones
    for ext in (split, sz):
        for eta in (oracle.comparison_map(ext, 4, "hh"), comparison_map(ext, 4)):
            cn = cone(eta)
            engine = cn.homology(Interval(0, 2)).betti
            assert dense_betti(cn, 0, 2) == engine
    _ok(f"excision verifier: split extension passes to degree {rep.hh.checked.hi}; "
        f"square-zero extension fails at degree {rep_sz.first_failing} "
        f"(ideal not H-unital); cones cross-checked densely")


def test_a09_stable_range_comparison():
    """CE betti of gl_4(Q) equals the free graded-commutative model <= 4."""
    start = time.monotonic()
    rep = lqt_verify(rationals(), 4, 4)
    assert rep.stable
    assert rep.all_match, rep.matches
    expected = {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    assert rep.ce_betti == expected and rep.sym_betti == expected
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"stable comparison took {elapsed:.1f}s"
    _ok(f"stable-range comparison for gl_4(Q): both sides (1,1,0,1,1) on "
        f"degrees <= 4 ({elapsed:.1f}s)")


def test_a10_central_extension_shadow():
    """Kernel of the universal central extension vs HC_1, r-stable at 3 and 4."""
    for A in [rationals(), dual_numbers()]:
        r3 = h2_vs_hc1(A, 3)
        r4 = h2_vs_hc1(A, 4)
        assert r3.equal and r4.equal, (A.name, r3, r4)
        assert (r3.h2, r3.h2_indecomposable) == (r4.h2, r4.h2_indecomposable)
        assert r3.hc1 == r4.hc1
    _ok("central extension shadow: indecomposable H_2(gl_r) equals HC_1 for "
        "Q and Q[e], stable between r = 3 and r = 4")


def test_a11_trace_chain_map():
    """Tr . d_CE = -(d_lambda . Tr) as exact matrices, wedge degrees <= 4."""
    for A in [rationals(), dual_numbers()]:
        rep, traces, lam, ce = trace_chain_check(A, 2, 3)
        assert rep.chain_map_ok, (A.name, rep.failing_degree)
        assert rep.sign == -1
    _ok("generalized trace is a chain map (global sign -1) for Q and Q[e], "
        "r = 2, degrees n <= 3, exact matrix identities")


def test_a12_degree_one_chern_probe():
    """Log-trace map: homomorphism/conjugation/commutator properties on 100
    seeded samples each; span dimension equals relative HC_0."""
    cases = [("dual_numbers", 1), ("matrix_dual:2", 1), ("truncated_poly:3", 1)]
    for name, r in cases:
        probe = LogTraceProbe(ExtensionData(extension_preset(name)), r)
        rep = chern1(probe, seed=0, samples=100)
        assert rep.passed, (name, rep)
        k1 = k1_rel_probe(probe, seed=0, samples=50)
        assert k1.contained and k1.equal, (name, k1)
    _ok("degree-one log-trace probe: all group-level properties hold on 100 "
        "seeded samples and the class span equals relative HC_0 "
        "(3 extensions, exact membership tests)")


DETERMINISM_BUNDLE = [
    ["hh", "--preset", "matrix:2", "-D", "5"],
    ["hc", "--preset", "dual_numbers", "-D", "5"],
    ["lambda", "--preset", "truncated_poly:3", "-D", "4"],
    ["connes", "--preset", "dual_numbers", "-D", "5"],
    ["hunital", "--preset", "square_zero:1", "-D", "4"],
    ["filtration", "--ext", "truncated_poly:3", "--level", "1", "-D", "5"],
    ["filtration", "--ext", "dual_numbers", "--kind", "Q", "--level", "1", "-D", "5"],
    ["wodzicki", "--ext", "split_product", "-D", "5"],
    ["wodzicki", "--ext", "square_zero", "-D", "5"],
    ["ce", "--preset", "matrix:2", "-D", "4"],
    ["trace", "--preset", "dual_numbers", "-r", "2", "-D", "3"],
    ["lqt", "--preset", "rationals", "-r", "4", "-D", "4"],
    ["h2hc1", "--preset", "dual_numbers", "-r", "3"],
    ["chern1", "--ext", "matrix_dual:2", "-r", "1", "--samples", "100", "--seed", "7"],
    ["tangent", "--preset", "rationals", "--bases",
     "dual_numbers,truncated_poly:3,fat_point", "-D", "4"],
]


def _run_bundle():
    chunks = []
    for argv in DETERMINISM_BUNDLE:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv + ["--format", "json"])
        assert code == 0, argv
        json.loads(buf.getvalue())  # must be valid JSON
        chunks.append(buf.getvalue())
    return "".join(chunks)


def test_a13_deterministic_reports():
    """Byte-identical JSON across repeated runs."""
    first = _run_bundle()
    again = _run_bundle()
    assert first == again
    _ok(f"deterministic reports: {len(DETERMINISM_BUNDLE)} subcommand runs "
        f"byte-identical across repeated execution")
