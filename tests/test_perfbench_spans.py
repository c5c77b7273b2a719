"""The benchmark traces chainlab from outside, by attribute path
(perfbench/tracer.py).  A rename in the package must fail here rather than
break the benchmark's traced run later."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from chainlab.cli import main as cli_main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_resolves():
    missing = []
    for modname, path, _ in _load_tracer().SPANS:
        owner_name, _, meth = path.partition(".")
        owner = getattr(importlib.import_module(f"chainlab.{modname}"), owner_name, None)
        if owner is None or (isinstance(owner, type) and (meth or "__init__") not in vars(owner)):
            missing.append(f"{modname}.{path}")
    assert not missing


def test_instrument_counts_and_restores(capsys):
    tracer = _load_tracer()
    from chainlab import cyclic

    original = cyclic.b_prime_matrix
    rec = tracer.Tracer()
    restore = tracer.instrument(rec)
    try:
        # --reps keeps the bicomplex, whose representatives are in A's coordinates
        assert cli_main(["hh", "--preset", "dual_numbers", "-D", "3", "--reps",
                         "--format", "json"]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 1
    assert rec.calls["cyclic.b_prime_matrix"] == 2  # rows 1..D-1: hh reads degrees 0..D-2
    assert cyclic.b_prime_matrix is original


def _traced(argv):
    tracer = _load_tracer()
    rec = tracer.Tracer()
    restore = tracer.instrument(rec)
    try:
        assert cli_main(argv + ["--format", "json"]) == 0
    finally:
        restore()
    return rec


def test_wodzicki_builds_each_bicomplex_once(capsys):
    # a unital A with 1 not in I: HH and HC are cut from the normalized (b, B)
    # total, so no bicomplex of A, I or B is built, and no N
    rec = _traced(["wodzicki", "--ext", "truncated_poly:3", "-D", "3"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 0
    assert rec.calls["cyclic.norm_matrix"] == 0


def test_wodzicki_cuts_the_unitalization_when_1_lies_in_the_ideal(capsys):
    # collapse: has I = A, so HH, HC and the Hochschild comparison are cut
    # from the (b, B) total of A+ = Q.1 + A, the normalized b on rows 1..2:
    # nothing on A^(p+1), no bicomplex, rotation or N
    rec = _traced(["wodzicki", "--ext", "collapse:dual_numbers", "-D", "3"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 0
    assert rec.calls["cyclic.hoch_matrix"] == 2
    assert rec.calls["cyclic.rotation_matrix"] == 0
    assert rec.calls["cyclic.norm_matrix"] == 0


def test_wodzicki_cuts_instead_of_rebuilding(capsys):
    # the normalized b on rows 1..4 for the (b, B) total, whose hh cut the
    # Hochschild comparison is read off; b' on rows 1..5 for the ideal's
    # H-unitality certificate alone, which A's unit turns into the Bar
    # verdict; nothing on A^(p+1), no rotation, induced map, fiber or cone
    rec = _traced(["wodzicki", "--ext", "truncated_poly:3", "-D", "5"])
    capsys.readouterr()
    assert rec.calls["cyclic.b_prime_matrix"] == 5
    assert rec.calls["cyclic.hoch_matrix"] == 4
    assert rec.calls["cyclic.rotation_matrix"] == 0
    assert rec.calls["complexes.cone"] == 0
    assert rec.calls["cyclic.induced_map"] == 0


@pytest.mark.parametrize("ext, D, cuts", [("truncated_poly:3", "5", 0),
                                          ("collapse:square_zero:2", "4", 1)])
def test_only_a_non_unital_wodzicki_builds_the_bar_cut(ext, D, cuts, capsys):
    # every A reads the Hochschild comparison off the hh cut; a unital A reads
    # the Bar one off the ideal's certificate, a non-unital A cuts it
    rec = _traced(["wodzicki", "--ext", ext, "-D", D])
    capsys.readouterr()
    assert rec.calls["excision.column_comparison"] == cuts


def test_tangent_builds_no_bicomplex(capsys):
    # each base's C (x) B is unital with 1 not in I: the normalized b on rows
    # 1..2 for each base's (b, B) total, and no bicomplex
    rec = _traced(["tangent", "--preset", "dual_numbers", "--bases", "dual_numbers,fat_point",
                   "-D", "3"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 0
    assert rec.calls["cyclic.hoch_matrix"] == 4


def test_chern1_builds_one_b1_and_no_bicomplex(capsys):
    rec = _traced(["chern1", "--ext", "matrix_dual:2", "-r", "1", "--samples", "2"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 0
    assert rec.calls["cyclic.hoch_matrix"] == 1
    # one log per trace: chern1 takes the 4 generators and, per sample, u, v,
    # uv, the conjugate of u and the commutator; k1 the 4 generators and 1 sample
    assert rec.calls["tangent.nilpotent_log"] == 4 + 2 * 5 + 5


def test_two_column_build_makes_no_norm(capsys):
    rec = _traced(["hh", "--preset", "dual_numbers", "-D", "3", "--reps"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 1
    assert rec.calls["cyclic.norm_matrix"] == 0


def test_builder_spans_resolve():
    names = {name for _, _, name in _load_tracer().SPANS}
    assert {"cyclic.b_prime_matrix", "cyclic.hoch_matrix", "lie.ce_complex"} <= names


def test_graded_piece_check_builds_b_prime_once_per_degree(capsys):
    # graded_piece_check: 5 b' on (A, A) shared by its stage F^2 of both kinds,
    # and 3 on (I, I) for the model
    rec = _traced(["filtration", "--ext", "truncated_poly:3", "--level", "1", "-D", "5"])
    capsys.readouterr()
    assert rec.calls["cyclic.b_prime_matrix"] == 8


def test_graded_piece_check_multiplies_only_for_d_squared(capsys):
    # only F^2 is built: the quotient F^2/F^1 is read in the model's basis
    # and compared with it as is, so the only products are the d∘d checks of
    # degrees 2..5 on F^2 of both kinds and on the two quotients, 4 * 4
    rec = _traced(["filtration", "--ext", "truncated_poly:3", "--level", "1", "-D", "5"])
    capsys.readouterr()
    assert rec.calls["sparse.matmul"] == 16


def test_lambda_complex_runs_no_elimination(capsys):
    # coker(1 - t) is read off a walk over the orbits of t: no elimination
    rec = _traced(["lambda", "--preset", "truncated_poly:3", "-D", "6"])
    capsys.readouterr()
    assert rec.calls["cyclic.LambdaComplex"] == 1
    assert rec.calls["sparse.Subspace.add"] == 0
    # b descends by a relabelling of its entries: the only products are the
    # d∘d validation of degrees 2..6
    assert rec.calls["sparse.matmul"] == 5


@pytest.mark.parametrize("argv", [["lambda", "--preset", "truncated_poly:3", "-D", "6"],
                                  ["hc", "--preset", "matrix:2", "-D", "5"]])
def test_lambda_complex_builds_no_full_size_matrix(argv, capsys):
    # t is walked by index arithmetic and b's entries go straight to the
    # quotient: neither the rotation nor b is built into a matrix
    rec = _traced(argv)
    capsys.readouterr()
    assert rec.calls["cyclic.LambdaComplex"] == 1
    assert rec.calls["cyclic.rotation_matrix"] == 0
    assert rec.calls["cyclic.hoch_matrix"] == 0


def test_q_filtration_builds_its_stage_once(capsys):
    # filtration_Q builds b' in degrees 1..5; the kernel is cut out of that stage
    rec = _traced(["filtration", "--ext", "truncated_poly:3", "--level", "1", "-D", "5",
                   "--kind", "Q"])
    capsys.readouterr()
    assert rec.calls["cyclic.b_prime_matrix"] == 5
    assert rec.calls["sparse.matmul"] == 8  # d∘d of the stage and of the kernel


def test_ce_of_gl_ranks_only_the_weight_zero_summand(capsys):
    # 231 columns in degrees 1..5: the S_3-coinvariant classes of the 1 323
    # weight-0 wedges (2, 3, 16, 60, 150); the full exterior powers have 12 615
    rec = _traced(["ce", "--preset", "dual_numbers", "--gl", "3", "-D", "5"])
    capsys.readouterr()
    assert rec.counters["sparse.rank.cols"] == 231
    assert rec.calls["lie.ce_complex"] == 1


def test_trace_checks_the_weight_zero_summand(capsys):
    # the CE complex of gl_3(Q[e]) through wedge degree 5 is built on its
    # weight-0 wedges only: 3 911 stored entries, against 34 211 on every wedge
    rec = _traced(["trace", "--preset", "dual_numbers", "-r", "3", "-D", "4"])
    capsys.readouterr()
    assert rec.counters["sparse.nnz_built"] == 3911
    assert rec.calls["lie.ce_complex"] == 1


@pytest.mark.parametrize("argv", [["lqt", "--preset", "rationals", "-r", "4", "-D", "4"],
                                  ["h2hc1", "--preset", "truncated_poly:3", "-r", "3"]])
def test_lie_comparisons_build_each_complex_once(argv, capsys):
    # the CE complex of gl_r(A) and the lambda complex of A, one each
    rec = _traced(argv)
    capsys.readouterr()
    assert rec.calls["lie.ce_complex"] == 1
    assert rec.calls["cyclic.LambdaComplex"] == 1


def test_hh_builds_only_the_degrees_it_ranks(capsys):
    # HH_0..HH_3 need d_1..d_4: with --reps the two-column total to degree 4,
    # 2 802 stored entries, against 12 918 with degree 5
    rec = _traced(["hh", "--preset", "truncated_poly:4", "-D", "5", "--reps"])
    capsys.readouterr()
    assert rec.counters["sparse.nnz_built"] == 2802
    assert rec.counters["complexes.degrees_built"] == rec.counters["complexes.degrees_ranked"] == 4


def test_unital_hh_reads_the_normalized_complex(capsys):
    # b on A (x) Abar^p for p = 1..4: 852 stored entries, no bicomplex and no N
    rec = _traced(["hh", "--preset", "truncated_poly:4", "-D", "5"])
    capsys.readouterr()
    assert rec.counters["sparse.nnz_built"] == 852
    assert rec.counters["complexes.degrees_built"] == rec.counters["complexes.degrees_ranked"] == 4
    assert rec.calls["cyclic.hoch_matrix"] == 4
    assert rec.calls["cyclic.CyclicBicomplex"] == 0
    assert rec.calls["cyclic.norm_matrix"] == 0


def test_hc_builds_only_the_degrees_it_ranks(capsys):
    # HC_0..HC_3 off the lambda complex to degree 4: 384 stored entries in its
    # d_1..d_4, against 3 444 in the cyclic bicomplex's total to degree 4
    rec = _traced(["hc", "--preset", "matrix:2", "-D", "5"])
    capsys.readouterr()
    assert rec.counters["sparse.nnz_built"] == 384
    assert rec.counters["complexes.degrees_built"] == rec.counters["complexes.degrees_ranked"] == 4
    assert rec.calls["cyclic.LambdaComplex"] == 1
    assert rec.calls["cyclic.CyclicBicomplex"] == 0
    assert rec.calls["cyclic.norm_matrix"] == 0


def test_hc_reps_keeps_one_bicomplex(capsys):
    # representatives are written in the bicomplex's coordinates: the total to
    # degree 4, N on rows 0..2, 3 444 stored entries, and no lambda complex
    rec = _traced(["hc", "--preset", "matrix:2", "-D", "5", "--reps"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 1
    assert rec.counters["sparse.nnz_built"] == 3444
    assert rec.calls["cyclic.norm_matrix"] == 3
    assert rec.calls["cyclic.LambdaComplex"] == 0


def test_nonunital_connes_reads_the_shifted_bB_total_of_the_unitalization(capsys):
    # a non-unital input reads the (b, B) total of A+ = Q.1 + A: the normalized
    # b on rows 1..4, no bicomplex and no b'.  H_{D-1} of the columns past
    # column 0 is H_{D-3} of the total, so nothing is built on row D
    rec = _traced(["connes", "--preset", "square_zero:2", "-D", "5"])
    capsys.readouterr()
    assert rec.counters["cyclic.bicomplex.builds"] == 0
    assert rec.calls["cyclic.hoch_matrix"] == 4
    assert rec.calls["cyclic.b_prime_matrix"] == 0
    # each HomologySpace reads classes off its kernel basis: one kernel_basis
    # in each of degrees 0..3 of the sub and of the total; the quotient's
    # degrees 0 and 1 are zero spaces and its higher ones are the total's
    assert rec.calls["sparse.solve_many"] == 0
    assert rec.calls["sparse.kernel_basis"] == 8


def test_unital_connes_reads_the_normalized_bB_total(capsys):
    # the (b, B) total to degree 4 and its column-0 sub and shifted quotient:
    # 2 254 stored entries, b on rows 1..4, no bicomplex, no N, one kernel_basis
    # in each of degrees 0..3 of the sub and of the total
    rec = _traced(["connes", "--preset", "matrix:2", "-D", "5"])
    capsys.readouterr()
    assert rec.counters["sparse.nnz_built"] == 2254
    assert rec.calls["cyclic.hoch_matrix"] == 4
    assert rec.calls["cyclic.CyclicBicomplex"] == 0
    assert rec.calls["cyclic.norm_matrix"] == 0
    assert rec.calls["sparse.solve_many"] == 0
    assert rec.calls["sparse.kernel_basis"] == 8


def test_chern1_solves_only_for_the_extension_data(capsys):
    # the two solves of ExtensionData._adapt; the log-trace classes take none
    rec = _traced(["chern1", "--ext", "matrix_dual:2", "-r", "1"])
    capsys.readouterr()
    assert rec.calls["sparse.solve_many"] == 2


def test_chern1_cuts_the_probe_from_b1_alone(capsys):
    # rel HC_0 = H_0(K) reads K in degrees 0 and 1: K cut from b_1, one
    # differential with 24 stored entries, against 2 with 60 for A's HC
    # bicomplex to total degree 1 and 8 with 1 122 for the relative fiber
    rec = _traced(["chern1", "--ext", "matrix_dual:2", "-r", "1"])
    capsys.readouterr()
    assert rec.counters["complexes.degrees_built"] == 1
    assert rec.counters["sparse.nnz_built"] == 24
