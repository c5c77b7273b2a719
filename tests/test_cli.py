import json

import pytest

from chainlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hh_table(capsys):
    code, out, err = run_cli(capsys, "hh", "--preset", "dual_numbers", "-D", "5")
    assert code == 0
    assert "betti" in out and "[0, 3]" in out


def test_hh_json_schema(capsys):
    code, out, _ = run_cli(capsys, "hh", "--preset", "rationals", "-D", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert doc["config"]["command"] == "hh"
    (result,) = doc["results"]
    assert result["task"] == "hh"
    assert result["betti"] == {"0": 1, "1": 0, "2": 0, "3": 0}
    assert result["certified_range"] == [0, 3]
    assert result["timings_ms"] is None
    # round-trips losslessly
    assert json.loads(json.dumps(doc)) == doc


def test_degree_bound_validation(capsys):
    code, _, err = run_cli(capsys, "hh", "--preset", "rationals", "-D", "1")
    assert code == 2
    assert "degree bound" in err


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x dim 2\nmul 1 3 = 1*1\n")
    code, _, err = run_cli(capsys, "hh", "--file", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit(capsys):
    code, _, err = run_cli(capsys, "hh", "--file", "/nonexistent/algebra.alg")
    assert code == 2


def test_file_input(tmp_path, capsys):
    f = tmp_path / "qq.alg"
    f.write_text(
        "algebra qq dim 2\nmul 1 1 = 1*1\nmul 2 2 = 1*2\nunit = 1*1 + 1*2\n"
    )
    code, out, _ = run_cli(capsys, "hh", "--file", str(f), "-D", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["betti"]["0"] == 2


def test_wodzicki_verdict_is_not_an_error(capsys):
    code, out, _ = run_cli(capsys, "wodzicki", "--ext", "square_zero", "-D", "4",
                           "--format", "json")
    assert code == 0  # negative verdicts are data
    doc = json.loads(out)
    assert doc["results"][0]["passed"] is False
    assert doc["results"][0]["failing_degree"] is not None


def test_every_subcommand_runs(capsys):
    invocations = [
        ["hh", "--preset", "dual_numbers", "-D", "4"],
        ["hc", "--preset", "dual_numbers", "-D", "4"],
        ["lambda", "--preset", "dual_numbers", "-D", "4"],
        ["connes", "--preset", "dual_numbers", "-D", "4"],
        ["hunital", "--preset", "square_zero:1", "-D", "3"],
        ["filtration", "--ext", "dual_numbers", "--level", "1", "-D", "4"],
        ["filtration", "--ext", "dual_numbers", "--kind", "Q", "--level", "1", "-D", "4"],
        ["wodzicki", "--ext", "split_product", "-D", "4"],
        ["ce", "--preset", "matrix:2", "-D", "3"],
        ["ce", "--preset", "rationals", "--gl", "2", "-D", "3"],
        ["trace", "--preset", "dual_numbers", "-r", "2", "-D", "3"],
        ["lqt", "--preset", "rationals", "-r", "3", "-D", "3"],
        ["h2hc1", "--preset", "rationals", "-r", "3"],
        ["chern1", "--ext", "dual_numbers", "-r", "1", "--samples", "10"],
        ["tangent", "--preset", "rationals", "--bases", "dual_numbers,truncated_poly:3", "-D", "4"],
    ]
    for argv in invocations:
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, (argv, err)
        doc = json.loads(out)
        assert doc["results"], argv


def test_reps_flag_emits_representatives(capsys):
    code, out, _ = run_cli(capsys, "hc", "--preset", "dual_numbers", "-D", "4",
                           "--format", "json", "--reps")
    assert code == 0
    doc = json.loads(out)
    reps = doc["results"][0]["representatives"]
    assert len(reps["0"]) == 2  # HC_0(Q[e]) is two-dimensional
    assert all(isinstance(pair[1], str) for vec in reps["0"] for pair in vec)


def test_timings_flag_adds_timing(capsys):
    code, out, _ = run_cli(capsys, "hh", "--preset", "rationals", "-D", "4",
                           "--format", "json", "--timings")
    doc = json.loads(out)
    assert isinstance(doc["results"][0]["timings_ms"], int)


@pytest.mark.parametrize("kind,dim", [("F", 243), ("Q", 81)])
def test_filtration_respects_the_size_limit(kind, dim, capsys):
    # the (A, M) words of truncated_poly:3 in degree 4: 3 * 3^4 for F (M = A),
    # 1 * 3^4 for Q (M = B = Q)
    code, out, err = run_cli(capsys, "filtration", "--ext", "truncated_poly:3", "--level", "1",
                             "-D", "4", "--kind", kind, "--size-limit", "1")
    assert code == 2 and not out
    assert err == f"error: filtration complex top degree has dimension {dim} > size limit 1\n"
    code, _, _ = run_cli(capsys, "filtration", "--ext", "truncated_poly:3", "--level", "1",
                         "-D", "4", "--kind", kind, "--size-limit", str(dim))
    assert code == 0


@pytest.mark.parametrize("preset,rank,dim", [("rationals", "1", 1), ("zero", "2", 0)])
def test_trace_rejects_a_gl_without_a_differential(preset, rank, dim, capsys):
    code, out, err = run_cli(capsys, "trace", "--preset", preset, "-r", rank, "-D", "3")
    assert code == 2 and not out
    assert err == f"error: trace needs dim gl_r(A) >= 2, got {dim} for r = {rank}\n"


@pytest.mark.parametrize("cmd", ["hh", "hc", "connes"])
def test_size_guard_reads_the_row_of_degree_d(cmd, capsys):
    # matrix:2 at D = 5: the guard reads 4^6 = 4096 although the largest row
    # built, total degree D - 1 = 4, is 4^5 = 1024
    code, out, err = run_cli(capsys, cmd, "--preset", "matrix:2", "-D", "5",
                             "--size-limit", "4095")
    assert code == 2 and not out
    assert err == "error: bicomplex row has dimension 4096 > size limit 4095\n"
    code, _, _ = run_cli(capsys, cmd, "--preset", "matrix:2", "-D", "5", "--size-limit", "4096")
    assert code == 0
