import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chainlab import cli
from chainlab.algebras import Algebra
from chainlab.cli import COMMANDS, build_parser, main
from chainlab.errors import ChainlabError, ParseError
from chainlab.presets import (_ALGEBRA_BUILDERS, _EXTENSION_BUILDERS, algebra_preset,
                              extension_preset, preset_dim)


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
    # 1 * 3^4 for Q (M = B = Q); a limit of 3 lets the algebra itself be built
    code, out, err = run_cli(capsys, "filtration", "--ext", "truncated_poly:3", "--level", "1",
                             "-D", "4", "--kind", kind, "--size-limit", "3")
    assert code == 2 and not out
    assert err == f"error: filtration complex top degree has dimension {dim} > size limit 3\n"
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


@pytest.mark.parametrize("cmd", ["hh", "connes"])
def test_a_nonunital_input_is_guarded_on_its_own_row(cmd, capsys):
    # square_zero:2 at D = 5: the guard reads the input's 2^6 = 64, not the
    # 3^6 = 729 of its unitalization, whose normalized model is built
    code, out, _ = run_cli(capsys, cmd, "--preset", "square_zero:2", "-D", "5",
                           "--size-limit", "100")
    assert code == 0 and out
    code, out, err = run_cli(capsys, cmd, "--preset", "square_zero:2", "-D", "5",
                             "--size-limit", "50")
    assert code == 2 and not out
    assert err == "error: bicomplex row has dimension 64 > size limit 50\n"


@pytest.mark.parametrize("argv,expected", [
    (["lqt", "--preset", "rationals", "-r", "1", "-D", "2"],
     {"all_match": True, "ce_betti": {"0": 1, "1": 1, "2": 0}, "degrees": [0, 2],
      "matches": {"0": True, "1": True, "2": True}, "rank": 1,
      "sym_model_betti": {"0": 1, "1": 1, "2": 0}, "verdict": True,
      "within_stable_range": False}),
    (["lqt", "--preset", "dual_numbers", "-r", "1", "-D", "3"],
     {"all_match": False, "ce_betti": {"0": 1, "1": 2, "2": 1, "3": 0}, "degrees": [0, 3],
      "matches": {"0": True, "1": True, "2": True, "3": False}, "rank": 1,
      "sym_model_betti": {"0": 1, "1": 2, "2": 1, "3": 2}, "verdict": False,
      "within_stable_range": False}),
    (["h2hc1", "--preset", "rationals", "-r", "1"],
     {"dim_h1": 1, "dim_h2": 0, "dim_h2_indecomposable": 0, "dim_hc1": 0, "equal": True,
      "verdict": True}),
    (["h2hc1", "--preset", "zero", "-r", "1"],
     {"dim_h1": 0, "dim_h2": 0, "dim_h2_indecomposable": 0, "dim_hc1": 0, "equal": True,
      "verdict": True}),
])
def test_ce_betti_vanish_above_the_dimension(argv, expected, capsys):
    # gl_1(Q), gl_1(Q[e]) and gl_1(0) have dimension 1, 2 and 0: the CE report
    # stops at dim g, and the degrees above it read as 0
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    result = json.loads(out)["results"][0]
    for key in ("task", "inputs", "timings_ms"):
        del result[key]
    assert result == expected


def test_ce_report_stops_at_the_dimension(capsys):
    code, out, _ = run_cli(capsys, "ce", "--preset", "rationals", "--gl", "1", "-D", "4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["betti"] == {"0": 1, "1": 1}


@pytest.mark.parametrize("argv,err", [
    (["ce", "--gl", "0"], "error: gl rank must be >= 1\n"),
    (["filtration", "--ext", "dual_numbers", "--level", "-1"],
     "error: filtration level must be >= 0\n"),
    (["hh", "--preset", "truncated_poly:x"],
     "parse error: preset parameter 'x' is not an integer\n"),
    (["hh", "--preset", "truncated_poly:0"], "parse error: preset parameter 0 must be >= 1\n"),
    (["hh", "--preset", "matrix:0"], "parse error: preset parameter 0 must be >= 1\n"),
    (["hh", "--preset", "square_zero:-1"], "parse error: preset parameter -1 must be >= 0\n"),
    (["hh", "--preset", "upper_triangular:0"], "parse error: preset parameter 0 must be >= 1\n"),
    (["wodzicki", "--ext", "matrix_dual:0"], "parse error: preset parameter 0 must be >= 1\n"),
    (["wodzicki", "--ext", "aug:square_zero"], "error: V1(0-mult) has no augmentation\n"),
    (["tangent", "--preset", "square_zero"],
     "error: tangent tables need a unital coefficient algebra\n"),
    (["lqt", "--preset", "square_zero"],
     "error: the stable comparison expects a unital algebra\n"),
    (["chern1", "--ext", "matrix_dual:2", "-r", "1", "--samples", "-5"],
     "error: samples must be >= 0\n"),
    (["connes", "--preset", "dual_numbers", "-D", "3", "--reps"],
     "error: connes has no representatives: --reps does not apply\n"),
    (["tangent", "--bases", ","], "error: --bases names no base\n"),
    (["tangent", "--bases", ""], "error: --bases names no base\n"),
    (["tangent", "--preset", "dual_numbers", "--bases", " , "], "error: --bases names no base\n"),
])
def test_bad_inputs_exit_2(argv, err, capsys):
    assert run_cli(capsys, *argv) == (2, "", err)


ALGEBRA_NAMES = sorted(_ALGEBRA_BUILDERS) + ["nope"]
EXTENSION_NAMES = sorted(_EXTENSION_BUILDERS) + ["nope"]
PARAMS = st.sampled_from(["", "", "-1", "0", "1", "2", "3", "x"])


@st.composite
def preset_spec(draw, names, depth=2):
    """name, name:param or name:param,base with small or malformed params; the
    base is an algebra spec drawn the same way, so composite bases nest, as in
    matrix:2,upper_triangular:2,dual_numbers."""
    name = draw(st.sampled_from(names))
    args = [draw(PARAMS)]
    if depth and draw(st.booleans()):
        args.append(draw(preset_spec(ALGEBRA_NAMES, depth - 1)))
    return f"{name}:{','.join(args)}" if any(args) else name


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(["hh", "hc", "connes", "hunital", "filtration", "wodzicki", "ce",
                                "trace", "lqt", "h2hc1", "chern1", "tangent", "lambda"]))
    small = st.integers(-1, 3)
    argv = [cmd, "--size-limit", "3000", "-D", str(draw(st.integers(0, 5))),
            "-r", str(draw(st.integers(0, 3))), "--samples", str(draw(st.integers(1, 3)))]
    if cmd in ("filtration", "wodzicki", "chern1"):
        argv += ["--ext", draw(preset_spec(EXTENSION_NAMES))]
    else:
        argv += ["--preset", draw(preset_spec(ALGEBRA_NAMES))]
    if cmd == "filtration":
        argv += ["--level", str(draw(small)), "--kind", draw(st.sampled_from(["F", "Q"]))]
    if cmd == "ce" and draw(st.booleans()):
        argv += ["--gl", str(draw(small))]
    if cmd == "tangent":
        argv += ["--bases", draw(preset_spec(ALGEBRA_NAMES))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_every_input_ends_in_a_report_or_exit_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2), argv


# whole option groups: VALID_GROUPS are valid for some subcommand, values
# that int() reads although they are no plain digits and repeated options
# among them; ODD_GROUPS hold unknown flags, bad ints and choices, missing
# values, abbreviations, strays, help flags, "--" and both algebra inputs
VALID_GROUPS = {
    "common": [["-D", "3"], ["-D4"], ["--degree-bound=2"], ["-r", "-1"], ["--samples", "3"],
               ["--size-limit", "10"], ["--format", "json"], ["--reps"], ["--timings"],
               ["-D", " 3"], ["-D", "1_0"], ["-r", "\u0663"], ["-D", "3", "--degree-bound", "4"],
               ["--seed", "1", "--seed", "2"]],
    "algebra": [["--preset", "dual_numbers"], ["--file", "a.alg"]],
    "extension": [["--ext", "square_zero"]],
    "--level": [["--level", "1"]], "--kind": [["--kind", "Q"]], "--flavor": [["--flavor", "hoch"]],
    "--gl": [["--gl", "2"]], "--bases": [["--bases", "fat_point"], ["--bases", ""]],
}
ODD_GROUPS = [
    ["-D", "x"], ["-D"], ["--seed", "1.5"], ["--format", "xml"], ["--kind", "Z"],
    ["--pre", "rationals"], ["--nope"], ["-x"], ["stray"], ["-h"], ["--help"], ["--"], ["hh"],
    ["--preset", "--file"], ["--reps", "x"], ["--format", "JSON"], ["--preset", "a", "--file", "b"],
]


@st.composite
def parse_argv(draw):
    head = draw(st.sampled_from([[cmd] for cmd in COMMANDS] + [[], ["nope"], ["--"], ["-h"]]))
    if head and head[0] in COMMANDS:
        _, kind, own = COMMANDS[head[0]]
        valid = [g for key in ["common", kind] + [flag for flag, _ in own]
                 for g in VALID_GROUPS[key]]
    else:
        valid = [g for groups in VALID_GROUPS.values() for g in groups]
    groups = draw(st.lists(st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                                     st.sampled_from(ODD_GROUPS)), max_size=5))
    return head + [token for group in groups for token in group]


def _outcome(call):
    """(result or exit code, stdout, stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parse_argv())
def test_main_parses_every_argv_as_the_full_parser_does(argv):
    parsed = []

    def record(args):
        parsed.append(args)
        raise ChainlabError("parsed")
    with mock.patch.object(cli, "run", record):
        code, out, err = _outcome(lambda: main(argv))
    want, want_out, want_err = _outcome(lambda: build_parser().parse_args(argv))
    if parsed:
        assert (code, err) == (2, "error: parsed\n"), argv
        assert (parsed[0], want_out, want_err) == (want, "", ""), argv
    else:
        assert (code, out, err) == (want, want_out, want_err), argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(preset_spec(ALGEBRA_NAMES).map(lambda spec: (spec, False)),
                 preset_spec(EXTENSION_NAMES).map(lambda spec: (spec, True))))
def test_preset_dim_is_the_dimension_the_builder_builds(case):
    spec, extension = case
    try:
        built = extension_preset(spec).source if extension else algebra_preset(spec)
    except (ChainlabError, ValueError):
        return  # the guard leaves a rejected spec to the builder's own error
    assert preset_dim(spec, extension) == built.dim, spec


@pytest.mark.parametrize("spec,dim", [("identity:upper_triangular:2,dual_numbers", 6),
                                      ("collapse:upper_triangular:2,dual_numbers", 6),
                                      ("aug:tensor:dual_numbers,dual_numbers", 4)])
def test_a_wrapped_preset_keeps_every_parameter(spec, dim):
    # UT2(Q[e]), not UT2(Q): the parameters after the first comma reach the inner preset
    assert extension_preset(spec).source.dim == preset_dim(spec, extension=True) == dim


@pytest.mark.parametrize("spec,dim", [("matrix:2,upper_triangular:2,dual_numbers", 24),
                                      ("upper_triangular:2,matrix:2,dual_numbers", 24),
                                      ("matrix:2,tensor:dual_numbers,dual_numbers", 16)])
def test_a_composite_keeps_every_parameter_of_its_base(spec, dim):
    # M2(UT2(Q[e])), not M2(UT2(Q)): everything after r (or n) is the base preset
    assert algebra_preset(spec).dim == preset_dim(spec) == dim


@pytest.mark.parametrize("spec", ["matrix:2,dual_numbers,fat_point",
                                  "upper_triangular:2,dual_numbers,fat_point"])
def test_a_simple_base_given_surplus_parameters_is_refused(spec):
    # the base spec is 'dual_numbers,fat_point', as in identity:dual_numbers,fat_point
    for read in (preset_dim, algebra_preset):
        with pytest.raises(ParseError, match="^unknown algebra preset 'dual_numbers,fat_point' "):
            read(spec)


@pytest.mark.parametrize("argv,message", [
    (["hh", "--preset", "dual_numbers:x"], "preset 'dual_numbers' takes no parameters, got 'x'"),
    (["hh", "--preset", "rationals:-1"], "preset 'rationals' takes no parameters, got '-1'"),
    (["hh", "--preset", "matrix:2,fat_point:2"], "preset 'fat_point' takes no parameters, got '2'"),
    (["hh", "--preset", "truncated_poly:3,x"], "preset takes one parameter, got '3,x'"),
    (["wodzicki", "--ext", "square_zero:3"], "preset 'square_zero' takes no parameters, got '3'"),
    (["wodzicki", "--ext", "upper_triangular:2,fat_point"],
     "preset takes one parameter, got '2,fat_point'"),
    (["wodzicki", "--ext", "aug:product:2"], "preset 'product' takes no parameters, got '2'"),
])
def test_a_preset_refuses_parameters_it_does_not_read(argv, message, capsys):
    # a simple preset reads none and a one-int preset one; square_zero:k is the
    # algebra preset with a parameter, square_zero the extension without one
    assert main(argv + ["-D", "2", "--format", "json"]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert algebra_preset("square_zero:3").dim == preset_dim("square_zero:3") == 3


@pytest.fixture
def built(monkeypatch):
    """The dimension of every Algebra constructed while the test runs."""
    dims = []
    init = Algebra.__init__

    def counted_init(self, dim, *rest, **kwargs):
        dims.append(dim)
        init(self, dim, *rest, **kwargs)
    monkeypatch.setattr(Algebra, "__init__", counted_init)
    return dims


@pytest.mark.parametrize("argv,what", [
    ([cmd, "--preset", "truncated_poly:300"], "preset 'truncated_poly:300' has dimension 300")
    for cmd in ("hh", "hc", "connes", "hunital", "ce", "trace", "lqt", "h2hc1", "tangent",
                "lambda")
] + [
    ([cmd, "--ext", "truncated_poly:300"], "extension 'truncated_poly:300' has dimension 300")
    for cmd in ("filtration", "wodzicki", "chern1")
] + [
    (["ce", "--preset", "matrix:20,fat_point", "--gl", "2"],
     "preset 'matrix:20,fat_point' has dimension 1200"),
    (["wodzicki", "--ext", "matrix_dual:40"], "extension 'matrix_dual:40' has dimension 3200"),
    (["filtration", "--ext", "collapse:upper_triangular:30", "--kind", "Q"],
     "extension 'collapse:upper_triangular:30' has dimension 465"),
    (["tangent", "--preset", "dual_numbers", "--bases", "fat_point,tensor:fat_point,matrix"],
     None),  # tensor checks its arity before it reads a dimension
    (["ce", "--preset", "matrix:20,upper_triangular:5,fat_point", "--gl", "2"],
     "preset 'matrix:20,upper_triangular:5,fat_point' has dimension 18000"),
])
def test_an_oversized_preset_is_rejected_before_it_is_built(argv, what, capsys, built):
    code, out, err = run_cli(capsys, *argv, "-D", "3", "--size-limit", "10")
    assert code == 2 and not out
    if what is None:
        assert err == "parse error: tensor preset needs two algebra names\n"
    else:
        assert err == f"error: {what} > size limit 10\n"
        assert built == []


def test_a_dsl_preset_line_is_guarded_before_it_is_built(tmp_path, capsys, built):
    # --size-limit reaches the preset line of an algebra file
    path = tmp_path / "big.alg"
    path.write_text("preset truncated_poly:150\n")
    code, out, err = run_cli(capsys, "hh", "--file", str(path), "-D", "2", "--size-limit", "10")
    assert code == 2 and not out
    assert err == "error: preset 'truncated_poly:150' has dimension 150 > size limit 10\n"
    assert built == []


def test_tangent_guards_each_base_before_building_it(capsys, built):
    code, _, err = run_cli(capsys, "tangent", "--preset", "rationals",
                           "--bases", "dual_numbers,truncated_poly:300", "--size-limit", "10")
    assert code == 2
    assert err == "error: preset 'truncated_poly:300' has dimension 300 > size limit 10\n"
    assert max(built) <= 10


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["hc", "--preset", "dual_numbers", "-D", "4", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "chainlab", *argv], capture_output=True,
                          text=True, env=env, check=False)
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, "") == (0, "")
    assert proc.stdout == out and json.loads(out)["results"]


def _full_subparsers():
    """{name: subparser} of build_parser()."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


COMMON_OPTIONS = ["-D", "--degree-bound", "-r", "--rank", "--seed", "--samples", "--size-limit",
                  "--format", "--reps", "--timings"]
ALGEBRA_INPUT = ["--preset", "--file"]


@pytest.mark.parametrize("cmd,own", [
    ("hh", []), ("hc", []), ("connes", []), ("hunital", []), ("ce", ["--gl"]),
    ("trace", []), ("lqt", []), ("h2hc1", []), ("tangent", ["--bases"]), ("lambda", []),
    ("filtration", ["--level", "--kind", "--flavor"]), ("wodzicki", []), ("chern1", []),
])
def test_each_subcommand_keeps_its_option_strings(cmd, own):
    # the shared options and the input group are declared once, in
    # cli._add_options: each subcommand still has them, in this order, and
    # nothing else
    parser = _full_subparsers()[cmd]
    by_ext = cmd in ("filtration", "wodzicki", "chern1")
    source = ["--ext"] if by_ext else ALGEBRA_INPUT
    assert [s for a in parser._actions for s in a.option_strings] == \
        ["-h", "--help"] + source + COMMON_OPTIONS + own
    groups = [[s for a in g._group_actions for s in a.option_strings]
              for g in parser._mutually_exclusive_groups]
    assert groups == ([] if by_ext else [ALGEBRA_INPUT])
    assert [a.required for a in parser._actions if "--ext" in a.option_strings] == [True] * by_ext


def test_the_table_lists_every_subcommand_in_order():
    assert list(_full_subparsers()) == list(COMMANDS) and len(COMMANDS) == 13


@pytest.mark.parametrize("argv,progs", [
    (["hh", "--preset", "dual_numbers", "-D", "3"], []),
    (["--help"], ["chainlab"] + [f"chainlab {cmd}" for cmd in COMMANDS]),
    (["hh", "-D4", "--preset", "dual_numbers"], ["chainlab"] + [f"chainlab {cmd}" for cmd in COMMANDS]),
])
def test_only_an_argv_the_reader_declines_builds_parsers(argv, progs, monkeypatch, capsys):
    # main reads a plain call off the option table and builds no parser; help
    # and an argv it declines ("-D4" is an attached value) build the full one
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert main(argv) == 0
    assert built == progs
