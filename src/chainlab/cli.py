"""Command-line driver.

Verdict failures (an extension failing excision, a mismatch outside the
stable range) are successful computations reported with exit status 0; only
infrastructure faults - bad flags, parse errors, size limits, uncertified
ranges - exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cyclic import connes_check, hc_homology, hh_homology, lambda_complex, size_guard, sparser_basis
from .dsl import parse_algebra_file
from .errors import ChainlabError, ParseError
from .excision import (
    ExtensionData,
    filtration_Q,
    graded_piece_check,
    h_unitality_check,
    q_kernel_complex,
    wodzicki_verify,
)
from .lie import ce_homology, guarded_gl, h2_vs_hc1, lie_from_assoc, lqt_verify, trace_chain_check
from .presets import guarded_preset
from .reports import Report, render_table
from .tangent import ArtinianBase, LogTraceProbe, chern1, k1_rel_probe, tangent_table


# name -> (help line, input kind, own options as in SHARED): the input is
# --preset or --file for "algebra" and --ext for "extension"
COMMANDS = {
    "hh": ("Hochschild homology (normalized complex of A or A+; bicomplex for --reps)", "algebra", ()),
    "hc": ("cyclic homology (lambda complex; bicomplex for --reps)", "algebra", ()),
    "connes": ("exactness of the degree-lowering long exact sequence", "algebra", ()),
    "hunital": ("bounded H-unitality certificate", "algebra", ()),
    "filtration": ("filtration stages of an extension", "extension", (
        ("--level", {"dest": "level", "type": int, "default": 0, "help": "stage index n"}),
        ("--kind", {"dest": "kind", "choices": ["F", "Q"], "default": "F"}),
        ("--flavor", {"dest": "flavor", "choices": ["bar", "hoch"], "default": "bar"}))),
    "wodzicki": ("excision verifier for an extension", "extension", ()),
    "ce": ("Chevalley-Eilenberg homology", "algebra", (
        ("--gl", {"dest": "gl", "type": int, "default": None,
                  "help": "use gl_r of the algebra instead of its underlying Lie algebra"}),)),
    "trace": ("chain-map identity of the generalized trace", "algebra", ()),
    "lqt": ("stable-range comparison with the symmetric model", "algebra", ()),
    "h2hc1": ("central extension shadow: H_2 vs HC_1", "algebra", ()),
    "chern1": ("degree-one log-trace probe of a nilpotent extension", "extension", ()),
    "tangent": ("tangent table over Artinian bases", "algebra", (
        ("--bases", {"dest": "bases", "default": "dual_numbers",
                     "help": "comma-separated augmented presets"}),)),
    "lambda": ("rotation-coinvariants model of the cyclic complex", "algebra", ()),
}

# (spellings, add_argument keywords) of each option, its dest always given:
# _add_options hands them to argparse and _read reads argv off them
INPUTS = {
    "algebra": (("--preset", {"dest": "preset", "help": "algebra preset name[:params]"}),
                ("--file", {"dest": "file", "help": "algebra DSL file"})),
    "extension": (("--ext", {"dest": "ext", "required": True, "help": "extension preset name[:params]"}),),
}
SHARED = (
    ("-D --degree-bound", {"dest": "degree_bound", "type": int, "default": 5}),
    ("-r --rank", {"dest": "rank", "type": int, "default": 2}),
    ("--seed", {"dest": "seed", "type": int, "default": 0}),
    ("--samples", {"dest": "samples", "type": int, "default": 100}),
    ("--size-limit", {"dest": "size_limit", "type": int, "default": None}),
    ("--format", {"dest": "format", "choices": ["table", "json"], "default": "table"}),
    ("--reps", {"dest": "reps", "action": "store_true", "default": False,
                "help": "emit homology representatives"}),
    ("--timings", {"dest": "timings", "action": "store_true", "default": False,
                   "help": "record wall-clock timings"}),
)


def _add_options(parser, name):
    """Give `parser` subcommand `name`'s input, the shared options and its own
    options, in that order."""
    _, kind, own = COMMANDS[name]
    inputs = parser.add_mutually_exclusive_group() if kind == "algebra" else parser
    for flags, kwargs in INPUTS[kind]:
        inputs.add_argument(*flags.split(), **kwargs)
    for flags, kwargs in SHARED + own:
        parser.add_argument(*flags.split(), **kwargs)
    return parser


def build_parser():
    ap = argparse.ArgumentParser(prog="chainlab",
                                 description="Exact chain-level homology workbench for finite-dimensional rational algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return ap


def _read(argv):
    """The namespace the full parser makes of `argv`, read off the table; None,
    leaving argv to argparse, unless argv[0] is a subcommand, every later word
    spells one of its options in full or is a value that starts with no "-"
    and converts, and the input is given once."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, kind, own = COMMANDS[argv[0]]
    options = INPUTS[kind] + SHARED + own
    spelled = {flag: kwargs for flags, kwargs in options for flag in flags.split()}
    args = {"command": argv[0], **{kwargs["dest"]: kwargs.get("default") for _, kwargs in options}}
    words = iter(argv[1:])
    for word in words:
        kwargs = spelled.get(word)
        if kwargs is None:
            return None
        if "action" in kwargs:  # store_true
            args[kwargs["dest"]] = True
            continue
        try:
            value = next(words)
            value = None if value.startswith("-") else kwargs.get("type", str)(value)
        except (StopIteration, ValueError):
            return None
        if value is None or value not in kwargs.get("choices", [value]):
            return None
        args[kwargs["dest"]] = value
    given = [kwargs["dest"] for _, kwargs in INPUTS[kind] if args[kwargs["dest"]] is not None]
    if len(given) > 1 or kind == "extension" and not given:
        return None
    return argparse.Namespace(**args)


def parse_args(argv):
    """The namespace of `argv`: read by _read where it can, else by the full
    parser, which alone prints usage, help and errors. Exits as argparse does."""
    return _read(argv) or build_parser().parse_args(argv)


def _load_algebra(args):
    if getattr(args, "file", None):
        return parse_algebra_file(args.file, args.size_limit)
    return guarded_preset(args.preset or "rationals", args.size_limit)


def _config_echo(args):
    # timings are a measurement detail: they must not influence the report
    # bytes, so they are not echoed
    return {k: v for k, v in vars(args).items() if v is not None and k != "timings"}


def _validate(args):
    if getattr(args, "degree_bound", 2) < 2:
        raise ChainlabError("degree bound must be >= 2")
    if getattr(args, "rank", 1) < 1:
        raise ChainlabError("rank must be >= 1")
    if args.size_limit is not None and args.size_limit <= 0:
        raise ChainlabError("size limit must be positive")
    if getattr(args, "gl", None) is not None and args.gl < 1:
        raise ChainlabError("gl rank must be >= 1")
    if getattr(args, "level", 0) < 0:
        raise ChainlabError("filtration level must be >= 0")
    if args.samples < 0:
        raise ChainlabError("samples must be >= 0")
    if args.command == "tangent" and not args.bases.replace(",", "").strip():
        raise ChainlabError("--bases names no base")


def run(args) -> Report:
    _validate(args)
    report = Report(config=_config_echo(args))
    t0 = time.monotonic()
    D = args.degree_bound
    cmd = args.command

    if cmd in ("hh", "hc"):
        A = _load_algebra(args)
        fn = hh_homology if cmd == "hh" else hc_homology
        rep = fn(A, D, args.size_limit, reps=args.reps)
        report.add(cmd, {"algebra": A.name, "D": D}, **rep.to_jsonable())
    elif cmd == "lambda":
        A = _load_algebra(args)
        size_guard(A.dim ** (D + 1), args.size_limit, "lambda complex top degree")
        # same betti in any basis; --reps keeps L e_i, whose normalised reps are A's
        lam = lambda_complex(A.integral()[0] if args.reps else sparser_basis(A), D, args.size_limit)
        rep = lam.homology(reps=args.reps)
        payload = rep.to_jsonable()
        payload["dims"] = {str(p): lam.complex.dim(p) for p in range(0, D + 1)}
        report.add(cmd, {"algebra": A.name, "D": D}, **payload)
    elif cmd == "connes":
        if args.reps:
            raise ChainlabError("connes has no representatives: --reps does not apply")
        if D < 3:
            raise ChainlabError("connes needs a degree bound >= 3")
        A = _load_algebra(args)
        res = connes_check(A, D, args.size_limit)
        report.add(cmd, {"algebra": A.name, "D": D}, verdict=res.exact, **res.to_jsonable())
    elif cmd == "hunital":
        A = _load_algebra(args)
        res = h_unitality_check(A, D, args.size_limit)
        report.add(cmd, {"algebra": A.name, "D": D}, verdict=res.passed, **res.to_jsonable())
    elif cmd == "filtration":
        ext = ExtensionData(guarded_preset(args.ext, args.size_limit, extension=True))
        if args.kind == "F":
            piece = graded_piece_check(ext, None, args.level, D, args.size_limit)
            payload = {
                "dims": {str(p): piece.stage_dims[p] for p in range(0, D + 1)},
                "verdict": piece.passed,
                "graded_piece": piece.to_jsonable(),
            }
        else:
            stage = filtration_Q(ext, args.level, D, args.flavor, args.size_limit)
            kern = q_kernel_complex(ext, stage)
            payload = {
                "dims": {str(p): stage.complex.dim(p) for p in range(0, D + 1)},
                "kernel_dims": {str(p): kern.dim(p) for p in range(0, D + 1)},
            }
        report.add(cmd, {"ext": args.ext, "level": args.level, "kind": args.kind,
                         "flavor": args.flavor, "D": D}, **payload)
    elif cmd == "wodzicki":
        ext = ExtensionData(guarded_preset(args.ext, args.size_limit, extension=True))
        res = wodzicki_verify(ext, D, args.size_limit)
        payload = {"verdict": res.passed}
        payload.update(res.to_jsonable())
        payload["relative_hh"] = res.relative_hh.to_jsonable()
        payload["relative_hc"] = res.relative_hc.to_jsonable()
        report.add(cmd, {"ext": args.ext, "D": D}, **payload)
    elif cmd == "ce":
        A = _load_algebra(args)
        g = lie_from_assoc(A) if args.gl is None else guarded_gl(A, args.gl, D, args.size_limit)
        rep = ce_homology(g, D, args.size_limit, reps=args.reps)
        report.add(cmd, {"lie": g.name, "D": D}, **rep.to_jsonable())
    elif cmd == "trace":
        A = _load_algebra(args)
        res, _, _, _ = trace_chain_check(A, args.rank, D, args.size_limit)
        report.add(cmd, {"algebra": A.name, "r": args.rank, "D": D},
                   verdict=res.chain_map_ok, **res.to_jsonable())
    elif cmd == "lqt":
        A = _load_algebra(args)
        res = lqt_verify(A, args.rank, D, args.size_limit)
        report.add(cmd, {"algebra": A.name, "r": args.rank, "D": D},
                   verdict=res.all_match, **res.to_jsonable())
    elif cmd == "h2hc1":
        A = _load_algebra(args)
        res = h2_vs_hc1(A, args.rank, args.size_limit)
        report.add(cmd, {"algebra": A.name, "r": args.rank},
                   verdict=res.equal, **res.to_jsonable())
    elif cmd == "chern1":
        ext = ExtensionData(guarded_preset(args.ext, args.size_limit, extension=True))
        probe = LogTraceProbe(ext, args.rank, size_limit=args.size_limit)
        res = chern1(probe, args.seed, args.samples)
        k1 = k1_rel_probe(probe, args.seed, max(1, args.samples // 2))
        report.add(cmd, {"ext": args.ext, "r": args.rank}, verdict=res.passed,
                   **res.to_jsonable(), k1_probe=k1.to_jsonable())
    elif cmd == "tangent":
        C = _load_algebra(args)
        bases = [ArtinianBase.from_algebra(guarded_preset(spec.strip(), args.size_limit))
                 for spec in args.bases.split(",") if spec.strip()]
        rows = tangent_table(C, bases, D, args.size_limit)
        report.add(cmd, {"algebra": C.name, "bases": args.bases, "D": D},
                   rows=[row.to_jsonable() for row in rows])
    else:  # pragma: no cover
        raise ChainlabError(f"unknown command {cmd}")

    if args.timings:
        report.results[-1]["timings_ms"] = int((time.monotonic() - t0) * 1000)
    return report


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = run(args)
    except (ChainlabError, OSError) as exc:
        print(f"{'parse error' if isinstance(exc, ParseError) else 'error'}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.format == "json" else render_table(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
