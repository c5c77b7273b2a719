"""Workload definitions and the seeded rebased-algebra generator.

A job is one chainlab command line.  Its report is checked in one of two
ways:

* ``exact``: the JSON report must equal, byte for byte, the report recorded
  in ``expected.json`` for the same command line.
* ``invariant``: the report must agree with a recorded reference report on
  every field an isomorphism of inputs or a change of sampling seed leaves
  unchanged (see ``invariant_view``).

Only ``cyclic_rebased`` and the ``chern1`` job depend on the workload seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

JSON = ["--format", "json"]


def job(argv, check="exact", reference=None, label=None):
    argv = list(argv) + JSON
    return {
        "label": label or " ".join(argv[:-2]),
        "argv": argv,
        "check": check,
        "reference": reference or " ".join(argv),
    }


# ---------------------------------------------------------------------------
# preset structure constants, written out independently of the program so the
# generator's output does not move when the program's presets are refactored.
# Indices are 0-based; mul maps (i, j) to {k: coefficient}.
# ---------------------------------------------------------------------------


def _truncated_poly(k):
    mul = {(i, j): {i + j: 1} for i in range(k) for j in range(k) if i + j < k}
    return k, mul, {0: 1}


def _matrix2():
    idx = {(i, j): 2 * i + j for i in range(2) for j in range(2)}
    mul = {(idx[i, j], idx[j, l]): {idx[i, l]: 1}
           for i in range(2) for j in range(2) for l in range(2)}
    return 4, mul, {idx[0, 0]: 1, idx[1, 1]: 1}


def _upper_triangular2():
    pairs = [(0, 0), (0, 1), (1, 1)]
    pos = {p: n for n, p in enumerate(pairs)}
    mul = {(pos[i, j], pos[k, l]): {pos[i, l]: 1}
           for (i, j) in pairs for (k, l) in pairs if j == k}
    return 3, mul, {pos[0, 0]: 1, pos[1, 1]: 1}


PRESET_TABLES = {
    "truncated_poly:3": lambda: _truncated_poly(3),
    "matrix:2": _matrix2,
    "dual_numbers": lambda: (2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {0: 1}),
    "fat_point": lambda: (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                              (0, 2): {2: 1}, (2, 0): {2: 1}}, {0: 1}),
    "upper_triangular:2": _upper_triangular2,
}

# Entries of the random triangular factors of the change of basis.
_FACTOR_ENTRIES = sorted({Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)})


def _inverse(P):
    n = len(P)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _random_basis_change(rng, n):
    """Dense invertible P = L U with L unit lower and U upper triangular."""
    L = [[Fraction(int(i == j)) if j >= i else rng.choice(_FACTOR_ENTRIES)
          for j in range(n)] for i in range(n)]
    U = [[rng.choice(_FACTOR_ENTRIES) if j >= i else Fraction(0)
          for j in range(n)] for i in range(n)]
    return [[sum((L[i][k] * U[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def rebase(preset, rng):
    """Structure constants of the preset in a random rational basis.

    The new basis vector f_i has coordinates P[.][i] in the preset basis, so
    f_i f_j = sum_{a,b} P[a][i] P[b][j] e_a e_b, rewritten in the f basis
    through P^-1.  Returns (dim, mul, unit) with Fraction coefficients.
    """
    dim, mul, unit = PRESET_TABLES[preset]()
    P = _random_basis_change(rng, dim)
    Pinv = _inverse(P)

    def to_f(vec_e):
        return {k: c for k in range(dim)
                if (c := sum((Pinv[k][a] * v for a, v in vec_e.items()), Fraction(0)))}

    new_mul = {}
    for i in range(dim):
        for j in range(dim):
            acc = {}
            for (a, b), prod in mul.items():
                w = P[a][i] * P[b][j]
                if w:
                    for c, v in prod.items():
                        acc[c] = acc.get(c, Fraction(0)) + w * v
            vec = to_f(acc)
            if vec:
                new_mul[(i, j)] = vec
    new_unit = to_f({a: Fraction(v) for a, v in unit.items()})
    return dim, new_mul, new_unit


def _terms(vec):
    return " + ".join(f"{c}*{k + 1}" for k, c in sorted(vec.items()))


def dsl_text(name, dim, mul, unit):
    lines = [f"algebra {name} dim {dim}", "basis " + " ".join(f"f{i + 1}" for i in range(dim))]
    lines += [f"mul {i + 1} {j + 1} = {_terms(v)}" for (i, j), v in sorted(mul.items())]
    lines.append(f"unit = {_terms(unit)}")
    return "\n".join(lines) + "\n"


def mean_coefficient_bits(mul):
    """Numerator plus denominator bits per structure constant."""
    coeffs = [c for vec in mul.values() for c in vec.values()]
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs) / len(coeffs)


def generate_rebased(preset, bits_window, seed, slot):
    """(DSL text, number of non-integer structure constants) of the preset
    under a change of basis drawn from (seed, slot).

    Draws are repeated until the table has a structure constant with a real
    denominator (the workload exists to exercise such tables), every one of
    its dim^3 structure constants is nonzero, and their mean size in bits
    lies in bits_window.  The last two conditions hold the cost of a job
    steady across seeds: the elimination's cost follows coefficient size.
    """
    rng = random.Random(f"cyclic_rebased:{seed}:{slot}")
    lo, hi = bits_window
    while True:
        dim, mul, unit = rebase(preset, rng)
        fractional = sum(c.denominator != 1 for vec in mul.values() for c in vec.values())
        if (fractional
                and sum(len(v) for v in mul.values()) == dim ** 3
                and lo <= mean_coefficient_bits(mul) <= hi):
            break
    name = "rebased_" + preset.replace(":", "").replace("_", "")
    return dsl_text(name, dim, mul, unit), fractional


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (subcommand, preset, D, bits window) for cyclic_rebased, each job checked
# against the same subcommand on the preset.  The windows are the middle fifth
# of mean_coefficient_bits over dense draws of each preset.
REBASED = [
    ("hh", "truncated_poly:3", 5, (9.5, 10.6)),
    ("hc", "matrix:2", 4, (16.7, 18.6)),
    ("connes", "dual_numbers", 6, (5.1, 6.1)),
    ("hc", "fat_point", 4, (7.9, 9.1)),
    ("hh", "upper_triangular:2", 4, (9.6, 11.0)),
    ("lambda", "truncated_poly:3", 5, (9.5, 10.6)),
]

WORKLOADS = ["cyclic_presets", "cyclic_rebased", "excision", "lie"]


def jobs_for(workload, seed, workdir: Path):
    """(jobs, setup) for one workload and seed.  setup lists what a cold start
    builds before the first job: ("preset", spec), ("ext", spec), ("file", path)."""
    if workload == "cyclic_presets":
        jobs = [
            job(["hh", "--preset", "truncated_poly:4", "-D", "5"]),
            job(["hc", "--preset", "matrix:2", "-D", "5"]),
            job(["hc", "--preset", "upper_triangular:3", "-D", "4"]),
            job(["connes", "--preset", "matrix:2", "-D", "5"]),
            job(["lambda", "--preset", "truncated_poly:3", "-D", "6"]),
        ]
        setup = [("preset", s) for s in ("truncated_poly:4", "matrix:2", "upper_triangular:3",
                                          "truncated_poly:3")]
    elif workload == "cyclic_rebased":
        jobs, setup = [], []
        for slot, (cmd, preset, D, bits) in enumerate(REBASED):
            path = workdir / f"rebased_{slot}.alg"
            text, fractional = generate_rebased(preset, bits, seed, slot)
            path.write_text(text, encoding="utf-8")
            reference = " ".join([cmd, "--preset", preset, "-D", str(D)] + JSON)
            jobs.append(job([cmd, "--file", str(path), "-D", str(D)], "invariant", reference,
                            label=f"{cmd} rebased {preset} -D {D} ({fractional} non-integer "
                                  f"structure constants)"))
            setup.append(("file", str(path)))
    elif workload == "excision":
        jobs = [
            job(["wodzicki", "--ext", "truncated_poly:3", "-D", "5"]),
            job(["wodzicki", "--ext", "upper_triangular:3", "-D", "3"]),
            job(["wodzicki", "--ext", "square_zero", "-D", "6"]),
            job(["tangent", "--preset", "dual_numbers", "--bases", "dual_numbers,fat_point", "-D", "3"]),
            job(["chern1", "--ext", "matrix_dual:2", "-r", "1", "--seed", str(seed)], "invariant",
                " ".join(["chern1", "--ext", "matrix_dual:2", "-r", "1", "--seed", "0"] + JSON)),
            job(["filtration", "--ext", "truncated_poly:3", "--level", "1", "-D", "5"]),
        ]
        setup = [("ext", s) for s in ("truncated_poly:3", "upper_triangular:3", "square_zero",
                                      "matrix_dual:2")]
        setup += [("preset", s) for s in ("dual_numbers", "fat_point")]
    elif workload == "lie":
        jobs = [
            job(["lqt", "--preset", "rationals", "-r", "4", "-D", "4"]),
            job(["ce", "--preset", "dual_numbers", "--gl", "3", "-D", "5"]),
            job(["trace", "--preset", "dual_numbers", "-r", "3", "-D", "4"]),
            job(["ce", "--preset", "truncated_poly:3", "--gl", "2", "-D", "6"]),
            job(["h2hc1", "--preset", "truncated_poly:3", "-r", "3"]),
        ]
        setup = [("preset", s) for s in ("rationals", "dual_numbers", "truncated_poly:3")]
    else:
        raise KeyError(workload)
    return jobs, setup



def _drop_seed(value):
    if isinstance(value, dict):
        return {k: _drop_seed(v) for k, v in value.items() if k != "seed"}
    if isinstance(value, list):
        return [_drop_seed(v) for v in value]
    return value


def invariant_view(report: dict):
    """Fields equal for isomorphic inputs and any sampling seed: every result
    field except the echoed inputs and the seed itself (betti numbers,
    certified ranges, dims, verdicts, rel_hc0_dim, ...)."""
    return {
        "version": report["version"],
        "results": [_drop_seed({k: v for k, v in r.items() if k != "inputs"})
                    for r in report["results"]],
    }
