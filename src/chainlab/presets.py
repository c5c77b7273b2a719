"""Catalog of built-in algebras and surjections used throughout the test bench."""

from __future__ import annotations

from math import comb

from .algebras import Algebra, AlgebraMorphism, matrix_algebra, matrix_units, product_algebra, tensor
from .cyclic import size_guard
from .errors import NotAugmented, ParseError, UnitError
from .sparse import SparseMatrix

ONE = 1


def rationals() -> Algebra:
    return Algebra(1, ["1"], {(0, 0): {0: ONE}}, unit={0: ONE}, augmentation={0: ONE},
                   name="Q")


def zero_algebra() -> Algebra:
    return Algebra(0, [], {}, name="0")


def dual_numbers() -> Algebra:
    mul = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    return Algebra(2, ["1", "e"], mul, unit={0: ONE}, augmentation={0: ONE},
                   name="Q[e]")


def truncated_poly(k: int) -> Algebra:
    """Q[t]/t^k, basis 1, t, ..., t^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mul = {}
    for i in range(k):
        for j in range(k):
            if i + j < k:
                mul[(i, j)] = {i + j: ONE}
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, k)]
    return Algebra(k, labels, mul, unit={0: ONE}, augmentation={0: ONE},
                   name=f"Q[t]/t^{k}")


def square_zero(dim: int) -> Algebra:
    """Non-unital vector space with zero multiplication."""
    return Algebra(dim, [f"v{i + 1}" for i in range(dim)], {}, name=f"V{dim}(0-mult)")


def fat_point() -> Algebra:
    """Q[x,y]/(x,y)^2."""
    mul = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
           (0, 2): {2: ONE}, (2, 0): {2: ONE}}
    return Algebra(3, ["1", "x", "y"], mul, unit={0: ONE}, augmentation={0: ONE},
                   name="Q[x,y]/(x,y)^2")


def product_qq() -> Algebra:
    """Q x Q with the augmentation onto the first factor."""
    mul = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    return Algebra(2, ["e1", "e2"], mul, unit={0: ONE, 1: ONE}, augmentation={0: ONE},
                   name="QxQ")


def upper_triangular(n: int, base: Algebra | None = None) -> Algebra:
    """Upper-triangular n x n matrices over a unital base."""
    base = base or rationals()
    if not base.is_unital:
        raise UnitError("upper_triangular needs a unital base")
    return matrix_units(base, [(i, j) for i in range(n) for j in range(i, n)],
                        f"UT{n}({base.name or 'A'})")


def _int_arg(args, default: int, least: int = 1) -> int:
    """The first preset parameter as an int >= least, default when there is none."""
    if not args:
        return default
    try:
        value = int(args[0])
    except ValueError:
        raise ParseError(f"preset parameter '{args[0]}' is not an integer") from None
    if value < least:
        raise ParseError(f"preset parameter {value} must be >= {least}")
    return value


def _int_entry(build, default, dim=lambda k: k, least=1):
    """The entry of the preset build(k) of dimension dim(k), k its one int parameter."""
    def entry(args):
        k = _int_arg(args, default, least)
        if len(args) > 1:
            raise ParseError(f"preset takes one parameter, got '{','.join(args)}'")
        return dim(k), lambda: build(k)
    return entry


def _inner(args):
    """The entry of the algebra preset args spell out, commas included (Q if none)."""
    return _resolve(",".join(args)) if args else (1, rationals)


def _matrix(args):
    dim, base = _inner(args[1:])
    r = _int_arg(args, 2)
    return r * r * dim, lambda: matrix_algebra(base(), r)


def _upper_triangular(args):
    n = _int_arg(args, 2)
    dim, base = _inner(args[1:])
    return comb(n + 1, 2) * dim, lambda: upper_triangular(n, base())


def _tensor(args):
    if len(args) != 2:
        raise ParseError("tensor preset needs two algebra names")
    (dim_a, a), (dim_b, b) = map(_resolve, args)
    return dim_a * dim_b, lambda: tensor(a(), b())


_ALGEBRA_BUILDERS = {
    "rationals": (1, rationals),
    "q": (1, rationals),
    "zero": (0, zero_algebra),
    "dual_numbers": (2, dual_numbers),
    "truncated_poly": _int_entry(truncated_poly, 3),
    "square_zero": _int_entry(square_zero, 1, least=0),
    "fat_point": (3, fat_point),
    "product": (2, product_qq),
    "matrix": _matrix,
    "upper_triangular": _upper_triangular,
    "tensor": _tensor,
}


# ---------------------------------------------------------------------------
# surjection presets (extensions I -> A -> B)
# ---------------------------------------------------------------------------


def _augmentation_extension(B: Algebra):
    """B --aug--> Q for an augmented preset."""
    if B.augmentation is None:
        raise NotAugmented(f"{B.name or 'the algebra'} has no augmentation")
    Q = rationals()
    matrix = SparseMatrix(1, B.dim, {(0, k): v for k, v in B.augmentation.items()})
    return AlgebraMorphism(B, Q, matrix)


def _split_product_extension():
    """Q x Q -> Q, second coordinate; kernel is the unital ideal Q x 0."""
    A = product_qq()
    Q = rationals()
    return AlgebraMorphism(A, Q, SparseMatrix(1, 2, {(0, 1): ONE}))


def _upper_triangular_extension(n: int):
    """UT_n(Q) -> Q^n by the diagonal; kernel is the strictly upper part."""
    A = upper_triangular(n)
    diag = rationals()
    for _ in range(n - 1):
        diag = product_algebra(diag, rationals())
    ent = {(i, k): ONE for i, k in enumerate(sorted(A.unit))}  # E_ii*1, the unit's terms
    return AlgebraMorphism(A, diag, SparseMatrix(n, A.dim, ent))


def _matrix_dual_extension(r: int):
    """M_r(Q[e]) -> M_r(Q), e -> 0."""
    A = matrix_algebra(dual_numbers(), r)
    B = matrix_algebra(rationals(), r)
    ent = {(p, 2 * p): ONE for p in range(r * r)}  # E_ij*1 -> E_ij; E_ij*e -> 0
    return AlgebraMorphism(A, B, SparseMatrix(r * r, 2 * r * r, ent))


def _wrapper(make):
    """The entry of make(A), A the algebra preset every parameter spells out."""
    def entry(args):
        dim, build = _inner(args)
        return dim, lambda: make(build())
    return entry


_EXTENSION_BUILDERS = {
    "split_product": (2, _split_product_extension),
    "square_zero": (2, lambda: _augmentation_extension(dual_numbers())),
    "dual_numbers": (2, lambda: _augmentation_extension(dual_numbers())),
    "truncated_poly": _int_entry(lambda k: _augmentation_extension(truncated_poly(k)), 3),
    "fat_point": (3, lambda: _augmentation_extension(fat_point())),
    "upper_triangular": _int_entry(_upper_triangular_extension, 2, lambda n: comb(n + 1, 2)),
    "matrix_dual": _int_entry(_matrix_dual_extension, 2, lambda r: 2 * r * r),
    "identity": _wrapper(lambda A: AlgebraMorphism(A, A, SparseMatrix.identity(A.dim))),
    "collapse": _wrapper(lambda A: AlgebraMorphism(A, zero_algebra(),
                                                   SparseMatrix.zeros(0, A.dim))),
    "aug": _wrapper(_augmentation_extension),
}


def _parse(spec: str):
    name, _, argstr = spec.partition(":")
    return name.strip().lower(), [a.strip() for a in argstr.split(",") if a.strip()] if argstr else []


def _resolve(spec: str, extension=False):
    """(dimension, builder) of spec's catalog entry, which reads its parameters
    once: the dimension of the algebra (of the source, for an extension) and
    the zero-argument callable that builds it.  A simple preset's entry is
    that pair, and it takes no parameters.  Nothing is built; a bad name or
    parameter raises here, before any size guard."""
    name, args = _parse(spec)
    entries = _EXTENSION_BUILDERS if extension else _ALGEBRA_BUILDERS
    entry = entries.get(name)
    if entry is None:
        raise ParseError(f"unknown {'extension' if extension else 'algebra'} preset '{name}' "
                         f"(known: {', '.join(sorted(entries))})")
    if args and type(entry) is tuple:
        raise ParseError(f"preset '{name}' takes no parameters, got '{','.join(args)}'")
    return entry if type(entry) is tuple else entry(args)


def algebra_preset(spec: str) -> Algebra:
    """Resolve 'name' or 'name:arg1,arg2' to an Algebra."""
    return _resolve(spec)[1]()


def extension_preset(spec: str) -> AlgebraMorphism:
    return _resolve(spec, extension=True)[1]()


def preset_dim(spec: str, extension=False) -> int:
    """The dimension of the algebra spec names (of the source, for an extension
    preset), read off its catalog entry without building anything.  A spec
    whose name or parameters the catalog rejects raises the ParseError that
    building it raises."""
    return _resolve(spec, extension)[0]


def guarded_preset(spec: str, size_limit=None, extension=False):
    """The algebra (or extension) spec names, once its dimension is within the
    size limit; a bad name or parameter is reported first.  It builds through
    algebra_preset or extension_preset, the spans perfbench/tracer.py times."""
    size_guard(preset_dim(spec, extension), size_limit,
               f"{'extension' if extension else 'preset'} '{spec}'")
    return (extension_preset if extension else algebra_preset)(spec)
