"""Catalog of built-in algebras and surjections used throughout the test bench."""

from __future__ import annotations

from math import comb

from .algebras import Algebra, AlgebraMorphism, matrix_algebra, product_algebra
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
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    d = base.dim
    dim = len(pairs) * d

    def idx(p, a):
        return pos[p] * d + a

    mul = {}
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j != k:
                continue
            for a in range(d):
                for b in range(d):
                    prod = base.mul_basis(a, b)
                    if prod:
                        mul[(idx((i, j), a), idx((k, l), b))] = {
                            idx((i, l), c): v for c, v in prod.items()
                        }
    unit = {}
    for i in range(n):
        for a, v in base.unit.items():
            unit[idx((i, i), a)] = v
    labels = [f"E{i + 1}{j + 1}*{base.labels[a]}" for (i, j) in pairs for a in range(d)]
    return Algebra(dim, labels, mul, unit=unit, name=f"UT{n}({base.name or 'A'})")


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


_ALGEBRA_BUILDERS = {
    "rationals": lambda args: rationals(),
    "q": lambda args: rationals(),
    "zero": lambda args: zero_algebra(),
    "dual_numbers": lambda args: dual_numbers(),
    "truncated_poly": lambda args: truncated_poly(_int_arg(args, 3)),
    "square_zero": lambda args: square_zero(_int_arg(args, 1, least=0)),
    "fat_point": lambda args: fat_point(),
    "product": lambda args: product_qq(),
    "matrix": lambda args: matrix_algebra(
        algebra_preset(args[1]) if len(args) > 1 else rationals(), _int_arg(args, 2)
    ),
    "upper_triangular": lambda args: upper_triangular(
        _int_arg(args, 2), algebra_preset(args[1]) if len(args) > 1 else None,
    ),
    "tensor": lambda args: _tensor_preset(args),
}


def _tensor_preset(args):
    from .algebras import tensor

    if len(args) != 2:
        raise ParseError("tensor preset needs two algebra names")
    return tensor(algebra_preset(args[0]), algebra_preset(args[1]))


def _parse(spec: str):
    name, _, argstr = spec.partition(":")
    return name.strip().lower(), [a.strip() for a in argstr.split(",") if a.strip()] if argstr else []


def algebra_preset(spec: str) -> Algebra:
    """Resolve 'name' or 'name:arg1,arg2' to an Algebra."""
    name, args = _parse(spec)
    builder = _ALGEBRA_BUILDERS.get(name)
    if builder is None:
        raise ParseError(f"unknown algebra preset '{name}' "
                         f"(known: {', '.join(sorted(_ALGEBRA_BUILDERS))})")
    return builder(args)


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
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    ent = {}
    for k, (i, j) in enumerate(pairs):
        if i == j:
            ent[(i, k)] = ONE
    return AlgebraMorphism(A, diag, SparseMatrix(n, len(pairs), ent))


def _matrix_dual_extension(r: int):
    """M_r(Q[e]) -> M_r(Q), e -> 0."""
    A = matrix_algebra(dual_numbers(), r)
    B = matrix_algebra(rationals(), r)
    ent = {}
    for p in range(r * r):
        ent[(p, 2 * p)] = ONE  # E_ij*1 -> E_ij; E_ij*e -> 0
    return AlgebraMorphism(A, B, SparseMatrix(r * r, 2 * r * r, ent))


def _identity_extension(spec: str):
    A = algebra_preset(spec)
    return AlgebraMorphism(A, A, SparseMatrix.identity(A.dim))


def _collapse_extension(spec: str):
    A = algebra_preset(spec)
    return AlgebraMorphism(A, zero_algebra(), SparseMatrix.zeros(0, A.dim))


_EXTENSION_BUILDERS = {
    "split_product": lambda args: _split_product_extension(),
    "square_zero": lambda args: _augmentation_extension(dual_numbers()),
    "dual_numbers": lambda args: _augmentation_extension(dual_numbers()),
    "truncated_poly": lambda args: _augmentation_extension(truncated_poly(_int_arg(args, 3))),
    "fat_point": lambda args: _augmentation_extension(fat_point()),
    "upper_triangular": lambda args: _upper_triangular_extension(_int_arg(args, 2)),
    "matrix_dual": lambda args: _matrix_dual_extension(_int_arg(args, 2)),
    "identity": lambda args: _identity_extension(",".join(args) or "rationals"),
    "collapse": lambda args: _collapse_extension(",".join(args) or "rationals"),
    "aug": lambda args: _augmentation_extension(algebra_preset(",".join(args) or "rationals")),
}


def extension_preset(spec: str) -> AlgebraMorphism:
    name, args = _parse(spec)
    builder = _EXTENSION_BUILDERS.get(name)
    if builder is None:
        raise ParseError(f"unknown extension preset '{name}' "
                         f"(known: {', '.join(sorted(_EXTENSION_BUILDERS))})")
    return builder(args)


# The dimension of each preset's algebra (of an extension's source algebra),
# read off its parameters so that a size guard can run before anything is built.
_ALGEBRA_DIMS = {
    "rationals": lambda args: 1, "q": lambda args: 1, "zero": lambda args: 0,
    "dual_numbers": lambda args: 2, "fat_point": lambda args: 3, "product": lambda args: 2,
    "truncated_poly": lambda args: _int_arg(args, 3),
    "square_zero": lambda args: _int_arg(args, 1, least=0),
    "matrix": lambda args: _int_arg(args, 2) ** 2 * (preset_dim(args[1]) if len(args) > 1 else 1),
    "upper_triangular": lambda args: (comb(_int_arg(args, 2) + 1, 2)
                                      * (preset_dim(args[1]) if len(args) > 1 else 1)),
    "tensor": lambda args: preset_dim(args[0]) * preset_dim(args[1]),
}
_EXTENSION_DIMS = {
    "split_product": lambda args: 2, "square_zero": lambda args: 2,
    "dual_numbers": lambda args: 2, "fat_point": lambda args: 3,
    "truncated_poly": lambda args: _int_arg(args, 3),
    "upper_triangular": lambda args: comb(_int_arg(args, 2) + 1, 2),
    "matrix_dual": lambda args: 2 * _int_arg(args, 2) ** 2,
    **dict.fromkeys(("identity", "collapse", "aug"),
                    lambda args: preset_dim(",".join(args) or "rationals")),
}


def preset_dim(spec: str, extension=False) -> int:
    """The dimension of the algebra spec names (of the source, for an extension
    preset), without building it.  Raises ParseError or LookupError on some of
    the specs the builder rejects."""
    name, args = _parse(spec)
    return (_EXTENSION_DIMS if extension else _ALGEBRA_DIMS)[name](args)


def guarded_preset(spec: str, size_limit=None, extension=False):
    """The algebra (or extension) spec names, once the dimension read off spec
    is within the size limit; a spec preset_dim cannot read is left to the
    builder's own error."""
    try:
        dim = preset_dim(spec, extension)
    except (ParseError, LookupError):
        dim = 0
    size_guard(dim, size_limit, f"{'extension' if extension else 'preset'} '{spec}'")
    return (extension_preset if extension else algebra_preset)(spec)
