"""Finite-dimensional associative algebras over Q by structure constants.

Every constructor revalidates associativity on all basis triples, so no
unvalidated algebra can circulate.  The check builds both sides of the
identity, (x_i x_j) x_k and x_i (x_j x_k), as tensors keyed (i, j, k) by
walking only the nonzero structure constants; a triple neither side reaches
is 0 = 0, so every triple is covered, and the smallest triple where the sides
differ is the one reported.  The bimodule axioms are checked the same way.
An algebra's rational table is checked on its constants times L, the lcm of
their denominators, as ints: both sides scale by L^2, so the failing triples
are the same.  Each product table is also kept as rows {i: {j: e_i e_j}},
built with it, on which sparse.bilinear multiplies vectors (mul_vec,
left_vec, right_vec and lie's bracket_vec).
Algebras may be non-unital; an optional augmentation (an algebra map to Q
given by a coefficient functional) marks the local augmented algebras used as
test bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    AssociativityError,
    IdealNotNilpotent,
    NotAnIdeal,
    NotAugmented,
    UnitError,
)
from .sparse import (SparseMatrix, Subspace, Vector, bilinear, exact_vec, product_ranks,
                     table_rows, vec_axpy, vec_sub)

ONE = 1


def nested_products(inner: dict, outer: dict, left: bool) -> dict:
    """Every (x y) z (left) or x (y z) (not left) reached by nonzero structure
    constants, keyed (x, y, z).  inner is the table {(x, y): x y} of the
    product taken first, outer that of the one taken second.  A key absent
    from the result, or mapped to {}, is a zero product."""
    by_slot = {}  # the factor outer shares with inner's product -> [(other factor, product)]
    for (u, z), vec in outer.items():
        by_slot.setdefault(u if left else z, []).append((z if left else u, vec))
    out = {}
    for (x, y), v in inner.items():
        for u, c in v.items():
            for z, w in by_slot.get(u, ()):
                vec_axpy(out.setdefault((x, y, z) if left else (z, x, y), {}), c, w)
    return out


def mismatches(lhs: dict, rhs: dict) -> list:
    """The keys where two tensors from nested_products differ."""
    return [k for k in lhs.keys() | rhs.keys() if lhs.get(k, {}) != rhs.get(k, {})]


def _integral_table(mul: dict) -> tuple:
    """(L, table): L the lcm of the denominators of the structure constants mul,
    table the constants times L as ints (mul itself when L = 1)."""
    L = lcm(*(c.denominator for v in mul.values() for c in v.values() if type(c) is not int))
    if L == 1:
        return 1, mul
    return L, {k: {i: c * L if type(c) is int else c.numerator * (L // c.denominator)
                   for i, c in v.items()} for k, v in mul.items()}


class Algebra:
    def __init__(self, dim, labels, mul, unit=None, augmentation=None, name=None, check=True):
        if dim < 0:
            raise ValueError(f"algebra dimension {dim} is negative")
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i + 1}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.mul = {k: e for k, v in mul.items() if (e := exact_vec(v))}
        self.unit = exact_vec(unit) if unit else None
        self.augmentation = exact_vec(augmentation) if augmentation else None
        self.name = name
        self._rows = table_rows(self.mul)
        if check:
            self._validate()
        self.commutative = all(self.mul_basis(j, i) == v for (i, j), v in self.mul.items())

    # -- multiplication -------------------------------------------------
    def mul_basis(self, i, j) -> Vector:
        return self.mul.get((i, j), {})

    def mul_vec(self, x: Vector, y: Vector) -> Vector:
        return bilinear(self._rows, x, y)

    def integral(self):
        """(B, L): this algebra in the basis L e_i, L the lcm of the structure
        constants' denominators.  B's constants L c are ints, its unit is u / L
        and its augmentation L eps; an integral table gives (self, 1), no copy."""
        L, mul = _integral_table(self.mul)
        if L == 1:
            return self, 1
        unit = self.unit and {i: Fraction(c, L) for i, c in self.unit.items()}
        aug = self.augmentation and {i: L * c for i, c in self.augmentation.items()}
        return Algebra(self.dim, self.labels, mul, unit, aug, self.name), L

    def unit_adapted(self, droppable=None, fewer_than=None) -> "Algebra | None":
        """This unital algebra in the basis g_0 = 1, g_k = L e_k for k != j in
        order, j the first coordinate of the unit u among the letters droppable
        (all by default), labelled "1" and "L*" + e_k's label.  With f_0 = 1
        and f_k = e_k, L is the lcm of the denominators of the constants of
        f_x f_y (x, y >= 1), and g_x g_y = L^2 c^0 g_0 + L c^z g_z: int
        constants, unit {0: 1}.  With fewer_than, None (nothing built) unless
        that table has fewer nonzero constants, first read off the support: it
        has at least one per g_0 g_k, g_k g_0 and nonzero e_a e_b (a, b != j)."""
        if not self.is_unital:
            raise UnitError("a unit-adapted basis needs a unital algebra")
        u = self.unit
        j = min(k for k in u if droppable is None or k in droppable)
        if fewer_than is not None and 2 * self.dim - 1 + sum(j not in ab for ab in self.mul) >= fewer_than:
            return None
        others = [k for k in range(self.dim) if k != j]
        inv = 1 / Fraction(u[j])

        def coords(v):  # e-coordinates -> f-coordinates
            t = v.get(j, 0) * inv
            return exact_vec({0: t, **{s: v.get(k, 0) - t * u.get(k, 0) for s, k in enumerate(others, 1)}})

        L, table = _integral_table({(x, y): coords(self.mul[a, b]) for x, a in enumerate(others, 1)
                                    for y, b in enumerate(others, 1) if (a, b) in self.mul})
        mul = {(x, y): {z: c * L if z == 0 else c for z, c in v.items()} for (x, y), v in table.items()}
        mul.update({pair: {max(pair): ONE} for k in range(self.dim) for pair in ((0, k), (k, 0))})
        if fewer_than is not None and sum(map(len, mul.values())) >= fewer_than:
            return None
        labels = ["1"] + [f"{L}*{self.labels[k]}" if L > 1 else self.labels[k] for k in others]
        return Algebra(self.dim, labels, mul, unit={0: ONE}, name=self.name)

    @property
    def is_unital(self):
        return self.unit is not None

    def counit(self, x: Vector):
        """Value of the augmentation functional on x."""
        if self.augmentation is None:
            raise NotAugmented(f"algebra {self.name or ''} has no augmentation")
        return sum(self.augmentation[k] * c for k, c in x.items() if k in self.augmentation)

    def nilpotency_order(self):
        """Least N with all length-N products zero, or None if not nilpotent."""
        units = [{i: ONE} for i in range(self.dim)]
        ranks = product_ranks(self.dim, units, self.mul_vec, Subspace(self.dim, units))
        return None if ranks[-1] else len(ranks)

    # -- validation -------------------------------------------------------
    def _validate(self):
        for (i, j), vec in self.mul.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError("product index out of range")
            for k in vec:
                if not 0 <= k < self.dim:
                    raise ValueError("product coefficient index out of range")
        for name, vec in (("unit", self.unit), ("augmentation", self.augmentation)):
            bad = [k for k in vec or () if not 0 <= k < self.dim]
            if bad:
                raise ValueError(f"{name} coordinate {bad[0]} outside algebra dim {self.dim}")
        # in the basis L e_i both sides scale by L^2: the same mismatches, in ints
        table = _integral_table(self.mul)[1]
        bad = min(mismatches(nested_products(table, table, True),
                             nested_products(table, table, False)),
                  default=None)
        if bad is not None:
            raise AssociativityError(tuple(x + 1 for x in bad))
        if self.unit is not None:
            for i in range(self.dim):
                e = {i: ONE}
                if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                    raise UnitError(f"declared unit fails on basis element {i + 1}")
        if self.augmentation is not None:
            if self.unit is not None and self.counit(self.unit) != 1:
                raise UnitError("augmentation does not send the unit to 1")
            for i in range(self.dim):
                for j in range(self.dim):
                    if self.counit(self.mul_basis(i, j)) != self.augmentation.get(i, 0) * self.augmentation.get(j, 0):
                        raise UnitError(f"augmentation is not multiplicative on pair ({i + 1},{j + 1})")

    def __repr__(self):
        return f"Algebra({self.name or 'anonymous'}, dim={self.dim})"


class Bimodule:
    """Left and right module structure over a single algebra."""

    def __init__(self, algebra: Algebra, dim, left, right, name=None, check=True):
        if dim < 0:
            raise ValueError(f"module dimension {dim} is negative")
        self.algebra = algebra
        self.dim = dim
        self.left = {k: e for k, v in left.items() if (e := exact_vec(v))}
        self.right = {k: e for k, v in right.items() if (e := exact_vec(v))}
        self._left_rows, self._right_rows = table_rows(self.left), table_rows(self.right)
        self.name = name
        if check:
            self._validate()

    def left_basis(self, a, m) -> Vector:
        return self.left.get((a, m), {})

    def right_basis(self, m, a) -> Vector:
        return self.right.get((m, a), {})

    def right_vec(self, mvec: Vector, avec: Vector) -> Vector:
        return bilinear(self._right_rows, mvec, avec)

    def left_vec(self, avec: Vector, mvec: Vector) -> Vector:
        return bilinear(self._left_rows, avec, mvec)

    def _validate(self):
        """(ab)m = a(bm), m(ab) = (ma)b and (am)b = a(mb) on every triple; the
        first failure in the order a, b, m (then left, right, compatibility)
        is reported, with 0-based indices, once every index is in range."""
        A, L, R, da, dm = self.algebra.mul, self.left, self.right, self.algebra.dim, self.dim
        for side, table, bounds in (("left", L, (da, dm)), ("right", R, (dm, da))):
            for key, vec in table.items():
                if not all(0 <= x < n for x, n in zip(key, bounds)):
                    raise ValueError(f"{side} action key {key} out of range: algebra dim {da}, module dim {dm}")
                if not all(0 <= k < dm for k in vec):
                    raise ValueError(f"{side} action {key} has a coordinate outside module dim {dm}: {vec}")
        left = mismatches(nested_products(A, L, True), nested_products(L, L, False))
        right = mismatches(nested_products(R, R, True), nested_products(A, R, False))
        both = mismatches(nested_products(L, R, True), nested_products(R, L, False))
        first = min([(a, b, m, 0) for a, b, m in left] + [(a, b, m, 1) for m, a, b in right]
                    + [(a, b, m, 2) for a, m, b in both], default=None)
        if first is not None:
            a, b, m, which = first
            raise ValueError((f"left action not associative at ({a},{b},{m})",
                              f"right action not associative at ({m},{a},{b})",
                              f"left/right actions do not commute at ({a},{m},{b})")[which])

    @classmethod
    def regular(cls, A: Algebra):
        return cls(A, A.dim, A.mul, A.mul, name="regular", check=False)

    @classmethod
    def trivial(cls, A: Algebra, dim):
        return cls(A, dim, {}, {}, name="trivial")

    @classmethod
    def over_morphism(cls, f: "AlgebraMorphism"):
        """Target algebra as a bimodule over the source, acting through f."""
        A, B = f.source, f.target
        fa = [f.apply_basis(a) for a in range(A.dim)]
        left = {(a, m): B.mul_vec(fa[a], {m: ONE}) for a in range(A.dim) for m in range(B.dim)}
        right = {(m, a): B.mul_vec({m: ONE}, fa[a]) for a in range(A.dim) for m in range(B.dim)}
        return cls(A, B.dim, left, right, name=f"{B.name or 'B'} over f")

    def with_algebra(self, A2: Algebra, basis_map: SparseMatrix):
        """Same module, actions through a change of algebra basis (columns of
        basis_map express A2 basis in the current algebra's coordinates)."""
        img = basis_map.columns()
        left = {(a, m): self.left_vec(img[a], {m: ONE}) for a in range(A2.dim) for m in range(self.dim)}
        right = {(m, a): self.right_vec({m: ONE}, img[a]) for a in range(A2.dim) for m in range(self.dim)}
        return Bimodule(A2, self.dim, left, right, name=self.name, check=False)


class AlgebraMorphism:
    def __init__(self, source: Algebra, target: Algebra, matrix: SparseMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        self._validate()

    def _validate(self):
        if (self.matrix.nrows, self.matrix.ncols) != (self.target.dim, self.source.dim):
            raise ValueError("morphism matrix has wrong shape")
        cols = self.matrix.columns()
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = {}
                for k, c in self.source.mul_basis(i, j).items():
                    vec_axpy(lhs, c, cols[k])
                if lhs != self.target.mul_vec(cols[i], cols[j]):
                    raise ValueError(f"not multiplicative on basis pair ({i + 1},{j + 1})")

    def apply_basis(self, i) -> Vector:
        return self.matrix.column(i)

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def is_surjective(self):
        return self.matrix.rank() == self.target.dim

    def kernel_vectors(self):
        return self.matrix.kernel_basis()


class Ideal:
    """Two-sided ideal given by a spanning set, stored in reduced basis form."""

    def __init__(self, ambient: Algebra, vectors, name=None):
        self.ambient = ambient
        span = Subspace(ambient.dim, vectors)
        self.basis = span.basis()
        self._span = span
        self.name = name
        self._algebra = None
        self._validate()

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v: Vector):
        return self._span.contains(v)

    def _validate(self):
        bad = [k for b in self.basis for k in b if not 0 <= k < self.ambient.dim]
        if bad:
            raise ValueError(f"ideal vector coordinate {bad[0]} outside algebra dim {self.ambient.dim}")
        for i in range(self.ambient.dim):
            for b in self.basis:
                if not self.contains(self.ambient.mul_vec({i: ONE}, b)):
                    raise NotAnIdeal(f"not closed under left multiplication by e{i + 1}")
                if not self.contains(self.ambient.mul_vec(b, {i: ONE})):
                    raise NotAnIdeal(f"not closed under right multiplication by e{i + 1}")

    def inclusion_matrix(self) -> SparseMatrix:
        return SparseMatrix.from_columns(self.ambient.dim, self.basis)

    def as_algebra(self) -> Algebra:
        """The ideal with its induced multiplication, in the reduced basis."""
        if self._algebra is None:
            prods = [self.ambient.mul_vec(x, y) for x in self.basis for y in self.basis]
            sols = self.inclusion_matrix().solve_many(prods)
            if None in sols:
                raise NotAnIdeal("ideal not closed under its own multiplication")
            mul = {divmod(k, self.dim): sol for k, sol in enumerate(sols) if sol}
            self._algebra = Algebra(self.dim, [f"i{k + 1}" for k in range(self.dim)], mul,
                                    name=(self.name or "ideal"))
        return self._algebra

    def nilpotency_order(self):
        """Least N with I^N = 0, or None when the power chain stabilises."""
        ranks = product_ranks(self.ambient.dim, self.basis, self.ambient.mul_vec, self._span)
        if ranks[-1]:
            return None
        return len(ranks) if ranks[0] else 1

    @property
    def is_nilpotent(self):
        return self.dim == 0 or self.nilpotency_order() is not None


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def matrix_units(A: Algebra, positions, name) -> Algebra:
    """The algebra spanned by E_ij (x) a for (i, j) in positions, a list that
    E_ij E_jl = E_il keeps inside itself; basis E_ij (x) a in position order,
    then A's.  The table is read off A's nonzero products; the unit is the sum
    of E_ii (x) 1 when A has one and every index has its diagonal position."""
    d = A.dim
    at = {p: k * d for k, p in enumerate(positions)}  # E_ij (x) a is basis element at[i, j] + a
    rows = {}  # i -> [(l, at[i, l])]
    for (i, l), k in at.items():
        rows.setdefault(i, []).append((l, k))
    mul = {}
    for (i, j), left in at.items():
        for l, right in rows.get(j, ()):
            out = at.get((i, l))
            if out is None:
                raise ValueError(f"positions not closed under products: E{i + 1}{l + 1} is missing")
            for (a, b), prod in A.mul.items():
                mul[left + a, right + b] = {out + c: v for c, v in prod.items()}
    diagonal = [at.get((i, i)) for i in sorted({i for p in positions for i in p})]
    unit = ({k + a: v for k in diagonal for a, v in A.unit.items()}
            if A.is_unital and None not in diagonal else None)
    return Algebra(len(positions) * d, [f"E{i + 1}{j + 1}*{x}" for i, j in positions for x in A.labels],
                   mul, unit=unit, name=name)


def matrix_algebra(A: Algebra, r: int) -> Algebra:
    """r x r matrices with entries in A; basis E_ij (x) a, row-major."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return matrix_units(A, [(i, j) for i in range(r) for j in range(r)], f"M{r}({A.name or 'A'})")


def matrix_units_trace(A: Algebra, r: int, v: Vector) -> Vector:
    """Trace of an element of matrix_algebra(A, r): sum of diagonal blocks."""
    d = A.dim
    out = {}
    for key, c in v.items():
        pos, a = divmod(key, d)
        i, j = divmod(pos, r)
        if i == j:
            s = out.get(a, 0) + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
    return out


def unitalization(A: Algebra):
    """Formally adjoin a unit; returns (A_plus, inclusion)."""
    dim = A.dim + 1
    mul = {}
    for i in range(dim):
        mul[(0, i)] = {i: ONE}
        mul[(i, 0)] = {i: ONE}
    for (i, j), v in A.mul.items():
        mul[(i + 1, j + 1)] = {k + 1: c for k, c in v.items()}
    labels = ["1"] + list(A.labels)
    aug = {0: ONE}
    plus = Algebra(dim, labels, mul, unit={0: ONE}, augmentation=aug,
                   name=f"({A.name or 'A'})+")
    inc = AlgebraMorphism(
        A, plus, SparseMatrix(dim, A.dim, {(i + 1, i): ONE for i in range(A.dim)})
    )
    return plus, inc


def tensor(A: Algebra, B: Algebra) -> Algebra:
    """A (x) B with componentwise product; all generators in degree zero."""
    dim = A.dim * B.dim

    def idx(a, b):
        return a * B.dim + b

    labels = [f"{la}(x){lb}" for la in A.labels for lb in B.labels]
    mul = {}
    for (a1, a2), va in A.mul.items():
        for (b1, b2), vb in B.mul.items():
            mul[(idx(a1, b1), idx(a2, b2))] = {
                idx(ka, kb): ca * cb for ka, ca in va.items() for kb, cb in vb.items()
            }
    unit = None
    if A.is_unital and B.is_unital:
        unit = {idx(ka, kb): ca * cb for ka, ca in A.unit.items() for kb, cb in B.unit.items()}
    aug = None
    if A.augmentation is not None and B.augmentation is not None:
        aug = {
            idx(ka, kb): ca * cb
            for ka, ca in A.augmentation.items()
            for kb, cb in B.augmentation.items()
        }
    return Algebra(dim, labels, mul, unit=unit, augmentation=aug,
                   name=f"{A.name or 'A'}(x){B.name or 'B'}")


def product_algebra(A: Algebra, B: Algebra) -> Algebra:
    """Direct product A x B."""
    dim = A.dim + B.dim
    mul = {}
    for (i, j), v in A.mul.items():
        mul[(i, j)] = dict(v)
    for (i, j), v in B.mul.items():
        mul[(A.dim + i, A.dim + j)] = {A.dim + k: c for k, c in v.items()}
    labels = [f"l:{x}" for x in A.labels] + [f"r:{x}" for x in B.labels]
    unit = None
    if A.is_unital and B.is_unital:
        unit = dict(A.unit)
        unit.update({A.dim + k: c for k, c in B.unit.items()})
    return Algebra(dim, labels, mul, unit=unit, name=f"{A.name or 'A'}x{B.name or 'B'}")


def augmentation_ideal(B: Algebra) -> Ideal:
    """Kernel of the augmentation; must be nilpotent (Artinian local case)."""
    if B.augmentation is None:
        raise NotAugmented("algebra carries no augmentation")
    functional = SparseMatrix(1, B.dim, {(0, k): c for k, c in B.augmentation.items()})
    ideal = Ideal(B, functional.kernel_basis(), name=f"Aug({B.name or 'B'})")
    if not ideal.is_nilpotent:
        raise IdealNotNilpotent("augmentation ideal is not nilpotent")
    return ideal


def quotient(A: Algebra, I: Ideal):
    """A/I with the complement-coordinate basis; returns (B, projection)."""
    if I.ambient is not A:
        raise ValueError("ideal does not live in this algebra")
    pivots = set(I._span.pivot_cols())
    complement = [c for c in range(A.dim) if c not in pivots]
    index = {c: k for k, c in enumerate(complement)}

    def project(v: Vector) -> Vector:
        r = I._span.reduce(v)
        return {index[c]: val for c, val in r.items()}

    dim = len(complement)
    mul = {(x, y): project(A.mul_basis(a, b)) for x, a in enumerate(complement)
           for y, b in enumerate(complement)}
    unit = project(A.unit) if A.is_unital else None
    labels = [A.labels[c] for c in complement]
    B = Algebra(dim, labels, mul, unit=unit or None,
                name=f"{A.name or 'A'}/{I.name or 'I'}")
    cols = [project({i: ONE}) for i in range(A.dim)]
    proj = AlgebraMorphism(A, B, SparseMatrix.from_columns(dim, cols))
    return B, proj


def commutator_subspace(A: Algebra):
    """Reduced basis of span{xy - yx}."""
    return Subspace(A.dim, [vec_sub(A.mul_basis(i, j), A.mul_basis(j, i))
                            for i in range(A.dim) for j in range(i + 1, A.dim)]).basis()

