"""Chain complexes of rational vector spaces, homology, cones, quasi-isomorphisms.

Homological (lower) indexing throughout: d_n maps degree n to degree n-1 and
d_n . d_{n+1} = 0 is asserted exactly when a complex is constructed.  Every
complex carries a certified interval: the degrees where enough boundary data
is materialised for the reported homology to equal the untruncated answer.

Every restricted complex is cut out of a built one by one of two primitives,
each checking that the cut is closed under d before it keeps the result:
subcomplex keeps a coordinate family and raises if d leaks out of it;
quotient_complex passes to a quotient whose classes are signed coordinates
(a plain coordinate quotient is a selection) and checks column by column that
d descends, i.e. proj d = d' proj.  It reads d as ((row, col), value)
entries, a built complex's through entries_of; its check-and-emit step,
descend, also serves the lambda complex, which projects b's runs.
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import DegreeMismatch, RangeNotCertified
from .sparse import SparseMatrix, Subspace, Vector, exact_vec


class Interval(SimpleNamespace):
    def __init__(self, lo: int, hi: int):  # hi inclusive; empty when hi < lo
        super().__init__(lo=lo, hi=hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __contains__(self, n):
        return self.lo <= n <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    @property
    def empty(self):
        return self.hi < self.lo

    def intersect(self, other):
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def to_jsonable(self):
        return [self.lo, self.hi]


class HomologyReport(SimpleNamespace):
    def __init__(self, betti: dict, certified: Interval, representatives: dict | None = None):
        super().__init__(betti=betti, certified=certified, representatives=representatives)

    def betti_tuple(self, lo=None, hi=None):
        lo = self.certified.lo if lo is None else lo
        hi = self.certified.hi if hi is None else hi
        return tuple(self.betti[n] for n in range(lo, hi + 1))

    def to_jsonable(self):
        out = {
            "betti": {str(k): v for k, v in sorted(self.betti.items())},
            "certified_range": self.certified.to_jsonable(),
        }
        if self.representatives is not None:
            out["representatives"] = {
                str(n): [sorted((k, str(v)) for k, v in vec.items()) for vec in vecs]
                for n, vecs in sorted(self.representatives.items())
            }
        return out


class ChainComplex:
    """Bounded chain complex with explicit sparse differentials.

    dims maps each materialised degree to its dimension (a contiguous
    interval), diffs[n] is d_n for lo < n <= hi.  Degrees outside the
    materialised window are treated as zero spaces only insofar as the
    certified interval claims.
    """

    def __init__(self, dims: dict, diffs: dict, certified: Interval, check=True, bounded_above=False):
        if not dims:
            raise ValueError("empty complex needs at least one degree")
        degrees = sorted(dims)
        if degrees != list(range(degrees[0], degrees[-1] + 1)):
            raise ValueError("degrees must be contiguous")
        self.lo, self.hi = degrees[0], degrees[-1]
        for n in degrees:
            if dims[n] < 0:
                raise ValueError(f"degree {n} has negative dimension {dims[n]}")
        stray = [n for n in diffs if not self.lo < n <= self.hi]
        if stray:
            raise ValueError(f"d_{min(stray)} has no source and target among degrees {self.lo}..{self.hi}")
        self.dims = dict(dims)
        self.diffs = dict(diffs)
        self.certified = certified
        self.bounded_above = bounded_above  # True: degrees above hi are genuinely zero
        self._ranks = {}
        self._pivots = None  # n -> pivot columns of d_n, kept once d.d = 0 is checked
        if check:
            self.validate()

    def validate(self):
        for n in range(self.lo + 1, self.hi + 1):
            d = self.diffs.get(n)
            if d is None:
                raise ValueError(f"missing differential at degree {n}")
            if (d.nrows, d.ncols) != (self.dims[n - 1], self.dims[n]):
                raise ValueError(
                    f"d_{n} has shape {d.nrows}x{d.ncols}, expected "
                    f"{self.dims[n - 1]}x{self.dims[n]}"
                )
        for n in range(self.lo + 2, self.hi + 1):
            prod = self.diffs[n - 1] @ self.diffs[n]
            if not prod.is_zero():
                raise ValueError(f"d_{n - 1} . d_{n} != 0")
        self._pivots = {}

    def dim(self, n):
        return self.dims.get(n, 0)

    def differential(self, n) -> SparseMatrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return SparseMatrix.zeros(self.dim(n - 1), self.dim(n))

    def rank_d(self, n) -> int:
        """rank d_n, without the rows at d_{n-1}'s pivot columns when d_{n-1} was
        ranked first and d.d = 0 was checked (validate ran, or this is a shift of
        a complex where it did): the cut keeps the rank (see sparse)."""
        if n not in self._ranks:
            d = self.diffs.get(n)
            below = self._pivots.get(n - 1) if self._pivots is not None else None
            if d is not None and below:
                d = d.without_rows(below)
            self._ranks[n] = d.rank() if d is not None else 0
            if self._pivots is not None:
                self._pivots[n] = d.pivots if d is not None else set()
        return self._ranks[n]

    def betti(self, n) -> int:
        if n not in self.certified:
            raise RangeNotCertified(f"degree {n} outside certified {self.certified}")
        return self.dim(n) - self.rank_d(n) - self.rank_d(n + 1)

    def homology(self, rng: Interval, reps=False) -> HomologyReport:
        if rng.lo not in self.certified or rng.hi not in self.certified:
            raise RangeNotCertified(f"requested {rng} outside certified {self.certified}")
        betti = {n: self.betti(n) for n in rng}
        representatives = None
        if reps:
            representatives = {n: HomologySpace(self, n).representatives for n in rng}
        return HomologyReport(betti, rng, representatives)


def subcomplex(diffs: dict, keep: dict, what: str) -> ChainComplex:
    """The coordinates keep[n] of each degree n (contiguous keys lo..hi), with d
    restricted to them; raises unless d maps keep[n] into keep[n-1].  As for a
    complex built to degree hi, homology is certified on lo..hi-1."""
    lo, hi = min(keep), max(keep)
    sub = {}
    for n in range(lo + 1, hi + 1):
        rows = {r: i for i, r in enumerate(keep[n - 1])}
        cols = {c: j for j, c in enumerate(keep[n])}
        ent = {}
        for (r, c), v in diffs[n].entries.items():
            if c in cols:
                if r not in rows:
                    raise ValueError(f"{what}: differential leaks out of the subcomplex at degree {n}")
                ent[(rows[r], cols[c])] = v
        sub[n] = SparseMatrix(len(rows), len(cols), ent)
    return ChainComplex({n: len(keep[n]) for n in keep}, sub, Interval(lo, hi - 1))


def selection(keep, dim):
    """The walk (classes, tops) of the coordinate quotient of Q^dim onto keep."""
    classes = [None] * dim
    for j, y in enumerate(keep):
        classes[y] = (j, 1)
    return classes, list(keep)


def entries_of(diffs: dict) -> dict:
    """n -> the ((row, col), value) entries of the matrix diffs[n]."""
    return {n: d.entries.items() for n, d in diffs.items()}


def quotient_complex(entries: dict, walks: dict, what: str) -> ChainComplex:
    """The quotient of each degree n (contiguous keys lo..hi) by walks[n] =
    (classes, tops): classes[y] = (j, c) with c = +-1 when [e_y] = c [e_tops[j]],
    None when [e_y] = 0.  entries[n] yields the nonzero entries of d_n as
    ((row, col), value); one outside the degrees raises IndexError.  Homology
    is certified on lo..hi-1.

    proj d is d with each entry moved to its row's class and negated where the
    class sign is -1, never multiplied, so Fraction entries stay cheap; descend
    checks it and emits d'.
    """
    lo, hi = min(walks), max(walks)
    quot = {}
    for n in range(lo + 1, hi + 1):
        row_classes = walks[n - 1][0]
        cols = [{} for _ in walks[n][0]]  # y -> proj d e_y
        for (r, y), v in entries[n]:
            try:
                if r < 0 or y < 0:  # a negative index would wrap round
                    raise IndexError
                hit, col = row_classes[r], cols[y]
            except IndexError:
                raise IndexError(f"{what}: entry ({r},{y}) of d_{n} outside "
                                 f"{len(row_classes)}x{len(cols)}") from None
            if hit:
                s = col.get(hit[0], 0) + (v if hit[1] == 1 else -v)
                if s:
                    col[hit[0]] = s
                else:
                    del col[hit[0]]
        quot[n] = descend(cols, walks, n, what)
    return ChainComplex({n: len(walks[n][1]) for n in walks}, quot, Interval(lo, hi - 1))


def descend(cols: list, walks: dict, n: int, what: str) -> SparseMatrix:
    """d'_n from cols[y] = proj d e_y (walks as in quotient_complex), each
    column's rows ascending.  d descends exactly when proj d = d' proj,
    checked column by column: the column of e_y is c times that of
    e_tops[j], or 0 when [e_y] = 0.  d' is a SparseMatrix, which normalizes
    its entries."""
    classes, tops = walks[n]
    negated = {}  # j -> -(proj d e_tops[j]), built once per class
    for col, hit in zip(cols, classes):
        want = cols[tops[hit[0]]] if hit else {}
        if hit and hit[1] != 1:
            if hit[0] not in negated:
                negated[hit[0]] = {i: -v for i, v in want.items()}
            want = negated[hit[0]]
        if col != want:
            raise ValueError(f"{what}: induced differential ill-defined at degree {n}")
    return SparseMatrix(len(walks[n - 1][1]), len(tops), (
        ((i, j), v) for j, y in enumerate(tops) for i, v in sorted(cols[y].items())))


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """C[k]: degree n holds C_{n-k}; differentials gain the sign (-1)^k."""
    sign = -1 if k % 2 else 1
    dims = {n + k: d for n, d in C.dims.items()}
    diffs = {n + k: C.diffs[n].scale(sign) for n in C.diffs}
    cert = Interval(C.certified.lo + k, C.certified.hi + k)
    out = ChainComplex(dims, diffs, cert, check=False, bounded_above=C.bounded_above)
    out._ranks = {n + k: r for n, r in C._ranks.items()}
    if C._pivots is not None:  # d.d = 0 was checked on C
        out._pivots = {n + k: p for n, p in C._pivots.items()}
    return out


class ChainMap:
    """Degreewise map commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components: dict):
        self.source = source
        self.target = target
        self.components = dict(components)
        self.validate()

    def component(self, n) -> SparseMatrix:
        f = self.components.get(n)
        if f is not None:
            return f
        return SparseMatrix.zeros(self.target.dim(n), self.source.dim(n))

    def validate(self):
        for n, f in self.components.items():
            if (f.nrows, f.ncols) != (self.target.dim(n), self.source.dim(n)):
                raise ValueError(f"component {n} has wrong shape")
        lo = max(self.source.lo, self.target.lo)
        hi = min(self.source.hi, self.target.hi)
        for n in range(lo + 1, hi + 1):
            lhs = self.target.differential(n) @ self.component(n)
            rhs = self.component(n - 1) @ self.source.differential(n)
            if lhs != rhs:
                raise ValueError(f"map fails to commute with differentials at degree {n}")


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: degree n is target_n + source_{n-1}, d = [[d_T, f],[0, -d_S]].

    Degrees are materialised as far as both inputs carry honest data; above a
    truncated input the cone is cut off and the certified range ends one
    degree earlier.
    """
    s, t = f.source, f.target
    lo = min(t.lo, s.lo + 1)
    t_honest = None if t.bounded_above else t.hi
    s_honest = None if s.bounded_above else s.hi + 1
    limits = [x for x in (t_honest, s_honest) if x is not None]
    bounded = not limits
    hi = max(t.hi, s.hi + 1) if bounded else min(min(limits), max(t.hi, s.hi + 1))
    if hi < lo:
        raise DegreeMismatch("source and target share no usable degrees")
    dims = {n: t.dim(n) + s.dim(n - 1) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        blocks = [
            (0, 0, t.diffs.get(n), 1),
            (0, t.dim(n), f.components.get(n - 1), 1),
            (t.dim(n - 1), t.dim(n), s.diffs.get(n - 1), -1),
        ]
        diffs[n] = SparseMatrix.assemble(dims[n - 1], dims[n], blocks)
    certified = Interval(lo, hi if bounded else hi - 1)
    if certified.empty:
        raise DegreeMismatch("inputs share no degree with certifiable cone homology")
    return ChainComplex(dims, diffs, certified, bounded_above=bounded)


def homotopy_fiber(f: ChainMap) -> ChainComplex:
    """hofib(f) = cone(f)[-1]; its degree-n homology is H_{n+1} of the cone."""
    return shift(cone(f), -1)


class QuasiIsoVerdict(SimpleNamespace):
    def __init__(self, ok: bool, checked: Interval, failing_degree: int | None = None,
                 defect: int | None = None):
        super().__init__(ok=ok, checked=checked, failing_degree=failing_degree, defect=defect)

    def to_jsonable(self):
        out = {"quasi_iso": self.ok, "checked_range": self.checked.to_jsonable()}
        if not self.ok:
            out["failing_degree"] = self.failing_degree
            out["defect"] = self.defect
        return out


def acyclicity(cn: ChainComplex, rng: Interval) -> QuasiIsoVerdict:
    """Verdict that cn, a map's cone, is acyclic on rng within its certified range."""
    rng = rng.intersect(cn.certified)
    report = cn.homology(rng)
    for n in rng:
        if report.betti[n]:
            return QuasiIsoVerdict(False, rng, n, report.betti[n])
    return QuasiIsoVerdict(True, rng)


def is_quasi_iso(f: ChainMap, rng: Interval) -> QuasiIsoVerdict:
    return acyclicity(cone(f), rng)


class HomologySpace:
    """Cycles modulo boundaries in one degree, with explicit representatives.

    Each kernel_basis vector is led by its free column, 1 there and 0 at every
    other free column, so a cycle's coordinates over the kernel basis are its
    free-column entries, and a boundary's are d_{n+1}'s rows at those columns.
    The boundaries span a Subspace whose slots hold the kernel vectors in
    reverse order, so its pivots are the kernel vectors that depend on the
    boundaries and the kernel vectors before them; the rest, in kernel order,
    are the representatives.  classify reduces free-column entries against it.
    """

    def __init__(self, C: ChainComplex, n: int):
        if n not in C.certified:
            raise RangeNotCertified(f"degree {n} outside certified {C.certified}")
        self.complex = C
        self.degree = n
        kernel = C.differential(n).kernel_basis() if C.dim(n) else []
        last = len(kernel) - 1
        self._slot = {next(iter(v)): last - i for i, v in enumerate(kernel)}  # free column -> slot
        self._boundaries = Subspace(len(kernel))
        d_in = C.diffs.get(n + 1)
        if d_in is not None:
            cols = {}
            for (r, c), v in d_in.entries.items():
                if r in self._slot:
                    cols.setdefault(c, {})[self._slot[r]] = v
            for col in cols.values():
                self._boundaries.add(col)
        bounded = set(self._boundaries.pivot_cols())
        self.representatives = []
        self._rep = {}  # slot -> index among the representatives
        for i, v in enumerate(kernel):
            if last - i not in bounded:
                self._rep[last - i] = len(self.representatives)
                self.representatives.append(v)

    @property
    def dim(self):
        return len(self.representatives)

    def classify(self, v: Vector) -> Vector:
        """Coordinates of the class [v] over the representative basis."""
        dim = self.complex.dim(self.degree)
        if any(not 0 <= k < dim for k in v):
            raise ValueError(f"vector has a coordinate outside degree {self.degree} "
                             f"of dimension {dim}")
        if self.complex.differential(self.degree).apply(v):
            raise ValueError("vector is not a cycle")
        r = self._boundaries.reduce({self._slot[k]: c for k, c in v.items() if k in self._slot})
        return exact_vec({self._rep[s]: c for s, c in r.items()})

    def classify_many(self, vectors):
        return [self.classify(v) for v in vectors]
