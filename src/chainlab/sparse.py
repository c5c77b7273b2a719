"""Exact sparse linear algebra over the rationals.

Matrices are dictionaries (row, col) -> nonzero exact scalar.  One scalar
discipline holds throughout, and exact() enforces it: a plain int wherever a
value is integral, a Fraction only where a real denominator appears, and
never a float (rejected with TypeError).  Every division goes through
Fraction, so int operands cannot silently produce a float.

Products run fraction-free: each row of the left factor and each column of
the right factor is scaled by the lcm of its denominators as it is read, the
sums are taken in ints and divided back exactly.  Int factors skip this.

Rank and kernel computations run one fraction-free integer elimination per
matrix, over all its rows: the rows of a matrix holding a Fraction are
cleared of denominators by the same scaling, those of an int matrix only
divided by their gcd; pivots are chosen by sparsity (fewest-entries row, then
fewest-entries column), and a row is cleared in place against a pivot row by
the pivot value and its own entry, both first divided by their gcd, so the
intermediate integers stay small; the updated row is then renormalised by its
gcd, which makes it the same row the undivided combination would give.
Kernels and solutions are read off one backward pass over the pivot rows:
solve_many eliminates [M | -b_1 ... -b_k] once and reads the solution of
Mx = b_j off the kernel vector of b_j's column.

rank() keeps the pivot columns it chose, and a chain complex ranks d_n
without the rows at d_{n-1}'s pivot columns P (complexes.ChainComplex.rank_d).
The columns P of d_{n-1} are independent, so ker d_{n-1} meets the span of the
coordinates P only in 0; once d_{n-1} d_n = 0 is checked, im d_n lies in ker
d_{n-1}, so zeroing the rows P keeps d_n's rank and row space.  About rank d_n
+ betti_{n-1} rows are left instead of dim C_{n-1}, almost none of them
eliminated down to zero.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

Vector = dict  # {index: int or Fraction}, zero entries absent

ZERO = 0


def exact(c):
    """c as an exact scalar: int if integral, Fraction otherwise; float raises."""
    if type(c) is int:  # before isinstance(c, Fraction), an ABC check that costs more
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"exact scalar (int or Fraction) expected, got {type(c).__name__} {c!r}")


def exact_vec(v) -> Vector:
    """v with every coefficient passed through exact() and zeros dropped."""
    out = {}
    for k, c in v.items():
        c = exact(c)
        if c:
            out[k] = c
    return out


def vec_sub(u: Vector, v: Vector) -> Vector:
    out = dict(u)
    for k, val in v.items():
        s = out.get(k, ZERO) - val
        if s:
            out[k] = s if type(s) is int else exact(s)
        else:
            out.pop(k, None)
    return out


def vec_axpy(out: Vector, c, v: Vector) -> None:
    """In place out += c*v."""
    if type(c) is not int:
        c = exact(c)
    if not c:
        return
    for k, val in v.items():
        s = out.get(k, ZERO) + c * val
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def table_rows(table: dict) -> dict:
    """A bilinear table {(i, j): product} as the rows {i: {j: product}}."""
    rows = {}
    for (i, j), v in table.items():
        rows.setdefault(i, {})[j] = v
    return rows


def bilinear(rows: dict, x: Vector, y: Vector) -> Vector:
    """vec_axpy(out, x_i y_j, rows[i][j]) for i in x, then j in y, inlined and
    run only on the pairs (i, j) with a product."""
    out = {}
    for i, ci in x.items():
        row = rows.get(i, ())
        for j, cj in y.items():
            if j in row:
                c = ci * cj
                c = c if type(c) is int else exact(c)
                for k, val in row[j].items():
                    s = out.get(k, ZERO) + c * val
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
    return out


class SparseMatrix:
    """Immutable-by-convention sparse rational matrix; fractional is True when
    some entry is a Fraction (a product of two int matrices skips scaling);
    pivots is None until rank() keeps the independent columns it pivoted on."""

    __slots__ = ("nrows", "ncols", "entries", "fractional", "pivots")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"matrix shape {nrows}x{ncols} is negative")
        self.nrows = nrows
        self.ncols = ncols
        data = {}
        fractional = False
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), val in items:
                if type(val) is not int:
                    val = exact(val)
                    fractional = fractional or type(val) is not int
                if not val:
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                data[(i, j)] = val
        self.entries = data
        self.fractional = fractional
        self.pivots = None

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def from_columns(cls, nrows, columns):
        ent = {}
        for j, col in enumerate(columns):
            for i, val in col.items():
                ent[(i, j)] = val
        return cls(nrows, len(columns), ent)

    @classmethod
    def assemble(cls, nrows, ncols, blocks):
        """Build from [(row_off, col_off, matrix, scale), ...]."""
        ent = {}
        for row_off, col_off, mat, scale in blocks:
            if mat is None:
                continue
            scale = exact(scale)
            if not scale:
                continue
            items = mat.entries.items()
            if scale == -1:
                items = ((k, -v) for k, v in items)
            elif scale != 1:
                items = ((k, scale * v) for k, v in items)
            for (i, j), val in items:
                key = (row_off + i, col_off + j)
                s = ent.get(key, ZERO) + val
                if s:
                    ent[key] = s
                else:
                    ent.pop(key, None)
        return cls(nrows, ncols, ent)

    # -- basic access -------------------------------------------------
    def get(self, i, j):
        return self.entries.get((i, j), ZERO)

    def column(self, j) -> Vector:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def rows_list(self):
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("SparseMatrix is unhashable")

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        ent = dict(self.entries)
        for key, v in other.entries.items():
            s = ent.get(key, ZERO) + v
            if s:
                ent[key] = s
            else:
                ent.pop(key, None)
        return SparseMatrix(self.nrows, self.ncols, ent)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = exact(c)
        if not c:
            return SparseMatrix(self.nrows, self.ncols)
        if c == -1:
            return SparseMatrix(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})
        return SparseMatrix(self.nrows, self.ncols, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # Row i of self is scaled by row_den[i], column j of other by
        # col_den[j]; entry (i, j) of the int product is divided back by both.
        row_den = _denominator_lcms(self.entries, 0) if self.fractional else {}
        col_den = _denominator_lcms(other.entries, 1) if other.fractional else {}
        left = self.entries.items()
        if row_den:
            left = (((i, k), _int_scale(v, row_den.get(i, 1))) for (i, k), v in left)
        rows_of_self = {}
        for (i, k), v in left:
            rows_of_self.setdefault(k, []).append((i, v))
        right = other.entries.items()
        if col_den:
            right = (((k, j), _int_scale(w, col_den.get(j, 1))) for (k, j), w in right)
        ent = {}
        for (k, j), w in right:
            hits = rows_of_self.get(k)
            if not hits:
                continue
            for i, v in hits:
                key = (i, j)
                s = ent.get(key, ZERO) + v * w
                if s:
                    ent[key] = s
                else:
                    ent.pop(key, None)
        if row_den or col_den:
            for key, s in ent.items():
                d = row_den.get(key[0], 1) * col_den.get(key[1], 1)
                if d != 1:
                    ent[key] = Fraction(s, d)
        return SparseMatrix(self.nrows, other.ncols, ent)

    def apply(self, v: Vector) -> Vector:
        cols = {}
        for (i, j), val in self.entries.items():
            cols.setdefault(j, []).append((i, val))
        out = {}
        for j, c in v.items():
            for i, val in cols.get(j, ()):
                s = out.get(i, ZERO) + c * val
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def tensor(self, other):
        """Kronecker product, row-major index convention."""
        ent = {}
        for (i1, j1), v1 in self.entries.items():
            for (i2, j2), v2 in other.entries.items():
                ent[(i1 * other.nrows + i2, j1 * other.ncols + j2)] = v1 * v2
        return SparseMatrix(self.nrows * other.nrows, self.ncols * other.ncols, ent)

    # -- elimination-backed queries ------------------------------------
    def without_rows(self, rows):
        """This matrix with the rows in `rows` zeroed; the shape is kept."""
        out = SparseMatrix(self.nrows, self.ncols)
        out.entries = {k: v for k, v in self.entries.items() if k[0] not in rows}
        out.fractional = self.fractional and any(type(v) is not int for v in out.entries.values())
        return out

    def rank(self) -> int:
        self.pivots = {pc for pc, _ in _echelonize(_integer_rows(self), set())}
        return len(self.pivots)

    def kernel_basis(self) -> list:
        """Basis of {v : Mv = 0}, exact rational vectors ordered by smallest key:
        one per free (non-pivot) column, whose first key is that column, 1 there
        and 0 at every other free column, as _kernel reads them."""
        return sorted(_kernel(_echelonize(_integer_rows(self), set()), self.ncols).values(), key=min)

    def solve_many(self, bs):
        """Solve Mx = b for each b; aligned list of solutions (None if
        inconsistent), 0 at every free column of M.

        With n = ncols, Mx = b_j exactly when x + e_{n+j} is in the kernel of
        [M | -b_1 ... -b_k], so one elimination of that matrix, never pivoting
        on a column n + j, and one backward pass serve every b.  A row left on
        those columns alone marks each b it holds inconsistent; b_j's solution
        is otherwise the kernel vector of free column n + j without that key.
        A coordinate of b outside M's rows raises IndexError."""
        n = self.ncols
        entries = dict(self.entries)
        entries.update(((i, n + j), -v) for j, b in enumerate(bs) for i, v in b.items())
        aug = SparseMatrix(self.nrows, n + len(bs), entries)
        pivots = _echelonize(_integer_rows(aug), set(range(n, aug.ncols)))
        bad = {c for pc, row in pivots if pc >= n for c in row}
        # a row on the columns n.. alone takes min(row) as its pivot, which two
        # such rows can share: the backward pass reads only the pivots of M
        kernel = _kernel([(pc, row) for pc, row in pivots if pc < n], aug.ncols)
        return [None if n + j in bad else {c: v for c, v in kernel[n + j].items() if c < n}
                for j in range(len(bs))]


# ---------------------------------------------------------------------------
# elimination internals
# ---------------------------------------------------------------------------


def _int_scale(v, m) -> int:
    """v * m as an int, for m a multiple of v's denominator."""
    return v * m if type(v) is int else v.numerator * (m // v.denominator)


def _denominator_lcms(entries, axis) -> dict:
    """{row (axis 0) or column (axis 1): lcm of its denominators}, for the
    rows or columns holding a Fraction; empty when every entry is an int."""
    out = {}
    for key, v in entries.items():
        if type(v) is not int:
            i = key[axis]
            out[i] = lcm(out.get(i, 1), v.denominator)
    return out


def _clear_denominators(row: Vector) -> dict:
    denom = lcm(*[v.denominator for v in row.values()])
    return _normalize_int_row({k: _int_scale(v, denom) for k, v in row.items()})


def _integer_rows(M: SparseMatrix):
    """M's nonzero rows as gcd-normalised int rows; only a fractional M's are
    first cleared of denominators."""
    clear = _clear_denominators if M.fractional else _normalize_int_row
    return [clear(r) for r in M.rows_list() if r]


def _normalize_int_row(row):
    """row divided by the gcd of its entries, in place; returns row."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _cleared(row, prow, pc):
    """row less the multiple of prow that zeroes its pc entry, both scaled by
    the gcd-reduced pivot value and entry, then gcd-normalised; in place."""
    pval, factor = prow[pc], row[pc]
    g = gcd(pval, factor)
    mul, factor = pval // g, factor // g
    if mul != 1:
        for c in row:
            row[c] *= mul
    for c, v in prow.items():
        s = row.get(c, 0) - factor * v
        if s:
            row[c] = s
        else:
            del row[c]
    return _normalize_int_row(row)


def _echelonize(rows, forbidden_cols):
    """Integer row elimination choosing sparse pivots; the row dicts of
    `rows` are updated in place and become the pivot rows.

    Returns the finished pivot rows as [(pivot_col, row_dict), ...] in
    elimination order.  An active row is cleared by _cleared's combination,
    inlined: it is scaled only when the reduced pivot value is not 1, and the
    column index is touched only where a column appears or vanishes, so a
    finished row has the values and key order the undivided combination
    gives.  Once a row is finished it is never modified: it holds no earlier
    pivot column but may still hold later ones, which _kernel clears in
    reverse.
    """
    active = {rid: row for rid, row in enumerate(rows) if row}
    col_rows = {}
    for rid, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in active.items()]
    heapq.heapify(heap)

    pivots = []
    while active:
        # Smallest active row (lazy heap; stale sizes are re-pushed).
        while heap:
            size, rid = heapq.heappop(heap)
            if rid not in active:
                continue
            if len(active[rid]) != size:
                heapq.heappush(heap, (len(active[rid]), rid))
                continue
            break
        else:
            break
        prow = active.pop(rid)
        candidates = [c for c in prow if c not in forbidden_cols]
        if not candidates:
            # Row supported on forbidden columns only: keep as a pivot row on
            # a forbidden column so inconsistency is detectable.
            pc = min(prow)
        else:
            pc = min(candidates, key=lambda c: (len(col_rows.get(c, ())), c))
        for c in prow:
            col_rows[c].discard(rid)
        pivots.append((pc, prow))
        if pc in forbidden_cols:
            continue
        pval = prow[pc]
        for rid2 in list(col_rows[pc]):
            row = active[rid2]
            factor = row[pc]
            mul = pval
            g = gcd(pval, factor)
            if g != 1:
                mul, factor = pval // g, factor // g
            if mul != 1:
                for c in row:
                    row[c] *= mul
            for c, v in prow.items():
                s = row.get(c)
                if s is None:
                    row[c] = -factor * v
                    col_rows[c].add(rid2)
                    continue
                s -= factor * v
                if s:
                    row[c] = s
                else:
                    del row[c]
                    col_rows[c].discard(rid2)
            if row:
                _normalize_int_row(row)
                heapq.heappush(heap, (len(row), rid2))
            else:
                del active[rid2]
        for c in prow:  # no active row holds an emptied column again: drop it
            if not col_rows[c]:
                del col_rows[c]
    return pivots


def _kernel(pivots, ncols) -> dict:
    """{free column f: its kernel vector} over ncols columns, from the pivot
    rows [(pc, row), ...] of _echelonize: the vector of f is 1 at f and 0 at
    every other free column.

    One backward pass over the pivot rows, in reverse elimination order,
    clears each of the later pivot columns it holds, in ints; the row of pivot
    pc then holds pc and free columns only, so the vector of free column f has
    x[pc] = -R_pc[f] / R_pc[pc], its pivot keys following f in reverse
    elimination order."""
    kernel = {f: {f: 1} for f in range(ncols)}
    reduced = {}
    for pc, row in reversed(pivots):
        del kernel[pc]
        for c in [c for c in row if c in reduced]:
            row = _cleared(row, reduced[c], c)
        reduced[pc] = row
        pval = row[pc]
        for c, v in row.items():
            if c != pc:
                kernel[c][pc] = exact(Fraction(-v, pval))
    return kernel


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """Span of vectors in Q^dim in reduced row echelon form: each row has value 1
    at its pivot, its smallest column, and 0 at every other pivot.  A column index
    maps each non-pivot column to the rows holding it, so an insert back-substitutes
    only into the rows that hold its pivot, and reduce is one pass."""

    def __init__(self, dim, vectors=()):
        self.dim = dim
        self._rows = {}  # pivot_col -> reduced row with pivot value 1
        self._col_rows = {}  # non-pivot col -> set of pivot cols whose row holds it
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, v: Vector) -> Vector:
        out = dict(v)
        rows = self._rows
        for c in [c for c in out if c in rows]:
            coef = out[c]
            if coef:
                vec_axpy(out, -coef, rows[c])
        return out

    def contains(self, v: Vector) -> bool:
        return not self.reduce(v)

    def add(self, v: Vector) -> bool:
        """Insert v; True if the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        pc = min(r)
        pval = r[pc]
        row = {k: exact(Fraction(val, pval)) for k, val in r.items()}
        col_rows = self._col_rows
        rest = [c for c in row if c != pc]
        for c in rest:
            col_rows.setdefault(c, set()).add(pc)
        for other_pc in col_rows.pop(pc, ()):
            other = self._rows[other_pc]
            vec_axpy(other, -other[pc], row)
            for c in rest:
                if c in other:
                    col_rows[c].add(other_pc)
                else:
                    col_rows[c].discard(other_pc)
        self._rows[pc] = row
        return True

    def basis(self):
        return [dict(self._rows[c]) for c in sorted(self._rows)]

    def pivot_cols(self):
        return sorted(self._rows)


def product_ranks(dim, factors, product, span: Subspace) -> list:
    """Ranks of span, then of the span of product(x, row) over x in factors and
    the basis rows of the previous one, and so on until a rank is 0 or repeats."""
    ranks = [span.rank]
    while True:
        nxt = Subspace(dim)
        rows = span.basis()
        for x in factors:
            for row in rows:
                nxt.add(product(x, row))
        ranks.append(nxt.rank)
        if nxt.rank in (0, span.rank):
            return ranks
        span = nxt
