"""Bar and Hochschild complexes, cyclic operators, and their bicomplexes.

All inputs are discrete (degree-zero) algebras, so the graded signs collapse:
the Bar differential is -b' with b' the alternating sum of adjacent
contractions, the Hochschild differential is b = b' + (-1)^p (wrap term), and
the cyclic rotation on p+1 tensor factors carries the sign (-1)^p.

Differentials are written by index arithmetic on the WordBasis layout, with
no word formed per entry: b' is the Kronecker sum of (-1)^i id (x) mu_i (x) id
(mu_0 the right action on the module slot, mu_i the product of slots i, i+1),
so each structure constant of mu_i gives one strided run of entries; b adds
the wrap term's runs.  The matrix builders sum the runs into flat entries;
the lambda complex projects them onto its classes.

The rotation t is a signed permutation of the words, so coker(1 - t) keeps
one word per orbit whose signs multiply to +1, its largest, with [e_y] =
+-[e_top] along the orbit; the other orbits vanish (see LambdaComplex).  Its
walk reads t by index arithmetic, and each run of b is added, signed by its
row's class, straight into its column's class vector: neither t nor b is
built into a matrix.  b descends to that quotient, which
complexes.descend checks column by column; since ker proj = im(1 - t), this
is the statement that b maps im(1 - t) into itself.

Totalization convention (validated by the d.d = 0 construction check): the
Hochschild columns keep b, the Bar columns keep -b', the horizontal maps 1-t
and N are used unmodified, and the total differential is the plain sum.  The
squares then anticommute degreewise, which the constructor asserts.

Over Q, HC is the homology of the lambda complex for any algebra (Connes;
Loday, Cyclic Homology, 2.1.5), so hc_homology reads its betti numbers off
LambdaComplex, the smaller model.  For unital A, HH is the homology of the
normalized complex C_n = A (x) Abar^n, Abar = A/Q.1, and Connes' sequence
that of the (b, B) bicomplex on it (Loday 1.1.14, 2.1.7-2.1.9): no Bar
columns, N or 1 - t, and d - 1 letters per inner slot.  A non-unital A reads
the same model of its unitalization A+ = Q.1 + A, whose reduced HH and HC are
A's (Loday 1.4, 2.2; Wodzicki, Ann. Math. 129 (1989)), with A.dim letters per
inner slot.  hh_homology without reps, connes_check and the excision cuts
(excision._kernel_cuts) read it through _normalized_b, which alone guards
it and picks its unital basis.  The cyclic bicomplex serves only the reps of
hh_homology and hc_homology (_read_bicomplex), written in its basis.

hh_homology, hc_homology and connes_check build on A.integral() or the
unit_adapted() basis of A or A+, the same algebra in a basis where its
constants are ints, so none of their differentials holds a Fraction; the
CLI's lambda does too.  Without reps, hc_homology and lambda build on the
sparser of the two (sparser_basis): HC is a functor, so both give the same
betti numbers, and a dense rebased table keeps about half its constants there.
lie.py builds lambda_complex on A itself, since its trace chain map is
written in A's basis.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, product, repeat, starmap
from operator import add, floordiv, mod, mul
from types import SimpleNamespace

from .algebras import Algebra, Bimodule, unitalization
from .complexes import (ChainComplex, ChainMap, HomologyReport, HomologySpace, Interval,
                        descend, entries_of, quotient_complex, selection, subcomplex)
from .errors import SizeLimit, UnitError
from .sparse import SparseMatrix, Vector, exact

ONE = 1

DEFAULT_SIZE_LIMIT = 2_000_000


def size_guard(dim, size_limit, what):
    limit = DEFAULT_SIZE_LIMIT if size_limit is None else size_limit
    if dim > limit:
        raise SizeLimit(f"{what} has dimension {dim} > size limit {limit}")


class WordBasis:
    """Mixed-radix index layout of a tensor-word basis.

    A word is a tuple (w_0, ..., w_k) with 0 <= w_t < radices[t]; slot 0 is
    the most significant, so iteration (itertools.product) runs in index
    order.  A radix of 0 gives the empty basis.
    """

    def __init__(self, radices):
        self.radices = tuple(radices)
        steps = []
        size = 1
        for r in reversed(self.radices):
            steps.append(size)
            size *= r
        self._steps = tuple(reversed(steps))
        self._size = size

    def __len__(self):
        return self._size

    def __iter__(self):
        return product(*map(range, self.radices))

    def index(self, word) -> int:
        return sum(map(mul, word, self._steps))

    def positions(self, box) -> list:
        """Indices of the words whose slot t runs over range(lo, hi) for each
        (t, lo, hi) in box, listed in box's slot order with the last entry
        varying fastest; a slot box does not name is held at 0."""
        out = [0]
        for t, lo, hi in box:
            offsets = [w * self._steps[t] for w in range(lo, hi)]
            out = [i + o for i in out for o in offsets]
        return out

    def word(self, index) -> tuple:
        out = []
        for r in reversed(self.radices):
            index, w = divmod(index, r)
            out.append(w)
        return tuple(reversed(out))


def words(A: Algebra, M: Bimodule, p: int) -> WordBasis:
    """Words (m; a_1, ..., a_p) of M (x) A^p: module slot first."""
    return WordBasis((M.dim,) + (A.dim,) * p)


def _decode(nrows, flat):
    """((row, col), value) of the entries flat[col*nrows + row], column by
    column: the order in which a product's partial sums cancel soonest."""
    keys = sorted(flat)
    return zip(zip(map(mod, keys, repeat(nrows)), map(floordiv, keys, repeat(nrows))),
               map(flat.__getitem__, keys))


def _face_runs(table, d, d_out, n_left, n_right, sign):
    """Runs (value, row, col, count, row_step, col_step, width), each the
    entries (row + t*row_step + i, col + t*col_step + i) for t < count, i <
    width, of the face sign * (id_L (x) mu (x) id_R): mu = table: (x, y) ->
    {k: c} maps slots x (radix d_out), y (radix d) to k (radix d_out), so entry
    (L, k, R) <- (L, x, y, R) sits at row (L*d_out + k)*n_right + R and column
    ((L*d_out + x)*d + y)*n_right + R.  A face's entries are distinct."""
    row_step = d_out * n_right
    for (x, y), vec in table.items():
        for k, coef in vec.items():
            yield sign * coef, k * n_right, (x * d + y) * n_right, n_left, row_step, row_step * d, n_right


def _b_prime_faces(A: Algebra, M: Bimodule, p: int) -> list:
    """The p faces of b' on M (x) A^p, M.dim * A.dim^(p-1) rows."""
    if p < 1:
        raise ValueError("b' starts at degree 1")
    d = A.dim
    return [_face_runs(M.right, d, M.dim, 1, d ** (p - 1), 1)] + [
        _face_runs(A.mul, d, d, M.dim * d ** (i - 1), d ** (p - 1 - i), -1 if i % 2 else 1)
        for i in range(1, p)]


def _wrap_runs(A: Algebra, M: Bimodule, p: int):
    """Runs of (-1)^p times the wrap term of b: the last slot acts on the
    module from the left, so entry (m2, w) <- (m, w, a) for (a, m) -> m2 and
    every middle word w."""
    d = A.dim
    n_mid = d ** (p - 1)
    sign = 1 if p % 2 == 0 else -1
    for (a, m), vec in M.left.items():
        for m2, coef in vec.items():
            yield sign * coef, m2 * n_mid, m * n_mid * d + a, n_mid, 1, d, 1


def _flat(faces, nrows) -> dict:
    """Flat entries (see _decode) of the sum of faces; sums that cancel are dropped."""
    out = {}
    for runs in faces:
        face = {}
        for v, row, col, count, row_step, col_step, width in runs:
            start, step = col * nrows + row, col_step * nrows + row_step
            keys = range(start, start + count * step, step)
            if width > 1:
                keys = starmap(add, product(keys, range(0, width * (nrows + 1), nrows + 1)))
            face.update(zip(keys, repeat(v)))
        out = _sum_into(out, face) if out else face
    return out


def _sum_into(entries: dict, term: dict) -> dict:
    """entries += term in place (term is used up); sums that cancel are dropped."""
    for key in entries.keys() & term.keys():
        s = term[key] + entries.pop(key)
        if s:
            term[key] = s
        else:
            del term[key]
    entries.update(term)
    return entries


def b_prime_matrix(A: Algebra, M: Bimodule, p: int) -> SparseMatrix:
    """b' on M (x) A^p: alternating sum of the p adjacent contractions."""
    nrows = M.dim * A.dim ** (p - 1)
    return SparseMatrix(nrows, nrows * A.dim, _decode(nrows, _flat(_b_prime_faces(A, M, p), nrows)))


def hoch_matrix(A: Algebra, M: Bimodule, p: int) -> SparseMatrix:
    """b on M (x) A^p as one matrix: b' + (-1)^p (last slot wraps onto the
    module by the left action), summed entrywise."""
    nrows = M.dim * A.dim ** (p - 1)
    faces = _b_prime_faces(A, M, p) + [_wrap_runs(A, M, p)]
    return SparseMatrix(nrows, nrows * A.dim, _decode(nrows, _flat(faces, nrows)))


def hoch_from_b_prime(b_prime: SparseMatrix, A: Algebra, M: Bimodule, p: int) -> SparseMatrix:
    """hoch_matrix(A, M, p) from b_prime = b_prime_matrix(A, M, p) already built:
    the wrap entries summed into a copy of b_prime's."""
    n = b_prime.nrows
    wrap = {(k % n, k // n): c for k, c in _flat([_wrap_runs(A, M, p)], n).items()}
    return SparseMatrix(n, b_prime.ncols, _sum_into(dict(b_prime.entries), wrap))


def unit_homotopy(A: Algebra, M: Bimodule, p: int) -> SparseMatrix:
    """s_p = (-1)^p (append the unit) = (-1)^p id (x) unit: satisfies
    b' s + s b' = id degreewise."""
    if not A.is_unital:
        raise UnitError("contracting homotopy needs a unital algebra")
    unit = SparseMatrix(A.dim, 1, {(k, 0): c for k, c in A.unit.items()})
    sign = ONE if p % 2 == 0 else -ONE
    return SparseMatrix.identity(M.dim * A.dim ** p).tensor(unit).scale(sign)


def bar_from_b_prime(b_prime: dict) -> ChainComplex:
    """The Bar complex with differential -b', degrees 0..D, from b'_1..b'_D."""
    dims = {0: b_prime[1].nrows, **{p: bp.ncols for p, bp in b_prime.items()}}
    diffs = {p: bp.scale(-1) for p, bp in b_prime.items()}
    return ChainComplex(dims, diffs, Interval(0, len(b_prime) - 1))


def bar_complex(A: Algebra, M: Bimodule | None = None, D: int = 4,
                size_limit=None) -> ChainComplex:
    """Augmented Bar complex of (A, M) with differential -b', degrees 0..D."""
    if D < 1:
        raise ValueError("D must be >= 1")
    M = M or Bimodule.regular(A)
    size_guard(max(len(words(A, M, p)) for p in range(D + 1)), size_limit,
               "Bar complex top degree")
    return bar_from_b_prime({p: b_prime_matrix(A, M, p) for p in range(1, D + 1)})


def hoch_complex(A: Algebra, M: Bimodule | None = None, D: int = 4,
                 size_limit=None) -> ChainComplex:
    if D < 1:
        raise ValueError("D must be >= 1")
    M = M or Bimodule.regular(A)
    dims = {p: len(words(A, M, p)) for p in range(D + 1)}
    size_guard(max(dims.values(), default=0), size_limit, "Hochschild complex top degree")
    diffs = {p: hoch_matrix(A, M, p) for p in range(1, D + 1)}
    return ChainComplex(dims, diffs, Interval(0, D - 1))


# ---------------------------------------------------------------------------
# cyclic operators
# ---------------------------------------------------------------------------


def _rotation_power(d: int, p: int, i: int):
    """(targets, sign) of t^i on A^(p+1), dim A = d: t^i moves the last i slots
    to the front, a swap on the layout (A^(p+1-i), A^i), so it sends word x to
    targets[x] = (x mod d^i) d^(p+1-i) + x div d^i, with the sign (-1)^(p i)."""
    high, low = d ** (p + 1 - i), d ** i
    return ([last * high + rest for rest in range(high) for last in range(low)],
            -ONE if p * i % 2 else ONE)


def rotation_matrix(A: Algebra, p: int) -> SparseMatrix:
    """t on A^(p+1): signed rotation a_0...a_p -> (-1)^p a_p a_0...a_{p-1}."""
    targets, sign = _rotation_power(A.dim, p, 1)
    return SparseMatrix(len(targets), len(targets),
                        zip(zip(targets, range(len(targets))), repeat(sign)))


def _norm_entries(d: int, p: int) -> dict:
    """(row, col) -> entry of N = sum of t^i for i = 0..p on d-letter words of
    length p+1, summed entrywise; entries that cancel are dropped."""
    entries = {}
    for i in range(p + 1):
        targets, sign = _rotation_power(d, p, i)
        for key in zip(targets, range(len(targets))):
            s = entries.get(key, 0) + sign
            if s:
                entries[key] = s
            else:
                del entries[key]
    return entries


def norm_matrix(A: Algebra, p: int) -> SparseMatrix:
    """N = sum of t^i for i = 0..p on A^(p+1)."""
    n = A.dim ** (p + 1)
    return SparseMatrix(n, n, _norm_entries(A.dim, p))


def _connes_B(e: int, p: int) -> SparseMatrix:
    """Connes' B from the normalized C_p = A (x) Abar^p to C_{p+1}, dim Abar = e:
    a_0 ... a_p -> sum of (-1)^(pi) 1 t^i(a_0 ... a_p), the norm N on Abar^(p+1)
    (B kills a_0 = 1).  Its rows are the words led by g_0 = 1 and its columns
    those past them, at offset e^p."""
    off = e ** p
    return SparseMatrix((e + 1) * off * e, (e + 1) * off,
                        {(r, off + c): v for (r, c), v in _norm_entries(e, p).items()})


def tensor_powers(matrix: SparseMatrix, D: int) -> dict:
    """p -> matrix tensored with itself p+1 times (the map on row p), p = 0..D."""
    powers = {0: matrix}
    for p in range(1, D + 1):
        powers[p] = powers[p - 1].tensor(matrix)
    return powers


# ---------------------------------------------------------------------------
# bicomplexes and totalizations
# ---------------------------------------------------------------------------


class CyclicBicomplex:
    """First-quadrant bicomplex, columns alternating Hochschild (even q,
    differential b) and Bar (odd q, differential -b'), horizontal maps 1-t
    (odd q -> even) and N (even q -> odd), materialised to total degree D.
    Only hh_homology and hc_homology with reps read it, each through one call
    of _read_bicomplex, whose report at bound D reads the build to D - 1,
    guarded as for D, and writes the representatives in A's basis.  Every
    other result reads LambdaComplex or the normalized (b, B) model.

    ncols=2 is the two-column Hochschild totalization; ncols=D+1 the cyclic
    one.  The plain-sum total differential squares to zero degreewise, which
    the ChainComplex constructor asserts.  Each degree lists its columns by q.

    Only the blocks the layout places are built: b' on rows 1..D, kept as
    b_prime (b on every row, its wrap entries summed into a copy of b', and
    the Bar columns' -b' on rows 1..D-1 as b' with the scale -1), 1-t on rows
    0..D-1, and N on rows 0..D-2 when there is a column q >= 2 (ncols > 2).
    Every N built is checked against N(1-t) = 0 and (1-t)N = 0.
    """

    def __init__(self, A: Algebra, ncols: int, D: int, size_limit=None):
        size_guard(A.dim ** (D + 1), size_limit, "bicomplex row")
        self.algebra = A
        self.ncols = ncols
        self.bound = D
        M = Bimodule.regular(A)
        self.b_prime = {p: b_prime_matrix(A, M, p) for p in range(1, D + 1)}
        hoch = {p: hoch_from_b_prime(bp, A, M, p) for p, bp in self.b_prime.items()}
        one_minus_t = {}
        for p in range(0, D):
            t = rotation_matrix(A, p)
            one_minus_t[p] = SparseMatrix.identity(t.nrows) - t
        norm = {p: norm_matrix(A, p) for p in range(0, D - 1)} if ncols > 2 else {}
        for p, N in norm.items():
            if not (N @ one_minus_t[p]).is_zero():
                raise ValueError(f"N(1-t) != 0 at row {p}")
            if not (one_minus_t[p] @ N).is_zero():
                raise ValueError(f"(1-t)N != 0 at row {p}")

        # layout[n]: list of (q, p, offset, width) for the degree-n total.
        self.layout = {}
        dims = {}
        for n in range(0, D + 1):
            comps = []
            off = 0
            for q in range(0, min(n, ncols - 1) + 1):
                p = n - q
                w = A.dim ** (p + 1)
                comps.append((q, p, off, w))
                off += w
            self.layout[n] = comps
            dims[n] = off

        diffs = {}
        for n in range(1, D + 1):
            blocks = []
            tgt = {(q, p): off for q, p, off, _ in self.layout[n - 1]}
            for q, p, off, width in self.layout[n]:
                if p >= 1:
                    vert = (hoch[p], 1) if q % 2 == 0 else (self.b_prime[p], -1)
                    blocks.append((tgt[(q, p - 1)], off, *vert))
                if q >= 1:
                    horiz = one_minus_t[p] if q % 2 == 1 else norm[p]
                    blocks.append((tgt[(q - 1, p)], off, horiz, 1))
            diffs[n] = SparseMatrix.assemble(dims[n - 1], dims[n], blocks)

        self.total = ChainComplex(dims, diffs, Interval(0, D - 1))

    def induced_map(self, other: "CyclicBicomplex", morphism_matrix: SparseMatrix) -> ChainMap:
        """Chain map on totals induced by an algebra morphism self.A -> other.A."""
        if other.ncols != self.ncols or other.bound != self.bound:
            raise ValueError("bicomplex shapes differ")
        powers = tensor_powers(morphism_matrix, self.bound)
        comps = {}
        for n in range(0, self.bound + 1):
            tgt = {(q, p): off for q, p, off, _ in other.layout[n]}
            blocks = [(tgt[(q, p)], off, powers[p], 1) for q, p, off, _ in self.layout[n]]
            comps[n] = SparseMatrix.assemble(other.total.dim(n), self.total.dim(n), blocks)
        return ChainMap(self.total, other.total, comps)


def _read_bicomplex(A: Algebra, ncols: int, D: int, size_limit=None) -> HomologyReport:
    """The reps report at bound D off the bicomplex of A's integral basis
    (Algebra.integral) built to total degree D - 1: degrees 0..D-2 need only
    d_1..d_{D-1}.  The guard reads the row A.dim^(D+1) of total degree D, so a
    size limit rejects the same inputs; _in_basis_of_A maps reps to A's basis."""
    size_guard(A.dim ** (D + 1), size_limit, "bicomplex row")
    B, L = A.integral()
    bc = CyclicBicomplex(B, ncols, D - 1, size_limit)
    return _in_basis_of_A(bc, L, bc.total.homology(Interval(0, D - 2), reps=True))


def _normalized_b(A: Algebra, D: int, size_limit=None, droppable=None):
    """(b, w): b_1..b_{D-1} of the normalized Hochschild complex C_p = G (x)
    Gbar^p, Gbar = G/Q.1, and w[p] = dim C_p for p < D, built once the input's
    row A.dim^(D+1) passes the guard.  G is A.unit_adapted(droppable) if A has
    a unit coordinate among the letters droppable (all by default), else the
    unitalization A+ = Q.1 + A in its unit-adapted basis: g_0 = 1, then A's
    letters, with int constants.  Gbar's letters are g_1..g_e, so hoch_matrix
    writes b on the radices (e + 1, e, ..., e): the inner slots multiply
    through the projection dropping g_0, the module slot and the wrap through
    G's product."""
    size_guard(A.dim ** (D + 1), size_limit, "bicomplex row")
    unital = A.is_unital and any(droppable is None or k in droppable for k in A.unit)
    G = A.unit_adapted(droppable) if unital else unitalization(A)[0].unit_adapted()
    e = G.dim - 1
    letters = SimpleNamespace(dim=e, mul={(x - 1, y - 1): {z - 1: c for z, c in v.items() if z}
                                          for (x, y), v in G.mul.items() if x and y})
    module = SimpleNamespace(dim=e + 1, right={(m, a - 1): v for (m, a), v in G.mul.items() if a},
                             left={(a - 1, m): v for (a, m), v in G.mul.items() if a})
    return ({p: hoch_matrix(letters, module, p) for p in range(1, D)},
            {p: (e + 1) * e ** p for p in range(D)})


def sparser_basis(A: Algebra) -> Algebra:
    """A.unit_adapted() if its table has fewer nonzero constants than A's (and
    A.integral()'s), else A.integral()[0]; the loser is never built.  A unit
    c e_j ties (the adapted table is A's, e_j rescaled), so it is not tried."""
    if A.is_unital and len(A.unit) > 1:
        G = A.unit_adapted(fewer_than=sum(map(len, A.mul.values())))
        if G is not None:
            return G
    return A.integral()[0]


def _connes_total(A: Algebra, D: int, size_limit=None, droppable=None):
    """(total, w): Connes' (b, B) bicomplex on the normalized complex of
    _normalized_b's model G, guarded and chosen there, to total degree D - 1,
    w[n] = dim C_n the width of its column 0.  Degree n lists the columns C_n,
    C_{n-2}, ..., so C_p sits at offset dims[n] - dims[p]; d is b down each column and B from C_p to
    C_{p+1} one column left.  Gbar has e = w[0] - 1 letters."""
    b, w = _normalized_b(A, D, size_limit, droppable)
    B = {p: _connes_B(w[0] - 1, p) for p in range(D - 2)}
    dims = {n: sum(w[p] for p in range(n, -1, -2)) for n in range(D)}
    diffs = {}
    for n in range(1, D):
        blocks = [(dims[n - 1] - dims[p - 1], dims[n] - dims[p], b[p], 1) for p in range(n, 0, -2)]
        blocks += [(dims[n - 1] - dims[p + 1], dims[n] - dims[p], B[p], 1)
                   for p in range(n - 2, -1, -2)]
        diffs[n] = SparseMatrix.assemble(dims[n - 1], dims[n], blocks)
    return ChainComplex(dims, diffs, Interval(0, D - 2)), w


def _in_basis_of_A(bc: CyclicBicomplex, L: int, report: HomologyReport) -> HomologyReport:
    """report with its representatives mapped from bc's basis L e_i back to A's.
    A word of column q in degree n has n - q + 1 letters, so the chain
    isomorphism scales that coordinate by L^(n - q + 1); normalised to 1 at the
    vector's free column f (its first key), coordinate k gets L^(q_f - q_k)."""
    if L == 1 or report.representatives is None:
        return report
    for n, vecs in report.representatives.items():
        offsets = [off for _, _, off, _ in bc.layout[n]]  # listed by q
        for v in vecs:
            q_f = bisect_right(offsets, next(iter(v)))
            for k, c in v.items():
                v[k] = exact(c * Fraction(L) ** (q_f - bisect_right(offsets, k)))
    return report


def hh_homology(A: Algebra, D: int, size_limit=None, reps=False) -> HomologyReport:
    """HH_0..HH_{D-2} off _normalized_b without reps, else off the two-column
    bicomplex (_read_bicomplex); either built to degree D - 1.  A non-unital
    A has the reduced HH of A+ (Loday 1.4): degree 0 less the word 1, cut
    from d_1 alone after checking that its row 0 is empty, i.e. that the word
    1 is never a boundary; b_2, ... pass unchanged."""
    if D < 2:
        raise ValueError("D must be >= 2")
    if reps:
        return _read_bicomplex(A, 2, D, size_limit)
    b, w = _normalized_b(A, D, size_limit)
    if A.is_unital:
        return ChainComplex(w, b, Interval(0, D - 2)).homology(Interval(0, D - 2))
    d1 = b[1]
    if any(r == 0 for r, _ in d1.entries):
        raise ValueError("reduced normalized complex: differential leaks out of the subcomplex at degree 1")
    b[1] = SparseMatrix(w[0] - 1, d1.ncols, {(r - 1, c): v for (r, c), v in d1.entries.items()})
    return ChainComplex({**w, 0: w[0] - 1}, b, Interval(0, D - 2)).homology(Interval(0, D - 2))


def hc_homology(A: Algebra, D: int, size_limit=None, reps=False) -> HomologyReport:
    """HC_0..HC_{D-2}, guarded as the cyclic bicomplex of bound D, off the
    lambda complex built to degree D - 1: in degree n about (n + 1) d / (d - 1)
    times smaller than the bicomplex's total.  With reps, off the bicomplex
    built to total degree D - 1, whose coordinates the representatives are in."""
    if D < 2:
        raise ValueError("D must be >= 2")
    if reps:
        return _read_bicomplex(A, D + 1, D, size_limit)
    size_guard(A.dim ** (D + 1), size_limit, "bicomplex row")
    return lambda_complex(sparser_basis(A), D - 1, size_limit).homology(Interval(0, D - 2))


# ---------------------------------------------------------------------------
# Connes exact sequence via the column-shift short exact sequence
# ---------------------------------------------------------------------------


class ConnesReport(SimpleNamespace):
    def __init__(self, exact: bool, checked: Interval, degrees: dict,
                 failing_degree: int | None = None):
        # degrees: n -> {"at_hh": bool, "at_hc": bool, "at_shift": bool}
        super().__init__(exact=exact, checked=checked, degrees=degrees,
                         failing_degree=failing_degree)

    def to_jsonable(self):
        out = {
            "exact": self.exact,
            "checked_range": self.checked.to_jsonable(),
            "degrees": {str(n): v for n, v in sorted(self.degrees.items())},
        }
        if self.failing_degree is not None:
            out["failing_degree"] = self.failing_degree
        return out


def _induced_matrix(images, target_hs: HomologySpace) -> SparseMatrix:
    classes = target_hs.classify_many(images) if images else []
    return SparseMatrix.from_columns(target_hs.dim, classes)


def connes_check(A: Algebra, D: int, size_limit=None) -> ConnesReport:
    """Exactness of HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} by rank bookkeeping.

    Uses the degreewise split short exact sequence (HH column) -> (total) ->
    (the other columns) of Connes' (b, B) total of _connes_total, built to
    degree D - 1 with the guard of degree D, both in _normalized_b.
    For non-unital A that model is A+ = Q.1 + A, whose sequence is the direct
    sum of A's and of Q's, which is exact: the verdicts are A's, and the
    report carries no Betti numbers.  Both ends are cut at the width w[n] of
    column 0, each with its closure check (subcomplex, quotient_complex).
    The other columns of degree n are, block for block and in the same offset
    order, the columns of degree n - 2, so the quotient is the total shifted
    by two: the cut's d_n is checked equal to the total's d_{n-2} on every
    built degree, and H_n of the quotient is H_{n-2} of the total, which
    reaches H_{D-1} without d_D.
    """
    if D < 3:
        raise ValueError("D must be >= 3")
    total, w = _connes_total(A, D, size_limit)

    sub = subcomplex(total.diffs, {n: range(w[n]) for n in w}, "column 0")
    quot = quotient_complex(entries_of(total.diffs), {
        n: selection(range(w[n], total.dim(n)), total.dim(n)) for n in w}, "columns p <= n - 2")
    for n in range(3, D):
        if quot.diffs[n] != total.diffs[n - 2]:
            raise ValueError(f"columns p <= n - 2 are not the total shifted by two at degree {n}")

    n_max = D - 2  # nodes need H_{n+1}(quot) and H_{n-1}(sub), both certified
    hs_sub = {n: HomologySpace(sub, n) for n in range(0, n_max + 1)}
    hs_tot = {n: HomologySpace(total, n) for n in range(0, n_max + 1)}
    # degrees 0 and 1 of the quotient are zero spaces
    hs_quot = {n: HomologySpace(quot, n) if n < 2 else hs_tot[n - 2] for n in range(0, n_max + 2)}

    def project(n, v: Vector) -> Vector:
        return {g - w[n]: c for g, c in v.items() if g >= w[n]}

    def connecting(n, v: Vector) -> Vector:
        """H_n(quot) -> H_{n-1}(sub): lift, differentiate, land in the sub."""
        out = total.diffs[n].apply({w[n] + i: c for i, c in v.items()})
        if any(g >= w[n - 1] for g in out):
            raise ValueError("connecting map left the subcomplex")
        return out

    degrees = {}
    failing = None
    for n in range(0, n_max + 1):
        i_n = _induced_matrix(hs_sub[n].representatives, hs_tot[n])
        p_n = _induced_matrix([project(n, v) for v in hs_tot[n].representatives], hs_quot[n])
        del_n1 = _induced_matrix([connecting(n + 1, v) for v in hs_quot[n + 1].representatives],
                                 hs_sub[n])
        at_hc = (p_n @ i_n).is_zero() and i_n.rank() + p_n.rank() == hs_tot[n].dim
        at_hh = (i_n @ del_n1).is_zero() and del_n1.rank() + i_n.rank() == hs_sub[n].dim
        if n >= 1:
            del_n = _induced_matrix([connecting(n, v) for v in hs_quot[n].representatives],
                                    hs_sub[n - 1])
            at_shift = (del_n @ p_n).is_zero() and p_n.rank() + del_n.rank() == hs_quot[n].dim
        else:
            at_shift = hs_quot[0].dim == 0  # column-shift quotient vanishes in degree 0
        ok = at_hh and at_hc and at_shift
        degrees[n] = {"at_hh": at_hh, "at_hc": at_hc, "at_shift": at_shift}
        if not ok and failing is None:
            failing = n
    return ConnesReport(failing is None, Interval(0, n_max), degrees, failing)


# ---------------------------------------------------------------------------
# quotient-by-rotation model (Connes lambda complex in characteristic zero)
# ---------------------------------------------------------------------------


def _orbit_classes(image: list, s: int):
    """(classes, tops) from one walk over the orbits of the signed permutation
    e_y -> s e_image[y], read by index arithmetic with no matrix built:
    classes[y] = (j, c) when [e_y] = c [e_top] in coker(1 - t), top = tops[j]
    the largest word of y's orbit, and None when the orbit's signs multiply to
    -1, i.e. s = -1 on an orbit of odd length."""
    walked = bytearray(len(image))
    orbits = []  # the orbits kept, each listed from its top, largest top first
    for top in reversed(range(len(image))):  # an orbit is first met at its largest word
        if walked[top]:
            continue
        orbit, y = [], top
        while not walked[y]:
            walked[y] = 1
            orbit.append(y)
            y = image[y]
        if s == 1 or len(orbit) % 2 == 0:
            orbits.append(orbit)
    orbits.reverse()
    classes = [None] * len(image)
    for j, orbit in enumerate(orbits):
        hits = ((j, 1), (j, s))
        for k, y in enumerate(orbit):  # e_y = s e_image[y] modulo im(1 - t)
            classes[y] = hits[k % 2]
    return classes, [orbit[0] for orbit in orbits]


def _project_runs(runs, walks: dict, n: int) -> list:
    """cols[y] = proj b e_y over the words y of degree n from b_n's runs: each
    run's value added, signed by its row's class, into its column's class
    vector, the run read as strided slices along its longer side.  A run
    reaching past b_n raises IndexError naming its last entry."""
    row_classes, cols = walks[n - 1][0], [{} for _ in walks[n][0]]
    for v, row, col, count, row_step, col_step, width in runs:
        r, y = row + (count - 1) * row_step + width - 1, col + (count - 1) * col_step + width - 1
        if r >= len(row_classes) or y >= len(cols):
            raise IndexError(f"LambdaComplex: entry ({r},{y}) of d_{n} outside "
                             f"{len(row_classes)}x{len(cols)}")
        lanes = ([(row + i, col + i, row_step, col_step, count) for i in range(width)] if count >= width
                 else [(row + t * row_step, col + t * col_step, 1, 1, width) for t in range(count)])
        neg = -v
        for r, y, dr, dc, k in lanes:
            for hit, vec in zip(row_classes[r:r + k * dr:dr], cols[y:y + k * dc:dc]):
                if hit:
                    j, c = hit
                    s = vec.get(j, 0) + (v if c == 1 else neg)
                    if s:
                        vec[j] = s
                    else:
                        del vec[j]
    return cols


class LambdaComplex:
    """Degree-n space coker(1 - t) on A^(n+1), differential induced by b.

    coker(1 - t) keeps one word per orbit of the signed permutation t whose
    signs multiply to +1: its largest, the column a minimal-pivot echelon form
    of im(1 - t) leaves free, with [e_y] = c [e_top], c the product of the signs
    walked from top to y.  An orbit whose signs multiply to -1 vanishes.  One
    walk over the orbits, t read by index arithmetic and no elimination, gives
    these classes, and construction checks proj (1 - t) = 0 on every word.  An
    orbit of k words adds k - 1 to the dimensions of both im(1 - t) and ker
    proj (k if it vanishes), so ker proj = im(1 - t).  proj b is read off b's
    runs in one pass, no matrix of b built, and complexes.descend checks on
    every word that b descends, proj b = d' proj, i.e. that b kills ker proj:
    the same as proj b (1 - t) = 0, b mapping im(1 - t) into itself.
    """

    def __init__(self, A: Algebra, D: int, size_limit=None):
        if D < 1:
            raise ValueError("D must be >= 1")
        self.algebra = A
        self.bound = D
        M = Bimodule.regular(A)
        size_guard(A.dim ** (D + 1), size_limit, "lambda complex top degree")
        self._walks = {}
        for p in range(0, D + 1):
            image, s = _rotation_power(A.dim, p, 1)
            classes, _ = self._walks[p] = _orbit_classes(image, s)
            moved = map(classes.__getitem__, image)  # (1 - t) e_y = e_y - s e_image[y]
            if s == -1:
                moved = (hit and (hit[0], -hit[1]) for hit in moved)
            if list(moved) != classes:
                raise ValueError(f"projection does not kill im(1-t) at degree {p}")
        quot = {p: descend(_project_runs(chain(*_b_prime_faces(A, M, p), _wrap_runs(A, M, p)),
                                         self._walks, p), self._walks, p, "LambdaComplex")
                for p in range(1, D + 1)}
        self.complex = ChainComplex({p: len(tops) for p, (_, tops) in self._walks.items()},
                                    quot, Interval(0, D - 1))

    def word_classes(self, p) -> list:
        """[e_y] = c [e_tops[j]] as classes[y] = (j, c), or None when 0."""
        return self._walks[p][0]

    def homology(self, rng=None, **kw) -> HomologyReport:
        rng = rng or self.complex.certified
        return self.complex.homology(rng, **kw)


def lambda_complex(A: Algebra, D: int, size_limit=None) -> LambdaComplex:
    return LambdaComplex(A, D, size_limit)
