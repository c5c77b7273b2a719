"""Independent oracles used to cross-check production results.

Deliberately naive: dense row lists of Fractions and textbook Gaussian
elimination, with no pivoting tricks shared with the production path;
differentials built one basis word at a time through WordBasis.index and
sorted index tuples, against which the index-arithmetic builders are checked;
a Subspace that back-substitutes each new pivot into every stored row,
with the QuotientSpace on top of it, against which the column-indexed
Subspace and the orbit walk of the rotation coinvariants are checked; the
quotient complex formed by sparse products with projection and section
matrices; the lambda complex through full-size matrices (the rotation built
word by word and walked, quotient_complex over the built matrix of b) and the
projection onto its classes; the unit-homotopy check b' s + s b' = id, the
inclusions of the (I, M) Hochschild complex and of one filtration stage into
the next, and the A-bimodule B (x) I, which only tests run; the product of
two vectors through a table's basis products, one coefficient at a time; the
integer elimination that combines rows by the undivided pivot
value and entry, and the kernel that splits a matrix into the connected
components of its rows' shared columns, eliminates each on its own and
back-substitutes every free column through all of its component's pivot
rows, and the solver that back-substitutes each right-hand side through
every pivot row of M; the generalized trace that walks every permutation of
every wedge; matrix units multiplied one pair of basis words at a time;
the validators that loop over every basis triple for
associativity, the Jacobi identity and the bimodule axioms; hh, hc and the
Connes check read off the bicomplex built to total degree D; relative HH
and HC and their comparison maps built on the HH or HC bicomplexes of their
own, each a map into a homotopy fiber (_into_fiber); the excision verifier
that builds each of its four comparisons and their cones on its own; the
excision verdicts and tangent rows cut from A's HC bicomplex for every
extension, where chainlab reads them off the normalized (b, B) total of A or
of A+; the log-trace probe whose relative fiber is built to total degree 3, one beyond
the two degrees rel HC_0 reads, and which classifies a trace as a chain of
the fiber's A-part; the homology
space that spans the boundaries in the full dimension of the degree and solves
a classifier matrix for every class; and the dense conversions and
elimination-backed queries that only tests read.
"""

import heapq
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from chainlab import cyclic, excision, tangent
from chainlab.algebras import Algebra, Bimodule, commutator_subspace, matrix_algebra
from chainlab.complexes import (ChainComplex, ChainMap, HomologyReport, Interval, acyclicity,
                                entries_of, homotopy_fiber, is_quasi_iso, quotient_complex,
                                selection, subcomplex)
from chainlab.cyclic import (ConnesReport, CyclicBicomplex, WordBasis, bar_complex, hoch_complex,
                             hoch_matrix, tensor_powers, words)
from chainlab.excision import ExtensionData, HUnitalityVerdict, WodzickiReport
from chainlab.errors import (AssociativityError, DegreeMismatch, NotAnIdeal, NotNilpotent,
                             RangeNotCertified)
from chainlab.sparse import SparseMatrix, Subspace as SparseSubspace, Vector, exact, vec_axpy


def dense_product(A, B) -> list:
    """A @ B as dense rows of Fractions, each entry summed term by term."""
    return [[sum((Fraction(A.get(i, k)) * Fraction(B.get(k, j)) for k in range(A.ncols)),
                 Fraction(0))
             for j in range(B.ncols)]
            for i in range(A.nrows)]


def dense_rank(M) -> int:
    rows = [[Fraction(0)] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = Fraction(v)  # int entries would make '/' below float division
    rank = 0
    row = 0
    for col in range(M.ncols):
        piv = None
        for i in range(row, M.nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for i in range(M.nrows):
            if i != row and rows[i][col]:
                f = rows[i][col] / pv
                for j in range(col, M.ncols):
                    rows[i][j] -= f * rows[row][j]
        row += 1
        rank += 1
        if row == M.nrows:
            break
    return rank


def dense_betti(cx, lo, hi) -> dict:
    """Betti numbers from dense ranks of the same differentials."""
    ranks = {}
    for n in range(lo, hi + 2):
        d = cx.diffs.get(n)
        ranks[n] = dense_rank(d) if d is not None else 0
    return {n: cx.dim(n) - ranks[n] - ranks[n + 1] for n in range(lo, hi + 1)}


# ---------------------------------------------------------------------------
# word-by-word differentials: the straightforward builders that the
# index-arithmetic ones in chainlab.cyclic and chainlab.lie must reproduce
# ---------------------------------------------------------------------------


def b_prime_matrix(A, M, p):
    """b' on M (x) A^p, one source word and one contraction at a time."""
    src, tgt = words(A, M, p), words(A, M, p - 1)
    entries = {}

    def add(r, c, val):
        s = entries.get((r, c), 0) + val
        if s:
            entries[(r, c)] = s
        else:
            entries.pop((r, c), None)

    for col, (m, *w) in enumerate(src):
        for m2, coef in M.right_basis(m, w[0]).items():
            add(tgt.index((m2, *w[1:])), col, coef)
        sign = -1
        for i in range(1, p):
            for k, coef in A.mul_basis(w[i - 1], w[i]).items():
                add(tgt.index((m, *w[:i - 1], k, *w[i + 1:])), col, sign * coef)
            sign = -sign
    return SparseMatrix(len(tgt), len(src), entries)


def wrap_matrix(A, M, p):
    """(-1)^p times the wrap term: the last slot acts on the module from the left."""
    src, tgt = words(A, M, p), words(A, M, p - 1)
    sign = 1 if p % 2 == 0 else -1
    entries = {}
    for col, (m, *w) in enumerate(src):
        for m2, coef in M.left_basis(w[-1], m).items():
            entries[(tgt.index((m2, *w[:-1])), col)] = sign * coef
    return SparseMatrix(len(tgt), len(src), entries)


def unit_homotopy(A, M, p):
    """(-1)^p times appending the unit to every word."""
    src, tgt = words(A, M, p), words(A, M, p + 1)
    sign = 1 if p % 2 == 0 else -1
    entries = {}
    for col, w in enumerate(src):
        for k, coef in A.unit.items():
            entries[(tgt.index((*w, k)), col)] = sign * coef
    return SparseMatrix(len(tgt), len(src), entries)


def ce_matrix(g, p):
    """Chevalley-Eilenberg d on the wedge degree p, over sorted index tuples."""
    tuples_p = list(combinations(range(g.dim), p))
    index_pm1 = {t: i for i, t in enumerate(combinations(range(g.dim), p - 1))}
    entries = {}
    for col, tup in enumerate(tuples_p):
        for r in range(p):
            for s in range(r + 1, p):
                rest = tup[:r] + tup[r + 1:s] + tup[s + 1:]
                pair_sign = 1 if (r + s) % 2 == 0 else -1
                for c, coef in g.bracket_basis(tup[r], tup[s]).items():
                    if c in rest:
                        continue
                    k = sum(1 for x in rest if x < c)
                    new = rest[:k] + (c,) + rest[k:]
                    key = (index_pm1[new], col)
                    val = entries.get(key, 0) + pair_sign * (1 if k % 2 == 0 else -1) * coef
                    if val:
                        entries[key] = val
                    else:
                        entries.pop(key, None)
    return SparseMatrix(len(index_pm1), len(tuples_p), entries)


# ---------------------------------------------------------------------------
# elimination-backed subspaces and quotients: the Subspace that
# chainlab.sparse refines with a column index, and the QuotientSpace that the
# orbit walk of chainlab.cyclic.LambdaComplex must reproduce
# ---------------------------------------------------------------------------


class Subspace:
    """Row-reduced span of vectors in Q^dim with canonical reduction."""

    def __init__(self, dim, vectors=()):
        self.dim = dim
        self._rows = {}  # pivot_col -> reduced row with pivot value 1
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, v: Vector) -> Vector:
        out = dict(v)
        hits = [c for c in out if c in self._rows]
        while hits:
            for c in hits:
                coef = out.get(c)
                if not coef:
                    continue
                vec_axpy(out, -coef, self._rows[c])
            hits = [c for c in out if c in self._rows]
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
        for other in self._rows.values():
            coef = other.get(pc)
            if coef:
                vec_axpy(other, -coef, row)
        self._rows[pc] = row
        return True

    def basis(self):
        return [dict(self._rows[c]) for c in sorted(self._rows)]

    def pivot_cols(self):
        return sorted(self._rows)


class QuotientSpace:
    """Q^dim modulo a span; complement coordinates are the non-pivot ones."""

    def __init__(self, dim, span_vectors=()):
        self.dim = dim
        self.sub = Subspace(dim, span_vectors)
        self.complement = [c for c in range(dim) if c not in self.sub._rows]
        self._index = {c: j for j, c in enumerate(self.complement)}

    @property
    def qdim(self):
        return len(self.complement)

    def project(self, v: Vector) -> Vector:
        r = self.sub.reduce(v)
        return {self._index[c]: val for c, val in r.items()}

    def lift(self, w: Vector) -> Vector:
        return {self.complement[j]: val for j, val in w.items()}


# ---------------------------------------------------------------------------
# the quotient complex by sparse products, whose differentials and descent
# verdict chainlab.complexes.quotient_complex must reproduce
# ---------------------------------------------------------------------------


def quotient_differentials(diffs, walks) -> dict:
    """d' = proj d section in each degree n of walks (see quotient_complex); raises
    ValueError naming the first degree where d does not descend, proj d != d' proj."""
    proj, section = {}, {}
    for n, (classes, tops) in walks.items():
        proj[n] = SparseMatrix(len(tops), len(classes),
                               (((hit[0], y), hit[1]) for y, hit in enumerate(classes) if hit))
        section[n] = SparseMatrix(len(classes), len(tops), (((y, j), 1) for j, y in enumerate(tops)))
    out = {}
    for n in sorted(walks)[1:]:
        proj_d = proj[n - 1] @ diffs[n]
        out[n] = proj_d @ section[n]
        if proj_d != out[n] @ proj[n]:
            raise ValueError(f"induced differential ill-defined at degree {n}")
    return out


# ---------------------------------------------------------------------------
# checks that only tests run: the unit homotopy on the Bar complex, the
# coordinate inclusions of the (I, M) Hochschild complex into the (A, M) one
# and of one filtration stage into the next, and the A-bimodule B (x) I
# ---------------------------------------------------------------------------


def verify_unit_homotopy(A, M=None, D=4):
    """(ok, failing degree) of the exact matrix check b' s + s b' = id in
    degrees <= D, on the production b' and s."""
    M = M or Bimodule.regular(A)
    b_prime = {p: cyclic.b_prime_matrix(A, M, p) for p in range(1, D + 2)}
    for p in range(0, D + 1):
        lhs = b_prime[p + 1] @ cyclic.unit_homotopy(A, M, p)
        if p >= 1:
            lhs = lhs + cyclic.unit_homotopy(A, M, p - 1) @ b_prime[p]
        if lhs != SparseMatrix.identity(len(words(A, M, p))):
            return False, p
    return True, None


def hoch_inclusion(ext: ExtensionData, M, D: int) -> ChainMap:
    """(I, M) Hochschild complex into the (A, M) one, coordinate inclusion."""
    M_ad = ext.adapt_module(M)
    I_alg = ext.ideal_algebra()
    M_res = ext.restrict_module_to_ideal(M_ad)
    src = hoch_complex(I_alg, M_res, D)
    tgt = hoch_complex(ext.A_ad, M_ad, D)
    comps = {}
    for p in range(D + 1):
        ambient = words(ext.A_ad, M_ad, p)
        ent = {(ambient.index(w), col): 1 for col, w in enumerate(words(I_alg, M_res, p))}
        comps[p] = SparseMatrix(tgt.dim(p), src.dim(p), ent)
    return ChainMap(src, tgt, comps)


def stage_inclusion(inner, outer) -> ChainMap:
    """Coordinate inclusion of a deeper filtration stage into a shallower one."""
    comps = {}
    for p in range(inner.complex.lo, inner.complex.hi + 1):
        pos = {g: i for i, g in enumerate(outer.indices[p])}
        ent = {}
        for i, g in enumerate(inner.indices[p]):
            if g not in pos:
                raise DegreeMismatch("stages are not nested")
            ent[(pos[g], i)] = 1
        comps[p] = SparseMatrix(outer.complex.dim(p), inner.complex.dim(p), ent)
    return ChainMap(inner.complex, outer.complex, comps)


def module_b_tensor_ideal(ext: ExtensionData) -> Bimodule:
    """B (x) I as an A-bimodule: a.(n (x) x) = f(a)n (x) x, (n (x) x).a = n (x) xa."""
    A = ext.A_ad
    B = ext.B
    dI = ext.ideal_dim
    dim = B.dim * dI
    left = {}
    right = {}
    for a in range(A.dim):
        fa = ext.f_ad.apply_basis(a)
        for nb in range(B.dim):
            ln = B.mul_vec(fa, {nb: 1})
            for x in range(dI):
                if ln:
                    left[(a, nb * dI + x)] = {nb2 * dI + x: c for nb2, c in ln.items()}
            for x in range(dI):
                prod = A.mul_vec({x: 1}, {a: 1})
                if prod:
                    if any(k >= dI for k in prod):
                        raise NotAnIdeal("ideal coordinates leak under right action")
                    right[(nb * dI + x, a)] = {nb * dI + k: c for k, c in prod.items()}
    return Bimodule(A, dim, left, right, name="B(x)I")


# ---------------------------------------------------------------------------
# the lambda complex through full-size matrices: the rotation built word by
# word and walked, proj (1 - t) = 0 checked on its entries, then
# quotient_complex over the built matrix of b; chainlab.cyclic.LambdaComplex,
# which builds neither matrix, must give the same walks and quotient
# ---------------------------------------------------------------------------


def rotation_matrix(A, p) -> SparseMatrix:
    """t on A^(p+1), word by word: a_0...a_p -> (-1)^p a_p a_0...a_{p-1}."""
    basis = WordBasis((A.dim,) * (p + 1))
    sign = -1 if p % 2 else 1
    return SparseMatrix(len(basis), len(basis),
                        {(basis.index(w[-1:] + w[:-1]), basis.index(w)): sign for w in basis})


def orbit_classes(rot: SparseMatrix):
    """(classes, tops) of coker(1 - rot) from one walk over the orbits of the
    signed permutation rot, as chainlab.cyclic.LambdaComplex defines them."""
    image = {y: (y2, s) for (y2, y), s in rot.entries.items()}
    walked = {}  # y -> (top of y's orbit, c)
    tops = []
    for top in reversed(range(rot.nrows)):  # an orbit is first met at its largest word
        if top in walked:
            continue
        y, c = top, 1
        while y not in walked:
            walked[y] = (top, c)
            y, s = image[y]
            c *= s
        if c == 1:
            tops.append(top)
    tops.reverse()
    j_of = {top: j for j, top in enumerate(tops)}
    classes = [None] * rot.nrows
    for y, (top, c) in walked.items():
        if top in j_of:
            classes[y] = (j_of[top], c)
    return classes, tops


def lambda_complex(A, D):
    """(walks, complex) of coker(1 - t) in degrees 0..D with b induced on it,
    both full-size matrices built; raises as LambdaComplex does."""
    walks = {}
    for p in range(D + 1):
        rot = rotation_matrix(A, p)
        classes, _ = walks[p] = orbit_classes(rot)
        for (y2, y), s in rot.entries.items():  # (1 - t) e_y = e_y - s e_y2
            if classes[y] != (classes[y2] and (classes[y2][0], s * classes[y2][1])):
                raise ValueError(f"projection does not kill im(1-t) at degree {p}")
    M = Bimodule.regular(A)
    hoch = {p: hoch_matrix(A, M, p) for p in range(1, D + 1)}
    return walks, quotient_complex(entries_of(hoch), walks, "LambdaComplex")


def project_element(lam, p, v: Vector) -> Vector:
    """The class of v in degree p of lam, read off lam.word_classes(p)."""
    classes = lam.word_classes(p)
    out = {}
    for y, val in v.items():
        if classes[y]:
            vec_axpy(out, val * classes[y][1], {classes[y][0]: 1})
    return out


# ---------------------------------------------------------------------------
# the integer elimination combining rows by the undivided pivot value and
# entry, whose pivots chainlab.sparse._echelonize must reproduce
# ---------------------------------------------------------------------------


def _normalize_int_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def echelonize(rows, forbidden_cols):
    """Sparse-pivot integer elimination; [(pivot_col, row_dict), ...]."""
    active = {}
    col_rows = {}
    heap = []
    for rid, row in enumerate(rows):
        if not row:
            continue
        active[rid] = row
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
        heapq.heappush(heap, (len(row), rid))

    pivots = []
    while active:
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
            pc = min(prow)
        else:
            pc = min(candidates, key=lambda c: (len(col_rows.get(c, ())), c))
        for c in prow:
            col_rows[c].discard(rid)
        pivots.append((pc, prow))
        if pc in forbidden_cols:
            continue
        pval = prow[pc]
        for rid2 in list(col_rows.get(pc, ())):
            row2 = active[rid2]
            factor = row2[pc]
            new_row = {}
            for c, v in row2.items():
                new_row[c] = pval * v
            for c, v in prow.items():
                s = new_row.get(c, 0) - factor * v
                if s:
                    new_row[c] = s
                else:
                    new_row.pop(c, None)
            new_row = _normalize_int_row(new_row)
            for c in row2:
                if c not in new_row:
                    col_rows[c].discard(rid2)
            for c in new_row:
                if c not in row2:
                    col_rows.setdefault(c, set()).add(rid2)
            if new_row:
                active[rid2] = new_row
                heapq.heappush(heap, (len(new_row), rid2))
            else:
                del active[rid2]
                for c in row2:
                    col_rows[c].discard(rid2)
    return pivots


def integer_rows(M):
    """M's nonzero rows, each scaled by the lcm of its denominators and divided
    by the gcd of the result."""
    out = []
    for row in M.rows_list():
        if row:
            den = lcm(*[v.denominator for v in row.values()])
            ints = {k: int(v * den) for k, v in row.items()}
            out.append(_normalize_int_row(ints))
    return out


def split_components(rows):
    """The nonzero rows grouped by connected component of the shared-column
    graph, each group in row order, the groups in order of their first row."""
    parent = {}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for row in rows:
        for c in row:
            parent.setdefault(c, c)
        roots = {root(c) for c in row}
        for r in roots:
            parent[r] = min(roots)
    groups = {}
    for row in rows:
        if row:
            groups.setdefault(root(next(iter(row))), []).append(row)
    return list(groups.values())


def component_pivots(M) -> set:
    """The union of the pivot columns of each component's own elimination."""
    return {pc for comp in split_components(integer_rows(M)) for pc, _ in echelonize(comp, set())}


def kernel_basis(M) -> list:
    """M's kernel basis by per-component elimination and per-column back
    substitution: the vector of free column f is {f: 1}, then x[pc] solved from
    each pivot row of f's component in reverse elimination order."""
    basis = []
    touched = set()
    for comp in split_components(integer_rows(M)):
        cols = set().union(*comp)
        touched |= cols
        pivots = echelonize(comp, set())
        for f in sorted(cols - {pc for pc, _ in pivots}):
            x = {f: 1}
            for pc, row in reversed(pivots):
                s = sum(v * x[c] for c, v in row.items() if c != pc and c in x)
                if s:
                    x[pc] = exact(Fraction(-s, row[pc]))
            basis.append(x)
    basis += [{c: 1} for c in range(M.ncols) if c not in touched]
    basis.sort(key=min)
    return basis


def solve_many(M, bs) -> list:
    """Mx = b for each b by substitution: the rows of [M | b_1 ... b_k]
    eliminated with the b columns never pivots; None for each b a row left on
    those columns alone holds, otherwise x[pc] solved from each pivot row of M
    in reverse elimination order, 0 at every free column."""
    n = M.ncols
    rows = []
    for i, row in enumerate(M.rows_list()):
        row.update((n + k, b[i]) for k, b in enumerate(bs) if b.get(i))
        if row:
            den = lcm(*[Fraction(v).denominator for v in row.values()])
            rows.append(_normalize_int_row({k: int(v * den) for k, v in row.items()}))
    pivots = echelonize(rows, set(range(n, n + len(bs))))
    bad = {c for pc, row in pivots if pc >= n for c in row}
    sols = []
    for k in range(len(bs)):
        if n + k in bad:
            sols.append(None)
            continue
        x = {}
        for pc, row in reversed(pivots):
            if pc < n:
                s = row.get(n + k, 0) - sum(v * x[c] for c, v in row.items() if c != pc and c in x)
                if s:
                    x[pc] = exact(Fraction(s, row[pc]))
        sols.append(x)
    return sols


# ---------------------------------------------------------------------------
# the generalized trace walking all n! permutations of every wedge, which
# chainlab.lie.generalized_trace_matrix must reproduce
# ---------------------------------------------------------------------------


def generalized_trace_matrix(A, r, n, lam, tuples):
    """Wedge degree n+1 of gl_r(A) (the sorted index tuples given) to the
    degree-n rotation coinvariants."""
    dA = A.dim
    cyclic_words = WordBasis((dA,) * (n + 1))
    cols = []
    for tup in tuples:
        decoded = []
        for idx in tup:
            pos, a = divmod(idx, dA)
            i, j = divmod(pos, r)
            decoded.append((i, j, a))
        acc = {}
        i0, j0, a0 = decoded[0]
        for perm in permutations(range(1, n + 1)):
            at = j0
            ok = True
            for t in perm:
                it, jt, _ = decoded[t]
                if at != it:
                    ok = False
                    break
                at = jt
            if not ok or at != i0:
                continue
            word = [a0] + [decoded[t][2] for t in perm]
            sgn = -1 if sum(x > y for x, y in combinations(perm, 2)) % 2 else 1
            vec_axpy(acc, sgn, project_element(lam, n, {cyclic_words.index(word): 1}))
        cols.append(acc)
    return SparseMatrix.from_columns(lam.complex.dim(n), cols)


# ---------------------------------------------------------------------------
# matrix units over an algebra, multiplied one pair of basis words at a time,
# which chainlab.algebras.matrix_units must reproduce
# ---------------------------------------------------------------------------


def matrix_units(A, positions, name):
    """The algebra of the words ((i, j), a) = E_ij (x) a over positions, in
    that order: every pair of words is multiplied on its own, E_ij a times
    E_kl b being 0 unless j = k and E_il (x) ab otherwise, each term of ab
    located by searching the word list.  The unit is the sum of E_ii (x) 1
    when A has one and every index has its diagonal position."""
    words = [(p, a) for p in positions for a in range(A.dim)]
    mul = {}
    for x, ((i, j), a) in enumerate(words):
        for y, ((k, l), b) in enumerate(words):
            if j == k:
                for c, v in A.mul_basis(a, b).items():
                    mul.setdefault((x, y), {})[words.index(((i, l), c))] = v
    indices = {i for p in positions for i in p}
    unit = None
    if A.is_unital and all((i, i) in positions for i in indices):
        unit = {words.index(((i, i), a)): v for i in indices for a, v in A.unit.items()}
    labels = [f"E{i + 1}{j + 1}*{A.labels[a]}" for (i, j), a in words]
    return Algebra(len(words), labels, mul, unit=unit, name=name)


# ---------------------------------------------------------------------------
# validators looping over every basis triple, whose verdicts and first failing
# triple the nonzero-product walks of chainlab.algebras and chainlab.lie must
# reproduce
# ---------------------------------------------------------------------------

ONE = 1


def bilinear(basis, x, y):
    """sum x_i y_j basis(i, j) over every i in x, then j in y, then the keys of
    the product, one coefficient at a time: the reference for
    sparse.bilinear, which Algebra.mul_vec, Bimodule.left_vec and right_vec
    and LieAlgebra.bracket_vec run on their tables' rows."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, v in basis(i, j).items():
                s = out.get(k, 0) + ci * cj * v
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def associativity(A):
    """Raises AssociativityError on the first triple, in lexicographic order,
    where (x_i x_j) x_k != x_i (x_j x_k)."""
    for i in range(A.dim):
        for j in range(A.dim):
            left = A.mul_basis(i, j)
            for k in range(A.dim):
                lhs = bilinear(A.mul_basis, left, {k: ONE})
                rhs = bilinear(A.mul_basis, {i: ONE}, A.mul_basis(j, k))
                if lhs != rhs:
                    raise AssociativityError((i + 1, j + 1, k + 1))


def jacobi(g):
    """Raises ValueError on the first triple i < j < k, in lexicographic order,
    where the Jacobi sum is nonzero."""
    br = g.bracket_basis
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                acc = {}
                vec_axpy(acc, ONE, bilinear(br, br(i, j), {k: ONE}))
                vec_axpy(acc, ONE, bilinear(br, br(j, k), {i: ONE}))
                vec_axpy(acc, ONE, bilinear(br, br(k, i), {j: ONE}))
                if acc:
                    raise ValueError(f"Jacobi identity fails on triple ({i + 1},{j + 1},{k + 1})")


def bimodule_axioms(M):
    """Raises ValueError on the first (a, b, m) where the left action, the
    right action or their compatibility fails, checked in that order."""
    A = M.algebra

    def left(x, y):
        return bilinear(M.left_basis, x, y)

    def right(x, y):
        return bilinear(M.right_basis, x, y)

    for a in range(A.dim):
        for b in range(A.dim):
            ab = A.mul_basis(a, b)
            for m in range(M.dim):
                mv = {m: ONE}
                if left(ab, mv) != left({a: ONE}, left({b: ONE}, mv)):
                    raise ValueError(f"left action not associative at ({a},{b},{m})")
                if right(mv, ab) != right(right(mv, {a: ONE}), {b: ONE}):
                    raise ValueError(f"right action not associative at ({m},{a},{b})")
                lhs = right(left({a: ONE}, mv), {b: ONE})
                rhs = left({a: ONE}, right(mv, {b: ONE}))
                if lhs != rhs:
                    raise ValueError(f"left/right actions do not commute at ({a},{m},{b})")


# ---------------------------------------------------------------------------
# hh, hc and connes read off the bicomplex built to total degree D: the
# full-bound builds whose reports chainlab.cyclic must reproduce from the
# build to D - 1
# ---------------------------------------------------------------------------


def hh_bicomplex(A: Algebra, D: int, size_limit=None) -> CyclicBicomplex:
    """The two-column Hochschild bicomplex to total degree D."""
    return CyclicBicomplex(A, 2, D, size_limit)


def hc_bicomplex(A: Algebra, D: int, size_limit=None) -> CyclicBicomplex:
    """The cyclic bicomplex with every column, to total degree D."""
    return CyclicBicomplex(A, D + 1, D, size_limit)


class HomologySpace:
    """Cycles modulo boundaries in one degree, with explicit representatives.

    The span of the boundaries and every kernel vector in the full dimension of
    the degree, and a classifier matrix solved on every call.
    """

    def __init__(self, C: ChainComplex, n: int):
        if n not in C.certified:
            raise RangeNotCertified(f"degree {n} outside certified {C.certified}")
        self.complex = C
        self.degree = n
        kernel = C.differential(n).kernel_basis() if C.dim(n) else []
        span = SparseSubspace(C.dim(n))
        boundary_basis = []
        d_in = C.diffs.get(n + 1)
        if d_in is not None:
            for col in d_in.columns():
                if span.add(col):
                    boundary_basis.append(col)
        self.representatives = []
        for v in kernel:
            if span.add(v):
                self.representatives.append(v)
        self._classifier = SparseMatrix.from_columns(
            C.dim(n), boundary_basis + self.representatives
        )
        self._n_bound = len(boundary_basis)

    @property
    def dim(self):
        return len(self.representatives)

    def classify(self, v: Vector) -> Vector:
        """Coordinates of the class [v] over the representative basis."""
        if self.complex.differential(self.degree).apply(v):
            raise ValueError("vector is not a cycle")
        sol = self._classifier.solve_many([v])[0]
        if sol is None:
            raise ValueError("cycle not in span of boundaries and representatives")
        return {j - self._n_bound: c for j, c in sol.items() if j >= self._n_bound}

    def classify_many(self, vectors):
        sols = self._classifier.solve_many(list(vectors))
        out = []
        for sol in sols:
            if sol is None:
                raise ValueError("cycle not in span of boundaries and representatives")
            out.append({j - self._n_bound: c for j, c in sol.items() if j >= self._n_bound})
        return out


def homology(C: ChainComplex, rng: Interval, reps: bool) -> HomologyReport:
    """C.homology(rng), with the representatives of this module's HomologySpace."""
    report = C.homology(rng)
    if reps:
        report.representatives = {n: HomologySpace(C, n).representatives for n in rng}
    return report


def hh_homology(A: Algebra, D: int, size_limit=None, reps=False) -> HomologyReport:
    if D < 2:
        raise ValueError("D must be >= 2")
    bc = hh_bicomplex(A, D, size_limit)
    return homology(bc.total, Interval(0, D - 2), reps)


def hc_homology(A: Algebra, D: int, size_limit=None, reps=False) -> HomologyReport:
    if D < 2:
        raise ValueError("D must be >= 2")
    bc = hc_bicomplex(A, D, size_limit)
    return homology(bc.total, Interval(0, D - 2), reps)


def _induced_matrix(src_reps, raw_map, target_hs: HomologySpace) -> SparseMatrix:
    images = [raw_map(v) for v in src_reps]
    classes = target_hs.classify_many(images) if images else []
    return SparseMatrix.from_columns(target_hs.dim, classes)


def connes_check(A: Algebra, D: int, size_limit=None) -> ConnesReport:
    """Exactness of HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} by rank bookkeeping.

    Uses the degreewise split short exact sequence (columns 0..1) ->
    (all columns) -> (columns >= 2) of the cyclic bicomplex; the last is the
    cyclic total complex shifted by two.  Both ends are cut out of the built
    total, each with its closure check (subcomplex, quotient_complex).
    """
    if D < 3:
        raise ValueError("D must be >= 3")
    bc = hc_bicomplex(A, D, size_limit)
    total = bc.total

    def columns(keep):
        """degree -> the total's indices of the columns q with keep(q)."""
        return {n: [i for q, _, off, w in comps if keep(q) for i in range(off, off + w)]
                for n, comps in bc.layout.items()}

    sub_idx = columns(lambda q: q <= 1)
    quot_idx = columns(lambda q: q >= 2)
    sub = subcomplex(total.diffs, sub_idx, "columns q <= 1")
    quot = quotient_complex(entries_of(total.diffs), {
        n: selection(idx, total.dim(n)) for n, idx in quot_idx.items()}, "columns q >= 2")

    n_max = D - 2  # nodes need H_{n+1}(quot) and H_{n-1}(sub), both certified
    hs_sub = {n: HomologySpace(sub, n) for n in range(0, n_max + 1)}
    hs_tot = {n: HomologySpace(total, n) for n in range(0, n_max + 1)}
    hs_quot = {n: HomologySpace(quot, n) for n in range(0, n_max + 2)}

    def include(n):
        idx = sub_idx[n]

        def f(v: Vector) -> Vector:
            return {idx[i]: c for i, c in v.items()}

        return f

    def project(n):
        pos = {g: i for i, g in enumerate(quot_idx[n])}

        def f(v: Vector) -> Vector:
            return {pos[g]: c for g, c in v.items() if g in pos}

        return f

    def connecting(n):
        """H_n(quot) -> H_{n-1}(sub): lift, differentiate, land in the sub."""
        idx = quot_idx[n]
        sub_pos = {g: i for i, g in enumerate(sub_idx[n - 1])}
        d_n = total.diffs[n]

        def f(v: Vector) -> Vector:
            lifted = {idx[i]: c for i, c in v.items()}
            w = d_n.apply(lifted)
            out = {}
            for g, c in w.items():
                if g not in sub_pos:
                    raise ValueError("connecting map left the subcomplex")
                out[sub_pos[g]] = c
            return out

        return f

    degrees = {}
    failing = None
    for n in range(0, n_max + 1):
        i_n = _induced_matrix(hs_sub[n].representatives, include(n), hs_tot[n])
        p_n = _induced_matrix(hs_tot[n].representatives, project(n), hs_quot[n])
        del_n1 = _induced_matrix(
            hs_quot[n + 1].representatives, connecting(n + 1), hs_sub[n]
        )
        at_hc = (p_n @ i_n).is_zero() and i_n.rank() + p_n.rank() == hs_tot[n].dim
        at_hh = (i_n @ del_n1).is_zero() and del_n1.rank() + i_n.rank() == hs_sub[n].dim
        if n >= 1:
            del_n = _induced_matrix(
                hs_quot[n].representatives, connecting(n), hs_sub[n - 1]
            )
            at_shift = (del_n @ p_n).is_zero() and p_n.rank() + del_n.rank() == hs_quot[n].dim
        else:
            at_shift = hs_quot[0].dim == 0  # column-shift quotient vanishes in degree 0
        ok = at_hh and at_hc and at_shift
        degrees[n] = {"at_hh": at_hh, "at_hc": at_hc, "at_shift": at_shift}
        if not ok and failing is None:
            failing = n
    return ConnesReport(failing is None, Interval(0, n_max), degrees, failing)


# ---------------------------------------------------------------------------
# the excision verifier with every comparison built on its own: the HH and
# HC bicomplex comparisons and the Hochschild and Bar column comparisons,
# whose reports chainlab.excision must reproduce from the HC one and its cuts
# ---------------------------------------------------------------------------


def _relative_fiber(ext: ExtensionData, D: int, flavor: str, size_limit=None):
    """(fiber, source bicomplex, builder) on the HH ("hh") or HC bicomplexes."""
    make = hh_bicomplex if flavor == "hh" else hc_bicomplex
    bc_A = make(ext.A_ad, D, size_limit)
    bc_B = make(ext.B, D, size_limit)
    return homotopy_fiber(bc_A.induced_map(bc_B, ext.f_ad.matrix)), bc_A, make


def _into_fiber(cx_I: ChainComplex, cx_A: ChainComplex, fib: ChainComplex,
                inc: dict, D: int) -> ChainMap:
    """The ideal's complex into the A-part of fib = hofib(cx_A -> cx_B),
    by the components inc[n] : cx_I_n -> cx_A_n, in degrees 0..D-1."""
    comps = {}
    for n in range(0, D):
        # fiber_n = cone_{n+1} = B_{n+1} (+) A_n; land in the A-part
        top = fib.dim(n) - cx_A.dim(n)
        comps[n] = SparseMatrix.assemble(fib.dim(n), cx_I.dim(n), [(top, 0, inc[n], 1)])
    return ChainMap(cx_I, fib, comps)


def relative_homology(ext: ExtensionData, D: int, flavor: str, size_limit=None):
    """Relative HH or HC off the fiber of the HH or HC bicomplexes."""
    if D < 2:
        raise ValueError("D must be >= 2")
    return _relative_fiber(ext, D, flavor, size_limit)[0].homology(Interval(0, D - 2))


def comparison_map(ext: ExtensionData, D: int, flavor: str, size_limit=None) -> ChainMap:
    """The ideal's HH or HC total complex into the relative fiber."""
    fib, bc_A, make = _relative_fiber(ext, D, flavor, size_limit)
    bc_I = make(ext.ideal_algebra(), D, size_limit)
    inc = bc_I.induced_map(bc_A, ext.ideal_inclusion())
    return _into_fiber(bc_I.total, bc_A.total, fib, inc.components, D)


def _column_comparison(ext: ExtensionData, D: int, kind: str, size_limit=None) -> ChainMap:
    """Comparison at the single-column level: the (I, I) Bar or Hochschild
    complex mapping into the homotopy fiber of the (A, A) -> (B, B) one.

    These are the intermediate maps of the excision proof; for a non-H-unital
    ideal they are where the failure shows up."""
    make = bar_complex if kind == "bar" else hoch_complex
    cx_I = make(ext.ideal_algebra(), None, D, size_limit)
    cx_A = make(ext.A_ad, None, D, size_limit)
    cx_B = make(ext.B, None, D, size_limit)
    fib = homotopy_fiber(ChainMap(cx_A, cx_B, tensor_powers(ext.f_ad.matrix, D)))
    return _into_fiber(cx_I, cx_A, fib, tensor_powers(ext.ideal_inclusion(), D), D)


def wodzicki_verify(ext: ExtensionData, D: int, size_limit=None) -> WodzickiReport:
    """Quasi-isomorphism ranges of the ideal-to-relative comparison maps.

    Four comparisons are run: the two totalized ones (HH and HC bicomplexes)
    and the two single-column ones the proof factors through.  The verdict
    also carries the bounded H-unitality certificate of the ideal, so a
    report exhibits "H-unital implies excision" on instances; all verdicts
    are descriptive and a failure is a successful computation.  Relative
    HH and HC are read off the totalized maps' targets (the fibers) and the
    certificate off the Bar comparison's source (the ideal's Bar complex).
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    rng = Interval(0, D - 2)

    def totalized(flavor):
        eta = comparison_map(ext, D, flavor, size_limit)
        return is_quasi_iso(eta, rng), eta.target.homology(rng)

    verdict_hh, rel_hh = totalized("hh")
    verdict_hc, rel_hc = totalized("hc")
    verdict_hoch = is_quasi_iso(_column_comparison(ext, D, "hoch", size_limit), rng)
    bar = _column_comparison(ext, D, "bar", size_limit)
    cert = bar.source.homology(Interval(0, D - 1))
    failing = next((n for n in sorted(cert.betti) if cert.betti[n]), None)
    return WodzickiReport(verdict_hh, verdict_hc, verdict_hoch, is_quasi_iso(bar, rng),
                          HUnitalityVerdict(failing is None, cert.betti, cert.certified, failing),
                          rel_hh, rel_hc)


# ---------------------------------------------------------------------------
# the excision verdicts and tangent rows cut from A's HC bicomplex for every
# extension; chainlab.excision reads them off Connes' (b, B) total on the
# normalized complex of A, or of A+ = Q.1 + A, instead
# ---------------------------------------------------------------------------


def _hc_of_A(ext: ExtensionData, D: int, size_limit=None):
    """A's HC bicomplex to total degree D - 1, all that a result reported at
    bound D reads, guarded as chainlab reads the row A.dim^(D+1)."""
    cyclic.size_guard(ext.A_ad.dim ** (D + 1), size_limit, "bicomplex row")
    return hc_bicomplex(ext.A_ad, D - 1, size_limit)


def _kernel_cut(ext: ExtensionData, bc, k=None):
    """excision._word_cut of the columns q < k of bc's total, every column by
    default.  No map raises q and each degree lists its columns by q, so
    these lead each degree and are closed under d."""
    k = k or bc.ncols
    rows = {n: [(excision._letters(ext),) * (p + 1) for q, p, _, _ in comps if q < k]
            for n, comps in bc.layout.items()}
    return excision._word_cut(bc.total.diffs, rows, f"columns q < {k}")


def kernel_cut_wodzicki(ext: ExtensionData, D: int, size_limit=None) -> WodzickiReport:
    """The excision verifier on A's HC bicomplex built to total degree D - 1:
    HH, HC and the Hochschild complex are K / C(I) of its columns q < 2, of
    every column and of q < 1; the Bar complex is chainlab's own cut of b',
    unital A too, where chainlab reads it off the ideal's certificate."""
    if D < 2:
        raise ValueError("D must be >= 2")
    rng = Interval(0, D - 2)
    bc = _hc_of_A(ext, D, size_limit)
    cuts = [_kernel_cut(ext, bc, k) for k in (2, None, 1)]
    hh, hc, hoch = (acyclicity(excision._mod_ideal(*cut), rng) for cut in cuts)
    bar = excision._column_comparison(ext, D)
    return WodzickiReport(hh, hc, hoch, acyclicity(bar, rng),
                          excision.h_unitality_check(ext.ideal_algebra(), D, size_limit),
                          cuts[0][0].homology(rng), cuts[1][0].homology(rng))


def kernel_cut_tangent(ext: ExtensionData, D: int, size_limit=None) -> tuple:
    """(relative HC, the ideal's HC, the comparison's verdict) of a tangent
    row, off K and C(I) cut from A's HC bicomplex."""
    rng = Interval(0, D - 2)
    K, inner = _kernel_cut(ext, _hc_of_A(ext, D, size_limit))
    return (K.homology(rng).betti, subcomplex(K.diffs, inner, "C(I)").homology(rng).betti,
            acyclicity(excision._mod_ideal(K, inner), rng))


class LogTraceProbe(tangent.LogTraceProbe):
    """The log-trace probe on the relative HC fiber built to total degree 3,
    classified by this module's HomologySpace."""

    def __init__(self, ext: ExtensionData, r: int, size_limit=None):
        if ext.ideal_dim and not ext.I_ad.is_nilpotent:
            raise NotNilpotent("kernel ideal must be nilpotent")
        self.ext, self.r = ext, r
        A = ext.A_ad
        self.Am, self.offset = tangent._unital_ambient(matrix_algebra(A, r))
        self.ideal_basis = [{pos * A.dim + t: 1} for pos in range(r * r)
                            for t in range(ext.ideal_dim)]
        self.commutators = SparseSubspace(A.dim, commutator_subspace(A))
        fib, bc_A, _ = _relative_fiber(ext, 3, "hc", size_limit)
        self.a_offset = fib.dim(0) - bc_A.total.dim(0)  # fiber_0 = B_1 (+) A_0
        self.hs = HomologySpace(fib, 0)

    def classify_trace(self, v):
        """Class of v = trace(log u), a chain in the A-part of the fiber."""
        return self.hs.classify({self.a_offset + k: c for k, c in v.items()})


# ---------------------------------------------------------------------------
# dense conversions and elimination-backed queries that only tests read
# ---------------------------------------------------------------------------


def from_dense(rows) -> SparseMatrix:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    return SparseMatrix(nrows, ncols, {(i, j): v for i, row in enumerate(rows)
                                       for j, v in enumerate(row)})


def to_dense(M) -> list:
    out = [[0] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        out[i][j] = v
    return out


def vec_scale(c, v: Vector) -> Vector:
    c = exact(c)
    if not c:
        return {}
    return {k: c * val for k, val in v.items()}


def rank_kernel(M):
    ker = M.kernel_basis()
    return M.ncols - len(ker), ker


def image_basis(M) -> list:
    """Columns of M forming a basis of its column space."""
    span = SparseSubspace(M.nrows)
    return [col for col in M.columns() if span.add(col)]


def euler_characteristic(C) -> int:
    return sum((-1) ** n * d for n, d in C.dims.items())
