"""Lie algebra homology and the trace comparison with cyclic homology.

Chevalley-Eilenberg chains on a finite-dimensional Lie algebra g: degree p is
the exterior power on the chosen basis (sorted index tuples, lexicographic),
with differential

    d(x_1 ^ ... ^ x_p) = sum_{r<s} (-1)^{r+s} [x_r, x_s] ^ x_1 ... ^x_r ... ^x_s ... x_p

(1-based positions), built over bitmask subsets: x_S is keyed by the mask of
S, positions and signs are popcounts of lower bits, and only pairs with a
nonzero bracket are visited.

Homology is read off the weight-0 summand when the Lie algebra declares a
grading: an integer weight w_k in Z^r for each basis element and inner
elements h_1..h_r of weight 0 with [h_i, x_k] = w_k[i] x_k, the bracket adding
weights, all checked exactly on construction.  d preserves the weight of a
wedge, and by Cartan's formula L_h = d i_h + i_h d the action of h_i, w[i]
times the identity on the weight-w summand, is null-homotopic; over Q every
summand of nonzero weight is acyclic (Loday, Cyclic Homology, 10.1).  gl(A, r)
declares w(E_kl (x) a) = e_k - e_l with h_i = E_ii (x) 1 when A is unital, so
the weight-0 wedges C_0 are those whose row multiset equals their column
multiset; ce_complex builds only those, in lexicographic order, and
representatives are reported at their positions in the full exterior power.
The size guard still reads the full exterior powers C(dim g, p); guarded_gl,
which ce --gl, trace, lqt and h2hc1 build gl_r(A) through, reads them off
dim gl_r(A) = r^2 dim A before gl_r(A) is built.  Commutator Lie algebras,
triangular_lie and gl of a non-unital algebra declare no grading and build
every wedge.

gl also declares, and LieAlgebra checks, the action of S_r by E_kl (x) a ->
E_s(k)s(l) (x) a; without representatives ce_homology reads C_0's quotient by
it.  A class is an orbit of wedges, kept as its lex-first member; an orbit
whose stabiliser flips a wedge's sign is 0.  A transposition (i j) is a
diagonal sign matrix times e_ij(1) e_ji(-1) e_ij(1), e_ij(t) = exp(t X),
X = E_ij (x) 1.  Conjugation by e_ij(t) acts on the chains as exp(t L_X), the
identity on homology since L_X = d i_X + i_X d; a diagonal sign matrix
multiplies a wedge by a sign that depends only on its weight, so it is the
identity on C_0.  So S_r acts trivially on H(C_0) and, over Q,
H((C_0)_{S_r}) = H(C_0)_{S_r} = H(C_0) (Loday-Quillen 1984; Loday, Cyclic
Homology, 10.1-10.2).  The trace check and representatives keep all of C_0.

The generalized trace sends a wedge of matrices over an algebra to the signed
sum over cyclic words of matrix-trace coefficients, landing in the
rotation-coinvariants model of the cyclic complex; a wedge of nonzero weight
closes no matrix-unit chain and maps to 0.  Its chain-map identity against the
Chevalley-Eilenberg differential is an exact matrix check with a single global
sign, frozen below, made on every wedge trace_chain_check builds: the weight-0
wedges when gl declares a grading, since d preserves weight and both sides of
the identity vanish on a wedge of nonzero weight, and every wedge otherwise.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from types import SimpleNamespace

from .algebras import Algebra, Ideal, matrix_algebra, mismatches, nested_products
from .complexes import ChainComplex, HomologyReport, Interval
from .cyclic import DEFAULT_SIZE_LIMIT, LambdaComplex, hc_homology, lambda_complex
from .errors import ChainlabError, NotNilpotent, SizeLimit, UnitError
from .sparse import (SparseMatrix, Subspace, Vector, bilinear, exact_vec, product_ranks,
                     table_rows, vec_axpy, vec_sub)

ONE = 1

# Frozen convention: Tr . d_CE = TRACE_CHAIN_SIGN * d_lambda . Tr.
TRACE_CHAIN_SIGN = -1


class LieAlgebra:
    """Antisymmetric bracket table with the Jacobi identity checked on build.

    grading, when given, is (weights, inner): one tuple of r ints per basis
    element and r vectors h_i of weight 0 with [h_i, x_k] = weights[k][i] x_k.
    A third entry may list symmetries (s, pi): permutations of the weight
    coordinates and of the basis, pi mapping each bracket onto the permuted one
    and each weight w to s.w.  Both are validated exactly whether or not check
    is set; self.symmetries keeps the pi."""

    def __init__(self, dim, labels, bracket, name=None, check=True, grading=None):
        if dim < 0:
            raise ValueError(f"Lie algebra dimension {dim} is negative")
        self.dim = dim
        self.labels = list(labels) if labels else [f"x{i + 1}" for i in range(dim)]
        self.name = name
        self._both = {}  # [x_i, x_j] for i < j and for i > j
        for (i, j), vec in bracket.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket key {(i, j)} out of range: dim {dim}")
            v = exact_vec(vec)
            if not all(0 <= k < dim for k in v):
                raise ValueError(f"bracket {(i, j)} has a coordinate outside dim {dim}: {v}")
            if not v:
                continue
            if i == j:
                raise ValueError("[x, x] must vanish")
            self._both[(i, j)], self._both[(j, i)] = v, {k: -c for k, c in v.items()}
        self.bracket = {(i, j): v for (i, j), v in self._both.items() if i < j}
        self._rows = table_rows(self._both)
        if check:
            self._validate()
        self.weights = self.inner = None
        self.symmetries = []
        if grading is not None:
            self._declare_grading(*grading)

    def bracket_basis(self, i, j) -> Vector:
        return self._both.get((i, j), {})

    def bracket_vec(self, x: Vector, y: Vector) -> Vector:
        return bilinear(self._rows, x, y)

    def _validate(self):
        """Jacobi on every triple i < j < k, the sum of [[x_i, x_j], x_k] over
        the cyclic rotations, built from the nonzero terms [[x_a, x_b], x_c],
        a < b.  Such a term is a rotation of the sorted triple unless
        a < c < b, where it enters with the sign of a transposition."""
        jacobi = {}
        for (a, b, c), vec in nested_products(self.bracket, self._both, True).items():
            if c != a and c != b:
                vec_axpy(jacobi.setdefault(tuple(sorted((a, b, c))), {}), -1 if a < c < b else 1, vec)
        bad = min(mismatches(jacobi, {}), default=None)
        if bad is not None:
            raise ValueError("Jacobi identity fails on triple (%d,%d,%d)" % tuple(x + 1 for x in bad))

    def _declare_grading(self, weights, inner, symmetries=()):
        weights = [tuple(w) for w in weights]
        inner = [exact_vec(h) for h in inner]
        r = len(inner)
        if len(weights) != self.dim or any(len(w) != r or any(type(x) is not int for x in w)
                                           for w in weights):
            raise ValueError(f"grading needs one weight of {r} ints per basis element")
        label = self.labels
        for (a, b), vec in self.bracket.items():
            w = tuple(x + y for x, y in zip(weights[a], weights[b]))
            for c in vec:
                if weights[c] != w:
                    raise ValueError(f"grading: [{label[a]}, {label[b]}] has the term {label[c]} "
                                     f"of weight {weights[c]}, not {w}")
        zero = (0,) * r
        for i, h in enumerate(inner):
            for k in h:
                if weights[k] != zero:
                    raise ValueError(f"grading: h{i + 1} has the term {label[k]} of nonzero weight")
            for k in range(self.dim):
                want = {k: weights[k][i]} if weights[k][i] else {}
                if self.bracket_vec(h, {k: ONE}) != want:
                    raise ValueError(f"grading: [h{i + 1}, {label[k]}] is not "
                                     f"{weights[k][i]}*{label[k]}")
        for n, (s, pi) in enumerate(symmetries, 1):
            if sorted(s) != list(range(r)) or sorted(pi) != list(range(self.dim)):
                raise ValueError(f"symmetry {n} is not a pair of permutations")
            for (a, b), vec in self.bracket.items():
                if self.bracket_basis(pi[a], pi[b]) != {pi[c]: x for c, x in vec.items()}:
                    raise ValueError(f"symmetry {n}: [{label[pi[a]]}, {label[pi[b]]}] is not "
                                     f"the image of [{label[a]}, {label[b]}]")
            for k, w in enumerate(weights):
                if any(weights[pi[k]][s[i]] != x for i, x in enumerate(w)):
                    raise ValueError(f"symmetry {n} sends {label[k]} of weight {w} to "
                                     f"{label[pi[k]]} of weight {weights[pi[k]]}")
        self.weights, self.inner, self.symmetries = weights, inner, [pi for _, pi in symmetries]

    def lower_central_series(self):
        """Dims of g = L_1 >= L_2 >= ... until stabilisation or zero."""
        units = [{i: ONE} for i in range(self.dim)]
        return product_ranks(self.dim, units, self.bracket_vec, Subspace(self.dim, units))

    @property
    def is_nilpotent(self):
        return self.lower_central_series()[-1] == 0

    def __repr__(self):
        return f"LieAlgebra({self.name or 'anonymous'}, dim={self.dim})"


def _commutators(A: Algebra) -> dict:
    return {(i, j): vec_sub(A.mul_basis(i, j), A.mul_basis(j, i))
            for i in range(A.dim) for j in range(i + 1, A.dim)}


def lie_from_assoc(A: Algebra) -> LieAlgebra:
    """Commutator bracket on the underlying space of an associative algebra."""
    return LieAlgebra(A.dim, A.labels, _commutators(A), name=f"Lie({A.name or 'A'})")


def gl(A: Algebra, r: int) -> LieAlgebra:
    """gl_r(A), graded by w(E_kl (x) a) = e_k - e_l with h_i = E_ii (x) 1 when A
    is unital (basis index (k*r + l)*dim A + a, as in matrix_algebra), with the
    symmetries E_kl (x) a -> E_s(k)s(l) (x) a for s = (1 2) and (1 2 ... r)."""
    M = matrix_algebra(A, r)
    grading = None
    if A.is_unital:
        weights = [tuple(int(i == k) - int(i == l) for i in range(r))
                   for k in range(r) for l in range(r) for _ in range(A.dim)]
        inner = [{(i * r + i) * A.dim + a: c for a, c in A.unit.items()} for i in range(r)]
        gens = [(1, 0) + tuple(range(2, r)), tuple(range(1, r)) + (0,)][:r - 1]
        grading = (weights, inner, [(s, [(s[k] * r + s[l]) * A.dim + a for k in range(r)
                                         for l in range(r) for a in range(A.dim)]) for s in gens])
    return LieAlgebra(M.dim, M.labels, _commutators(M), name=f"gl{r}({A.name or 'A'})",
                      grading=grading)


def guarded_gl(A: Algebra, r: int, D: int, size_limit=None) -> LieAlgebra:
    """gl(A, r), once the size guard of its CE chains through wedge degree D
    has read its dimension r^2 dim A: an over-limit gl_r(A) is never built."""
    _exterior_guard(r * r * A.dim, D, size_limit)
    return gl(A, r)


def triangular_lie(A: Algebra, I: Ideal, n: int, sigma) -> LieAlgebra:
    """Matrices over A with entry (i, j) confined to I unless i < j in the
    transitive closure of sigma (pairs of 1-based indices).  Must come out
    nilpotent; a non-nilpotent result signals a bad order or ideal."""
    if not A.is_unital:
        raise ValueError("triangular_lie expects a unital ambient algebra")
    less = {(int(a), int(b)) for a, b in sigma}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(less):
            for (c, d) in list(less):
                if b == c and (a, d) not in less:
                    less.add((a, d))
                    changed = True
    if any(a == b for a, b in less):
        raise ValueError("sigma closure is not a strict partial order")

    glA = matrix_algebra(A, n)
    dA = A.dim
    basis_vectors = []
    labels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pos = (i - 1) * n + (j - 1)
            if (i, j) in less:
                for a in range(dA):
                    basis_vectors.append({pos * dA + a: ONE})
                    labels.append(f"E{i}{j}*{A.labels[a]}")
            else:
                for v in I.basis:
                    basis_vectors.append({pos * dA + k: c for k, c in v.items()})
                    labels.append(f"E{i}{j}*(ideal)")
    dim = len(basis_vectors)
    basis_matrix = SparseMatrix.from_columns(glA.dim, basis_vectors)
    brackets = []
    for a in range(dim):
        for b in range(a + 1, dim):
            x, y = basis_vectors[a], basis_vectors[b]
            brackets.append(((a, b), vec_sub(glA.mul_vec(x, y), glA.mul_vec(y, x))))
    sols = basis_matrix.solve_many([v for _, v in brackets])
    table = {}
    for ((a, b), _), sol in zip(brackets, sols):
        if sol is None:
            raise NotNilpotent("bracket leaves the triangular subspace; bad sigma or ideal")
        if sol:
            table[(a, b)] = sol
    g = LieAlgebra(dim, labels, table, name=f"t^sigma_{n}({A.name or 'A'})")
    if not g.is_nilpotent:
        raise NotNilpotent("triangular Lie algebra fails the lower-central-series test")
    return g


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg chains
# ---------------------------------------------------------------------------


def _exterior_guard(dim: int, D: int, size_limit=None):
    """Refuse the CE chains through wedge degree D of a Lie algebra of
    dimension dim: every exterior power C(dim, p), p <= min(D, dim), must be
    within the size limit."""
    limit = DEFAULT_SIZE_LIMIT if size_limit is None else size_limit
    for p in range(min(D, dim) + 1):
        if comb(dim, p) > limit:
            raise SizeLimit(f"exterior power C({dim},{p}) exceeds limit {limit}")


class CEComplex(SimpleNamespace):
    # tuples: p -> index tuples, of weight 0 if weight_zero, one per class if coinvariants
    def __init__(self, complex: ChainComplex, lie: LieAlgebra, bound: int, tuples: dict,
                 weight_zero: bool = False, coinvariants: bool = False):
        super().__init__(complex=complex, lie=lie, bound=bound, tuples=tuples,
                         weight_zero=weight_zero, coinvariants=coinvariants)

    def __repr__(self):  # the tuples are too long to print
        return (f"CEComplex(complex={self.complex!r}, lie={self.lie!r}, bound={self.bound!r}, "
                f"weight_zero={self.weight_zero!r}, coinvariants={self.coinvariants!r})")

    def homology(self, rng=None, **kw) -> HomologyReport:
        if self.coinvariants and kw.get("reps"):
            raise ValueError("the coinvariant complex has no representatives in the wedges")
        rng = rng or self.complex.certified
        rep = self.complex.homology(rng, **kw)
        if self.weight_zero and rep.representatives is not None:
            n = self.lie.dim
            rep.representatives = {
                p: [{_lex_rank(self.tuples[p][k], n): c for k, c in v.items()} for v in vecs]
                for p, vecs in rep.representatives.items()}
        return rep


def _lex_rank(tup, n) -> int:
    """Position of the sorted tuple among the len(tup)-subsets of range(n),
    in lexicographic order."""
    p = len(tup)
    return comb(n, p) - 1 - sum(comb(n - 1 - c, p - i) for i, c in enumerate(tup))


def _weight_zero_wedges(weights, top) -> dict:
    """p -> (tuples, masks) for p <= top: the p-subsets of the basis whose
    weights sum to zero, lexicographic, with their bitmasks.  A weight is
    packed into one int in base 2 top m + 1, m the largest |coordinate|, so a
    sum of at most top weights is 0 exactly when every coordinate is.  One
    depth-first walk per degree takes the indices in increasing order, k only
    while the rest of the sum is in reach[k + 1], so every branch ends in a
    wedge."""
    n = len(weights)
    m = max((abs(x) for w in weights for x in w), default=0)
    base = 2 * top * m + 1
    packed = [sum(x * base ** i for i, x in enumerate(w)) for w in weights]
    reach = [None] * n + [[{0}] + [set()] * top]  # [k][j]: the sums of j weights from k on
    for k in range(n - 1, -1, -1):
        below, w = reach[k + 1], packed[k]
        reach[k] = [{0}] + [below[j] | {w + s for s in below[j - 1]} for j in range(1, top + 1)]
    out = {0: ([()], [0])}
    for p in range(1, top + 1):
        tuples, masks = out[p] = [], []

        def walk(start, left, need, tup, mask):
            if left == 1:
                for k in range(start, n):
                    if packed[k] == need:
                        tuples.append(tup + (k,))
                        masks.append(mask | 1 << k)
                return
            for k in range(start, n - left + 1):
                if need - packed[k] in reach[k + 1][left - 1]:
                    walk(k + 1, left - 1, need - packed[k], tup + (k,), mask | 1 << k)

        walk(0, p, 0, (), 0)
    return out


def _wedge_classes(tuples, masks, perms):
    """(representatives, their masks, index) of the orbits of the p-wedges
    (lexicographic) under the basis permutations perms: index sends the mask of
    x_T to (row, odd), x_T = (-1)^odd x_rep.  pi sends x_T to the sign of
    re-sorting pi(T) times its wedge; an orbit reaching a wedge with both signs
    is 0, row -1.  No perms: every wedge is its own class."""
    if not perms:
        return tuples, masks, dict(zip(masks, zip(range(len(masks)), repeat(0))))
    reps, rep_masks, index = [], [], {}
    for tup, mask in zip(tuples, masks):
        if mask in index:
            continue
        orbit, todo, alive = {mask: 0}, [(tup, 0)], True
        while todo:
            t, odd = todo.pop()
            for pi in perms:
                img = [pi[k] for k in t]
                image, e = 0, odd
                for j in img:
                    e += (image >> j).bit_count()  # the earlier slots above j
                    image |= 1 << j
                if image not in orbit:
                    orbit[image] = e & 1
                    todo.append((sorted(img), e & 1))
                elif orbit[image] != e & 1:
                    alive = False
        if alive:
            reps.append(tup)
            rep_masks.append(mask)
        row = len(reps) - 1 if alive else -1
        index.update((m, (row, e)) for m, e in orbit.items())
    return reps, rep_masks, index


def _ce_matrix(g: LieAlgebra, tuples_p, masks_p, index_pm1, nrows) -> SparseMatrix:
    """d on the p-wedges, as tuples and bitmasks; index_pm1 sends the bitmask
    of a (p-1)-wedge to (row, odd) as _wedge_classes does, out of nrows.
    [x_a, x_b] for a < b in S lands on S - {a, b} + {c} for each term c outside it."""
    terms = [{} for _ in range(g.dim)]  # terms[a][bit of b]: the terms of [x_a, x_b], a < b
    for (a, b), vec in g.bracket.items():
        terms[a][1 << b] = [(1 << c, (1 << c) - 1, coef) for c, coef in vec.items()]
    partners = [sum(t) for t in terms]  # mask of the b > a with [x_a, x_b] != 0
    entries = {}
    for col, (tup, S) in enumerate(zip(tuples_p, masks_p)):
        out = {}
        for r, a in enumerate(tup):
            pairs = partners[a] & S
            while pairs:
                b_bit = pairs & -pairs
                pairs ^= b_bit
                rest = S ^ (1 << a) ^ b_bit
                rs = r + (S & (b_bit - 1)).bit_count()
                for c_bit, below, coef in terms[a][b_bit]:
                    if rest & c_bit:
                        continue
                    row, odd = index_pm1[rest | c_bit]
                    if (rs + odd + (rest & below).bit_count()) % 2:
                        coef = -coef
                    out[row] = out.get(row, 0) + coef
        out.pop(-1, None)  # the terms on wedges whose class is 0
        entries.update(zip(zip(out, repeat(col)), out.values()))  # SparseMatrix drops zeros
    return SparseMatrix(nrows, len(tuples_p), entries)


def ce_complex(g: LieAlgebra, D: int, size_limit=None, coinvariants=False) -> CEComplex:
    """Chevalley-Eilenberg chains through wedge degree D; when g declares a
    grading, only the summand of weight 0 (the others are acyclic), with
    coinvariants its quotient by g.symmetries.  The size guard reads the full
    exterior powers either way."""
    if D < 1:
        raise ValueError("D must be >= 1")
    _exterior_guard(g.dim, D, size_limit)
    top = min(D, g.dim)
    weight_zero = g.weights is not None
    perms = g.symmetries if coinvariants else ()
    cells = {p: _wedge_classes(*wedges, perms)  # no grading: every wedge
             for p, wedges in _weight_zero_wedges(g.weights or [()] * g.dim, top).items()}
    dims = {p: len(c[0]) for p, c in cells.items()}
    diffs = {p: _ce_matrix(g, *cells[p][:2], cells[p - 1][2], dims[p - 1])
             for p in range(1, top + 1)}
    bounded = top == g.dim
    certified = Interval(0, top if bounded else top - 1)
    cx = ChainComplex(dims, diffs, certified, bounded_above=bounded)
    return CEComplex(cx, g, D, {p: c[0] for p, c in cells.items()}, weight_zero, bool(perms))


def ce_homology(g: LieAlgebra, D: int, size_limit=None, reps=False) -> HomologyReport:
    """Homology through degree D - 1, read off the weight-0 summand when g
    declares a grading (without reps, off its quotient by g.symmetries)."""
    ce = ce_complex(g, D, size_limit, coinvariants=not reps)
    hi = min(D - 1, ce.complex.certified.hi)
    return ce.homology(Interval(0, hi), reps=reps)


# ---------------------------------------------------------------------------
# generalized trace
# ---------------------------------------------------------------------------


def _closed_chains(units, n) -> list:
    """(sign, slot order) of each closed chain of the matrix units (i_t, j_t)
    from slot 0: a depth-first walk places slot t next only when i_t is the
    column reached, flipping the sign when an odd number of placed slots lie above t."""
    i0, j0 = units[0]
    out = []
    stack = [(j0, 1, 1, (0,))]  # (column reached, mask of placed slots, sign, slot order)
    while stack:
        at, placed, sgn, order = stack.pop()
        if len(order) > n:
            if at == i0:
                out.append((sgn, order))
            continue
        for t in range(1, n + 1):
            if units[t][0] == at and not placed >> t & 1:
                stack.append((units[t][1], placed | 1 << t,
                              -sgn if (placed >> t).bit_count() % 2 else sgn, order + (t,)))
    return out


def generalized_trace_matrix(A: Algebra, r: int, n: int, lam: LambdaComplex,
                             ce: CEComplex) -> SparseMatrix:
    """Wedge degree n+1 of gl_r(A) to the degree-n rotation coinvariants.

    On a wedge of elementary matrices a_t (x) E(i_t, j_t) the image is the
    signed sum over permutations s fixing slot 0 of trace(E_0 E_{s(1)} ...)
    times the class of a_0 (x) a_{s(1)} (x) ... in coker(1 - t), nonzero only
    on closed chains, walked once per pattern of units (a wedge of nonzero
    weight closes none); the word's mixed-radix index builds up slot by slot."""
    dA = A.dim
    classes = lam.word_classes(n)
    chains_of = {}  # matrix units of a wedge -> its closed chains
    entries = {}
    for col, tup in enumerate(ce.tuples[n + 1]):
        units = tuple(divmod(idx // dA, r) for idx in tup)
        if units not in chains_of:
            chains_of[units] = _closed_chains(units, n)
        for sgn, order in chains_of[units]:
            word = 0
            for t in order:
                word = word * dA + tup[t] % dA
            hit = classes[word]
            if hit:
                entries[hit[0], col] = entries.get((hit[0], col), 0) + sgn * hit[1]
    return SparseMatrix(lam.complex.dim(n), len(ce.tuples[n + 1]), entries)


class TraceReport(SimpleNamespace):
    def __init__(self, chain_map_ok: bool, failing_degree: int | None, sign: int,
                 degrees: Interval):
        super().__init__(chain_map_ok=chain_map_ok, failing_degree=failing_degree, sign=sign,
                         degrees=degrees)

    def to_jsonable(self):
        return {
            "chain_map": self.chain_map_ok,
            "failing_degree": self.failing_degree,
            "sign_convention": self.sign,
            "degrees": self.degrees.to_jsonable(),
        }


def trace_chain_check(A: Algebra, r: int, N: int, size_limit=None):
    """Exact matrix identity Tr . d_CE = sign * d_lambda . Tr for wedge
    degrees <= N + 1, on the weight-0 wedges when gl_r(A) is graded; returns
    (report, trace matrices, lambda complex, ce)."""
    dim = r * r * A.dim
    if dim < 2:  # no d_CE to check: the exterior powers stop at degree dim
        raise ChainlabError(f"trace needs dim gl_r(A) >= 2, got {dim} for r = {r}")
    N = min(N, dim - 1)  # higher exterior powers vanish
    g = guarded_gl(A, r, N + 1, size_limit)
    ce = ce_complex(g, N + 1, size_limit)
    lam = lambda_complex(A, N, size_limit)
    traces = {n: generalized_trace_matrix(A, r, n, lam, ce) for n in range(0, N + 1)}
    failing = None
    for n in range(1, N + 1):
        lhs = traces[n - 1] @ ce.complex.diffs[n + 1]
        rhs = (lam.complex.diffs[n] @ traces[n]).scale(TRACE_CHAIN_SIGN)
        if lhs != rhs:
            failing = n
            break
    report = TraceReport(failing is None, failing, TRACE_CHAIN_SIGN, Interval(1, N))
    return report, traces, lam, ce


# ---------------------------------------------------------------------------
# free graded-commutative model and the stable comparison
# ---------------------------------------------------------------------------


def sym_model_betti(generator_counts: dict, D: int) -> list:
    """Dimensions through degree D of the free graded-commutative algebra on
    generator_counts[n] generators in degree n (odd degrees exterior, even
    polynomial)."""
    series = [0] * (D + 1)
    series[0] = 1
    for n, g in sorted(generator_counts.items()):
        if n <= 0 or g <= 0 or n > D:
            continue
        if n % 2 == 1:
            factor = [comb(g, k) for k in range(0, D // n + 1)]
        else:
            factor = [comb(k + g - 1, g - 1) for k in range(0, D // n + 1)]
        new = [0] * (D + 1)
        for d in range(D + 1):
            if not series[d]:
                continue
            for k, c in enumerate(factor):
                if d + n * k > D:
                    break
                new[d + n * k] += series[d] * c
        series = new
    return series


def _ce_betti(rep: HomologyReport, g: LieAlgebra, n: int) -> int:
    """Betti number n of a ce_homology report on g: CE chains vanish above
    dim g, where the report stops."""
    return rep.betti[n] if n <= g.dim else 0


class LqtReport(SimpleNamespace):
    def __init__(self, ce_betti: dict, sym_betti: dict, matches: dict, all_match: bool,
                 stable: bool, rank: int, degrees: Interval):
        super().__init__(ce_betti=ce_betti, sym_betti=sym_betti, matches=matches,
                         all_match=all_match, stable=stable, rank=rank, degrees=degrees)

    def to_jsonable(self):
        return {
            "ce_betti": {str(k): v for k, v in sorted(self.ce_betti.items())},
            "sym_model_betti": {str(k): v for k, v in sorted(self.sym_betti.items())},
            "matches": {str(k): v for k, v in sorted(self.matches.items())},
            "all_match": self.all_match,
            "within_stable_range": self.stable,
            "rank": self.rank,
            "degrees": self.degrees.to_jsonable(),
        }


def lqt_verify(A: Algebra, r: int, D: int, size_limit=None) -> LqtReport:
    """Compare CE betti of gl_r(A) against the free graded-commutative model
    on the cyclic homology of A shifted up by one.  Outside the stable range
    r >= D a mismatch is reported, not failed."""
    if not A.is_unital:
        raise UnitError("the stable comparison expects a unital algebra")
    g = guarded_gl(A, r, D + 1, size_limit)
    ce_rep = ce_homology(g, D + 1, size_limit)
    hc_rep = hc_homology(A, max(D + 1, 2), size_limit)  # HC_0..HC_{D-1}, the generators
    gens = {n: hc_rep.betti[n - 1] for n in range(1, D + 1)}
    sym = sym_model_betti(gens, D)
    degrees = Interval(0, D)
    ce_betti = {n: _ce_betti(ce_rep, g, n) for n in degrees}
    sym_betti = {n: sym[n] for n in degrees}
    matches = {n: ce_betti[n] == sym_betti[n] for n in degrees}
    return LqtReport(ce_betti, sym_betti, matches, all(matches.values()), r >= D, r, degrees)


class CentralExtensionReport(SimpleNamespace):
    def __init__(self, h1: int, h2: int, h2_indecomposable: int, hc1: int, equal: bool):
        super().__init__(h1=h1, h2=h2, h2_indecomposable=h2_indecomposable, hc1=hc1,
                         equal=equal)

    def to_jsonable(self):
        return {
            "dim_h1": self.h1,
            "dim_h2": self.h2,
            "dim_h2_indecomposable": self.h2_indecomposable,
            "dim_hc1": self.hc1,
            "equal": self.equal,
        }


def h2_vs_hc1(A: Algebra, r: int, size_limit=None) -> CentralExtensionReport:
    """Compare HC_1(A) with the kernel size of the universal central extension
    of gl_r(A), i.e. the indecomposable part of H_2: products of H_1 classes
    (their exterior square) are discounted from the raw dimension."""
    g = guarded_gl(A, r, 3, size_limit)
    rep = ce_homology(g, 3, size_limit)
    h1, h2 = _ce_betti(rep, g, 1), _ce_betti(rep, g, 2)
    prim = h2 - comb(h1, 2)
    hc1 = hc_homology(A, 3, size_limit).betti[1]
    return CentralExtensionReport(h1, h2, prim, hc1, prim == hc1)
