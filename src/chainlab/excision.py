"""H-unitality tests, filtrations of surjective extensions, relative homology,
and the excision verifier.

An extension is a surjective algebra map f : A -> B with kernel ideal I.  All
computations run in an adapted copy of A whose first dim(I) basis vectors
span I and whose remaining basis vectors map to the basis of B under f; the
filtration stages are then spanned by coordinate subsets of the tensor-word
bases.  Each stage, graded piece and kernel is cut out of a built complex by
complexes.subcomplex (F^n, the kernel of Q^n -> Q^{n+1}) or
complexes.quotient_complex (Q^n, F^{n+1}/F^n), which check that the cut is
closed under the differential.  So is every relative and excision result:
f_ad projects each letter onto the letters dim(I)..dim(A)-1, so the kernel K
of C(A) -> C(B) is the subcomplex of words holding an ideal letter, and C(I)
that of words of ideal letters only.  f is onto and C(I) -> K one-to-one, so
H(K) is relative homology and K / C(I) is acyclic exactly where the
comparison is a quasi-isomorphism.  HC and HH are cut out of Connes' (b, B)
total on the normalized complex G (x) Gbar^n: every column for HC, column 0
for HH.  G is A in the basis 1, the ideal letters, the other complement
letters when A is unital and 1 is not in I, and otherwise the unitalization
A+ = Q.1 + A, whose reduced HH and HC are A's; either way Gbar -> Bbar is
again a coordinate projection.  The Hochschild comparison is cut from the HH
one, and for non-unital A the Bar one from -b' on the words A^(p+1).

Filtration stage n of the (A, M) complex: words whose first p - n algebra
slots (the ones adjacent to the module slot) are constrained to I.  Stage 0
equals the (I, M) complex and the stages exhaust the (A, M) complex.  The
quotient of consecutive stages is isomorphic to the (I, M) Bar complex
tensored with B and n free copies of A, shifted by n + 1 (Wodzicki, Ann.
Math. 129 (1989)).  Every cut of the two filtrations is a box of words, each
slot running over a range of letters, whose coordinates
WordBasis.positions lists in the box's slot order: F^n is [M, I^(p-n),
A^n], the Q stage [B-module, complement^q, A^(p-q)], the Q kernel [B, B^n,
I, A^(p-n-1)] in the stage's own basis, and F^{n+1} minus F^n [M, I^k,
complement, A^n], k = p - n - 1.
"""

from __future__ import annotations

from itertools import product
from math import prod
from types import SimpleNamespace

from .algebras import Algebra, AlgebraMorphism, Bimodule, Ideal
from .complexes import (
    ChainComplex,
    ChainMap,
    HomologyReport,
    Interval,
    QuasiIsoVerdict,
    acyclicity,
    entries_of,
    quotient_complex,
    selection,
    subcomplex,
)
from .cyclic import (
    WordBasis,
    _connes_total,
    b_prime_matrix,
    bar_complex,
    hoch_from_b_prime,
    hoch_matrix,
    size_guard,
    words,
)
from .sparse import SparseMatrix

ONE = 1


class ExtensionData:
    """Surjective f : A -> B with kernel I, plus the adapted coordinates."""

    def __init__(self, f: AlgebraMorphism):
        if not f.is_surjective():
            raise ValueError("extension map must be surjective")
        self.f = f
        self.A = f.source
        self.B = f.target
        self.I = Ideal(self.A, f.kernel_vectors(), name=f"ker({self.A.name or 'A'}->{self.B.name or 'B'})")
        if self.A.dim != self.I.dim + self.B.dim:
            raise ValueError("rank bookkeeping failed for the extension")
        self._adapt()

    def _adapt(self):
        """Change basis so I is spanned by the leading coordinates and the
        complement maps isomorphically onto the basis of B."""
        A, B, I = self.A, self.B, self.I
        lifts = self.f.matrix.solve_many([{k: ONE} for k in range(B.dim)])
        cols = [dict(v) for v in I.basis] + [dict(s) for s in lifts]
        P = SparseMatrix.from_columns(A.dim, cols)
        basis = P.columns()
        prods = [A.mul_vec(x, y) for x in basis for y in basis]
        sols = P.solve_many(prods + ([A.unit] if A.is_unital else []))
        if None in sols[:len(prods)]:
            raise ValueError("adapted basis is not invertible")
        mul = {divmod(k, A.dim): sol for k, sol in enumerate(sols[:len(prods)]) if sol}
        unit = sols[-1] if A.is_unital else None
        labels = [f"i{t + 1}" for t in range(I.dim)] + [f"c:{B.labels[t]}" for t in range(B.dim)]
        self.A_ad = Algebra(A.dim, labels, mul, unit=unit, name=f"{A.name or 'A'}~")
        self.basis_map = P  # columns: adapted basis written in original coordinates
        f_ad_matrix = SparseMatrix(
            B.dim, A.dim, {(t, I.dim + t): ONE for t in range(B.dim)}
        )
        self.f_ad = AlgebraMorphism(self.A_ad, B, f_ad_matrix)
        self.I_ad = Ideal(self.A_ad, [{t: ONE} for t in range(I.dim)], name=self.I.name)

    @property
    def ideal_dim(self):
        return self.I.dim

    def ideal_algebra(self) -> Algebra:
        return self.I_ad.as_algebra()

    def adapt_module(self, M: Bimodule | None) -> Bimodule:
        """Bimodule over the adapted algebra (regular module by default)."""
        if M is None:
            return Bimodule.regular(self.A_ad)
        if M.algebra is self.A_ad:
            return M
        if M.algebra is not self.A:
            raise ValueError("module is defined over a different algebra")
        return M.with_algebra(self.A_ad, self.basis_map)

    def ideal_inclusion(self) -> SparseMatrix:
        """I -> A in adapted coordinates: the leading coordinates."""
        return SparseMatrix(
            self.A_ad.dim, self.ideal_dim, {(t, t): ONE for t in range(self.ideal_dim)}
        )

    def restrict_module_to_ideal(self, M_ad: Bimodule) -> Bimodule:
        return M_ad.with_algebra(self.ideal_algebra(), self.ideal_inclusion())


# ---------------------------------------------------------------------------
# H-unitality
# ---------------------------------------------------------------------------


class HUnitalityVerdict(SimpleNamespace):
    def __init__(self, passed: bool, betti: dict, certified: Interval, first_failing: int | None):
        super().__init__(passed=passed, betti=betti, certified=certified,
                         first_failing=first_failing)

    def to_jsonable(self):
        return {
            "passed": self.passed,
            "betti": {str(k): v for k, v in sorted(self.betti.items())},
            "certified_range": self.certified.to_jsonable(),
            "failing_degree": self.first_failing,
        }


def h_unitary_check(A: Algebra, M: Bimodule, D: int, size_limit=None) -> HUnitalityVerdict:
    """Bounded certificate: Bar(A, M) acyclic in degrees < D."""
    if D < 2:
        raise ValueError("D must be >= 2")
    rep = bar_complex(A, M, D, size_limit).homology(Interval(0, D - 1))
    failing = next((n for n in sorted(rep.betti) if rep.betti[n]), None)
    return HUnitalityVerdict(failing is None, rep.betti, rep.certified, failing)


def h_unitality_check(A: Algebra, D: int, size_limit=None) -> HUnitalityVerdict:
    return h_unitary_check(A, Bimodule.regular(A), D, size_limit)


# ---------------------------------------------------------------------------
# filtration stages
# ---------------------------------------------------------------------------


class FiltrationStage(SimpleNamespace):
    # kind: "F-bar" | "F-hoch" | "Q-bar" | "Q-hoch"; indices: degree -> index
    # list into the ambient word basis
    def __init__(self, level: int, kind: str, complex: ChainComplex, indices: dict):
        super().__init__(level=level, kind=kind, complex=complex, indices=indices)


def _differential(kind: str, A: Algebra, M: Bimodule, p: int, b_prime=None) -> SparseMatrix:
    """d_p on the words of (A, M): -b' for kind "bar", b for "hoch"; read off
    b_prime[p] = b'_p where those are built already."""
    if kind not in ("bar", "hoch"):
        raise ValueError(f"unknown complex kind {kind!r}: expected 'bar' or 'hoch'")
    if b_prime is None:
        return b_prime_matrix(A, M, p).scale(-1) if kind == "bar" else hoch_matrix(A, M, p)
    return b_prime[p].scale(-1) if kind == "bar" else hoch_from_b_prime(b_prime[p], A, M, p)


def filtration_F(ext: ExtensionData, M: Bimodule | None, n: int, D: int,
                 kind: str = "bar", size_limit=None) -> FiltrationStage:
    """Stage n of the filtration from the (I, M) complex to the (A, M) one."""
    M_ad = ext.adapt_module(M)
    size_guard(len(words(ext.A_ad, M_ad, D)), size_limit, "filtration complex top degree")
    return _stage_F(ext, M_ad, n, D, kind)


def _stage_F(ext: ExtensionData, M_ad: Bimodule, n: int, D: int, kind: str,
             b_prime=None) -> FiltrationStage:
    """Stage n cut out of the (A, M) complex of kind, off b_prime[p] = b'_p if built."""
    if n < 0 or D < 1:
        raise ValueError("need n >= 0 and D >= 1")
    A, dI = ext.A_ad, ext.ideal_dim
    full_mats = {p: _differential(kind, A, M_ad, p, b_prime) for p in range(1, D + 1)}
    # the box [M, I^(p-n), A^n] of the words (m; a_1..a_p)
    indices = {p: words(A, M_ad, p).positions(
        [(0, 0, M_ad.dim)] + [(t, 0, dI if t <= p - n else A.dim) for t in range(1, p + 1)])
        for p in range(D + 1)}
    return FiltrationStage(n, f"F-{kind}", subcomplex(full_mats, indices, f"F^{n}"), indices)


class GradedPieceReport(SimpleNamespace):
    # kind_results: "bar"/"hoch" -> (ok, failing_degree); stage_dims: p -> dim F^n_p
    def __init__(self, passed: bool, kind_results: dict, quotient_dims: dict, stage_dims: dict):
        super().__init__(passed=passed, kind_results=kind_results,
                         quotient_dims=quotient_dims, stage_dims=stage_dims)

    def to_jsonable(self):
        return {
            "passed": self.passed,
            "per_kind": {k: {"ok": v[0], "failing_degree": v[1]} for k, v in self.kind_results.items()},
            "quotient_dims": {str(k): v for k, v in sorted(self.quotient_dims.items())},
        }


def graded_piece_check(ext: ExtensionData, M: Bimodule | None, n: int, D: int,
                       size_limit=None) -> GradedPieceReport:
    """Verify F^{n+1}/F^n is the (I, M) Bar complex tensored with A^n (x) B,
    shifted by n + 1, building F^{n+1} alone.  The quotient keeps its words
    (m; i_1..i_k, c, a_1..a_n) outside F^n, k = p - n - 1 and c a complement
    letter, in the model's slot order (a_1..a_n, c, m, i_1..i_k).
    quotient_complex checks that d descends, which shows F^n closed (d∘d = 0
    on F^{n+1} covers F^n), and writes the induced d in the model's basis,
    where it must equal the model's exactly.  stage_dims are F^n's."""
    if n < 0 or D < 1:  # before the model's b' up to degree D - n - 1
        raise ValueError("need n >= 0 and D >= 1")
    M_ad, A = ext.adapt_module(M), ext.A_ad
    size_guard(len(words(A, M_ad, D)), size_limit, "filtration complex top degree")
    dA, dI, dM = A.dim, ext.ideal_dim, M_ad.dim
    I_alg, M_res = ext.ideal_algebra(), ext.restrict_module_to_ideal(M_ad)
    free_dim = ext.B.dim * dA ** n
    # the model free (x) Bar(I, M)[n+1], -b' on the Bar words, writes its
    # degree-p words as the free part (a_1..a_n, c) ahead of the Bar word
    # (m; i_1..i_k), k = p - n - 1
    mdl_dims = {p: free_dim * dM * dI ** (p - n - 1) if p > n else 0 for p in range(D + 1)}
    model = {p: SparseMatrix.identity(free_dim).tensor(b_prime_matrix(I_alg, M_res, p - n - 1))
             .scale(-1) if p > n + 1 else SparseMatrix.zeros(mdl_dims[p - 1], mdl_dims[p])
             for p in range(1, D + 1)}
    walk = {p: WordBasis((dM,) + (dI,) * (p - n - 1) + (dA,) * (n + 1)).positions(
        [(t, 0, dA) for t in range(p - n + 1, p + 1)] + [(p - n, dI, dA), (0, 0, dM)]
        + [(t, 0, dI) for t in range(1, p - n)]) if p > n else [] for p in range(D + 1)}

    # one b' per degree serves both kinds
    bprimes = {p: b_prime_matrix(A, M_ad, p) for p in range(1, D + 1)}
    results = {}
    for kind in ("bar", "hoch"):
        outer = _stage_F(ext, M_ad, n + 1, D, kind, bprimes).complex
        quot = quotient_complex(entries_of(outer.diffs), {
            p: selection(walk[p], outer.dim(p)) for p in walk}, f"F^{n + 1}/F^{n}")
        want = model if kind == "bar" else {p: d.scale(-1) for p, d in model.items()}
        failing = next((p for p in model if quot.diffs[p] != want[p]), None)
        results[kind] = (failing is None, failing)
    return GradedPieceReport(all(ok for ok, _ in results.values()), results, quot.dims, {
        p: dM * dI ** max(p - n, 0) * dA ** min(n, p) for p in range(D + 1)})


# ---------------------------------------------------------------------------
# quotient filtration from the (A, B) complex to the (B, B) complex
# ---------------------------------------------------------------------------


def filtration_Q(ext: ExtensionData, n: int, D: int, kind: str = "bar",
                 size_limit=None) -> FiltrationStage:
    """Stage n: apply f to the first min(n, p) algebra slots of (A, B)-words."""
    if n < 0 or D < 1:
        raise ValueError("need n >= 0 and D >= 1")
    A, dI = ext.A_ad, ext.ideal_dim
    M_B = Bimodule.over_morphism(ext.f_ad)
    size_guard(len(words(A, M_B, D)), size_limit, "filtration complex top degree")
    full_mats = {p: _differential(kind, A, M_B, p) for p in range(1, D + 1)}

    # Q^n is the coordinate quotient onto the box [B-module, complement^q,
    # A^(p-q)], q = min(n, p): a B-slot is the complement letter dI..dA-1
    # over it, and a word with an I-slot among the first n goes to 0
    walks = {}
    for p in range(D + 1):
        full = words(A, M_B, p)
        walks[p] = selection(full.positions(
            [(0, 0, M_B.dim)] + [(t, dI if t <= n else 0, A.dim) for t in range(1, p + 1)]),
            len(full))
    quot = quotient_complex(entries_of(full_mats), walks, f"Q^{n}")
    return FiltrationStage(n, f"Q-{kind}", quot, {})


def q_kernel_complex(ext: ExtensionData, stage: FiltrationStage) -> ChainComplex:
    """Kernel of Q^n -> Q^{n+1} in the built stage Q^n, whose degree-p words
    are (b; x_1..x_p), x_t in B for t <= n, else in A: the box [B, B^n, I,
    A^(p-n-1)] of the words whose slot n+1 lies in I."""
    n, dI, dA, dB = stage.level, ext.ideal_dim, ext.A_ad.dim, ext.B.dim
    indices = {}
    for p in stage.complex.dims:
        basis = WordBasis((dB,) * (n + 1) + (dA,) * (p - n))
        indices[p] = basis.positions([(t, 0, dI if t == n + 1 else r)
                                      for t, r in enumerate(basis.radices)]) if p > n else []
    return subcomplex(stage.complex.diffs, indices, "Q-kernel")


# ---------------------------------------------------------------------------
# relative homology and the excision verifier
# ---------------------------------------------------------------------------


def _word_cut(diffs: dict, rows: dict, what: str):
    """(K, inner) of a complex whose degree n is the direct sum, in order, of
    the word bases rows[n].  A word basis is a tuple of slots, each a string
    naming its letters in order: "i" an ideal letter, "u" the unit, "c" a
    complement letter.  K keeps the words holding an ideal letter: the kernel
    of the map to B's complex, which kills the ideal letters and sends the
    words of the others one to one onto B's words.  inner[n] lists the
    positions in K_n of the ideal's complex, the words with no complement
    letter.  subcomplex raises unless d keeps K."""
    marks = {}  # word basis -> (x, no complement letter) for its words x in K
    keep, inner = {}, {}
    for n, blocks in rows.items():
        keep[n], inner[n], off = [], [], 0
        for block in blocks:
            if block not in marks:
                marks[block] = [(x, "c" not in w) for x, w in enumerate(product(*block)) if "i" in w]
            for x, pure in marks[block]:
                if pure:
                    inner[n].append(len(keep[n]))
                keep[n].append(off + x)
            off += prod(map(len, block))
    return subcomplex(diffs, keep, what), inner


def _mod_ideal(K: ChainComplex, inner: dict) -> ChainComplex:
    """K / C(I), C(I) at the positions inner[n] of K_n; quotient_complex
    raises unless d keeps C(I)."""
    walks = {n: selection(sorted(set(range(K.dim(n))).difference(pos)), K.dim(n))
             for n, pos in inner.items()}
    return quotient_complex(entries_of(K.diffs), walks, "K / C(I)")


def _letters(ext: ExtensionData) -> str:
    """The slot of A_ad's words: its ideal letters, then its complement ones."""
    return "i" * ext.ideal_dim + "c" * (ext.A_ad.dim - ext.ideal_dim)


def _kernel_cuts(ext: ExtensionData, D: int, flavors, size_limit=None):
    """The _word_cut (K, inner) to degree D - 1 for each flavor, "hh" or else
    HC, off _connes_total of A_ad, guarded there on A_ad's row, with the unit
    dropping a complement letter: G is A_ad in the basis 1, the ideal letters,
    the other complement letters when A is unital and 1 is not in I; else
    A_ad+ = Q.1 + A_ad, w[0] = A_ad.dim + 1, whose slot Gbar holds all of
    A_ad's letters and whose reduced HH and HC are A's (Loday 1.4, 2.2).
    Gbar -> Bbar drops the ideal letters g_1..g_dI, so K is the words holding
    one, on every column or on column 0 (HH), and C(I) is the reduced
    normalized complex of I+ = Q.1 + I, whose HC is HC(I) over Q (Loday
    2.1-2.2): slot 0 in 1 or I, the other slots in I.  Flavor "hoch", after
    "hh", is _hoch_cut of the hh cut."""
    A, dI = ext.A_ad, ext.ideal_dim
    total, w = _connes_total(A, D, size_limit, range(dI, A.dim))
    slot = "i" * dI + "c" * (w[0] - 1 - dI)  # Gbar's letters g_1..g_e
    columns = {n: [("u" + slot,) + (slot,) * p for p in range(n, -1, -2)] for n in total.dims}
    cuts = {}
    for f in flavors:
        cuts[f] = _hoch_cut(*cuts["hh"], slot, w[0] > A.dim) if f == "hoch" else _word_cut(
            total.diffs, {n: cols[:1] if f == "hh" else cols for n, cols in columns.items()},
            f"normalized {f}")
    return [cuts[f] for f in flavors]


def _hoch_cut(K, inner, slot: str, naive: bool):
    """The Hochschild comparison's (K, inner) off the hh cut (K, inner), Gbar's
    letters slot: C(I) loses the words (1; i_1..i_n), dI^n of them for n > 0,
    and on A_ad+ (naive) K loses every word led by 1, the first e^n - c^n of
    K_n (e letters, c complement ones).  wodzicki_verify has the proofs."""
    e, dI = len(slot), slot.count("i")
    inner = {n: pos[dI ** n if n else 0:] for n, pos in inner.items()}
    if naive:
        lead = {n: e ** n - (e - dI) ** n for n in inner}
        K = subcomplex(K.diffs, {n: range(lead[n], K.dim(n)) for n in inner}, "naive K")
        inner = {n: [x - lead[n] for x in pos] for n, pos in inner.items()}
    return K, inner


def relative_homology(ext: ExtensionData, D: int, flavor: str = "hc",
                      size_limit=None) -> HomologyReport:
    """Relative HC, or for flavor "hh" relative HH: the homology of
    K = ker(C(A) -> C(B)) of _kernel_cuts.  f is onto, so K is
    quasi-isomorphic to the homotopy fiber of C(A) -> C(B)."""
    if flavor not in ("hh", "hc"):
        raise ValueError(f"unknown flavor {flavor!r}: expected 'hh' or 'hc'")
    if D < 2:
        raise ValueError("D must be >= 2")
    (K, _), = _kernel_cuts(ext, D, (flavor,), size_limit)
    return K.homology(Interval(0, D - 2))


def comparison_map(ext: ExtensionData, D: int, size_limit=None) -> ChainMap:
    """The HC comparison of excision: the inclusion of the ideal's total
    complex C(I) into K = ker(C(A) -> C(B)), both cut by _kernel_cuts.  Its
    cone is quasi-isomorphic to K / C(I), and to the cone of C(I) into the
    relative fiber."""
    (K, inner), = _kernel_cuts(ext, D, ("hc",), size_limit)
    comps = {n: SparseMatrix(K.dim(n), len(pos), {(i, j): ONE for j, i in enumerate(pos)})
             for n, pos in inner.items()}
    return ChainMap(subcomplex(K.diffs, inner, "C(I)"), K, comps)


def _column_comparison(ext: ExtensionData, D: int) -> ChainComplex:
    """K / C(I) of the Bar complex, -b' on the words A^(n+1) of degree n < D.
    It is acyclic exactly where Bar(I) maps quasi-isomorphically into the
    homotopy fiber of Bar(A) -> Bar(B): the comparison of the excision proof
    where a non-H-unital ideal shows up.  Only a non-unital A cuts it."""
    A, M = ext.A_ad, Bimodule.regular(ext.A_ad)
    diffs = {p: _differential("bar", A, M, p) for p in range(1, D)}
    rows = {n: [(_letters(ext),) * (n + 1)] for n in range(D)}
    return _mod_ideal(*_word_cut(diffs, rows, "bar"))


class WodzickiReport(SimpleNamespace):
    def __init__(self, hh: QuasiIsoVerdict, hc: QuasiIsoVerdict, hoch_level: QuasiIsoVerdict,
                 bar_level: QuasiIsoVerdict, ideal_h_unitality: HUnitalityVerdict,
                 relative_hh: HomologyReport, relative_hc: HomologyReport):
        super().__init__(hh=hh, hc=hc, hoch_level=hoch_level, bar_level=bar_level,
                         ideal_h_unitality=ideal_h_unitality, relative_hh=relative_hh,
                         relative_hc=relative_hc)

    @property
    def passed(self):
        return self.hh.ok and self.hc.ok and self.hoch_level.ok and self.bar_level.ok

    @property
    def first_failing(self):
        fails = [v.failing_degree for v in (self.hh, self.hc, self.hoch_level, self.bar_level)
                 if not v.ok]
        return min(fails) if fails else None

    def to_jsonable(self):
        return {
            "passed": self.passed,
            "hh": self.hh.to_jsonable(),
            "hc": self.hc.to_jsonable(),
            "hoch_level": self.hoch_level.to_jsonable(),
            "bar_level": self.bar_level.to_jsonable(),
            "failing_degree": self.first_failing,
            "ideal_h_unitality": self.ideal_h_unitality.to_jsonable(),
        }


def wodzicki_verify(ext: ExtensionData, D: int, size_limit=None) -> WodzickiReport:
    """Quasi-isomorphism ranges of the ideal-to-relative comparison maps: HC,
    HH and the Hochschild complex on A^(n+1) off _kernel_cuts, and the Bar
    complex the proof factors through.  Each holds exactly where its K / C(I)
    is acyclic, with the same failing degree and defect.  The ideal's bounded
    H-unitality certificate comes along, so a report exhibits "H-unital
    implies excision"; a failed verdict is a successful computation.
    Relative HH and HC are H(K).

    The naive Hochschild K / C(I) is read off the hh cut (_hoch_cut).  On the
    unital model it is K / C(I)', C(I)' the words of K with no complement
    letter and slot 0 not 1: normalization is a quasi-isomorphism for unital
    A and B (Loday, Cyclic Homology, 1.1) that commutes with the unital f, so
    the five lemma on 0 -> K -> C(A) -> C(B) -> 0 makes K_naive -> K one; it
    sends the naive C(I), whose words hold no unit, one to one onto C(I)',
    and the five lemma on 0 -> C(I) -> K -> K / C(I) -> 0 does the rest.  On
    A_ad+, A_ad's letters multiply with no unit component, so the naive
    complex of A_ad is the subcomplex of words not led by 1, and the naive K
    and C(I) are those of K and C(I)', in the basis g_k = L e_k.

    A unital A reads the Bar verdict off the certificate, one degree up: B is
    unital too, so Bar(A), Bar(B) and K = ker(Bar(A) -> Bar(B)) are
    contractible (s(x) = 1 (x) x), and 0 -> Bar(I) -> K -> K / Bar(I) -> 0
    gives H_n(K / Bar(I)) = H_{n-1}(Bar(I)) (Loday, Cyclic Homology, 1.4).
    A non-unital A, where the two can differ, cuts it (_column_comparison).
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    rng = Interval(0, D - 2)
    hh, hc, hoch = _kernel_cuts(ext, D, ("hh", "hc", "hoch"), size_limit)
    cert = h_unitality_check(ext.ideal_algebra(), D, size_limit)
    f = cert.first_failing
    if not ext.A_ad.is_unital:
        bar = acyclicity(_column_comparison(ext, D), rng)
    elif f is None or f + 1 > D - 2:
        bar = QuasiIsoVerdict(True, rng)
    else:
        bar = QuasiIsoVerdict(False, rng, f + 1, cert.betti[f])
    hh_v, hc_v, hoch_v = (acyclicity(_mod_ideal(*cut), rng) for cut in (hh, hc, hoch))
    return WodzickiReport(hh_v, hc_v, hoch_v, bar, cert, hh[0].homology(rng), hc[0].homology(rng))
