"""Degree-one tangent data of nilpotent extensions: exact logarithms of
unipotent matrices, the log-trace map into relative HC_0, and tangent tables
over Artinian test bases.

For a surjective f : A -> B with nilpotent kernel I and a stabilisation size
r, the map sends a unipotent u = 1 + m with m over I to the class of
trace(log u) in the degree-zero relative cyclic homology of f.  Everything is
finite and exact: logarithms are the truncated series, and all membership
tests (commutator-subspace defects, class comparisons) are exact rank checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

from .algebras import (
    Algebra,
    AlgebraMorphism,
    Bimodule,
    Ideal,
    augmentation_ideal,
    commutator_subspace,
    matrix_algebra,
    matrix_units_trace,
    tensor,
    unitalization,
)
from .complexes import HomologySpace, Interval, acyclicity, subcomplex
from .cyclic import hoch_matrix, size_guard
from .errors import NotNilpotent, UnitError
from .excision import ExtensionData, _kernel_cuts, _letters, _mod_ideal, _word_cut
from .sparse import SparseMatrix, Subspace, Vector, exact, exact_vec, vec_axpy

ONE = 1

_MAX_NILPOTENCY = 128


def _nilpotent_series(A: Algebra, x: Vector, coefficient) -> Vector:
    """sum_{k >= 1} coefficient(k) x^k, finite because x is nilpotent."""
    out: Vector = {}
    power = dict(x)
    k = 1
    while power:
        if k > _MAX_NILPOTENCY:
            raise NotNilpotent("element does not appear to be nilpotent")
        vec_axpy(out, coefficient(k), power)
        power = A.mul_vec(power, x)
        k += 1
    return out


def nilpotent_log(A: Algebra, nilpart: Vector) -> Vector:
    """log(1 + m) = sum (-1)^{k+1} m^k / k, finite because m is nilpotent."""
    return _nilpotent_series(A, nilpart, lambda k: exact(Fraction(1 if k % 2 == 1 else -1, k)))


def nilpotent_exp(A: Algebra, x: Vector) -> Vector:
    """exp(x) - 1 for nilpotent x (the constant term is left implicit)."""
    return _nilpotent_series(A, x, lambda k: exact(Fraction(1, factorial(k))))


def _unital_ambient(A: Algebra):
    """(A, 0) for unital A, else (A+, 1): A+ = Q.1 + A holds A's basis
    vector k at k + 1, where UnipotentElement houses 1 + m for m in A."""
    return (A, 0) if A.is_unital else (unitalization(A)[0], 1)


class UnipotentElement(SimpleNamespace):
    """1 + m with m in a nilpotent ideal of a unital ambient algebra."""

    def __init__(self, ambient: Algebra, nilpart: Vector):
        if not ambient.is_unital:
            ambient, inc = unitalization(ambient)
            nilpart = inc.apply(nilpart)
        super().__init__(ambient=ambient, nilpart=nilpart)

    def log(self) -> Vector:
        return nilpotent_log(self.ambient, self.nilpart)

    def mul(self, other: "UnipotentElement") -> "UnipotentElement":
        m = dict(self.nilpart)
        vec_axpy(m, ONE, other.nilpart)
        vec_axpy(m, ONE, self.ambient.mul_vec(self.nilpart, other.nilpart))
        return UnipotentElement(self.ambient, m)

    def inverse(self) -> "UnipotentElement":
        """(1 + m)^-1 = 1 + sum_{k >= 1} (-m)^k."""
        minus_m = {k: -c for k, c in self.nilpart.items()}
        series = _nilpotent_series(self.ambient, minus_m, lambda k: ONE)
        return UnipotentElement(self.ambient, series)

    def conjugate_by(self, g: "UnipotentElement") -> "UnipotentElement":
        # g (1 + m) g^{-1} = 1 + g m g^{-1}; expand (1+a) m (1+b) with b = g^{-1}'s nilpart
        a, b, m, mul = g.nilpart, g.inverse().nilpart, self.nilpart, self.ambient.mul_vec
        out, mb = dict(m), mul(m, b)
        for v in (mul(a, m), mb, mul(a, mb)):
            vec_axpy(out, ONE, v)
        return UnipotentElement(self.ambient, out)


# ---------------------------------------------------------------------------
# stabilised extensions and the log-trace map
# ---------------------------------------------------------------------------


class LogTraceProbe:
    """Shared machinery for the degree-one Chern data of an extension.

    rel HC_0 is H_0 of K = ker(C(A) -> C(B)), which reads K in degrees 0 and
    1: the words of A and A (x) A holding an ideal letter, cut from b_1.  In
    A's HC bicomplex the other block of total degree 1 is 1 - t on row 0,
    which is 0, so b_1 alone has the same boundaries.  K_0 is I, in the
    ideal's own coordinates, so a trace in I is its own chain.  The size
    guard reads the row A.dim^4 of total degree 3, as _read_bicomplex does
    for a result reported at bound 3, so a size limit rejects the same
    inputs.  A second guard then reads (r^2 A.dim)^2, the basis pairs of
    M_r(A), which its table and its associativity check grow with, before
    M_r(A) is built."""

    def __init__(self, ext: ExtensionData, r: int, size_limit=None):
        if ext.ideal_dim and not ext.I_ad.is_nilpotent:
            raise NotNilpotent("kernel ideal must be nilpotent")
        self.ext = ext
        self.r = r
        A = ext.A_ad
        size_guard(A.dim ** 4, size_limit, "bicomplex row")
        size_guard((r * r * A.dim) ** 2, size_limit, f"M_{r}(A) basis-pair table")
        self.Am, self.offset = _unital_ambient(matrix_algebra(A, r))
        self.ideal_basis = []
        for pos in range(r * r):
            for t in range(ext.ideal_dim):
                self.ideal_basis.append({pos * A.dim + t: ONE})
        self.commutators = Subspace(A.dim, commutator_subspace(A))
        letters = _letters(ext)
        K, _ = _word_cut({1: hoch_matrix(A, Bimodule.regular(A), 1)},
                         {0: [(letters,)], 1: [(letters, letters)]}, "K")
        self.hs = HomologySpace(K, 0)  # rel HC_0

    @property
    def rel_hc0_dim(self):
        return self.hs.dim

    def trace_log(self, u: UnipotentElement) -> Vector:
        """trace log u, the log read back from Am to M_r(A) coordinates."""
        log = {k - self.offset: c for k, c in u.log().items()}
        return exact_vec(matrix_units_trace(self.ext.A_ad, self.r, log))

    def chern_class(self, u: UnipotentElement) -> Vector:
        """Class of trace(log u) in rel HC_0 (coordinates over representatives)."""
        return self.classify_trace(self.trace_log(u))

    def classify_trace(self, v: Vector) -> Vector:
        """Class in rel HC_0 of v = trace(log u), computed once by the caller."""
        if any(k >= self.ext.ideal_dim for k in v):
            raise ValueError("log-trace is not a chain of K: it leaves the ideal")
        return self.hs.classify(v)

    def unipotent(self, nilpart: Vector) -> UnipotentElement:
        """1 + nilpart, nilpart in M_r(A) coordinates."""
        return UnipotentElement(self.Am, {k + self.offset: c for k, c in nilpart.items()})

    def generators(self):
        return [self.unipotent(v) for v in self.ideal_basis]

    def random_unipotent(self, rng: random.Random) -> UnipotentElement:
        m: Vector = {}
        for v in self.ideal_basis:
            c = rng.randint(-2, 2)
            if c:
                vec_axpy(m, c, v)
        return self.unipotent(m)

    def defect_in_commutators(self, v: Vector) -> bool:
        return self.commutators.contains(v)


class Chern1Report(SimpleNamespace):
    def __init__(self, rel_hc0_dim: int, image_rank: int, surjective: bool,
                 homomorphism_ok: bool, conjugation_ok: bool, commutator_ok: bool,
                 samples: int, seed: int):
        super().__init__(rel_hc0_dim=rel_hc0_dim, image_rank=image_rank, surjective=surjective,
                         homomorphism_ok=homomorphism_ok, conjugation_ok=conjugation_ok,
                         commutator_ok=commutator_ok, samples=samples, seed=seed)

    @property
    def passed(self):
        return (
            self.surjective
            and self.homomorphism_ok
            and self.conjugation_ok
            and self.commutator_ok
        )

    def to_jsonable(self):
        return {
            "passed": self.passed,
            "rel_hc0_dim": self.rel_hc0_dim,
            "image_rank": self.image_rank,
            "surjective": self.surjective,
            "homomorphism_defects_in_commutators": self.homomorphism_ok,
            "conjugation_invariant": self.conjugation_ok,
            "vanishes_on_commutators": self.commutator_ok,
            "samples": self.samples,
            "seed": self.seed,
        }


def chern1(probe: LogTraceProbe, seed: int = 0, samples: int = 100) -> Chern1Report:
    """Verify the log-trace map is a surjection (1 + M_r(I))^x -> rel HC_0:
    homomorphism defects and commutator values land in [A, A] (exact
    membership), conjugation invariance holds, and the generator classes span.
    """
    rng = random.Random(seed)

    image = Subspace(probe.rel_hc0_dim)
    for u in probe.generators():
        image.add(probe.chern_class(u))
    hom_ok = True
    conj_ok = True
    comm_ok = True
    for _ in range(samples):
        u = probe.random_unipotent(rng)
        v = probe.random_unipotent(rng)
        log_u = probe.trace_log(u)
        image.add(probe.classify_trace(log_u))
        uv = u.mul(v)
        defect = probe.trace_log(uv)
        vec_axpy(defect, -ONE, log_u)
        vec_axpy(defect, -ONE, probe.trace_log(v))
        if not probe.defect_in_commutators(defect):
            hom_ok = False
        g = probe.random_unipotent(rng)
        conj_defect = probe.trace_log(u.conjugate_by(g))
        vec_axpy(conj_defect, -ONE, log_u)
        if not probe.defect_in_commutators(conj_defect):
            conj_ok = False
        w = uv.mul(u.inverse()).mul(v.inverse())
        if not probe.defect_in_commutators(probe.trace_log(w)):
            comm_ok = False
    return Chern1Report(
        probe.rel_hc0_dim,
        image.rank,
        image.rank == probe.rel_hc0_dim,
        hom_ok,
        conj_ok,
        comm_ok,
        samples,
        seed,
    )


class K1ProbeReport(SimpleNamespace):
    def __init__(self, span_dim: int, rel_hc0_dim: int, contained: bool, equal: bool,
                 samples: int, seed: int):
        super().__init__(span_dim=span_dim, rel_hc0_dim=rel_hc0_dim, contained=contained,
                         equal=equal, samples=samples, seed=seed)

    def to_jsonable(self):
        return {
            "span_dim": self.span_dim,
            "rel_hc0_dim": self.rel_hc0_dim,
            "span_embeds": self.contained,
            "equal": self.equal,
            "samples": self.samples,
            "seed": self.seed,
        }


def k1_rel_probe(probe: LogTraceProbe, seed: int = 0, samples: int = 50) -> K1ProbeReport:
    """Dimension of the span of {trace(log u)} in I/(I cap [A, A]), compared
    against the relative HC_0 computed homologically."""
    ext = probe.ext
    rng = random.Random(seed)
    span = Subspace(ext.A_ad.dim, commutator_subspace(ext.A_ad))
    base_rank = span.rank
    classes = Subspace(probe.rel_hc0_dim)
    contained = True
    elements = probe.generators() + [probe.random_unipotent(rng) for _ in range(samples)]
    for u in elements:
        v = probe.trace_log(u)
        if any(k >= ext.ideal_dim for k in v):
            raise NotNilpotent("log-trace left the ideal; extension data corrupt")
        span.add(v)
        classes.add(probe.classify_trace(v))
    span_dim = span.rank - base_rank
    if classes.rank != span_dim:
        contained = False  # the span fails to embed into rel HC_0
    return K1ProbeReport(
        span_dim, probe.rel_hc0_dim, contained,
        contained and span_dim == probe.rel_hc0_dim, samples, seed,
    )


# ---------------------------------------------------------------------------
# Artinian bases and tangent tables
# ---------------------------------------------------------------------------


class ArtinianBase(SimpleNamespace):
    def __init__(self, name: str, algebra: Algebra, aug_ideal: Ideal, nilpotency_order: int):
        super().__init__(name=name, algebra=algebra, aug_ideal=aug_ideal,
                         nilpotency_order=nilpotency_order)

    @classmethod
    def from_algebra(cls, B: Algebra, name=None) -> "ArtinianBase":
        ideal = augmentation_ideal(B)
        order = ideal.nilpotency_order() if ideal.dim else 1
        return cls(name or B.name or "B", B, ideal, order)


def base_extension(C: Algebra, base: ArtinianBase) -> ExtensionData:
    """C (x) B --id(x)aug--> C, the nilpotent extension probed by the table."""
    if not C.is_unital:
        raise UnitError("tangent tables need a unital coefficient algebra")
    B = base.algebra
    A = tensor(C, B)
    ent = {}
    for c in range(C.dim):
        for b, val in (B.augmentation or {}).items():
            ent[(c, c * B.dim + b)] = val
    f = AlgebraMorphism(A, C, SparseMatrix(C.dim, A.dim, ent))
    return ExtensionData(f)


class TangentRow(SimpleNamespace):
    def __init__(self, base: str, base_dim: int, nilpotency_order: int, rel_hc: dict,
                 ideal_hc: dict, ideal_mod_ambient_commutators: int, alpha_quasi_iso: bool,
                 alpha_failing_degree: int | None, checked: Interval):
        super().__init__(base=base, base_dim=base_dim, nilpotency_order=nilpotency_order,
                         rel_hc=rel_hc, ideal_hc=ideal_hc,
                         ideal_mod_ambient_commutators=ideal_mod_ambient_commutators,
                         alpha_quasi_iso=alpha_quasi_iso,
                         alpha_failing_degree=alpha_failing_degree, checked=checked)

    def to_jsonable(self):
        return {
            "base": self.base,
            "base_dim": self.base_dim,
            "nilpotency_order": self.nilpotency_order,
            "relative_hc": {str(k): v for k, v in sorted(self.rel_hc.items())},
            "ideal_hc": {str(k): v for k, v in sorted(self.ideal_hc.items())},
            "ideal_mod_ambient_commutators": self.ideal_mod_ambient_commutators,
            "alpha_quasi_iso": self.alpha_quasi_iso,
            "alpha_failing_degree": self.alpha_failing_degree,
            "checked_range": self.checked.to_jsonable(),
        }


def tangent_table(C: Algebra, bases, D: int, size_limit=None):
    """For each Artinian base B: relative HC of C (x) B -> C, the HC of the
    augmentation-ideal coefficients C (x) Aug(B), and the quasi-isomorphism
    range of the comparison map between them.  All three are read off one cut
    of the (b, B) total of C (x) B (excision._kernel_cuts): relative HC is
    H(K), the ideal's HC is H(C(I)), and the comparison is a
    quasi-isomorphism where K / C(I) is acyclic."""
    if D < 2:
        raise ValueError("D must be >= 2")
    rows = []
    for base in bases:
        ext = base_extension(C, base)
        rng = Interval(0, D - 2)
        (K, inner), = _kernel_cuts(ext, D, ("hc",), size_limit)
        rel = K.homology(rng)
        ideal_rep = subcomplex(K.diffs, inner, "C(I)").homology(rng)
        alpha = acyclicity(_mod_ideal(K, inner), rng)
        # dim I / (I cap [A, A]): the concrete degree-zero relative class space
        comm = Subspace(ext.A_ad.dim, commutator_subspace(ext.A_ad))
        base_rank = comm.rank
        for t in range(ext.ideal_dim):
            comm.add({t: ONE})
        rows.append(
            TangentRow(
                base.name,
                base.algebra.dim,
                base.nilpotency_order,
                {n: rel.betti[n] for n in rng},
                {n: ideal_rep.betti[n] for n in rng},
                comm.rank - base_rank,
                alpha.ok,
                alpha.failing_degree,
                rng,
            )
        )
    return rows
