"""Outside-in span recorder for chainlab.

The program itself is not modified: ``instrument`` replaces chosen functions
and methods of the imported ``chainlab`` modules with wrappers that open a
span around the call.  Package modules bind names with ``from .x import y``,
so a wrapped function is also rebound in every chainlab module namespace that
holds the original object.  Classes are shared by reference, so wrapping a
method on the class covers every caller.

A span is (id, parent id, job, name, start, end); ids are unique within a
job.  Spans stay in memory and are written out by the caller when the job
ends.  Self time is a span's duration minus the durations of its direct
children, which cover disjoint parts of it because the traced program runs on
one thread.  Counter bookkeeping that has to look at matrix entries runs on a
paused clock, so it is charged to no span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  An attribute path "Cls.meth" wraps a
# method; a class name alone wraps its __init__.
SPANS = [
    ("sparse", "SparseMatrix.__init__", "sparse.init"),
    ("sparse", "SparseMatrix.__matmul__", "sparse.matmul"),
    ("sparse", "SparseMatrix.assemble", "sparse.assemble"),
    ("sparse", "SparseMatrix.rank", "sparse.rank"),
    ("sparse", "SparseMatrix.kernel_basis", "sparse.kernel_basis"),
    ("sparse", "SparseMatrix.solve_many", "sparse.solve_many"),
    ("sparse", "Subspace.add", "sparse.Subspace.add"),
    ("complexes", "ChainComplex.validate", "complexes.ChainComplex.validate"),
    ("complexes", "ChainComplex.homology", "complexes.homology"),
    ("complexes", "ChainMap.validate", "complexes.ChainMap.validate"),
    ("complexes", "cone", "complexes.cone"),
    ("complexes", "is_quasi_iso", "complexes.is_quasi_iso"),
    ("complexes", "HomologySpace", "complexes.HomologySpace"),
    ("cyclic", "rotation_matrix", "cyclic.rotation_matrix"),
    ("cyclic", "norm_matrix", "cyclic.norm_matrix"),
    ("cyclic", "b_prime_matrix", "cyclic.b_prime_matrix"),
    ("cyclic", "hoch_matrix", "cyclic.hoch_matrix"),
    ("cyclic", "CyclicBicomplex", "cyclic.CyclicBicomplex"),
    ("cyclic", "CyclicBicomplex.induced_map", "cyclic.induced_map"),
    ("cyclic", "LambdaComplex", "cyclic.LambdaComplex"),
    ("cyclic", "connes_check", "cyclic.connes_check"),
    ("excision", "ExtensionData", "excision.ExtensionData"),
    ("excision", "comparison_map", "excision.comparison_map"),
    ("excision", "_column_comparison", "excision.column_comparison"),
    ("excision", "relative_homology", "excision.relative_homology"),
    ("excision", "h_unitality_check", "excision.h_unitality_check"),
    ("excision", "filtration_F", "excision.filtration"),
    ("excision", "filtration_Q", "excision.filtration"),
    ("excision", "graded_piece_check", "excision.graded_piece_check"),
    ("excision", "wodzicki_verify", "excision.wodzicki_verify"),
    ("lie", "gl", "lie.gl"),
    ("lie", "ce_complex", "lie.ce_complex"),
    ("lie", "ce_homology", "lie.ce_homology"),
    ("lie", "generalized_trace_matrix", "lie.generalized_trace_matrix"),
    ("lie", "lqt_verify", "lie.lqt_verify"),
    ("lie", "trace_chain_check", "lie.trace_chain_check"),
    ("tangent", "LogTraceProbe", "tangent.LogTraceProbe"),
    ("tangent", "nilpotent_log", "tangent.nilpotent_log"),
    ("tangent", "chern1", "tangent.chern1"),
    ("tangent", "k1_rel_probe", "tangent.k1_rel_probe"),
    ("tangent", "tangent_table", "tangent.tangent_table"),
    ("dsl", "parse_algebra", "dsl.parse_algebra"),
    ("presets", "algebra_preset", "presets.algebra_preset"),
    ("presets", "extension_preset", "presets.extension_preset"),
    ("algebras", "Algebra", "algebras.Algebra"),
    ("algebras", "matrix_algebra", "algebras.matrix_algebra"),
    ("reports", "Report.to_json", "reports.to_json"),
]


COUNTERS = ("cyclic.bicomplex.builds", "cyclic.bicomplex.distinct", "sparse.rank.calls",
            "sparse.rank.cols", "sparse.nnz_built", "complexes.degrees_built",
            "complexes.degrees_ranked")


class Tracer:
    """Span stack, finished spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []           # (id, parent, job, name, start, end)
        self._stack = []          # [id, name, start, child_seconds]
        self._depth = Counter()   # open spans per name, to skip nested repeats
        self._paused = 0.0
        self.job = None
        self.inclusive = Counter()  # seconds of outermost spans per name
        self.self_time = Counter()
        self.calls = Counter()
        self.self_by_parent = Counter()  # (name, parent name) -> self seconds
        self.counters = Counter()
        self.max_coeff_bits = 0
        self._job_bicomplexes = set()
        self.bicomplex_by_job = {}  # job -> [builds, distinct]

    def now(self):
        return time.perf_counter() - self._paused

    def enter(self, name):
        self._depth[name] += 1
        self._stack.append([len(self.spans) + len(self._stack), name, self.now(), 0.0])

    def exit(self):
        span_id, name, start, children = self._stack.pop()
        end = self.now()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur
        self.self_time[name] += dur - children
        self.self_by_parent[(name, parent[1] if parent else None)] += dur - children
        self.calls[name] += 1
        self.spans.append((span_id, parent[0] if parent else None, self.job, name, start, end))

    def start_job(self, job):
        self.job = job
        self._job_bicomplexes = set()

    def pause(self):
        return time.perf_counter()

    def resume(self, t0):
        self._paused += time.perf_counter() - t0

    def totals(self):
        """The pass's sums in JSON form; merge_totals adds them back up."""
        return {"inclusive": dict(self.inclusive), "self_time": dict(self.self_time),
                "calls": dict(self.calls), "counters": dict(self.counters),
                "self_by_parent": [[n, p, sec] for (n, p), sec in self.self_by_parent.items()],
                "max_coeff_bits": self.max_coeff_bits,
                "bicomplex_by_job": self.bicomplex_by_job, "span_count": len(self.spans)}

    # -- counters at layer boundaries -------------------------------------
    def count_bicomplex(self, A, ncols, D):
        """Builds, and builds distinct within the job by (structure constants, ncols, D)."""
        t0 = self.pause()
        key = (A.dim, tuple(sorted((ij, tuple(sorted(v.items()))) for ij, v in A.mul.items())),
               ncols, D)
        per_job = self.bicomplex_by_job.setdefault(self.job, [0, 0])
        self.counters["cyclic.bicomplex.builds"] += 1
        per_job[0] += 1
        if key not in self._job_bicomplexes:
            self._job_bicomplexes.add(key)
            self.counters["cyclic.bicomplex.distinct"] += 1
            per_job[1] += 1
        self.resume(t0)

    def count_complex(self, cx):
        t0 = self.pause()
        self.counters["complexes.degrees_built"] += len(cx.diffs)
        bits = self.max_coeff_bits
        for d in cx.diffs.values():
            self.counters["sparse.nnz_built"] += len(d.entries)
            for v in d.entries.values():
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > bits:
                    bits = b
        self.max_coeff_bits = bits
        self.resume(t0)


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def instrument(tracer):
    """Wrap the SPANS targets and the counting hooks of the loaded chainlab.

    Returns a function that puts every original back."""
    import chainlab  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "chainlab" or n.startswith("chainlab.")]
    mod = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("chainlab.")}
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for modname, path, name in SPANS:
        owner_name, _, meth = path.partition(".")
        owner = getattr(mod[modname], owner_name)
        if isinstance(owner, type):
            meth = meth or "__init__"
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                patch(owner, meth, classmethod(_span_wrapper(tracer, name, raw.__func__)))
            else:
                patch(owner, meth, _span_wrapper(tracer, name, raw))
        else:
            wrapped = _span_wrapper(tracer, name, owner)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is owner:
                        patch(m, attr, wrapped)

    cyclic, complexes, sparse, cli = mod["cyclic"], mod["complexes"], mod["sparse"], mod["cli"]

    bic_init = cyclic.CyclicBicomplex.__init__

    def bicomplex_init(self, A, ncols, D, size_limit=None):
        tracer.count_bicomplex(A, ncols, D)
        bic_init(self, A, ncols, D, size_limit)
    patch(cyclic.CyclicBicomplex, "__init__", bicomplex_init)

    cx_init = complexes.ChainComplex.__init__

    def complex_init(self, *args, **kwargs):
        cx_init(self, *args, **kwargs)
        tracer.count_complex(self)
    patch(complexes.ChainComplex, "__init__", complex_init)

    rank_d = complexes.ChainComplex.rank_d

    def counted_rank_d(self, n):
        if n not in self._ranks and self.diffs.get(n) is not None:
            tracer.counters["complexes.degrees_ranked"] += 1
        return rank_d(self, n)
    patch(complexes.ChainComplex, "rank_d", counted_rank_d)

    rank = sparse.SparseMatrix.rank

    def counted_rank(self):
        tracer.counters["sparse.rank.calls"] += 1
        tracer.counters["sparse.rank.cols"] += self.ncols
        return rank(self)
    patch(sparse.SparseMatrix, "rank", counted_rank)

    run = cli.run

    def traced_run(args):
        tracer.enter(f"cli.{args.command}")
        try:
            return run(args)
        finally:
            tracer.exit()
    patch(cli, "run", traced_run)

    def restore():
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
    return restore


def merge_totals(parts):
    """One Tracer holding the sums of several passes' totals()."""
    t = Tracer()
    for p in parts:
        for field in ("inclusive", "self_time", "calls", "counters"):
            getattr(t, field).update(p[field])
        for n, parent, sec in p["self_by_parent"]:
            t.self_by_parent[(n, parent)] += sec
        t.max_coeff_bits = max(t.max_coeff_bits, p["max_coeff_bits"])
        t.bicomplex_by_job.update(p["bicomplex_by_job"])
    return t


def layer_metrics(tracer, names):
    """Values of the per-layer metric names from one traced pass."""
    c = tracer.counters
    derived = {
        "cyclic.bicomplex.useful_ratio": (c["cyclic.bicomplex.distinct"] / c["cyclic.bicomplex.builds"]
                                          if c["cyclic.bicomplex.builds"] else 1.0),
        "complexes.rank_read_ratio": (c["complexes.degrees_ranked"] / c["complexes.degrees_built"]
                                      if c["complexes.degrees_built"] else 1.0),
        "sparse.max_coeff_bits": tracer.max_coeff_bits,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in COUNTERS:
            out[name] = c[name]
        elif name.endswith(".self_s"):
            out[name] = tracer.self_time[name[:-len(".self_s")]]
        elif name.endswith(".s"):
            out[name] = tracer.inclusive[name[:-len(".s")]]
        elif name.endswith(".calls"):
            out[name] = tracer.calls[name[:-len(".calls")]]
        else:
            raise KeyError(f"no per-layer source for metric {name}")
    return out


def self_time_ranking(tracer, top=12):
    total = sum(tracer.self_time.values()) or 1.0
    ranked = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:top]
    return [[name, round(sec, 4), round(sec / total, 4)] for name, sec in ranked]


def callers_of(tracer, name):
    """Self seconds of one span name split by the name of its parent span."""
    out = defaultdict(float)
    for (n, parent), sec in tracer.self_by_parent.items():
        if n == name:
            out[parent or "-"] += sec
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
