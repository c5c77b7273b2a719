import random
from fractions import Fraction

import pytest

import oracle
from chainlab import tangent
from chainlab.algebras import matrix_algebra, matrix_units_trace
from chainlab.complexes import HomologySpace
from chainlab.cyclic import hc_homology
from chainlab.errors import ChainlabError, NotNilpotent, SizeLimit
from chainlab.cli import main as cli_main
from chainlab.excision import ExtensionData, relative_homology
from chainlab.presets import (
    _EXTENSION_BUILDERS,
    algebra_preset,
    dual_numbers,
    extension_preset,
    fat_point,
    rationals,
    square_zero,
    truncated_poly,
)
from chainlab.tangent import (
    ArtinianBase,
    LogTraceProbe,
    UnipotentElement,
    base_extension,
    chern1,
    k1_rel_probe,
    nilpotent_exp,
    nilpotent_log,
    tangent_table,
)

ONE = Fraction(1)


def ext_of(name):
    return ExtensionData(extension_preset(name))


def test_log_square_zero_is_identity_on_nilpart():
    E = dual_numbers()
    assert nilpotent_log(E, {1: Fraction(3)}) == {1: Fraction(3)}


def test_log_truncated_series():
    T4 = truncated_poly(4)
    lg = nilpotent_log(T4, {1: ONE})
    assert lg == {1: ONE, 2: Fraction(-1, 2), 3: Fraction(1, 3)}


def test_exp_log_roundtrip_seeded():
    rng = random.Random(11)
    M3E = matrix_algebra(dual_numbers(), 3)
    T4 = truncated_poly(4)
    for _ in range(50):
        m = {}
        for pos in range(9):
            c = rng.randint(-3, 3)
            if c:
                m[pos * 2 + 1] = Fraction(c)
        assert nilpotent_exp(M3E, nilpotent_log(M3E, m)) == m
        t = {}
        for k in (1, 2, 3):
            c = rng.randint(-4, 4)
            if c:
                t[k] = Fraction(c, rng.randint(1, 3))
        assert nilpotent_exp(T4, nilpotent_log(T4, t)) == t


def test_log_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_log(rationals(), {0: ONE})


def test_unipotent_group_operations():
    T4 = truncated_poly(4)
    u = UnipotentElement(T4, {1: ONE})
    v = UnipotentElement(T4, {2: Fraction(2)})
    w = u.mul(u.inverse())
    assert not w.nilpart  # u * u^{-1} = 1 exactly
    uv = u.mul(v)
    assert uv.nilpart == {1: ONE, 2: Fraction(2), 3: Fraction(2)}


def test_unipotent_in_nonunital_ambient_is_housed_in_unitalization():
    V = square_zero(1)
    u = UnipotentElement(V, {0: ONE})
    assert u.ambient.is_unital
    assert u.log() == {1: ONE}


def test_chern1_square_zero_classes():
    ext = ext_of("dual_numbers")
    probe = LogTraceProbe(ext, 1)
    a = probe.unipotent({0: Fraction(2)})   # 1 + 2e in adapted coordinates
    b = probe.unipotent({0: Fraction(3)})
    ca, cb, cab = probe.chern_class(a), probe.chern_class(b), probe.chern_class(a.mul(b))
    assert cab == {k: ca.get(k, 0) + cb.get(k, 0) for k in set(ca) | set(cb)}


def test_chern1_matrix_units():
    ext = ext_of("matrix_dual:2")
    probe = LogTraceProbe(ext, 1)
    # ideal coordinates: trace of off-diagonal unit vanishes, diagonal spans
    classes = [probe.chern_class(probe.unipotent(v)) for v in probe.ideal_basis]
    nonzero = [c for c in classes if c]
    assert any(not c for c in classes)
    assert nonzero and probe.rel_hc0_dim == 1


@pytest.mark.parametrize("name,r,relhc0", [
    ("dual_numbers", 1, 1),
    ("matrix_dual:2", 1, 1),
    ("truncated_poly:3", 1, 2),
])
def test_chern1_properties(name, r, relhc0):
    rep = chern1(LogTraceProbe(ext_of(name), r), seed=0, samples=40)
    assert rep.passed
    assert rep.rel_hc0_dim == relhc0


@pytest.mark.parametrize("name", ["collapse:square_zero:1", "collapse:square_zero:2"])
@pytest.mark.parametrize("r", [1, 2])
def test_log_trace_of_a_nonunital_ambient_is_read_in_its_coordinates(name, r):
    # M_r(A) is square-zero and has no unit: its unipotents live in M_r(A)+,
    # and trace log(1 + v) = trace v in A's own coordinates
    ext = ext_of(name)
    probe = LogTraceProbe(ext, r)
    for v in probe.ideal_basis:
        assert probe.trace_log(probe.unipotent(v)) == matrix_units_trace(ext.A_ad, r, v)
    rep = chern1(probe, seed=0, samples=20)
    assert rep.passed and rep.image_rank == rep.rel_hc0_dim == ext.ideal_dim
    assert k1_rel_probe(probe, seed=0, samples=10).equal


def test_chern1_rejects_non_nilpotent_kernel():
    with pytest.raises(NotNilpotent):
        chern1(LogTraceProbe(ext_of("split_product"), 1))


@pytest.mark.parametrize("name,r,expect", [
    ("dual_numbers", 1, 1),
    ("matrix_dual:2", 1, 1),
    ("truncated_poly:3", 1, 2),
])
def test_k1_probe_matches_relative_hc0(name, r, expect):
    rep = k1_rel_probe(LogTraceProbe(ext_of(name), r), seed=0, samples=25)
    assert rep.contained and rep.equal
    assert rep.span_dim == expect == rep.rel_hc0_dim


def test_k1_probe_stabilisation_is_consistent():
    a = k1_rel_probe(LogTraceProbe(ext_of("dual_numbers"), 1), seed=0, samples=20)
    b = k1_rel_probe(LogTraceProbe(ext_of("dual_numbers"), 2), seed=0, samples=20)
    assert a.span_dim == b.span_dim == 1


def test_artinian_base_construction():
    base = ArtinianBase.from_algebra(truncated_poly(4))
    assert base.aug_ideal.dim == 3 and base.nilpotency_order == 4


def test_base_extension_shape():
    ext = base_extension(matrix_algebra(rationals(), 2), ArtinianBase.from_algebra(dual_numbers()))
    assert ext.A.dim == 8 and ext.B.dim == 4 and ext.ideal_dim == 4


def test_tangent_table_rows():
    C = rationals()
    bases = [ArtinianBase.from_algebra(dual_numbers()),
             ArtinianBase.from_algebra(rationals()),
             ArtinianBase.from_algebra(fat_point())]
    rows = tangent_table(C, bases, 4)
    by_name = {r.base: r for r in rows}
    assert by_name["Q[e]"].rel_hc[0] == 1
    assert all(v == 0 for v in by_name["Q"].rel_hc.values())
    assert by_name["Q[e]"].alpha_quasi_iso
    # the ideal-coefficient column matches the relative one when alpha is a quasi-iso
    assert by_name["Q[e]"].rel_hc == by_name["Q[e]"].ideal_hc


def test_tangent_table_matrix_coefficients():
    # C = M2(Q), B = Q[e]: the ideal e*M2(Q) has zero multiplication, so its
    # own HC_0 is all of I (dim 4) while the relative HC_0 and the quotient
    # I/(I cap [A,A]) are 1-dimensional; the comparison map is not a
    # quasi-isomorphism and the table reports all three numbers
    C = matrix_algebra(rationals(), 2)
    rows = tangent_table(C, [ArtinianBase.from_algebra(dual_numbers())], 3)
    assert rows[0].rel_hc[0] == 1
    assert rows[0].ideal_hc[0] == 4
    assert rows[0].ideal_mod_ambient_commutators == 1
    assert not rows[0].alpha_quasi_iso


def test_tangent_table_matches_the_separate_computations():
    # rows are read off one comparison map; the reference path builds the
    # relative fiber and the ideal's bicomplex on their own
    D = 3
    for C in (rationals(), dual_numbers()):
        bases = [ArtinianBase.from_algebra(B) for B in (dual_numbers(), fat_point(), rationals())]
        for base, row in zip(bases, tangent_table(C, bases, D)):
            ext = base_extension(C, base)
            assert row.rel_hc == relative_homology(ext, D, "hc").betti, (C.name, base.name)
            assert row.ideal_hc == hc_homology(ext.ideal_algebra(), D).betti, (C.name, base.name)


def _tangent_rows(C, bases, D, size_limit):
    """Each row's relative HC, ideal HC and comparison verdict, or the message
    of the size limit the table hit."""
    try:
        return [(r.rel_hc, r.ideal_hc, r.alpha_quasi_iso, r.alpha_failing_degree, r.checked)
                for r in tangent_table(C, bases, D, size_limit)]
    except SizeLimit as exc:
        return str(exc)


def _kernel_cut_rows(C, bases, D, size_limit):
    try:
        refs = [oracle.kernel_cut_tangent(base_extension(C, base), D, size_limit)
                for base in bases]
    except SizeLimit as exc:
        return str(exc)
    return [(rel, ideal, alpha.ok, alpha.failing_degree, alpha.checked)
            for rel, ideal, alpha in refs]


@pytest.mark.parametrize("spec", ["dual_numbers", "truncated_poly:3", "matrix:2"])
def test_tangent_rows_match_the_bicomplex_cut(spec):
    # C (x) B is unital with 1 not in I, so the rows are read off the
    # normalized (b, B) total; the reference cuts A's HC bicomplex
    C = algebra_preset(spec)
    bases = [ArtinianBase.from_algebra(B) for B in (dual_numbers(), fat_point(), rationals())]
    for limit in (5000, 60000):
        for D in range(2, 7):
            assert _tangent_rows(C, bases, D, limit) == _kernel_cut_rows(C, bases, D, limit), D


def test_log_trace_vectors_reach_the_classifier_canonical(monkeypatch):
    seen = []
    classify = HomologySpace.classify

    def recording(self, v):
        seen.append(v)
        return classify(self, v)

    probe = LogTraceProbe(ext_of("truncated_poly:3"), 1)
    monkeypatch.setattr(HomologySpace, "classify", recording)
    assert chern1(probe, seed=0, samples=20).passed
    assert seen
    assert not [c for v in seen for c in v.values()
                if isinstance(c, Fraction) and c.denominator == 1]


def test_chern_class_names_a_log_trace_that_leaves_the_ideal(monkeypatch):
    # the probe's own check runs before HomologySpace.classify's range check
    probe = LogTraceProbe(ext_of("truncated_poly:3"), 1)
    monkeypatch.setattr(probe, "trace_log", lambda u: {probe.ext.ideal_dim: 1})
    with pytest.raises(ValueError, match="log-trace is not a chain of K: it leaves the ideal"):
        probe.chern_class(None)


def _probe_payloads(make, ext, r):
    """chern1 and k1 payloads of the probe make(ext, r), or the error it raised."""
    try:
        probe = make(ext, r)
    except ChainlabError as exc:
        return type(exc), str(exc)
    return (chern1(probe, seed=1, samples=12).to_jsonable(),
            k1_rel_probe(probe, seed=1, samples=6).to_jsonable())


@pytest.mark.parametrize("spec", sorted(_EXTENSION_BUILDERS))
def test_probe_reads_rel_hc0_off_the_build_to_degree_two(spec):
    # the oracle probe builds the relative fiber to total degree 3
    ext = ext_of(spec)
    for r in (1, 2):
        assert _probe_payloads(LogTraceProbe, ext, r) == \
            _probe_payloads(oracle.LogTraceProbe, ext, r), r


def test_probe_keeps_the_guard_of_degree_three():
    # matrix_dual:2: A.dim^3 = 512 would pass a limit the row A.dim^4 = 4096 exceeds
    ext = ext_of("matrix_dual:2")
    for limit in (600, 4000):
        with pytest.raises(SizeLimit, match=f"^bicomplex row has dimension 4096 > size limit {limit}$"):
            LogTraceProbe(ext, 1, size_limit=limit)
    assert LogTraceProbe(ext, 1, size_limit=5000).rel_hc0_dim == 1


class _Built(Exception):
    pass


def _unbuilt(*args):
    raise _Built("M_r(A) was built")


def test_chern1_refuses_m_r_before_it_is_built(monkeypatch, capsys):
    monkeypatch.setattr(tangent, "matrix_algebra", _unbuilt)
    assert cli_main(["chern1", "--ext", "dual_numbers", "-r", "30", "--samples", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: M_30(A) basis-pair table has dimension 3240000 > size limit 2000000\n"


def test_the_m_r_guard_reads_the_basis_pairs_after_the_bicomplex_row(monkeypatch):
    monkeypatch.setattr(tangent, "matrix_algebra", _unbuilt)
    # (r^2 dim A)^2 on dual_numbers: 1352^2 at r = 26 passes the default limit, 1458^2 at r = 27 not
    with pytest.raises(_Built):
        LogTraceProbe(ext_of("dual_numbers"), 26)
    with pytest.raises(SizeLimit, match="^M_27\\(A\\) basis-pair table has dimension 2125764 > "
                                        "size limit 2000000$"):
        LogTraceProbe(ext_of("dual_numbers"), 27)
    # the row A.dim^4 = 4096 of matrix_dual:2 is refused first
    with pytest.raises(SizeLimit, match="^bicomplex row has dimension 4096 > size limit 600$"):
        LogTraceProbe(ext_of("matrix_dual:2"), 5, size_limit=600)


def test_a_log_trace_outside_the_ideal_is_refused():
    # identity:dual_numbers has I = 0, so trace log(1 + e) = e is no relative chain
    ext = ext_of("identity:dual_numbers")
    probe = LogTraceProbe(ext, 1)
    u = probe.unipotent({ext.A_ad.labels.index("c:e"): ONE})
    assert probe.trace_log(u)
    with pytest.raises(ValueError):
        probe.chern_class(u)
