"""Contract of chainlab's result and value records: built positionally with
the same defaults, compared field by field, printed as Name(field=value, ...)."""

import pytest

from chainlab.complexes import ChainComplex, HomologyReport, Interval, QuasiIsoVerdict
from chainlab.cyclic import ConnesReport
from chainlab.errors import RangeNotCertified
from chainlab.excision import (FiltrationStage, GradedPieceReport, HUnitalityVerdict,
                               WodzickiReport)
from chainlab.lie import CEComplex, CentralExtensionReport, LqtReport, TraceReport
from chainlab.presets import algebra_preset
from chainlab.reports import VERSION, Report
from chainlab.sparse import SparseMatrix
from chainlab.tangent import (ArtinianBase, Chern1Report, K1ProbeReport, TangentRow,
                              UnipotentElement)

CERT = Interval(0, 2)
Q = QuasiIsoVerdict(True, CERT)

RECORDS = [
    (Interval, (0, 3)),
    (HomologyReport, ({0: 1}, CERT, {0: [{0: 1}]})),
    (QuasiIsoVerdict, (False, CERT, 1, 2)),
    (ConnesReport, (True, CERT, {0: {"at_hh": True}}, 1)),
    (HUnitalityVerdict, (True, {0: 0}, CERT, None)),
    (FiltrationStage, (1, "F-bar", "complex", {0: [0]})),
    (GradedPieceReport, (True, {"bar": (True, None)}, {0: 1}, {"bar": "stage"})),
    (WodzickiReport, (Q, Q, Q, Q, HUnitalityVerdict(True, {}, CERT, None),
                      HomologyReport({}, CERT), HomologyReport({}, CERT))),
    (CEComplex, ("complex", "lie", 3, {1: [(0,)]}, True)),
    (TraceReport, (True, None, -1, CERT)),
    (LqtReport, ({0: 1}, {0: 1}, {0: True}, True, True, 2, CERT)),
    (CentralExtensionReport, (0, 1, 1, 1, True)),
    (Report, ({"cmd": "hh"}, [{"task": "hh"}], VERSION)),
    (Chern1Report, (1, 1, True, True, True, True, 10, 0)),
    (K1ProbeReport, (1, 1, True, True, 10, 0)),
    (ArtinianBase, ("B", "algebra", "ideal", 2)),
    (TangentRow, ("B", 2, 2, {0: 1}, {0: 1}, 1, True, None, CERT)),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_equality_is_field_by_field(cls, args):
    assert cls(*args) == cls(*args)
    for i in range(len(args)):
        assert cls(*args[:i], object(), *args[i + 1:]) != cls(*args)


def test_unipotent_elements_compare_by_ambient_and_nilpart():
    A = algebra_preset("dual_numbers")
    u = UnipotentElement(A, {1: 1})
    assert u == UnipotentElement(A, {1: 1})
    assert u != UnipotentElement(A, {1: 2})
    assert u != UnipotentElement(algebra_preset("truncated_poly:3"), {1: 1})


def test_positional_construction_keeps_the_defaults():
    assert HomologyReport({0: 1}, CERT).representatives is None
    assert QuasiIsoVerdict(True, CERT) == QuasiIsoVerdict(True, CERT, None, None)
    assert ConnesReport(True, CERT, {}).failing_degree is None
    assert CEComplex("complex", "lie", 3, {}).weight_zero is False
    report = Report({"cmd": "hh"})
    assert (report.results, report.version) == ([], VERSION)


def test_reports_do_not_share_results():
    a, b = Report({}), Report({})
    a.add("hh", {})
    assert b.results == [] and len(a.results) == 1


def test_repr_names_every_field_in_order():
    assert repr(Interval(0, 3)) == "Interval(lo=0, hi=3)"
    assert (repr(QuasiIsoVerdict(False, CERT, 1, 2))
            == "QuasiIsoVerdict(ok=False, checked=Interval(lo=0, hi=2), failing_degree=1, "
               "defect=2)")
    assert repr(Report({})) == "Report(config={}, results=[], version='0.1.0')"
    assert (repr(CEComplex("cx", "g", 3, {1: [(0,)]}))
            == "CEComplex(complex='cx', lie='g', bound=3, weight_zero=False, "
               "coinvariants=False)")


def test_interval_is_hashable_iterable_and_truthy():
    assert hash(Interval(0, 3)) == hash(Interval(0, 3))
    assert {Interval(0, 3): "a"}[Interval(0, 3)] == "a"
    assert len({Interval(0, 3), Interval(0, 3), Interval(1, 3)}) == 2
    assert list(Interval(1, 3)) == [1, 2, 3] and list(Interval(3, 1)) == []
    assert Interval(3, 1) and Interval(3, 1).empty


def test_range_not_certified_names_the_intervals():
    m = SparseMatrix(1, 1, {(0, 0): 1})
    C = ChainComplex({0: 1, 1: 1}, {1: m}, Interval(0, 1), bounded_above=True)
    with pytest.raises(RangeNotCertified) as err:
        C.betti(5)
    assert str(err.value) == "degree 5 outside certified Interval(lo=0, hi=1)"
    with pytest.raises(RangeNotCertified) as err:
        C.homology(Interval(0, 3))
    assert (str(err.value)
            == "requested Interval(lo=0, hi=3) outside certified Interval(lo=0, hi=1)")
