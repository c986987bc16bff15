"""The package's records (``core.Record`` subclasses) keep the behaviour they
had as dataclasses: equality by class and field tuple, the hash of that tuple
for the frozen ones, the same ``repr`` text, ``AttributeError`` on assignment
to a frozen record, and a ``pickle`` round trip (the process pool of ``flow
--threads 2`` sends ``Parameters`` and rays and gets back ``Trajectory``
objects)."""

import pickle
from fractions import Fraction as F

import pytest

from wallachflow.blowup import BlowupPoint, BlowupReport, QuadraticPart
from wallachflow.core import LieData, Parameters
from wallachflow.equilibria import EquilibriumRay, FamilyTag
from wallachflow.flow import MetricPoint
from wallachflow.integrate import Trajectory
from wallachflow.linearize import Classification, Linearization, PointKind
from wallachflow.surfaces import EdgeCurvePoint, Region, SurfaceSample
from wallachflow.verify import CheckResult

P_REPR = ("Parameters(a1=Fraction(1, 6), a2=Fraction(1, 4), a3=Fraction(1, 3), s1=Fraction(3, 4), "
          "s2=Fraction(13, 72), s3=Fraction(1, 72))")
POINT_REPR = ("BlowupPoint(u=Fraction(-2, 1), beta=Fraction(3, 2), off_diagonal=Fraction(0, 1), "
              "eigenvalues=(Fraction(-1, 1), Fraction(3, 2)), verdict='saddle')")


def _p():
    return Parameters(F(1, 6), F(1, 4), F(1, 3))


def _point():
    return BlowupPoint(F(-2), F(3, 2), F(0), (F(-1), F(3, 2)), "saddle")


# (build, repr) per record type: ``build`` makes a new, equal record on each
# call; the texts are those the dataclasses printed
RECORDS = {
    Parameters: (_p, P_REPR),
    LieData: (lambda: LieData(2, 3, 4, F(1, 2)), "LieData(d1=2, d2=3, d3=4, A=Fraction(1, 2))"),
    MetricPoint: (lambda: MetricPoint(F(4, 5), 0.6, 1), "MetricPoint(x1=Fraction(4, 5), x2=0.6, x3=Fraction(1, 1))"),
    EquilibriumRay: (
        lambda: EquilibriumRay(MetricPoint(F(4, 5), F(3, 5), 1), FamilyTag.GENERAL_QUARTIC, 2),
        "EquilibriumRay(rep=MetricPoint(x1=Fraction(4, 5), x2=Fraction(3, 5), x3=Fraction(1, 1)), "
        "family_tag=<FamilyTag.GENERAL_QUARTIC: 'general_quartic'>, multiplicity=2)",
    ),
    Linearization: (
        lambda: Linearization(rho=F(-1, 2), delta=-0.25, sigma=1.5, lambda1=complex(-1, 0.5), lambda2=0.75),
        "Linearization(rho=Fraction(-1, 2), delta=-0.25, sigma=1.5, lambda1=(-1+0.5j), lambda2=0.75, "
        "degeneracy_measure=None)",
    ),
    Classification: (
        lambda: Classification(PointKind.SADDLE, False),
        "Classification(kind=<PointKind.SADDLE: 'saddle'>, near_degenerate=False)",
    ),
    SurfaceSample: (
        lambda: SurfaceSample(_p(), -0.125, F(1, 8), (0.5, F(-1, 3), 2.0), Region.O3),
        f"SurfaceSample(params={P_REPR}, Q=-0.125, Q1=Fraction(1, 8), gradQ=(0.5, Fraction(-1, 3), 2.0), "
        "region=<Region.O3: 'O3'>)",
    ),
    EdgeCurvePoint: (lambda: EdgeCurvePoint(0.25, _p()), f"EdgeCurvePoint(t=0.25, params={P_REPR})"),
    Trajectory: (
        lambda: Trajectory(samples=[(0.0, 1.0, 1.0, 1.0, 1.0)], status="converged", equilibrium_id=0),
        "Trajectory(samples=[(0.0, 1.0, 1.0, 1.0, 1.0)], status='converged', equilibrium_id=0, exit_face=None, "
        "max_volume_drift=0.0, steps_accepted=0, steps_rejected=0, field_evals=0)",
    ),
    QuadraticPart: (
        lambda: QuadraticPart(F(-1, 2), F(1), F(1), F(1), F(1), F(-1, 2)),
        "QuadraticPart(p_xx=Fraction(-1, 2), p_xy=Fraction(1, 1), p_yy=Fraction(1, 1), q_xx=Fraction(1, 1), "
        "q_xy=Fraction(1, 1), q_yy=Fraction(-1, 2))",
    ),
    BlowupPoint: (_point, POINT_REPR),
    BlowupReport: (
        lambda: BlowupReport((F(-2), F(-1, 2), F(1)), (_point(), _point(), _point()), "saddle"),
        f"BlowupReport(roots=(Fraction(-2, 1), Fraction(-1, 2), Fraction(1, 1)), "
        f"points=({POINT_REPR}, {POINT_REPR}, {POINT_REPR}), verdict='saddle')",
    ),
    CheckResult: (lambda: CheckResult("A1", True, "ok", 0.5), "CheckResult(name='A1', passed=True, detail='ok', seconds=0.5)"),
}
MUTABLE = (Trajectory,)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_before(cls):
    build, text = RECORDS[cls]
    record, twin = build(), build()
    assert type(record) is cls and record is not twin
    assert record == twin and not record != twin
    fields = tuple(vars(record).values())
    # equal field values in an instance of another class, a subclass too,
    # are not an equal record
    other_cls = type("Other", (cls,), {})
    other = other_cls.__new__(other_cls)
    other.__dict__.update(vars(record))
    assert record != fields and record != other and other != record
    assert repr(record) == text
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    name = next(iter(vars(record)))
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed" and record != twin
        return
    assert hash(record) == hash(twin) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == getattr(twin, name)
