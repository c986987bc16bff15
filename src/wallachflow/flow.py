"""The scale-invariant 3D flow field and its volume-reduced planar form.

The 3D field ``(f, g, h)`` is a rational function of the metric
coefficients, so it evaluates exactly on rational inputs.  The volume
``V = x1^(1/a1) * x2^(1/a2) * x3^(1/a3)`` is a first integral; the planar
field is the 3D field restricted to the ``V = 1`` surface via
``x3 = phi(x1, x2)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Parameters, Record, Scalar, _canonical, _exec_source, is_exact

__all__ = [
    "MetricPoint",
    "Velocity3",
    "normalization_weight",
    "field_components",
    "vector_field_3d",
    "log_volume",
    "phi",
    "vector_field_2d",
    "power",
]


class MetricPoint(Record):
    """A positive metric coefficient triple."""

    _fields = ("x1", "x2", "x3")

    def __init__(self, x1: Scalar, x2: Scalar, x3: Scalar):
        x1, x2, x3 = _canonical(x1), _canonical(x2), _canonical(x3)
        if not (x1 > 0 and x2 > 0 and x3 > 0):
            raise ValueError("metric coefficients must be strictly positive")
        self.__dict__.update(x1=x1, x2=x2, x3=x3)

    @property
    def x(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.x1, self.x2, self.x3)

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for v in self.x)

    def scaled(self, factor: Scalar) -> "MetricPoint":
        return MetricPoint(self.x1 * factor, self.x2 * factor, self.x3 * factor)


class Velocity3(Record):
    """Time-derivatives of the three metric coefficients."""

    _fields = ("v1", "v2", "v3")

    def __init__(self, v1: Scalar, v2: Scalar, v3: Scalar):
        self.__dict__.update(v1=v1, v2=v2, v3=v3)

    @property
    def v(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.v1, self.v2, self.v3)


def power(base: Scalar, exponent: Scalar) -> Scalar:
    """``base ** exponent``, exact when the base is rational and the exponent
    an integer; float (computed in log space) otherwise."""
    if base <= 0:
        raise ValueError("power expects a positive base")
    if is_exact(exponent):
        e = Fraction(exponent)
        if e.denominator == 1 and is_exact(base):
            return Fraction(base) ** int(e)
    return math.exp(float(exponent) * math.log(float(base)))


def _require_reduced(p: Parameters):
    if not p.reduced_ok:
        raise ValueError("a1*a2*a3 = 0: operation requires all a_i nonzero")


def normalization_weight(a1, a2, a3):
    """``1 / (1/a1 + 1/a2 + 1/a3)``, the factor of the normalization term
    that depends on the parameters alone."""
    return 1 / (1 / a1 + 1 / a2 + 1 / a3)


def field_components(a1, a2, a3, x1, x2, x3):
    """The three field components, over any ring with division.

    It reads ``_field``, which the scalar, float and Taylor-series
    evaluations all route through; ``_field`` and the float charts of
    ``integrate`` are compiled from ``_FIELD_TEXT``, the single source of the
    flow formulas.
    """
    return _field(a1, a2, a3, x1, x2, x3)[:3]


# The flow's formulas as statements over the parameters ``a1, a2, a3``, the
# point ``x1, x2, x3``, the normalization weight ``weight`` and the unit
# ``one``: they bind the normalization term ``B`` and the components ``v1, v2,
# v3``, computing each ratio ``x_i / (x_j x_k)`` once.  ``_field`` is compiled
# from this text, and the float charts of ``integrate`` splice it into their
# generated runs with the float unit ``one = 1.0``, which gives the same
# bits as the int 1 without an int-float conversion per operation.
_FIELD_TEXT = """\
r1, r2, r3 = x1 / (x2 * x3), x2 / (x1 * x3), x3 / (x1 * x2)
B = (one / (a1 * x1) + one / (a2 * x2) + one / (a3 * x3) - (r1 + r2 + r3)) * weight
v1 = -one - a1 * x1 * (r1 - r2 - r3) + x1 * B
v2 = -one - a2 * x2 * (r2 - r3 - r1) + x2 * B
v3 = -one - a3 * x3 * (r3 - r1 - r2) + x3 * B
"""

_FIELD_DOC = """``(f, g, h, B)``: the three field components and the normalization
    term ``B`` they share, in one frame, over any ring with division.
    Compiled from ``_FIELD_TEXT`` with the unit ``one = 1`` and the weight
    ``normalization_weight(a1, a2, a3)``.
    """

_field = _exec_source(
    "def _field(a1, a2, a3, x1, x2, x3):\n"
    f'    """{_FIELD_DOC}"""\n'
    "    one, weight = 1, normalization_weight(a1, a2, a3)\n"
    + "".join(f"    {line}\n" for line in _FIELD_TEXT.splitlines())
    + "    return v1, v2, v3, B\n",
    "<flow._field>",
    globals(),
)["_field"]


def vector_field_3d(p: Parameters, x: MetricPoint) -> Velocity3:
    """Right-hand side of the 3D flow; scale-invariant (degree 0) in ``x``."""
    _require_reduced(p)
    return Velocity3(*field_components(*p.a, *x.x))


def log_volume(p: Parameters, x: MetricPoint) -> float:
    """``log V`` evaluated in float; robust against overflow of ``V`` itself.
    A parameter that rounds to ``0.0`` in floats, where ``1 / a_i`` leaves
    the float range, raises ``OverflowError``."""
    _require_reduced(p)
    a = [float(ai) for ai in p.a]
    if 0.0 in a:
        raise OverflowError("a parameter rounds to 0.0 in floats")
    # left to right from 0: ``sum`` of floats is compensated from Python 3.12
    total = 0
    for xi, ai in zip(x.x, a):
        total = total + math.log(float(xi)) / ai
    return total


def phi(p: Parameters, x1: Scalar, x2: Scalar) -> Scalar:
    """The unique ``x3 > 0`` placing ``(x1, x2, x3)`` on the ``V = 1`` surface."""
    _require_reduced(p)
    if not (x1 > 0 and x2 > 0):
        raise ValueError("phi expects positive coordinates")
    e1, e2 = _phi_exponents(p)
    return power(x1, e1) * power(x2, e2)


def _phi_exponents(p: Parameters) -> tuple[Scalar, Scalar]:
    """``phi = x1^e1 * x2^e2`` with ``(e1, e2) = (-a3/a1, -a3/a2)``, exact
    when both parameters of an exponent are."""
    a1, a2, a3 = p.a
    e1 = -Fraction(a3) / Fraction(a1) if is_exact(a1) and is_exact(a3) else -a3 / a1
    e2 = -Fraction(a3) / Fraction(a2) if is_exact(a2) and is_exact(a3) else -a3 / a2
    return e1, e2


def vector_field_2d(p: Parameters, x1: Scalar, x2: Scalar) -> tuple[Scalar, Scalar]:
    """First two components of the 3D field on the ``V = 1`` surface."""
    v = vector_field_3d(p, MetricPoint(x1, x2, phi(p, x1, x2)))
    return (v.v1, v.v2)
