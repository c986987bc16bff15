"""Parameter-domain types and exact-or-float scalar arithmetic.

A scalar is either exact (``int`` / ``fractions.Fraction``) or a binary
float.  Exact inputs stay exact through every rational-function formula in
the package; mixing an exact value with a float falls back to float, which
is the native Python semantics of the ``Fraction`` type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]

# 1/2 for exact scalars; a float compares with 0.5, exactly and without a Fraction
_HALF = Fraction(1, 2)

__all__ = [
    "Scalar",
    "Parameters",
    "LieData",
    "is_exact",
    "parse_scalar",
    "scalar_to_json",
    "exact_sqrt",
    "sqrt_scalar",
    "params_from_dims",
]


def is_exact(x: Scalar) -> bool:
    """True when ``x`` carries no floating-point rounding."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def parse_scalar(text: str) -> Scalar:
    """Parse ``"n/d"`` or an integer literal exactly; decimals become floats."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)


def scalar_to_json(x: Scalar):
    """JSON-friendly form: exact rationals as ``"n/d"`` strings, floats as-is."""
    if is_exact(x):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return x


def exact_sqrt(x: Scalar) -> Scalar | None:
    """Square root of a nonnegative rational if it is again rational, else None."""
    if not is_exact(x) or x < 0:
        return None
    f = Fraction(x)
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_scalar(x: Scalar) -> Scalar:
    """Square root of a nonnegative scalar: exact when ``exact_sqrt`` finds
    one, else a float."""
    if x < 0:
        raise ValueError("negative radicand")
    r = exact_sqrt(x)
    return r if r is not None else math.sqrt(float(x))


def _canonical(x: Scalar) -> Scalar:
    """Normalize exact scalars to Fraction so equality and hashing behave."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, float)):
        return x
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


@dataclass(frozen=True)
class Parameters:
    """Immutable parameter triple with cached elementary symmetric functions.

    ``s1 = a1+a2+a3``, ``s2 = a1*a2+a1*a3+a2*a3`` (also exposed as ``A``),
    ``s3 = a1*a2*a3``.  Construction rejects ``s2 == 0`` because the flow is
    undefined there; ``reduced_ok`` marks the additional ``s3 != 0``
    requirement of the volume-reduced planar system.
    """

    a1: Scalar
    a2: Scalar
    a3: Scalar
    s1: Scalar = field(init=False)
    s2: Scalar = field(init=False)
    s3: Scalar = field(init=False)

    def __post_init__(self):
        a1 = _canonical(self.a1)
        a2 = _canonical(self.a2)
        a3 = _canonical(self.a3)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "s1", a1 + a2 + a3)
        object.__setattr__(self, "s2", a1 * a2 + a1 * a3 + a2 * a3)
        object.__setattr__(self, "s3", a1 * a2 * a3)
        if self.s2 == 0:
            raise ValueError(
                "a1*a2 + a1*a3 + a2*a3 = 0: the flow is undefined for this triple"
            )

    @property
    def A(self) -> Scalar:
        return self.s2

    @property
    def a(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.a1, self.a2, self.a3)

    @property
    def exact(self) -> bool:
        return is_exact(self.a1) and is_exact(self.a2) and is_exact(self.a3)

    @property
    def reduced_ok(self) -> bool:
        return self.s3 != 0

    @property
    def wallach_range(self) -> bool:
        return all(0 < ai <= (0.5 if type(ai) is float else _HALF) for ai in self.a)

    @property
    def interior(self) -> bool:
        return all(0 < ai < (0.5 if type(ai) is float else _HALF) for ai in self.a)

    def to_json(self) -> dict:
        return {
            "a": [scalar_to_json(v) for v in self.a],
            "s": [scalar_to_json(v) for v in (self.s1, self.s2, self.s3)],
        }


@dataclass(frozen=True)
class LieData:
    """Module dimensions and the structure constant that set the parameters.

    ``d1, d2, d3`` are the dimensions of the three isotropy summands and
    ``A`` the triple structure constant; every admissible space satisfies
    ``d_i >= 2*A``.
    """

    d1: int
    d2: int
    d3: int
    A: Scalar

    def __post_init__(self):
        for d in (self.d1, self.d2, self.d3):
            if not isinstance(d, int) or d <= 0:
                raise ValueError("dimensions must be positive integers")
        A = _canonical(self.A)
        object.__setattr__(self, "A", A)
        if A <= 0:
            raise ValueError("structure constant A must be positive")
        if any(d < 2 * A for d in (self.d1, self.d2, self.d3)):
            raise ValueError("dimensions must satisfy d_i >= 2*A")


def params_from_dims(lie: LieData) -> Parameters:
    """Parameters ``a_i = A/d_i`` from dimension data; exact for exact ``A``."""
    if is_exact(lie.A):
        a = [Fraction(lie.A) / d for d in (lie.d1, lie.d2, lie.d3)]
    else:
        a = [lie.A / d for d in (lie.d1, lie.d2, lie.d3)]
    return Parameters(*a)
