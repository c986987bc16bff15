"""Parameter-domain types and exact-or-float scalar arithmetic.

A scalar is either exact (``int`` / ``fractions.Fraction``) or a binary
float.  Exact inputs stay exact through every rational-function formula in
the package; mixing an exact value with a float falls back to float, which
is the native Python semantics of the ``Fraction`` type.
"""

from __future__ import annotations

import linecache
import math
import operator
from fractions import Fraction

Scalar = int | Fraction | float

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


def _exec_source(source: str, filename: str, namespace: dict) -> dict:
    """Run generated ``source`` in ``namespace`` and return it.  The text is
    registered in ``linecache`` under ``filename``, so the ``traceback``
    module and ``inspect.getsource`` show the generated lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _canonical(x: Scalar) -> Scalar:
    """Normalize exact scalars to Fraction so equality and hashing behave."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, float)):
        return x
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


class Record:
    """Base of the package's records: plain classes with value semantics.

    A record lists its fields in ``_fields`` and its ``__init__`` stores them
    in the instance ``__dict__``.  Two records are equal when they are of the
    same class with equal field tuples, the ``repr`` shows every field, and
    the default ``__reduce_ex__`` pickles the ``__dict__``, which unpickling
    fills without ``__setattr__``.  A record is frozen: hashable by its field
    tuple, with assignment and deletion raising ``AttributeError``, unless its
    class is declared with ``frozen=False``, which makes it mutable and
    unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple, read in C (every record has two or more fields)
        cls._values = operator.attrgetter(*cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # both hold exactly the fields: this compares the field tuples
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Parameters(Record):
    """Immutable parameter triple with cached elementary symmetric functions.

    ``s1 = a1+a2+a3``, ``s2 = a1*a2+a1*a3+a2*a3`` (also exposed as ``A``),
    ``s3 = a1*a2*a3``.  Construction rejects ``s2 == 0`` because the flow is
    undefined there; ``reduced_ok`` marks the additional ``s3 != 0``
    requirement of the volume-reduced planar system.
    """

    _fields = ("a1", "a2", "a3", "s1", "s2", "s3")

    def __init__(self, a1: Scalar, a2: Scalar, a3: Scalar):
        a1, a2, a3 = _canonical(a1), _canonical(a2), _canonical(a3)
        s2 = a1 * a2 + a1 * a3 + a2 * a3
        if s2 == 0:
            raise ValueError(
                "a1*a2 + a1*a3 + a2*a3 = 0: the flow is undefined for this triple"
            )
        self.__dict__.update(a1=a1, a2=a2, a3=a3, s1=a1 + a2 + a3, s2=s2, s3=a1 * a2 * a3)

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


class LieData(Record):
    """Module dimensions and the structure constant that set the parameters.

    ``d1, d2, d3`` are the dimensions of the three isotropy summands and
    ``A`` the triple structure constant; every admissible space satisfies
    ``d_i >= 2*A``.
    """

    _fields = ("d1", "d2", "d3", "A")

    def __init__(self, d1: int, d2: int, d3: int, A: Scalar):
        dims = (d1, d2, d3)
        if not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims):
            raise ValueError("dimensions must be positive integers")
        A = _canonical(A)
        if not A > 0:  # NaN fails too
            raise ValueError("structure constant A must be positive")
        if any(d < 2 * A for d in dims):
            raise ValueError("dimensions must satisfy d_i >= 2*A")
        self.__dict__.update(d1=d1, d2=d2, d3=d3, A=A)


def params_from_dims(lie: LieData) -> Parameters:
    """Parameters ``a_i = A/d_i`` from dimension data; exact for exact ``A``."""
    if is_exact(lie.A):
        a = [Fraction(lie.A) / d for d in (lie.d1, lie.d2, lie.d3)]
    else:
        a = [lie.A / d for d in (lie.d1, lie.d2, lie.d3)]
    return Parameters(*a)
