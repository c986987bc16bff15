"""Exact polynomial plumbing: monomial-dict polynomials, real roots of
univariate polynomials, and truncated bivariate Taylor series.

``real_roots`` is the one real-root finder, for exact and float input alike;
``rational_roots`` keeps the rational roots of exact input exact.  Both
isolate roots by Sturm sequences (Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*, ch. 2) and refine them by exact signs on a dyadic grid.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .core import is_exact

Monomials = dict  # exponent tuple -> Fraction coefficient


# ---------------------------------------------------------------------------
# multivariate monomial-dict polynomials


def p_const(c, nvars: int) -> Monomials:
    return {(0,) * nvars: Fraction(c)} if c else {}

def p_var(i: int, nvars: int) -> Monomials:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}

def p_add(*polys: Monomials) -> Monomials:
    out: Monomials = {}
    for p in polys:
        for mono, c in p.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out

def p_scale(p: Monomials, c) -> Monomials:
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}

def p_mul(p: Monomials, q: Monomials) -> Monomials:
    out: Monomials = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out

def p_pow(p: Monomials, n: int) -> Monomials:
    if n == 0:
        nvars = len(next(iter(p))) if p else 1
        return p_const(1, nvars)
    out = p
    for _ in range(n - 1):
        out = p_mul(out, p)
    return out

def p_diff(p: Monomials, var: int) -> Monomials:
    out: Monomials = {}
    for mono, c in p.items():
        e = mono[var]
        if e:
            m = list(mono)
            m[var] = e - 1
            out[tuple(m)] = c * e
    return out

def p_eval(p: Monomials, values) -> object:
    total = 0
    for mono, c in p.items():
        term = c
        for v, e in zip(values, mono):
            if e:
                term = term * v**e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# univariate real root finding with exact rational-root extraction

def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return out


def _primitive(coeffs) -> list[int]:
    """Coprime integer coefficients: ``coeffs`` times a positive rational."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _divmod(f: list[int], g: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder (leading zeros stripped) of ``f / g``."""
    rem = [Fraction(c) for c in f]
    quot = []
    while len(rem) >= len(g):
        q = rem[0] / g[0]
        quot.append(q)
        for i in range(1, len(g)):
            rem[i] -= q * g[i]
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def _derivative(f: list[int]) -> list[int]:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _gcd(f: list, g: list) -> list:
    """A greatest common divisor of ``f`` and ``g`` (Euclid, primitive
    remainders); ``g`` may be empty, the zero polynomial."""
    while g:
        f, g = g, _primitive(_divmod(f, g)[1])
    return f


def _value_at(f: list[int], n: int, d: int) -> int:
    """The integer ``f(n/d) * d**deg``."""
    acc, dpow = f[0], 1
    for c in f[1:]:
        dpow *= d
        acc = acc * n + c * dpow
    return acc


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence of the square-free ``f``, each member after ``f`` and
    ``f'`` scaled by a positive constant to coprime integers."""
    chain = [f, _derivative(f)]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _divmod(chain[-2], chain[-1])[1]]))
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along ``chain`` at ``x``, zeros skipped."""
    n, d = x.numerator, x.denominator
    signs = [v > 0 for f in chain if (v := _value_at(f, n, d))]
    return sum(map(operator.ne, signs, signs[1:]))


def _isolate(f: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Intervals ``(lo, hi]``, ascending, each holding one real root of the
    square-free ``f``: Sturm counts bisected inside the Cauchy bound."""
    chain = _sturm_chain(f)
    bound = 2 + max(abs(c) for c in f[1:]) // abs(f[0])
    b = Fraction(1 << bound.bit_length())
    out = []
    stack = [(-b, b, _variations(chain, -b), _variations(chain, b))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _variations(chain, mid)
            stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return out


def _refine(f: list[int], lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """The only root of the square-free ``f`` in ``(lo, hi]``, or the grid
    point ``m / D`` just above it, where ``D`` is a power of 2 of at least
    ``2**bits`` (``lo`` and ``hi`` are dyadic).

    Exact signs keep the bracket on the grid, steering by the sign at ``hi``
    since ``lo`` may be the root below.  Once the bracket has one sign and a
    width of at most half its size, the next point is Newton's step from the
    last one, exact in grid units, or one unit towards the middle when that
    step is shorter than one unit.  A step that leaves the bracket, and every
    step after the 40th, is a bisection.
    """
    D = max(lo.denominator, hi.denominator, 1 << bits)
    a, b = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
    df, v_b = _derivative(f), _value_at(f, b, D)
    m, steps = (a + b) // 2, 0
    while v_b and b - a > 1:
        v, dv = _value_at(f, m, D), _value_at(df, m, D)
        if v == 0:
            return Fraction(m, D)
        if (v > 0) == (v_b > 0):
            b = m
        else:
            a = m
        last, m, steps = m, (a + b) // 2, steps + 1
        if dv and steps < 40 and 2 * (b - a) <= max(-a, b):
            newton = last - v // dv  # f(x)/f'(x) in grid units is v/dv
            if newton == last:
                newton += 1 if last == a else -1
            if a < newton < b:
                m = newton
    return Fraction(b, D)


def rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """All rational roots (with multiplicity) of a rational-coefficient
    polynomial, ascending after a zero root, plus the deflated remainder
    (highest degree first).

    Each real root of the square-free part is isolated by Sturm's theorem and
    refined to within ``1 / (4 lead**2)``, where ``lead`` leads the primitive
    integer polynomial.  A rational root has denominator dividing ``lead``,
    and no other fraction with denominator at most ``lead`` lies within
    ``1 / lead**2`` of it, so ``limit_denominator(lead)`` of the refined
    point is the only candidate; an exact evaluation confirms it.  No divisor
    is enumerated, so the cost grows with the bit size of the coefficients,
    not with their value.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    found: list[tuple[Fraction, int]] = []
    # zero roots first
    zero_mult = 0
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        zero_mult += 1
    if zero_mult:
        found.append((Fraction(0), zero_mult))
    if len(coeffs) <= 1:
        return found, coeffs

    ints = _primitive(coeffs)
    lead = abs(ints[0])
    square_free = _primitive(_divmod(ints, _gcd(ints, _derivative(ints)))[0])
    for lo, hi in _isolate(square_free):
        cand = _refine(square_free, lo, hi, (4 * lead * lead).bit_length()).limit_denominator(lead)
        mult = 0
        while len(coeffs) > 1 and _horner(coeffs, cand) == 0:
            coeffs = _deflate(coeffs, cand)
            mult += 1
        if mult:
            found.append((cand, mult))
    return found, coeffs


def _square_free(f: list[int]) -> list[tuple[list[int], int]]:
    """Musser's square-free factorization: pairs ``(factor, k)`` of coprime,
    square-free, non-constant factors, ``f`` being a constant times the
    product of the ``factor**k``."""
    out, k = [], 1
    g = _gcd(f, _derivative(f))
    b = _divmod(f, g)[0]  # the product of every factor
    while len(b) > 1:
        h = _gcd(b, g)  # the product of the factors of multiplicity above k
        q = _divmod(b, h)[0]
        if len(q) > 1:
            out.append((_primitive(q), k))
        b, g, k = h, _divmod(g, h)[0], k + 1
    return out


def real_roots(coeffs) -> list[tuple[object, int]]:
    """Real roots of a univariate polynomial (highest degree first), ascending,
    each with its multiplicity.

    Every float is a dyadic rational, so the coefficients are converted to
    ``Fraction`` exactly and the roots are those of that exact polynomial.
    When every coefficient is exact, the rational roots are split off by
    ``rational_roots`` and returned as ``Fraction``.  The other roots are
    isolated by Sturm's theorem in each factor of the square-free
    factorization, whose index is their exact multiplicity, and refined by
    ``_refine`` to within ``2**-55`` relative before rounding to a float; a
    root beyond the float range is an infinity.
    """
    rest = [Fraction(c) for c in coeffs]
    roots: list[tuple[object, int]] = []
    if all(map(is_exact, coeffs)):
        roots, rest = rational_roots(rest)
    while rest and rest[0] == 0:
        rest = rest[1:]
    if len(rest) > 1:
        for factor, mult in _square_free(_primitive(rest)):
            # grid step 2**-55 of |root| >= |lowest nonzero coefficient| / (2 max|c|)
            tail = next(c for c in reversed(factor) if c)
            bits = 57 + max(map(abs, factor)).bit_length() - abs(tail).bit_length()
            for lo, hi in _isolate(factor):
                root = _refine(factor, lo, hi, bits)
                try:
                    roots.append((float(root), mult))
                except OverflowError:
                    roots.append((math.inf if root > 0 else -math.inf, mult))
    return sorted(roots, key=lambda rm: rm[0])


def quartic_discriminant_coeffs(a, b, c, d, e):
    """Discriminant of ``a*x^4 + b*x^3 + c*x^2 + d*x + e`` (exact for exact input)."""
    return (
        256 * a**3 * e**3
        - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e
        - 27 * a**2 * d**4
        + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e
        - 80 * a * b * c**2 * d * e
        + 18 * a * b * c * d**3
        + 16 * a * c**4 * e
        - 4 * a * c**3 * d**2
        - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e
        - 4 * b**3 * d**3
        - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


# ---------------------------------------------------------------------------
# truncated bivariate Taylor series with exact coefficients


class Series2:
    """Bivariate power series truncated at a fixed total degree.

    Supports the ring operations plus division by series with nonzero
    constant term, which is all the flow field needs.
    """

    __slots__ = ("c", "order")

    def __init__(self, c: dict | None = None, order: int = 4):
        self.order = order
        self.c = {}
        if c:
            for (i, j), v in c.items():
                if i + j <= order and v:
                    self.c[(i, j)] = Fraction(v)

    @classmethod
    def const(cls, v, order: int = 4) -> "Series2":
        return cls({(0, 0): Fraction(v)}, order)

    @classmethod
    def var(cls, which: int, order: int = 4) -> "Series2":
        key = (1, 0) if which == 0 else (0, 1)
        return cls({key: Fraction(1)}, order)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.c.get((i, j), Fraction(0))

    def __add__(self, other):
        other = _coerce(other, self.order)
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Series2(out, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series2({k: -v for k, v in self.c.items()}, self.order)

    def __sub__(self, other):
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other):
        return _coerce(other, self.order) + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.order)
        out: dict = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                i, j = i1 + i2, j1 + j2
                if i + j > self.order:
                    continue
                k = (i, j)
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Series2(out, self.order)

    __rmul__ = __mul__

    def inverse(self) -> "Series2":
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        u = Series2(
            {k: v / c0 for k, v in self.c.items() if k != (0, 0)}, self.order
        )
        # geometric series: 1/(c0 (1+u)) = (1/c0) * sum (-u)^k
        out = Series2.const(1, self.order)
        term = Series2.const(1, self.order)
        for _ in range(self.order):
            term = term * (-u)
            if not term.c:
                break
            out = out + term
        return Series2({k: v / c0 for k, v in out.c.items()}, self.order)

    def __truediv__(self, other):
        return self * _coerce(other, self.order).inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.order) * self.inverse()

    def __repr__(self):
        terms = sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return " + ".join(f"{v}*x^{i}*y^{j}" for (i, j), v in terms) or "0"


def _coerce(v, order: int) -> Series2:
    if isinstance(v, Series2):
        return v
    return Series2.const(v, order)
