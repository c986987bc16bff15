"""Exact polynomial plumbing: monomial-dict polynomials, rational-root
extraction for univariate polynomials, and truncated bivariate Taylor series.

Everything here works over ``fractions.Fraction`` and stays exact.  Rational
roots are found by Sturm-sequence isolation of the real roots (Basu, Pollack
and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2) followed by
bisection to a width at which at most one candidate fraction remains, so
exact input keeps its rational roots whatever the size of its coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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

def p_sub(p: Monomials, q: Monomials) -> Monomials:
    return p_add(p, p_scale(q, -1))

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


def _sign_at(f: list[int], x: Fraction) -> int:
    """Sign of ``f(x)``, from the integer ``f(n/d) * d**deg``."""
    n, d = x.numerator, x.denominator
    acc, dpow = f[0], 1
    for c in f[1:]:
        dpow *= d
        acc = acc * n + c * dpow
    return (acc > 0) - (acc < 0)


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence of the square-free part ``f / gcd(f, f')``, each
    member scaled by a positive constant to coprime integers."""
    a, b = f, _derivative(f)
    while b:  # Euclid: a ends as gcd(f, f')
        a, b = b, _primitive(_divmod(a, b)[1])
    chain = [_primitive(_divmod(f, a)[0])]
    chain.append(_derivative(chain[0]))
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _divmod(chain[-2], chain[-1])[1]]))
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    count, last = 0, 0
    for f in chain:
        s = _sign_at(f, x)
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def _isolate(chain: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """Intervals ``(lo, hi]``, ascending, each holding one real root of
    ``chain[0]``: Sturm counts bisected inside the Cauchy bound."""
    f = chain[0]
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


def _refine(f: list[int], lo: Fraction, hi: Fraction, width: Fraction) -> Fraction:
    """The only root of the square-free ``f`` in ``(lo, hi]``, or a point
    within ``width / 2`` of it.

    Bisection steers by the sign at ``hi``: ``lo`` may be a root that
    belongs to the interval below.
    """
    s_hi = _sign_at(f, hi)
    if s_hi == 0:
        return hi
    while hi - lo >= width:
        mid = (lo + hi) / 2
        s = _sign_at(f, mid)
        if s == 0:
            return mid
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """All rational roots (with multiplicity) of a rational-coefficient
    polynomial, ascending after a zero root, plus the deflated remainder
    (highest degree first).

    Each real root of the square-free part is isolated by Sturm's theorem and
    bisected to below ``1 / (2 lead**2)``, where ``lead`` leads the primitive
    integer polynomial.  A rational root has denominator dividing ``lead``,
    and no other fraction with denominator at most ``lead`` lies that close,
    so ``limit_denominator(lead)`` of the midpoint is the only candidate; an
    exact evaluation confirms it.  No divisor is enumerated, so the cost
    grows with the bit size of the coefficients, not with their value.
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
    width = Fraction(1, 2 * lead * lead)
    chain = _sturm_chain(ints)
    for lo, hi in _isolate(chain):
        cand = _refine(chain[0], lo, hi, width).limit_denominator(lead)
        mult = 0
        while len(coeffs) > 1 and _horner(coeffs, cand) == 0:
            coeffs = _deflate(coeffs, cand)
            mult += 1
        if mult:
            found.append((cand, mult))
    return found, coeffs


def real_roots(coeffs, exact: bool, cluster_rtol: float = 1e-8):
    """Real roots (with multiplicity) of a univariate polynomial.

    ``coeffs`` highest degree first.  When ``exact`` is true, rational roots
    are split off exactly by Sturm isolation (``rational_roots``), for
    coefficients of any size; whatever remains (and the whole problem in float
    mode) goes through the companion-matrix eigenvalue solver with a Newton
    polish, and nearby roots are clustered into multiple roots.
    """
    roots: list[tuple[object, int]] = []
    rest = [Fraction(c) for c in coeffs] if exact else [float(c) for c in coeffs]
    if exact:
        roots, rest = rational_roots(rest)
    else:
        while rest and rest[0] == 0:
            rest = rest[1:]
    if len(rest) > 1:
        arr = np.array([float(c) for c in rest])
        complex_roots = np.roots(arr)
        scale = max(1.0, float(np.max(np.abs(complex_roots))) if len(complex_roots) else 1.0)
        real = [r.real for r in complex_roots if abs(r.imag) <= 1e-7 * scale]
        real = [_newton_polish_poly(arr, r) for r in real]
        real.sort()
        i = 0
        while i < len(real):
            j = i
            while j + 1 < len(real) and abs(real[j + 1] - real[i]) <= cluster_rtol * (1 + abs(real[i])):
                j += 1
            cluster = real[i : j + 1]
            roots.append((sum(cluster) / len(cluster), len(cluster)))
            i = j + 1
    return sorted(roots, key=lambda rm: float(rm[0]))


def _newton_polish_poly(coeffs: np.ndarray, x: float, iters: int = 3) -> float:
    der = np.polyder(coeffs)
    for _ in range(iters):
        fx = np.polyval(coeffs, x)
        dx = np.polyval(der, x)
        if dx == 0:
            break
        step = fx / dx
        if not np.isfinite(step):
            break
        x -= step
    return x


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

    def homogeneous_part(self, degree: int) -> dict:
        return {k: v for k, v in self.c.items() if sum(k) == degree}

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
