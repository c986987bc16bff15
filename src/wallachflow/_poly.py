"""Exact polynomial plumbing: multivariate polynomials and truncated power
series, and real roots of univariate polynomials.

``Poly`` is the one polynomial type: a dict from exponent tuples to
``Fraction`` coefficients with the ring operators ``+``, ``-``, ``*`` and
``**`` (a scalar operand is a constant) and ``diff``.  An optional
``order`` makes it a power series truncated at that total degree, and
``inverse`` (with ``/``) divides by a series with a nonzero constant term
through the geometric series; ``blowup`` expands the flow field at its
degenerate point that way.

``Layout`` is the one exact evaluator of polynomials at rational
parameters: the census equations of ``equilibria``, the linearization forms
of ``linearize`` and the degeneracy polynomial of ``surfaces`` are each
evaluated once over ``Poly`` and laid out by monomial.  ``cleared`` puts
rationals over the lcm ``d`` of their denominators, and ``Layout.at`` then
sums every coefficient in integers over a power of ``d``, with no
``Fraction`` arithmetic per term (Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*).  ``cleared`` is also the one place that clears the
denominators of a ray, a line or a coefficient list.

``root_brackets`` is the one real-root finder, and it makes one pass:
``real_roots`` rounds its roots to floats, for exact and float input alike,
and ``equilibria`` takes rays from its ``Root`` records.
The input is one primitive integer polynomial ``f``, with one integer
remainder sequence of ``f`` and ``f'``:
when it ends in a nonzero constant it is the Sturm sequence of the
square-free ``f`` (Basu, Pollack and Roy, *Algorithms in Real Algebraic
Geometry*, ch. 2), and only a nonconstant gcd calls Musser's square-free
factorization.  Roots are isolated and refined by exact signs on integer
dyadic grids, a point ``n / 2**k`` being the pair ``(n, k)``.  A ``Root`` is
a root that is not returned as a ``Fraction``: its square-free factor and a
bracket that ``narrow`` refines in place.  At a ``Root``, ``sign_at`` is the
one sign oracle of an integer polynomial (ch. 10), and ``enclose`` rounds
quotients of integer polynomials correctly to floats.

Exact input keeps its rational roots exact: the census substitutes a root
back into exact equations, and a rounded root would make them inexact.  Each isolating interval of a factor is therefore tested for
a rational root, whose denominator divides the factor's leading coefficient.
Before that test a screen reduces the factor modulo a few small primes that
do not divide its leading coefficient.  A rational root ``p/q`` has ``q``
prime to such a prime ``l``, so ``p * q^-1`` is a root modulo ``l``; a factor
without a root modulo one of them has no rational root, and its roots go
straight to the float grid.  The screen never changes an answer, only which
factors skip the exact test.  Callers that round every root, such as the
census at float parameters, skip the test with ``exact=False``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .core import is_exact

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# multivariate polynomials


class Poly(dict):
    """A polynomial in ``nvars`` variables: a dict from exponent tuples to
    nonzero ``Fraction`` coefficients, with the ring operators.

    With an ``order`` it is a power series truncated at that total degree:
    the constructor and every operation drop the monomials above it, an
    operation on two orders keeps the lower one, and ``diff`` lowers it by
    one.  ``None`` means no truncation.  A scalar operand is the constant
    polynomial.  Sums keep the monomial order of the left operand and append
    new monomials in the order of the right one; products run over the left
    operand's monomials first.
    """

    __slots__ = ("nvars", "order")

    def __init__(self, terms, nvars: int, order: int | None = None):
        if order is not None:
            terms = {m: c for m, c in terms.items() if sum(m) <= order}
        super().__init__(terms)
        self.nvars = nvars
        self.order = order

    @classmethod
    def const(cls, c, nvars: int, order: int | None = None) -> "Poly":
        return cls({(0,) * nvars: Fraction(c)} if c else {}, nvars, order)

    @classmethod
    def var(cls, i: int, nvars: int, order: int | None = None) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): Fraction(1)}, nvars, order)

    def _lift(self, other) -> "Poly":
        return other if isinstance(other, Poly) else Poly.const(other, self.nvars, self.order)

    def _meet(self, other: "Poly") -> int | None:
        """The lower truncation order of ``self`` and ``other``."""
        if self.order is None or other.order is None:
            return other.order if self.order is None else self.order
        return min(self.order, other.order)

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        order = self._meet(other)
        out = Poly(self, self.nvars, order)
        for mono, c in other.items():
            if order is not None and sum(mono) > order:
                continue
            s = out.get(mono, _ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return out

    def __radd__(self, other) -> "Poly":
        return self._lift(other) + self

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.items()}, self.nvars, self.order)

    def __sub__(self, other) -> "Poly":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) + -self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly({m: v * c for m, v in self.items()} if c else {}, self.nvars, self.order)
        order = self._meet(other)
        out = Poly({}, self.nvars, order)
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                if order is not None and sum(mono) > order:
                    continue
                s = out.get(mono, _ZERO) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n == 0:
            return Poly.const(1, self.nvars, self.order)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def diff(self, var: int) -> "Poly":
        out = Poly({}, self.nvars, None if self.order is None else self.order - 1)
        for mono, c in self.items():
            e = mono[var]
            if e:
                m = list(mono)
                m[var] = e - 1
                out[tuple(m)] = c * e
        return out

    def inverse(self) -> "Poly":
        """``1 / self`` by the geometric series ``1/(c0 (1 + u)) = sum
        (-u)**k / c0``, which ends at ``k = order``: ``u`` has no constant
        term, so ``u**k`` starts at degree ``k``.  The constant term ``c0``
        must be nonzero, and a polynomial without an order must be constant."""
        c0 = self.get((0,) * self.nvars)
        if not c0:
            raise ZeroDivisionError("series has zero constant term")
        u = self * (1 / c0) - 1
        if not u:
            return Poly.const(1 / c0, self.nvars, self.order)
        if self.order is None:
            raise ValueError("the inverse of a nonconstant polynomial needs an order")
        out = term = Poly.const(1, self.nvars, self.order)
        for _ in range(self.order):
            term = term * -u
            out = out + term
        return out * (1 / c0)

    def __truediv__(self, other) -> "Poly":
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other) -> "Poly":
        return self._lift(other) * self.inverse()


# ---------------------------------------------------------------------------
# exact evaluation in integers


def cleared(values) -> tuple[list[int], int]:
    """``(ints, d)`` with ``values[i] == ints[i] / d`` and ``d`` the lcm of
    the denominators; a float counts as its dyadic value."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(q for _, q in pairs))
    return [n * (d // q) for n, q in pairs], d


class Layout:
    """Polynomials over ``Poly`` in up to four weighted parameters, followed
    by free variables, laid out once.

    With parameter ``j`` equal to ``N_j / d**weights[j]``, ``at(N, d)`` gives
    per polynomial ``i`` and free monomial ``monos[i][m]`` the coefficient
    times ``scales[i] * d**weight`` as an ``int``: ``scales[i]`` is the lcm
    of the denominators of polynomial ``i``, and ``weight`` the highest
    weighted degree of any parameter monomial.
    """

    __slots__ = ("monos", "scales", "weight", "_ones", "_tops", "_params", "_rows")

    def __init__(self, polys, weights):
        n = len(weights)
        index: dict[tuple[int, ...], int] = {}
        monos, scales, rows = [], [], []
        for poly in polys:
            ints, scale = cleared(poly.values())
            terms: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
            for mono, c in zip(poly, ints):
                cs, ns = terms.setdefault(mono[n:], ([], []))
                cs.append(c)
                ns.append(index.setdefault(mono[:n], len(index)))
            monos.append(tuple(terms))
            scales.append(scale)
            rows.append(tuple((tuple(cs), tuple(ns)) for cs, ns in terms.values()))
        degrees = [sum(map(operator.mul, e, weights)) for e in index]
        self.monos, self.scales, self.weight = tuple(monos), tuple(scales), max(degrees, default=0)
        # an unused parameter slot is the number 1 with exponent 0
        self._ones = (1,) * (4 - n)
        self._params = tuple((*e, *(0,) * (4 - n), self.weight - w) for e, w in zip(index, degrees))
        self._tops = tuple(max((e[j] for e in self._params), default=0) for j in range(5))
        self._rows = tuple(rows)

    def at(self, numerators, d: int) -> list[list[int]]:
        bases = (*numerators, *self._ones, d)
        p1, p2, p3, p4, pd = ([b**e for e in range(top + 1)] for b, top in zip(bases, self._tops))
        value = [p1[e1] * p2[e2] * p3[e3] * p4[e4] * pd[k] for e1, e2, e3, e4, k in self._params].__getitem__
        return [[sum(map(operator.mul, cs, map(value, ns))) for cs, ns in rows] for rows in self._rows]


# ---------------------------------------------------------------------------
# univariate real root finding on primitive integer polynomials

# The primes of the rational-root screen of ``real_roots``.
_SCREEN_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)


def _primitive(coeffs: list[int]) -> list[int]:
    """Coprime integer coefficients: ``coeffs`` divided by their gcd."""
    g = math.gcd(*coeffs)
    return [v // g for v in coeffs]


def _divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: ``(q, r, c)`` with ``c*f == q*g + r``,
    ``deg r < deg g`` (leading zeros of ``r`` stripped) and ``c`` a positive
    power of ``|g[0]|``.  ``c`` is 1 when the primitive ``g`` divides ``f``
    (Gauss's lemma: the quotient has integer coefficients)."""
    rem, quot, c = list(f), [], 1
    lead, scale = g[0], abs(g[0])
    while len(rem) >= len(g):
        if rem[0] % lead:
            rem, quot, c = [v * scale for v in rem], [v * scale for v in quot], c * scale
        q = rem[0] // lead
        quot.append(q)
        for i in range(1, len(g)):
            rem[i] -= q * g[i]
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem, c


def _derivative(f: list[int]) -> list[int]:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _remainders(f: list[int], g: list[int]) -> list[list[int]]:
    """``f, g, -prem, ...`` made primitive after ``g``, up to the first member
    that is constant (``f``, ``g`` coprime) or zero (the one before is their
    gcd).  For ``g = f'`` and a constant end it is the Sturm sequence of f."""
    seq = [f, g]
    while len(seq[-1]) > 1:
        seq.append(_primitive([-c for c in _divmod(seq[-2], seq[-1])[1]]))
    return seq


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive greatest common divisor of ``f`` and ``g``; ``g`` may be
    empty, the zero polynomial."""
    *_, r, last = _remainders(f, g)
    return _primitive(last or r)


def _value_at(f: list[int], n: int, k: int) -> int:
    """The integer ``f(n / 2**k) * 2**(k * deg)``."""
    acc, shift = f[0], 0
    for c in f[1:]:
        shift += k
        acc = acc * n + (c << shift)
    return acc


def _variations(chain: list[list[int]], n: int, k: int) -> int:
    """Sign changes along ``chain`` at ``n / 2**k``, zeros skipped."""
    signs = [v > 0 for f in chain if (v := _value_at(f, n, k))]
    return sum(map(operator.ne, signs, signs[1:]))


def _isolate(chain: list[list[int]]) -> list[tuple[int, int, int]]:
    """Intervals ``(lo, hi, k)``, ascending, each ``(lo/2**k, hi/2**k]``
    holding one real root of the square-free ``chain[0]`` of Sturm sequence
    ``chain``: Sturm counts bisected inside the Cauchy bound, with ``k`` the
    least exponent that writes both ends as integers."""
    f = chain[0]
    bound = 2 + max(abs(c) for c in f[1:]) // abs(f[0])
    b = 1 << bound.bit_length()
    out = []
    stack = [(-b, b, 0, _variations(chain, -b, 0), _variations(chain, b, 0))]
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi, k))
        elif v_lo - v_hi > 1:
            if hi - lo == 1:
                lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            v_mid = _variations(chain, mid, k)
            stack += [(mid, hi, k, v_mid, v_hi), (lo, mid, k, v_lo, v_mid)]
    return out


def _refine(f: list[int], df: list[int], lo: int, hi: int, k: int, bits: int) -> tuple[int, int]:
    """``(m, K)``: the only root ``m / 2**K`` of the square-free ``f`` in
    ``(lo / 2**k, hi / 2**k]``, or the point ``m / 2**K`` just above it on
    the grid ``K = max(k, bits)``; ``df`` is ``f'``.

    Exact signs keep the bracket on the grid, steering by the sign at ``hi``
    since ``lo`` may be the root below.  Once the bracket has one sign and a
    width of at most half its size, the next point is Newton's step from the
    last one, exact in grid units, or one unit towards the middle when that
    step is shorter than one unit.  A step that leaves the bracket, and every
    step after the 40th, is a bisection.
    """
    K = max(k, bits)
    a, b = lo << (K - k), hi << (K - k)
    v_b = _value_at(f, b, K)
    m, steps = (a + b) // 2, 0
    while v_b and b - a > 1:
        v, dv = _value_at(f, m, K), _value_at(df, m, K)
        if v == 0:
            return m, K
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
    return b, K


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


def _may_have_rational_root(f: list[int]) -> bool:
    """False when ``f`` has no root modulo a prime of ``_SCREEN_PRIMES`` that
    does not divide its leading coefficient, and so no rational root."""
    for ell in _SCREEN_PRIMES:
        if f[0] % ell == 0:
            continue
        mods = [c % ell for c in f]
        for x in range(ell):
            acc = 0
            for c in mods:
                acc = (acc * x + c) % ell
            if not acc:
                break
        else:
            return False
    return True


def _rational_root(f: list[int], df: list[int], lo: int, hi: int, k: int) -> tuple[Fraction, list[int]] | None:
    """The root of the square-free ``f`` in ``(lo/2**k, hi/2**k]`` and ``f``
    divided by its linear factor, if that root is rational (``df = f'``).

    Its denominator divides ``lead = |f[0]|``, and no other fraction with
    denominator at most ``lead`` lies within ``1 / lead**2`` of it, so
    ``limit_denominator(lead)`` of the root refined to within
    ``1 / (4 lead**2)`` is the only candidate; an exact division inside
    the interval confirms it (outside, it would be another root).  No divisor
    is enumerated, so the cost grows with the bit size of the coefficients,
    not with their value.
    """
    lead = abs(f[0])
    m, K = _refine(f, df, lo, hi, k, (4 * lead * lead).bit_length())
    cand = Fraction(m, 1 << K).limit_denominator(lead)
    p, q = cand.numerator, cand.denominator
    if lo * q < p << k <= hi * q:
        quot, rem, _c = _divmod(f, [q, -p])
        if not rem:
            return cand, quot
    return None


def float_bits(f: list[int]) -> int:
    """The grid of ``_refine`` that puts every nonzero root of ``f`` within
    ``2**-55`` relative: ``|root| >= |lowest nonzero coefficient| / (2 max|c|)``."""
    tail = next(c for c in reversed(f) if c)
    return 57 + max(map(abs, f)).bit_length() - abs(tail).bit_length()


# Doublings after which ``enclose`` takes a lower corner: the value is a rounding midpoint.
_MAX_DOUBLINGS = 6


class Root:
    """A real root of the square-free integer ``factor`` (``df = factor'``),
    the only one in its bracket ``(lo/2**k, hi/2**k]``, which ``narrow``
    refines in place: later signs and enclosures start from the narrowest."""

    __slots__ = ("factor", "df", "lo", "hi", "k")

    def __init__(self, factor: list[int], df: list[int], lo: int, hi: int, k: int):
        self.factor, self.df, self.lo, self.hi, self.k = factor, df, lo, hi, k

    def narrow(self, bits: int) -> tuple[int, int]:
        """Refine the bracket to width 1 on the grid ``max(k, bits)``; its
        upper end ``(hi, k)``, the root or the grid point just above it."""
        if self.hi - self.lo > 1 or self.k < bits:
            self.hi, self.k = _refine(self.factor, self.df, self.lo, self.hi, self.k, bits)
            self.lo = self.hi - 1
        return self.hi, self.k

    def hull(self, g: list[int]) -> tuple[int, int]:
        """Integer bounds on ``g(x) * 2**(k * (len(g) - 1))`` over the closed
        bracket, for integer ``g`` (highest degree first): interval Horner."""
        lo, hi, k = self.lo, self.hi, self.k
        a = b = g[0] if g else 0
        for shift, c in enumerate(g[1:], 1):
            c <<= k * shift
            if lo >= 0:  # two products decide
                a, b = (a * lo if a >= 0 else a * hi) + c, (b * hi if b >= 0 else b * lo) + c
            else:
                ends = (a * lo, a * hi, b * lo, b * hi)
                a, b = min(ends) + c, max(ends) + c
        return a, b


def sign_at(g: list[int], root: Root) -> int:
    """The sign (-1, 0 or 1) of the integer ``g`` (highest degree first) at
    ``root``, where its hull excludes 0.  Else, on the ``float_bits`` grid,
    ``g`` vanishes iff ``gcd(factor, g)`` has a root in the bracket (a Sturm
    count; Basu, Pollack and Roy ch. 10), or the hull excludes 0 at doubling
    precision."""
    while g and not g[0]:
        g = g[1:]
    a, b = root.hull(g)
    if a <= 0 <= b:
        root.narrow(float_bits(root.factor))
        a, b = root.hull(g)
        if a <= 0 <= b and len(common := _gcd(root.factor, g)) > 1:
            chain = _remainders(common, _derivative(common))
            if _variations(chain, root.lo, root.k) > _variations(chain, root.hi, root.k):
                return 0
        while a <= 0 <= b:
            root.narrow(2 * root.k)
            a, b = root.hull(g)
    return 1 if a > 0 else -1


def enclose(root: Root, den: list[int], nums) -> tuple | None:
    """The values ``num(u)/den(u)`` for the ``num`` in ``nums`` (integer
    polynomials of one length, highest degree first), correctly rounded to
    floats at the root ``u``, or ``None`` when one is not positive or leaves
    the float range.  Ziv's loop: narrow, enclose each value by ``hull``,
    double the precision until each enclosure rounds to one float."""
    bits = float_bits(root.factor)
    for doubling in range(_MAX_DOUBLINGS + 1):
        root.narrow(bits)
        dens = root.hull(den)
        if dens[0] > 0 or dens[1] < 0:
            try:  # the floats the corners round to: int/int rounds correctly
                values = [{v / w for v in root.hull(num) for w in dens} for num in nums]
            except OverflowError:
                return None
            if min(map(max, values)) <= 0:
                return None
            if doubling == _MAX_DOUBLINGS or max(map(len, values)) == 1:
                return tuple(map(min, values))
        bits *= 2
    return None


def root_brackets(f: list[int], exact: bool = True) -> list[tuple[Fraction | Root, int]]:
    """The real roots of the integer ``f`` (highest degree first), unordered,
    as ``(root, mult)``: the roots of each square-free factor of its
    primitive form isolated by Sturm's theorem, with ``exact`` a rational
    root as its ``Fraction``, any other as a ``Root`` on its isolating
    interval of ``factor`` (rational roots divided out).  Without ``exact``
    no rational root is searched for: every root is a ``Root`` of its
    square-free factor, for callers that round the roots anyway."""
    f = _primitive(f)
    chain = _remainders(f, _derivative(f))
    chains = [(chain, 1)] if chain[-1] else [(_remainders(g, _derivative(g)), k) for g, k in _square_free(f)]
    roots = []
    for chain, mult in chains:
        factor, df = chain[:2]
        intervals = _isolate(chain)
        floating = intervals
        if exact and _may_have_rational_root(factor):
            floating = []
            for interval in intervals:
                found = _rational_root(factor, df, *interval)
                if found is None:
                    floating.append(interval)
                else:
                    roots.append((found[0], mult))
                    factor, df = found[1], _derivative(found[1])
        roots += [(Root(factor, df, *interval), mult) for interval in floating]
    return roots


def real_roots(coeffs, exact: bool | None = None) -> list[tuple[object, int]]:
    """Real roots of a univariate polynomial (highest degree first), ascending,
    each with its multiplicity.

    The roots are those of the exact polynomial, a float coefficient
    counting as its dyadic value, whose coefficients ``cleared`` puts over
    their common denominator.  Their primitive form (divided by their gcd)
    is square-free when its remainder sequence with its derivative ends in a
    constant, or else factored square-free, the index of a factor being the
    exact multiplicity of its roots (``root_brackets``).  With ``exact``, a
    rational root is returned as that ``Fraction``; it defaults to whether
    every coefficient is exact, and ``False`` skips the rational-root search
    of ``root_brackets`` for integer coefficients whose roots the caller
    rounds anyway.  The other roots are narrowed to within ``2**-55``
    relative and rounded to a float; a root beyond the float range is an
    infinity.
    """
    rest = cleared(coeffs)[0]
    while rest and rest[0] == 0:
        rest = rest[1:]
    if len(rest) <= 1:
        return []
    roots = []
    if exact is None:
        exact = all(map(is_exact, coeffs))
    for root, mult in root_brackets(rest, exact):
        if isinstance(root, Root):
            m, K = root.narrow(float_bits(root.factor))
            try:
                root = m / (1 << K)
            except OverflowError:
                root = math.inf if m > 0 else -math.inf
        roots.append((root, mult))
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
