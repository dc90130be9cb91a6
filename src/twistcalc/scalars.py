"""Exact coefficient arithmetic and truncated power series in hbar.

The scalar field is Q(i) extended by a finite set of commuting parameters
(say a, c) and declared square-root symbols with defining relations such as
sqrt(a)^2 = a.  Every value has a unique normal form, so equality is
decidable, and there is no floating point anywhere.

A constant, the common case in Hopf-algebra computations, is a Gaussian
rational (re + im*i)/den held as a triple of Python ints with den > 0 and
gcd(re, im, den) = 1, and its arithmetic is integer arithmetic.  Any other
value is a reduced fraction of multivariate polynomials over sympy's QQ_I in
the parameters and radicals: radicals are rewritten away from denominators
and kept at exponent <= 1 everywhere, and the denominator is monic and
coprime to the numerator.  A fraction that reduces to a constant is always
stored as a triple.  Context rejects radicals under which this would not be
a field: no radicand, nor a product of several, may be a square.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from operator import sub

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.rings import ring as _sparse_ring


class TruncationMismatch(ValueError):
    """Two series with different truncation orders were combined."""


class NonUnitError(ZeroDivisionError):
    """Inversion of a non-unit (zero scalar, or series with zero constant term)."""


def _sanitize(name):
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


class Context:
    """Engine configuration: scalar parameters, radicals and truncation order.

    radicals maps a display name like "sqrt(a)" to the polynomial its square
    equals.  The defining polynomial may be given as a parameter name, an
    integer, or a list of (coefficient, {param: exponent}) terms; it may only
    involve parameters, never other radicals.  No defining polynomial, nor
    the product of several, may be a square in Q(i)[params] (zero included):
    its square root would already be in the field, and the scalars would
    have zero divisors.
    """

    def __init__(self, params=(), radicals=None, order=4):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.order = int(order)
        self.params = tuple(params)
        radicals = dict(radicals or {})
        self.radical_names = tuple(radicals)
        names = self.params + tuple(_sanitize(r) for r in self.radical_names)
        if len(set(names)) != len(names):
            raise ValueError("parameter/radical names collide: %r" % (names,))
        if names:
            self._ring, *gens = _sparse_ring(" ".join(names), QQ_I)
        else:
            self._ring, = _sparse_ring("", QQ_I)
            gens = []
        self._gens = tuple(gens)
        self._ngens = len(names)
        self._display = dict(zip(names, self.params + self.radical_names))
        self._radical_index = {}
        for k, (rname, defining) in enumerate(radicals.items()):
            idx = len(self.params) + k
            self._radical_index[idx] = self._defining_poly(defining, rname)
        self._check_radicals()
        self._zero = Scalar(self, _ZERO, None, None)
        self._one = Scalar(self, _ONE, None, None)
        self._i = Scalar(self, (0, 1, 1), None, None)
        self._series_one = self.series([1])
        self._series_zero = self.series([])

    def _defining_poly(self, defining, rname):
        if isinstance(defining, str):
            if defining not in self.params:
                raise ValueError("radical %s: unknown parameter %r" % (rname, defining))
            poly = self._gens[self.params.index(defining)]
        elif isinstance(defining, int):
            poly = self._ring.ground_new(QQ_I.convert(defining))
        else:
            poly = self._ring.zero
            for coeff, monom in defining:
                exps = [0] * self._ngens
                for pname, e in monom.items():
                    if pname not in self.params:
                        raise ValueError("radical %s: unknown parameter %r" % (rname, pname))
                    exps[self.params.index(pname)] = e
                poly += self._ring.term_new(tuple(exps), QQ_I.convert(Fraction(coeff)))
        for monom, _ in poly.terms():
            if any(monom[len(self.params):]):
                raise ValueError("radical %s: defining polynomial may only use parameters" % rname)
        return poly

    def _check_radicals(self):
        defining = list(zip(self.radical_names, self._radical_index.values()))
        for k in range(1, len(defining) + 1):
            for subset in combinations(defining, k):
                prod = self._ring.one
                for _, poly in subset:
                    prod *= poly
                if _is_square(prod):
                    names = ", ".join(n for n, _ in subset)
                    what = ("radical %s: radicand" % names if k == 1
                            else "radicals %s: product of radicands" % names)
                    raise ValueError("%s %s is a square in Q(i)[params], so the "
                                     "radicals do not extend the field"
                                     % (what, _poly_text(self, prod)))

    # -- scalar constructors -------------------------------------------------

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def i(self):
        return self._i

    def rational(self, p, q=1):
        f = Fraction(p, q)
        return Scalar(self, (f.numerator, 0, f.denominator), None, None)

    def scalar(self, value):
        """Coerce an int, Fraction or Scalar into this context."""
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise ValueError("scalar from a different context")
            return value
        if isinstance(value, int):
            return Scalar(self, (value, 0, 1), None, None)
        if isinstance(value, Fraction):
            return Scalar(self, (value.numerator, 0, value.denominator), None, None)
        raise TypeError("cannot coerce %r to Scalar" % (value,))

    def param(self, name):
        if name not in self.params:
            raise KeyError("unknown parameter %r" % name)
        return Scalar._pair(self, self._gens[self.params.index(name)], self._ring.one)

    def radical(self, name):
        if name not in self.radical_names:
            raise KeyError("unknown radical %r" % name)
        idx = len(self.params) + self.radical_names.index(name)
        return Scalar._pair(self, self._gens[idx], self._ring.one)

    def atom(self, name):
        """Parameter or radical by display name; 'i' gives the imaginary unit."""
        if name == "i":
            return self._i
        if name in self.params:
            return self.param(name)
        if name in self.radical_names:
            return self.radical(name)
        raise KeyError("unknown scalar symbol %r" % name)

    # -- series constructors -------------------------------------------------

    def series(self, coeffs, order=None):
        order = self.order if order is None else order
        cs = [self.scalar(c) for c in list(coeffs)[: order + 1]]
        cs += [self._zero] * (order + 1 - len(cs))
        return HbarSeries(self, order, tuple(cs))

    def hbar(self, order=None):
        return self.series([0, 1], order)

    def series_one(self, order=None):
        return self.series([1], order)

    def series_zero(self, order=None):
        return self.series([], order)

    # -- polynomial helpers used by Scalar -----------------------------------

    def _reduce_radicals(self, poly):
        for idx, defining in self._radical_index.items():
            hit = any(m[idx] >= 2 for m in poly.monoms()) if poly else False
            if not hit:
                continue
            out = self._ring.zero
            for monom, coeff in poly.terms():
                k = monom[idx]
                if k >= 2:
                    m2 = list(monom)
                    m2[idx] = k % 2
                    out += self._ring.term_new(tuple(m2), coeff) * defining ** (k // 2)
                else:
                    out += self._ring.term_new(monom, coeff)
            poly = out
        return poly

    @staticmethod
    def _flip_radical(ring, poly, idx):
        out = ring.zero
        for monom, coeff in poly.terms():
            term = ring.term_new(monom, coeff)
            out = out - term if monom[idx] % 2 else out + term
        return out


# -- Gaussian rationals as normalised int triples (re, im, den) ---------------

_ZERO = (0, 0, 1)
_ONE = (1, 0, 1)


def _gauss(re, im, den):
    """The triple of (re + im*i)/den, for den > 0."""
    g = gcd(re, im, den)
    if g != 1:
        return (re // g, im // g, den // g)
    return (re, im, den)


def _to_qqi(g):
    re, im, den = g
    return QQ_I.dtype.new(QQ.dtype(re, den), QQ.dtype(im, den))


def _from_qqi(c):
    dx, dy = c.x.denominator, c.y.denominator
    return _gauss(c.x.numerator * dy, c.y.numerator * dx, dx * dy)


def _gconj(g):
    return QQ_I.dtype(g.x, -g.y)


def _rational_sqrt(q):
    """sqrt(q) for a Fraction q >= 0 if it is rational, else None."""
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def _is_square(poly):
    """Whether poly is a square in Q(i)[params]; zero counts as one.

    By unique factorisation poly is a square iff every irreducible factor has
    even multiplicity and the leftover constant p + q*i is a square in Q(i),
    which holds iff r = sqrt(p^2 + q^2), (r + p)/2 and (r - p)/2 are all
    rational squares (then p + q*i = (x + y*i)^2 with x^2, y^2 the latter two).
    """
    if not poly:
        return True
    content, factors = poly.factor_list()
    if any(m % 2 for _, m in factors):
        return False
    re, im, den = _from_qqi(content)
    p, q = Fraction(re, den), Fraction(im, den)
    r = _rational_sqrt(p * p + q * q)
    return (r is not None and _rational_sqrt((r + p) / 2) is not None
            and _rational_sqrt((r - p) / 2) is not None)


class Scalar:
    """Element of the exact coefficient field, in unique normal form.

    Two tiers.  A constant has _g = (re, im, den), the normalised int triple
    of (re + im*i)/den, and _n = _d = None.  Any other value has _g = None and
    the reduced pair _n/_d of QQ_I polynomials: the denominator is monic,
    radical-free and coprime to the numerator, and not both are ground.
    Equal values therefore have equal representations.

    Reduction (_pair) needs gcd(_n, _d), computed by sympy's multivariate gcd.
    When the denominator is a single term c*x^e, as with denominators a or
    a^2, it skips that gcd: the divisors of x^e are the monomials x^k with
    k <= e, so the gcd is x^m with m the least exponents over x^e and every
    term of the numerator, and dividing it out by exponent arithmetic leaves
    a coprime pair.  Two coprime pairs for one value differ by a constant
    factor, and a monic denominator fixes it, so this is the pair the gcd
    path gives.  For the same reason a constant c meeting n/d needs no
    reduction at all: (n + c*d)/d and (c*n)/d are again coprime over the
    same monic d, and neither is a constant.
    """

    __slots__ = ("ctx", "_g", "_n", "_d", "_hash")

    def __init__(self, ctx, g, n, d):
        self.ctx = ctx
        self._g = g
        self._n = n
        self._d = d
        self._hash = None

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _pair(ctx, num, den):
        num = ctx._reduce_radicals(num)
        den = ctx._reduce_radicals(den)
        ring = ctx._ring
        if not den:
            raise ZeroDivisionError("scalar division by zero")
        for idx in ctx._radical_index:
            if any(m[idx] for m in den.monoms()):
                conj = Context._flip_radical(ring, den, idx)
                num = ctx._reduce_radicals(num * conj)
                den = ctx._reduce_radicals(den * conj)
        if not num:
            return ctx._zero
        if len(den) == 1:
            # den = lc*x^e: gcd(num, den) = x^m, cancelled by exponent arithmetic
            (e, lc), = den.items()
            m = tuple(map(min, e, *num.itermonoms()))
            if any(m):
                num = num.new([(tuple(map(sub, k, m)), v) for k, v in num.items()])
                e = tuple(map(sub, e, m))
            num = num.quo_ground(lc)
            if any(e):
                return Scalar(ctx, None, num, num.new([(e, QQ_I.one)]))
        else:
            g = num.gcd(den)
            if not (g.is_ground and g.LC == QQ_I.one):
                num = num.exquo(g)
                den = den.exquo(g)
            lc = den.LC
            num = num.quo_ground(lc)
            if not den.is_ground:
                return Scalar(ctx, None, num, den.monic())
        if num.is_ground:
            return Scalar(ctx, _from_qqi(num.LC), None, None)
        return Scalar(ctx, None, num, ring.one)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("scalars from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return None

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self):
        return self._g == _ZERO

    @property
    def is_one(self):
        return self._g == _ONE

    @property
    def is_constant(self):
        return self._g is not None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._g is not None and o._g is not None:
            a, b, d = self._g
            c, e, f = o._g
            if d == f:
                return Scalar(self.ctx, _gauss(a + c, b + e, d), None, None)
            return Scalar(self.ctx, _gauss(a * f + c * d, b * f + e * d, d * f), None, None)
        if self._g is not None or o._g is not None:
            c, p = (self, o) if self._g is not None else (o, self)
            if c.is_zero:
                return p
            return Scalar(self.ctx, None, p._n + p._d.mul_ground(_to_qqi(c._g)), p._d)
        n1, d1, n2, d2 = self._n, self._d, o._n, o._d
        return Scalar._pair(self.ctx, n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        if self._g is not None:
            a, b, d = self._g
            return Scalar(self.ctx, (-a, -b, d), None, None)
        return Scalar(self.ctx, None, -self._n, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._g is not None and o._g is not None:
            a, b, d = self._g
            c, e, f = o._g
            return Scalar(self.ctx, _gauss(a * c - b * e, a * e + b * c, d * f), None, None)
        if self.is_zero or o.is_zero:
            return self.ctx._zero
        if self._g is not None or o._g is not None:
            c, p = (self, o) if self._g is not None else (o, self)
            return Scalar(self.ctx, None, p._n.mul_ground(_to_qqi(c._g)), p._d)
        return Scalar._pair(self.ctx, self._n * o._n, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise NonUnitError("inverse of zero scalar")
        if self._g is not None:
            a, b, d = self._g
            return Scalar(self.ctx, _gauss(a * d, -b * d, a * a + b * b), None, None)
        return Scalar._pair(self.ctx, self._d, self._n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx._one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conjugate(self):
        """Complex conjugation: i -> -i; parameters and radicals are real."""
        if self._g is not None:
            a, b, d = self._g
            return Scalar(self.ctx, (a, -b, d), None, None)
        conj = self.ctx._ring.from_terms(
            [(m, _gconj(c)) for m, c in self._n.terms()])
        conj_d = self.ctx._ring.from_terms(
            [(m, _gconj(c)) for m, c in self._d.terms()])
        return Scalar._pair(self.ctx, conj, conj_d)

    # -- comparison / hashing ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Scalar) else other
        if o is None or not isinstance(o, Scalar):
            return NotImplemented
        if o.ctx is not self.ctx:
            return False
        if (self._g is None) != (o._g is None):
            return False
        if self._g is not None:
            return self._g == o._g
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        # PolyElement hashes are cached on mutable dicts upstream, so hash
        # the raw term data of the (immutable) normal form instead.
        if self._hash is None:
            if self._g is not None:
                self._hash = hash(self._g)
            else:
                self._hash = hash((
                    frozenset((m, cf.x, cf.y) for m, cf in self._n.terms()),
                    frozenset((m, cf.x, cf.y) for m, cf in self._d.terms())))
        return self._hash

    # -- printing ---------------------------------------------------------------

    def to_text(self):
        if self._g is not None:
            text, composite = _gauss_text(self._g)
            return "(" + text + ")" if composite else text
        num, den = self._n, self._d
        ntext = _poly_text(self.ctx, num)
        if den == self.ctx._ring.one:
            return ntext
        dtext = _poly_text(self.ctx, den)
        if len(den) > 1:
            dtext = "(" + dtext + ")"
        if len(num) > 1:
            ntext = "(" + ntext + ")"
        return ntext + "/" + dtext

    __str__ = to_text

    def __repr__(self):
        return "Scalar(%s)" % self.to_text()


def _gauss_text(g):
    re, im = Fraction(g[0], g[2]), Fraction(g[1], g[2])
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    if im == 0:
        return frac(re), False
    if re == 0:
        if im == 1:
            return "i", False
        if im == -1:
            return "-i", False
        return frac(im) + "*i", False
    imt = "i" if im == 1 else ("-i" if im == -1 else frac(im) + "*i")
    sep = " + " if not imt.startswith("-") else " - "
    return frac(re) + sep + imt.lstrip("-"), True


def _poly_text(ctx, poly):
    if not poly:
        return "0"
    items = sorted(poly.terms(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    parts = []
    for monom, coeff in items:
        factors = []
        for k, e in enumerate(monom):
            if not e:
                continue
            name = ctx._display[ctx._ring.symbols[k].name]
            factors.append(name if e == 1 else "%s^%d" % (name, e))
        ctext, composite = _gauss_text(_from_qqi(coeff))
        if not factors:
            term = "(" + ctext + ")" if composite else ctext
        elif ctext == "1":
            term = "*".join(factors)
        elif ctext == "-1":
            term = "-" + "*".join(factors)
        else:
            if composite:
                ctext = "(" + ctext + ")"
            term = ctext + "*" + "*".join(factors)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


class HbarSeries:
    """Truncated formal power series in hbar with Scalar coefficients."""

    __slots__ = ("ctx", "order", "coeffs")

    def __init__(self, ctx, order, coeffs):
        self.ctx = ctx
        self.order = order
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, HbarSeries):
            if other.ctx is not self.ctx:
                raise ValueError("series from different contexts")
            if other.order != self.order:
                raise TruncationMismatch(
                    "truncation orders differ: %d vs %d" % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ctx.series([self.ctx.scalar(other)], self.order)
        return None

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coeffs)

    @property
    def is_unit(self):
        return not self.coeffs[0].is_zero

    def coeff(self, n):
        return self.coeffs[n] if n <= self.order else self.ctx.zero

    def constant_term(self):
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return HbarSeries(self.ctx, self.order,
                          tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries(self.ctx, self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = self.ctx.scalar(other)
            if s.is_zero:
                return self.ctx.series_zero(self.order)
            return HbarSeries(self.ctx, self.order, tuple(c * s for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.order
        zero = self.ctx.zero
        out = [zero] * (n + 1)
        for ka, ca in enumerate(self.coeffs):
            if ca.is_zero:
                continue
            for kb in range(n + 1 - ka):
                cb = o.coeffs[kb]
                if cb.is_zero:
                    continue
                out[ka + kb] = out[ka + kb] + ca * cb
        return HbarSeries(self.ctx, n, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse, defined iff the constant term is nonzero."""
        if not self.is_unit:
            raise NonUnitError("series with zero constant term has no inverse")
        c0inv = self.coeffs[0].inverse()
        v = self.ctx.series_one(self.order) - self * c0inv   # zero constant term
        out = self.ctx.series_one(self.order)
        p = self.ctx.series_one(self.order)
        for _ in range(self.order):
            p = p * v
            if p.is_zero:
                break
            out = out + p
        return out * c0inv

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * self.ctx.scalar(other).inverse()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.series_one(self.order)
        for _ in range(n):
            out = out * self
        return out

    def exp(self):
        """Finite sum of u^n/n! for a series u with zero constant term."""
        if self.is_unit:
            raise ValueError("exp requires zero constant term")
        out = self.ctx.series_one(self.order)
        p = self.ctx.series_one(self.order)
        fact = 1
        for k in range(1, self.order + 1):
            p = p * self
            if p.is_zero:
                break
            fact *= k
            out = out + p * Fraction(1, fact)
        return out

    def log1p(self):
        """log(1 + u) as a finite sum, for u with zero constant term."""
        if self.is_unit:
            raise ValueError("log1p requires zero constant term")
        out = self.ctx.series_zero(self.order)
        p = self.ctx.series_one(self.order)
        for k in range(1, self.order + 1):
            p = p * self
            if p.is_zero:
                break
            out = out + p * Fraction((-1) ** (k + 1), k)
        return out

    def shift(self, k):
        """Multiply by hbar^k, discarding what truncation pushes out."""
        if k == 0:
            return self
        zero = self.ctx.zero
        cs = (zero,) * k + self.coeffs[: self.order + 1 - k]
        return HbarSeries(self.ctx, self.order, cs)

    def divide_hbar(self, k):
        """Divide by hbar^k; the k lowest coefficients must vanish.

        The top k orders of the result are unknowable after truncation and
        are set to zero, so callers must keep total degrees within budget.
        """
        if k == 0:
            return self
        if any(not c.is_zero for c in self.coeffs[:k]):
            raise ValueError("series is not divisible by hbar^%d" % k)
        zero = self.ctx.zero
        cs = self.coeffs[k:] + (zero,) * k
        return HbarSeries(self.ctx, self.order, cs)

    def conjugate(self):
        return HbarSeries(self.ctx, self.order, tuple(c.conjugate() for c in self.coeffs))

    # -- comparison / printing -------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, HbarSeries) else other
        if not isinstance(o, HbarSeries):
            return NotImplemented
        return self.ctx is o.ctx and self.order == o.order and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_text(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            ct = c.to_text()
            if n == 0:
                parts.append(ct)
                continue
            h = "hbar" if n == 1 else "hbar^%d" % n
            if ct == "1":
                parts.append(h)
            elif ct == "-1":
                parts.append("-" + h)
            else:
                if ("+" in ct[1:]) or ("-" in ct[1:]) or ("/" in ct):
                    ct = "(" + ct + ")"
                parts.append(ct + "*" + h)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    __str__ = to_text

    def __repr__(self):
        return "HbarSeries(%s)" % self.to_text()
