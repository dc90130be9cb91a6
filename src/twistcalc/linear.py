"""Sparse linear combinations and nilpotent series, shared by every container.

PBW elements, tensors, polynomial functions, multivectors, forms and
trivectors of a Lie algebra are all finite sums over a basis (PBW monomials,
tuples of them, coordinate monomials, wedge indices).  LinearCombination
stores such a sum as a dict {basis key: coefficient} that never holds a zero
coefficient, so `is_zero` and `==` are literal dict tests, and carries the
linear structure once.  `_acc` is the one accumulator that keeps dicts in
that form.  Products, coproducts and antipodes are given by structure
constants on basis keys; `extend_linear` and `extend_bilinear` extend such a
map to sums.  exp, log1p and the inverse of 1 + (nilpotent) are written once
for any unital ring whose elements of positive hbar-order are nilpotent by
truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import HbarSeries, Scalar

SCALARS = (int, Fraction, Scalar, HbarSeries)


def _acc(d, key, val):
    """d[key] += val, dropping the entry when the sum is zero."""
    old = d.get(key)
    new = val if old is None else old + val
    if new.is_zero:
        d.pop(key, None)
    else:
        d[key] = new


def extend_linear(terms, images):
    """Linear extension of a basis map: sum of c * images(k) over {k: c}.

    images(k) is {key: constant}; a unit constant passes c through unmultiplied.
    """
    out = {}
    for k, c in terms.items():
        for key, s in images(k).items():
            _acc(out, key, c if s.is_one else c * s)
    return out


def extend_bilinear(a, b, products):
    """Bilinear extension of a basis product: sum of ca * cb * products(ka, kb).

    products(ka, kb) is {key: constant}.  It is not called for a pair whose
    coefficient product ca * cb is zero, and a unit constant passes that
    product through unmultiplied.
    """
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            c = ca * cb
            if c.is_zero:
                continue
            for key, s in products(ka, kb).items():
                _acc(out, key, c if s.is_one else c * s)
    return out


class LinearCombination:
    """Finite sum {basis key: nonzero coefficient} in one space.

    A subclass stores its space (algebra, arity, chart) beside `terms` and
    provides `_like(terms)`, an element of the same space, and `_space()`,
    what two operands must share.  Where scalars embed (through the unit) it
    provides `_unit()`; coefficients that are not hbar series override
    `_zero_coeff()`.  Products, involutions and structure maps are each
    subclass's own.
    """

    __slots__ = ("terms", "_hash")

    def _like(self, terms):
        raise NotImplementedError

    def _space(self):
        raise NotImplementedError

    def _unit(self):
        return None

    def _zero_coeff(self):
        return self.ctx.series_zero()

    def _coerce(self, other):
        """other as an element of this space, or None if it is not one."""
        if type(other) is type(self):
            if other._space() != self._space():
                raise ValueError("%s operands from different spaces" % type(self).__name__)
            return other
        if isinstance(other, SCALARS):
            unit = self._unit()
            if unit is not None:
                return unit.scale(other)
        return None

    def _map(self, fn):
        """Apply fn to every coefficient, dropping those that become zero."""
        out = {}
        for k, c in self.terms.items():
            c = fn(c)
            if not c.is_zero:
                out[k] = c
        return self._like(out)

    # -- queries ----------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, key):
        c = self.terms.get(tuple(key))
        return self._zero_coeff() if c is None else c

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            _acc(out, k, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

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

    def scale(self, coeff):
        """Multiply every coefficient by coeff (a scalar, series or coefficient)."""
        if not isinstance(coeff, (HbarSeries, Scalar, LinearCombination)):
            coeff = self.ctx.scalar(coeff)
        return self._map(lambda c: c * coeff)

    def __pow__(self, n):
        unit = self._unit()
        if unit is None or not isinstance(n, int) or n < 0:
            return NotImplemented
        out = unit
        for _ in range(n):
            out = out * self
        return out

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        # containers are never mutated after construction, so the hash of a
        # memo key is computed once
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_text())


def sort_sign(indices):
    """(sorted indices, sign of the sorting permutation); (None, 0) on a repeat."""
    if len(set(indices)) != len(indices):
        return None, 0
    inversions = sum(a > b for p, a in enumerate(indices) for b in indices[p + 1:])
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


# -- printing ----------------------------------------------------------------------


def monomial_text(names, exps):
    """`x1^2*x3` for the exponents (2, 0, 1); empty for the unit monomial."""
    return "*".join(nm if k == 1 else "%s^%d" % (nm, k)
                    for nm, k in zip(names, exps) if k)


def wrap_coefficient(ct):
    """Parenthesize a coefficient's text unless it is a single signed factor."""
    if ("+" in ct[1:]) or ("-" in ct[1:]) or ("/" in ct) or (" " in ct):
        return "(" + ct + ")"
    return ct


def format_sum(pairs):
    """Print (coefficient text, basis text) terms as `c*basis + ...`.

    Unit coefficients print as the bare basis, an empty basis as the bare
    coefficient, and a leading minus sign folds into ` - `.
    """
    parts = []
    for ct, body in pairs:
        if not body:
            parts.append(wrap_coefficient(ct))
        elif ct == "1":
            parts.append(body)
        elif ct == "-1":
            parts.append("-" + body)
        else:
            parts.append(wrap_coefficient(ct) + "*" + body)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


# -- nilpotent series ---------------------------------------------------------------


def nilpotent_exp(u, one, order):
    """sum_n u^n/n!, for u whose powers vanish beyond `order` (finite sum)."""
    out = one
    p = one
    fact = 1
    for k in range(1, order + 1):
        p = p * u
        if p.is_zero:
            break
        fact *= k
        out = out + p * Fraction(1, fact)
    return out


def nilpotent_log1p(u, order):
    """log(1 + u) = sum_n (-1)^(n+1) u^n/n, for u nilpotent within `order`."""
    out = u
    p = u
    for k in range(2, order + 1):
        p = p * u
        if p.is_zero:
            break
        out = out + p * Fraction((-1) ** (k + 1), k)
    return out


def unipotent_inverse(x, one, order):
    """x^{-1} = sum_n (1 - x)^n, for x with 1 - x nilpotent within `order`."""
    v = one - x
    out = one
    p = one
    for _ in range(order):
        p = p * v
        if p.is_zero:
            break
        out = out + p
    return out
