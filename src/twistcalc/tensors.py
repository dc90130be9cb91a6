"""Tensor powers of an enveloping algebra in leg notation.

A TensorElement of arity n is a finite sum of n-tuples of PBW monomials with
series coefficients; every leg is kept in normal form and tuples are merged,
so equality is decidable and canonical.  Leg embeddings realize the usual
F_12, F_21, F_13 notation, and the coproduct can be spliced into any leg.
"""

from __future__ import annotations

from .lie import PBWElement
from .linear import (SCALARS, LinearCombination, _acc, extend_bilinear, extend_linear,
                     monomial_text, nilpotent_exp, unipotent_inverse, wrap_coefficient)


class TensorElement(LinearCombination):
    __slots__ = ("alg", "arity")

    def __init__(self, alg, arity, terms):
        self.alg = alg
        self.arity = arity
        self.terms = terms

    @property
    def ctx(self):
        return self.alg.ctx

    def _like(self, terms):
        return TensorElement(self.alg, self.arity, terms)

    def _space(self):
        return (self.alg, self.arity)

    def _unit(self):
        return TensorElement.unit(self.alg, self.arity)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def unit(cls, alg, arity):
        one = (0,) * alg.dim
        return cls(alg, arity, {(one,) * arity: alg.ctx.series([1])})

    @classmethod
    def zero(cls, alg, arity):
        return cls(alg, arity, {})

    @classmethod
    def from_legs(cls, *legs):
        """Tensor product of the factors in order: a PBW element fills one leg,
        a tensor as many legs as its arity."""
        alg = legs[0].alg
        one = alg.ctx.one
        terms = {(): alg.ctx.series([1])}
        arity = 0
        for leg in legs:
            if leg.alg is not alg:
                raise ValueError("legs from different algebras")
            if isinstance(leg, PBWElement):
                leg = cls(alg, 1, {(m,): c for m, c in leg.terms.items()})
            terms = extend_bilinear(terms, leg.terms, lambda ka, kb: {ka + kb: one})
            arity += leg.arity
        return cls(alg, arity, terms)

    # -- multiplication -------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TensorElement(self.alg, self.arity,
                             extend_bilinear(self.terms, o.terms, self.alg.legwise_product))

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def inverse(self):
        """Inverse of 1 + O(hbar) via the geometric series, exact under truncation."""
        one = self._unit()
        if any(not c.coeff(0).is_zero for c in (self - one).terms.values()):
            raise ValueError("tensor inverse implemented only for 1 + O(hbar)")
        return unipotent_inverse(self, one, self.ctx.order)

    def exp(self):
        """exp of a tensor with zero hbar-order-0 part (finite by truncation)."""
        if any(not c.coeff(0).is_zero for c in self.terms.values()):
            raise ValueError("tensor exp requires the order-0 part to vanish")
        return nilpotent_exp(self, self._unit(), self.ctx.order)

    # -- leg operations ----------------------------------------------------------------

    def leg_embed(self, positions, arity):
        """Place the legs of this tensor at the given positions, 1 elsewhere.

        The order of positions realizes the flip: embedding an arity-2 tensor
        at (2, 1) produces the 21-swap.
        """
        if len(positions) != self.arity:
            raise ValueError("need exactly one position per leg")
        if len(set(positions)) != len(positions):
            raise ValueError("positions must be distinct")
        if any(p < 1 or p > arity for p in positions):
            raise ValueError("positions out of range for arity %d" % arity)
        one = (0,) * self.alg.dim
        out = {}
        for key, c in self.terms.items():
            new = [one] * arity
            for leg, pos in enumerate(positions):
                new[pos - 1] = key[leg]
            _acc(out, tuple(new), c)
        return TensorElement(self.alg, arity, out)

    def permute(self, perm):
        """Reorder legs: new leg k is old leg perm[k] (0-based)."""
        out = {}
        for key, c in self.terms.items():
            _acc(out, tuple(key[p] for p in perm), c)
        return TensorElement(self.alg, self.arity, out)

    def flip(self):
        """The 21-swap of an arity-2 tensor."""
        if self.arity != 2:
            raise ValueError("flip is for arity 2")
        return self.permute((1, 0))

    def map_leg(self, leg, monomial_map):
        """Apply a linear map (given on monomials as dict[exps -> Scalar]) to a leg."""
        if not 1 <= leg <= self.arity:
            raise ValueError("invalid leg %d" % leg)
        return TensorElement(self.alg, self.arity, extend_linear(
            self.terms, lambda key: {key[: leg - 1] + (m,) + key[leg:]: sv
                                     for m, sv in monomial_map(key[leg - 1]).items()}))

    def antipode_on_leg(self, leg):
        return self.map_leg(leg, self.alg.antipode_monomial)

    def expand_leg(self, leg, monomial_expand, extra):
        """Splice an expansion of one leg into `extra` legs.

        monomial_expand maps a monomial to dict[tuple-of-monomials -> series
        or Scalar] of arity `extra`; the result has arity n - 1 + extra.
        """
        if not 1 <= leg <= self.arity:
            raise ValueError("invalid leg %d" % leg)
        return TensorElement(self.alg, self.arity - 1 + extra, extend_linear(
            self.terms, lambda key: {key[: leg - 1] + tuple(ms) + key[leg:]: sv
                                     for ms, sv in monomial_expand(key[leg - 1]).items()}))

    def coproduct_on_leg(self, leg):
        """Apply the coproduct to one leg, splicing the result in place."""
        return self.expand_leg(leg, self.alg.coproduct_monomial, 2)

    def counit_on_leg(self, leg):
        """Contract one leg with the counit (arity decreases by one)."""
        if not 1 <= leg <= self.arity:
            raise ValueError("invalid leg %d" % leg)
        if self.arity == 1:
            raise ValueError("cannot drop the only leg; use to_pbw and counit")
        unit = (0,) * self.alg.dim
        out = {}
        for key, c in self.terms.items():
            if key[leg - 1] == unit:
                _acc(out, key[: leg - 1] + key[leg:], c)
        return TensorElement(self.alg, self.arity - 1, out)

    def contract_mul(self):
        """Multiply all legs together in order, landing in U(g)."""
        alg = self.alg
        return PBWElement(alg, extend_linear(
            self.terms, lambda key: alg.normal_word(sum(map(alg.word_of, key), ()))))

    def to_pbw(self):
        """View an arity-1 tensor as a PBW element."""
        if self.arity != 1:
            raise ValueError("only arity-1 tensors are PBW elements")
        return PBWElement(self.alg, {key[0]: c for key, c in self.terms.items()})

    def star_legwise(self):
        """Legwise *-involution with conjugated coefficients (no leg reversal)."""
        out = TensorElement.zero(self.alg, self.arity)
        for key, c in self.terms.items():
            legs = [self.alg.monomial(m).star() for m in key]
            out = out + TensorElement.from_legs(*legs).scale(c.conjugate())
        return out

    # -- printing ------------------------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        names = self.alg.names
        parts = []
        for key in sorted(self.terms, key=lambda k: (tuple(sum(e) for e in k), k)):
            body = " ox ".join(monomial_text(names, m) or "1" for m in key)
            ct = self.terms[key].to_text()
            parts.append("(" + body + ")" if ct == "1"
                         else wrap_coefficient(ct) + "*(" + body + ")")
        return " + ".join(parts)

    __str__ = to_text
