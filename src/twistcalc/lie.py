"""Universal enveloping algebras with PBW normal ordering and Hopf structure.

A Lie algebra is given by an ordered basis and structure constants; elements
of U(g) are kept in PBW normal form (sorted monomials in the basis order).
The rewrite rule e_j e_i -> e_i e_j + [e_j, e_i] for j > i terminates and is
confluent, so normal forms are canonical.  The coproduct, counit, antipode
and the total-symmetrization map used by the Gutt star product live here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .linear import (SCALARS, LinearCombination, _acc, extend_bilinear, extend_linear,
                     format_sum, monomial_text)
from .scalars import HbarSeries


class LiePresentation:
    """Ordered basis, structure constants and an optional *-involution.

    brackets maps a pair of basis names to the expansion of their bracket,
    itself a mapping from basis names to scalar coefficients, e.g.
    ``{("H", "E"): {"E": 2}}`` for [H, E] = 2E.  Missing pairs are zero.
    The Jacobi identity is validated eagerly: a silent non-Lie input would
    corrupt every downstream identity.
    """

    def __init__(self, ctx, names, brackets=None, involution=None):
        self.ctx = ctx
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        self.dim = len(self.names)
        self._index = {nm: k for k, nm in enumerate(self.names)}
        table = {}
        for (na, nb), expansion in (brackets or {}).items():
            ia, ib = self._index[na], self._index[nb]
            if ia == ib:
                raise ValueError("bracket [%s,%s] of a generator with itself" % (na, nb))
            row = {}
            for nk, cv in expansion.items():
                _acc(row, self._index[nk], ctx.scalar(cv))
            if (ia, ib) in table or (ib, ia) in table:
                raise ValueError("bracket [%s,%s] given twice" % (na, nb))
            table[(ia, ib)] = row
            table[(ib, ia)] = {k: -v for k, v in row.items()}
        self._table = table
        self._check_jacobi()
        if involution is None:
            self.involution = None
        else:
            eps = []
            for nm in self.names:
                sign = involution[nm]
                if sign not in (1, -1):
                    raise ValueError("involution signs must be +1 or -1")
                eps.append(sign)
            self.involution = tuple(eps)
            self._check_involution()
        self._word_cache = {}
        self._coproduct_cache = {}
        self._antipode_cache = {}

    # -- construction-time validation ---------------------------------------

    def bracket(self, i, j):
        return self._table.get((i, j), {})

    def _check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cv in self.bracket(a, b).items():
                            for l, dv in self.bracket(m, c).items():
                                _acc(acc, l, cv * dv)
                    if acc:
                        raise ValueError(
                            "structure constants violate the Jacobi identity on (%s,%s,%s)"
                            % (self.names[i], self.names[j], self.names[k]))

    def _check_involution(self):
        eps = self.involution
        for (i, j), row in self._table.items():
            # ([e_i, e_j])^* must equal [e_j^*, e_i^*] = eps_i eps_j [e_j, e_i]
            lhs = {k: v.conjugate() * eps[k] for k, v in row.items()}
            rhs = {k: v * (eps[i] * eps[j]) for k, v in self.bracket(j, i).items()}
            if lhs != rhs:
                raise ValueError(
                    "involution table violates [x,y]* = [y*,x*] on (%s,%s)"
                    % (self.names[i], self.names[j]))

    # -- PBW rewriting -------------------------------------------------------

    def normal_word(self, word):
        """Normal form of a product of basis letters as dict[exps -> Scalar]."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        desc = -1
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                desc = k
                break
        if desc < 0:
            exps = [0] * self.dim
            for i in word:
                exps[i] += 1
            result = {tuple(exps): self.ctx.one}
        else:
            j, i = word[desc], word[desc + 1]
            swapped = word[:desc] + (i, j) + word[desc + 2:]
            result = dict(self.normal_word(swapped))
            for m, cv in self.bracket(j, i).items():
                sub = word[:desc] + (m,) + word[desc + 2:]
                for exps, sv in self.normal_word(sub).items():
                    _acc(result, exps, sv * cv)
        self._word_cache[word] = result
        return result

    @staticmethod
    def word_of(exps):
        word = []
        for i, k in enumerate(exps):
            word.extend([i] * k)
        return tuple(word)

    def legwise_product(self, ka, kb):
        """Structure constants of the legwise product of two tuples of PBW
        monomials, as dict[tuple of exps -> Scalar]; a unit leg passes the
        other monomial through."""
        partial = {(): self.ctx.one}
        for ma, mb in zip(ka, kb):
            if not (any(ma) and any(mb)):
                m = ma if any(ma) else mb
                partial = {key + (m,): s for key, s in partial.items()}
            else:
                nf = self.normal_word(self.word_of(ma) + self.word_of(mb))
                partial = {key + (m,): s * sv
                           for key, s in partial.items() for m, sv in nf.items()}
        return partial

    # -- element constructors --------------------------------------------------

    def zero_el(self):
        return PBWElement(self, {})

    def unit(self, coeff=1):
        return self.monomial((0,) * self.dim, coeff)

    def generator(self, name):
        exps = [0] * self.dim
        exps[self._index[name]] = 1
        return self.monomial(tuple(exps))

    def monomial(self, exps, coeff=1):
        return self.element({exps: coeff})

    def element(self, terms):
        """Element from {exps: coefficient}; coefficients may be int/Scalar/series."""
        out = {}
        for exps, coeff in terms.items():
            c = coeff if isinstance(coeff, HbarSeries) else self.ctx.series([coeff])
            if not c.is_zero:
                out[tuple(exps)] = c
        return PBWElement(self, out)

    # -- cached Hopf structure on monomials -------------------------------------

    def coproduct_monomial(self, exps):
        """Delta of a PBW monomial as dict[(exps, exps) -> Scalar]."""
        cached = self._coproduct_cache.get(exps)
        if cached is not None:
            return cached
        unit = (0,) * self.dim
        terms = {(unit, unit): self.ctx.one}
        for i, k in enumerate(exps):
            for _ in range(k):
                new = {}
                for (ma, mb), cv in terms.items():
                    for ma2, sv in self._append_letter(ma, i).items():
                        key = (ma2, mb)
                        _acc(new, key, cv * sv)
                    for mb2, sv in self._append_letter(mb, i).items():
                        key = (ma, mb2)
                        _acc(new, key, cv * sv)
                terms = new
        self._coproduct_cache[exps] = terms
        return terms

    def _append_letter(self, exps, letter):
        if all(letter >= j or exps[j] == 0 for j in range(self.dim)):
            # appending in order needs no rewriting
            out = list(exps)
            out[letter] += 1
            return {tuple(out): self.ctx.one}
        return self.normal_word(self.word_of(exps) + (letter,))

    def antipode_monomial(self, exps):
        """S of a PBW monomial as dict[exps -> Scalar]."""
        cached = self._antipode_cache.get(exps)
        if cached is not None:
            return cached
        word = self.word_of(exps)
        rev = tuple(reversed(word))
        sign = self.ctx.one if len(word) % 2 == 0 else -self.ctx.one
        result = {m: sv * sign for m, sv in self.normal_word(rev).items()}
        self._antipode_cache[exps] = result
        return result


class PBWElement(LinearCombination):
    """Normal-ordered element of U(g) with truncated hbar-series coefficients."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    @property
    def ctx(self):
        return self.alg.ctx

    def _like(self, terms):
        return PBWElement(self.alg, terms)

    def _space(self):
        return self.alg

    def _unit(self):
        return self.alg.unit()

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # -- ring operations ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        alg = self.alg
        return PBWElement(alg, extend_bilinear(
            self.terms, o.terms,
            lambda ma, mb: alg.normal_word(alg.word_of(ma) + alg.word_of(mb))))

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    # -- Hopf structure -----------------------------------------------------------

    def coproduct(self):
        """Delta as a TensorElement of arity 2 (algebra map, primitives split)."""
        from .tensors import TensorElement
        return TensorElement(self.alg, 2,
                             extend_linear(self.terms, self.alg.coproduct_monomial))

    def antipode(self):
        return PBWElement(self.alg, extend_linear(self.terms, self.alg.antipode_monomial))

    def counit(self):
        return self.coeff((0,) * self.alg.dim)

    def star(self):
        """The *-involution extended as an antilinear anti-homomorphism."""
        alg = self.alg
        eps = alg.involution
        if eps is None:
            raise ValueError("presentation has no involution table")
        # (e^m)^* is the reversed word, times eps_i for every letter e_i
        conj = {}
        for m, c in self.terms.items():
            odd = sum(k for k, e in zip(m, eps) if e == -1) % 2
            conj[m] = c.conjugate() * (-1 if odd else 1)
        return PBWElement(alg, extend_linear(
            conj, lambda m: alg.normal_word(tuple(reversed(alg.word_of(m))))))

    # -- printing --------------------------------------------------------------------

    def to_text(self):
        names = self.alg.names
        return format_sum((self.terms[m].to_text(), monomial_text(names, m))
                          for m in sorted(self.terms, key=lambda e: (sum(e), e)))

    __str__ = to_text


# -- standard presentations ------------------------------------------------------


def so21(ctx, names=("H", "E", "Ep"), with_involution=True):
    """so(2,1) in the basis [H,E]=2E, [H,E']=-2E', [E',E]=H, all anti-Hermitian."""
    h, e, ep = names
    inv = {h: -1, e: -1, ep: -1} if with_involution else None
    return LiePresentation(
        ctx, names,
        brackets={(h, e): {e: 2}, (h, ep): {ep: -2}, (ep, e): {h: 1}},
        involution=inv)


def sl2(ctx, names=("E", "F", "H")):
    """sl(2) in the Chevalley basis [H,E]=2E, [H,F]=-2F, [E,F]=H."""
    e, f, h = names
    return LiePresentation(
        ctx, names,
        brackets={(h, e): {e: 2}, (h, f): {f: -2}, (e, f): {h: 1}})


def abelian(ctx, names, anti_hermitian=False):
    inv = {nm: -1 for nm in names} if anti_hermitian else None
    return LiePresentation(ctx, names, brackets={}, involution=inv)


def heisenberg(ctx, names=("X", "Y", "Z")):
    """[X,Y]=Z with Z central."""
    x, y, z = names
    return LiePresentation(ctx, names, brackets={(x, y): {z: 1}})


# -- Gutt symmetrization --------------------------------------------------------


def symmetrize(alg, poly_terms, degree_bound=4):
    """Total symmetrization of a polynomial on the dual of g into U(g).

    poly_terms maps exponent tuples (over the basis of g) to series
    coefficients; a monomial of degree n is sent to hbar^n/n! times the sum
    of all letter orderings.
    """
    out = {}
    for exps, coeff in poly_terms.items():
        n = sum(exps)
        if n > degree_bound:
            raise ValueError("degree %d exceeds the symmetrization bound %d" % (n, degree_bound))
        c = coeff if isinstance(coeff, HbarSeries) else alg.ctx.series([coeff])
        word = alg.word_of(exps)
        acc = {}
        for sigma in permutations(word):
            for m, sv in alg.normal_word(sigma).items():
                _acc(acc, m, sv)
        factor = c.shift(n) * Fraction(1, _fact(n))
        for m, sv in acc.items():
            _acc(out, m, factor * sv)
    return PBWElement(alg, out)


def unsymmetrize(alg, el, degree_bound=4):
    """Inverse of symmetrize on the bounded-degree subspace.

    Solved triangularly by degree: the top-degree part of symmetrize(x^K) is
    hbar^|K| e^K, so peeling from the highest degree recovers the polynomial.
    Coefficients above truncation order are lost, so inputs must keep
    degree + hbar-order within the engine's truncation.
    """
    residue = el
    out = {}
    for deg in range(degree_bound, -1, -1):
        layer = {m: c for m, c in residue.terms.items() if sum(m) == deg}
        if not layer:
            continue
        piece = {}
        for m, c in layer.items():
            piece[m] = c.divide_hbar(deg)
        for m, c in piece.items():
            _acc(out, m, c)
        residue = residue - symmetrize(alg, piece, degree_bound)
    if not residue.is_zero:
        raise ValueError("element is not in the image of symmetrize up to degree %d"
                         % degree_bound)
    return out


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
