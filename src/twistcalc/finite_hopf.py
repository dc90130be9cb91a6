"""Table-driven finite-dimensional Hopf algebras.

Multiplication, coproduct, counit and antipode are finite tables over the
basis; elements are sparse dicts of Scalar coefficients.  Ships the group
algebra k[Z_n], the function algebra F(Z_n) and Sweedler's four-dimensional
Hopf algebra, which is neither commutative nor cocommutative.
"""

from __future__ import annotations

from .linear import _acc, extend_bilinear, extend_linear
from .scalars import Scalar


class FiniteHopf:
    def __init__(self, ctx, names, unit, mult, coproduct, counit, antipode):
        self.ctx = ctx
        self.names = tuple(names)
        self.dim = len(self.names)
        index = self._index = {n: k for k, n in enumerate(self.names)}

        def key(names):
            return tuple(index[n] for n in names) if isinstance(names, tuple) else index[names]

        def table(row):
            # sparse row over basis indices, zero entries dropped
            out = {}
            for names, v in row.items():
                _acc(out, key(names), ctx.scalar(v))
            return out

        self.unit = table(unit)
        self.mult = {key(pair): table(row) for pair, row in mult.items()}
        self.coproduct = {index[n]: table(row) for n, row in coproduct.items()}
        self.counit = table(counit)
        self.antipode = {index[n]: table(row) for n, row in antipode.items()}
        for i in range(self.dim):
            for j in range(self.dim):
                if (i, j) not in self.mult:
                    raise ValueError("multiplication table incomplete")
            if i not in self.coproduct or i not in self.antipode:
                raise ValueError("coproduct/antipode table incomplete")
        # counit must be an algebra map on the tables
        for (i, j), row in self.mult.items():
            lhs = sum((cv * self.counit.get(k, ctx.zero) for k, cv in row.items()),
                      ctx.zero)
            rhs = self.counit.get(i, ctx.zero) * self.counit.get(j, ctx.zero)
            if lhs != rhs:
                raise ValueError("counit is not an algebra map on (%s,%s)"
                                 % (self.names[i], self.names[j]))

    # -- sparse vector/tensor helpers -----------------------------------------

    def basis_vec(self, i):
        return {i: self.ctx.one}

    def mul_vec(self, u, v):
        return extend_bilinear(u, v, lambda i, j: self.mult[(i, j)])

    def delta_vec(self, u):
        return extend_linear(u, self.coproduct.__getitem__)

    def delta_on_leg(self, t, leg):
        return extend_linear(t, lambda key: {key[:leg] + ab + key[leg + 1:]: cv
                                             for ab, cv in self.coproduct[key[leg]].items()})

    def antipode_vec(self, u):
        return extend_linear(u, self.antipode.__getitem__)

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(self.dim):
                if self.mult[(i, j)] != self.mult[(j, i)]:
                    return False
        return True

    def is_cocommutative(self):
        for i in range(self.dim):
            flipped = {(b, a): c for (a, b), c in self.coproduct[i].items()}
            if flipped != self.coproduct[i]:
                return False
        return True

    def render(self, obj):
        if isinstance(obj, Scalar):
            return obj.to_text()
        parts = []
        for key in sorted(obj):
            c = obj[key]
            if isinstance(key, tuple):
                body = " ox ".join(self.names[k] for k in key)
            else:
                body = self.names[key]
            parts.append("%s*(%s)" % (c.to_text(), body))
        return " + ".join(parts) if parts else "0"


# -- builtin examples ------------------------------------------------------------


def group_algebra_z(ctx, n=2):
    """The group algebra k[Z_n]: group-likes, S(g) = g^{-1}."""
    names = ["g%d" % k for k in range(n)]
    mult = {(names[i], names[j]): {names[(i + j) % n]: 1}
            for i in range(n) for j in range(n)}
    return FiniteHopf(
        ctx, names,
        unit={names[0]: 1},
        mult=mult,
        coproduct={names[i]: {(names[i], names[i]): 1} for i in range(n)},
        counit={names[i]: 1 for i in range(n)},
        antipode={names[i]: {names[(-i) % n]: 1} for i in range(n)})


def function_algebra_z(ctx, n=2):
    """Functions on Z_n with pointwise product; Delta(f)(g,h) = f(gh)."""
    names = ["d%d" % k for k in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(names[i], names[j])] = {names[i]: 1} if i == j else {}
    coproduct = {}
    for k in range(n):
        row = {}
        for i in range(n):
            row[(names[i], names[(k - i) % n])] = 1
        coproduct[names[k]] = row
    return FiniteHopf(
        ctx, names,
        unit={names[k]: 1 for k in range(n)},
        mult=mult,
        coproduct=coproduct,
        counit={names[0]: 1, **{names[k]: 0 for k in range(1, n)}},
        antipode={names[k]: {names[(-k) % n]: 1} for k in range(n)})


def sweedler_h4(ctx):
    """Sweedler's Hopf algebra: g^2 = 1, x^2 = 0, xg = -gx.

    Delta(g) = g ox g, Delta(x) = x ox 1 + g ox x, S(g) = g, S(x) = -gx.
    The smallest Hopf algebra which is neither commutative nor cocommutative;
    its antipode squares to -1 on x.
    """
    e, g, x, gx = "1", "g", "x", "gx"
    names = [e, g, x, gx]
    mult = {
        (e, e): {e: 1}, (e, g): {g: 1}, (e, x): {x: 1}, (e, gx): {gx: 1},
        (g, e): {g: 1}, (g, g): {e: 1}, (g, x): {gx: 1}, (g, gx): {x: 1},
        (x, e): {x: 1}, (x, g): {gx: -1}, (x, x): {}, (x, gx): {},
        (gx, e): {gx: 1}, (gx, g): {x: -1}, (gx, x): {}, (gx, gx): {},
    }
    coproduct = {
        e: {(e, e): 1},
        g: {(g, g): 1},
        x: {(x, e): 1, (g, x): 1},
        # Delta(gx) = Delta(g)Delta(x) = gx ox g + 1 ox gx
        gx: {(gx, g): 1, (e, gx): 1},
    }
    return FiniteHopf(
        ctx, names,
        unit={e: 1},
        mult=mult,
        coproduct=coproduct,
        counit={e: 1, g: 1, x: 0, gx: 0},
        antipode={e: {e: 1}, g: {g: 1}, x: {gx: -1}, gx: {x: 1}})
