"""Drinfel'd twists and their derived structures.

Construction and exact verification of twists (normalization, 2-cocycle),
twisted coproducts and antipodes, triangular R-matrices with hexagon/QYBE
checks, unitarity, classical r-matrices with the classical Yang-Baxter
residuals, symplectic leaves, and twist composition.

The host is always a cocommutative U(g) carried by a LiePresentation, so the
undeformed R-matrix is 1 ox 1 and every twisted R-matrix F_21 F^{-1} is
triangular.
"""

from __future__ import annotations

from fractions import Fraction

from .linear import LinearCombination, _acc, nilpotent_log1p, sort_sign
from .reports import Report
from .tensors import TensorElement


class Twist:
    """A normalized 2-cocycle F in U(g) ox U(g), with cached inverse.

    Construction verifies the twist axioms up to the engine's truncation
    order unless check=False is passed (used to probe non-examples).
    """

    def __init__(self, tensor, check=True):
        self.alg = tensor.alg
        self.tensor = tensor
        self.inv = tensor.inverse()
        self._beta = None
        self._beta_inv = None
        if check:
            rep = verify_twist(self)
            if not rep.passed:
                raise ValueError("not a Drinfel'd twist:\n" + rep.format_text())

    @property
    def ctx(self):
        return self.alg.ctx

    # -- twisted Hopf structure -------------------------------------------------

    def beta(self):
        """beta = F_1 S(F_2), invertible with inverse S(F^-1_1) F^-1_2."""
        if self._beta is None:
            self._beta = self.tensor.antipode_on_leg(2).contract_mul()
        return self._beta

    def beta_inv(self):
        if self._beta_inv is None:
            self._beta_inv = self.inv.antipode_on_leg(1).contract_mul()
        return self._beta_inv

    def delta_f_on_leg(self, tensor, leg):
        """Apply the twisted coproduct to one leg of a tensor, splicing it in.

        Delta_F(m) = F Delta(m) F^{-1} extends linearly, and F placed on the
        two new legs is 1 elsewhere, so one conjugation serves every term.
        """
        pos, arity = (leg, leg + 1), tensor.arity + 1
        return (self.tensor.leg_embed(pos, arity) * tensor.coproduct_on_leg(leg)
                * self.inv.leg_embed(pos, arity))


def trivial_twist(alg):
    return Twist(TensorElement.unit(alg, 2), check=False)


def abelian_twist(alg, pairs, scale=1):
    """exp(scale * hbar * sum_k x_k ox y_k) for pairwise commuting generators.

    Use scale=i for the unitary convention exp(i hbar r).
    """
    ctx = alg.ctx
    elems = []
    for x, y in pairs:
        ex = alg.generator(x) if isinstance(x, str) else x
        ey = alg.generator(y) if isinstance(y, str) else y
        elems.append((ex, ey))
    flat = [e for pair in elems for e in pair]
    for k, u in enumerate(flat):
        for v in flat[k + 1:]:
            if not (u * v - v * u).is_zero:
                raise ValueError("abelian twist requires pairwise commuting generators")
    arg = TensorElement.zero(alg, 2)
    for ex, ey in elems:
        arg = arg + TensorElement.from_legs(ex, ey)
    arg = arg.scale(ctx.hbar() * ctx.scalar(scale))
    return Twist(arg.exp())


def jordanian_twist(alg, h="H", e="E", scale=1):
    """exp(H/2 ox log(1 + scale*hbar*E)) for [H, E] = 2E.

    scale=i gives the unitary variant used for the hyperboloid geometry.
    """
    ctx = alg.ctx
    eh = alg.generator(h) if isinstance(h, str) else h
    ee = alg.generator(e) if isinstance(e, str) else e
    if not ((eh * ee - ee * eh) - ee.scale(2)).is_zero:
        raise ValueError("jordanian twist requires [H, E] = 2E")
    # log(1 + s*hbar*E) is a finite sum by truncation
    log_leg = nilpotent_log1p(ee.scale(ctx.hbar() * ctx.scalar(scale)), ctx.order)
    return Twist(TensorElement.from_legs(eh.scale(Fraction(1, 2)), log_leg).exp())


def verify_twist(twist):
    """Residuals of normalization (both sides) and the 2-cocycle condition."""
    tensor = twist.tensor if isinstance(twist, Twist) else twist
    alg = tensor.alg
    rep = Report("twist axioms")
    one1 = TensorElement.unit(alg, 1)
    rep.run("normalization left", lambda: tensor.counit_on_leg(1) - one1)
    rep.run("normalization right", lambda: tensor.counit_on_leg(2) - one1)
    if isinstance(twist, Twist):
        inv = twist.inv
    else:
        inv = tensor.inverse()
    one2 = TensorElement.unit(alg, 2)
    rep.run("invertibility", lambda: tensor * inv - one2)

    def cocycle():
        lhs = tensor.leg_embed((1, 2), 3) * tensor.coproduct_on_leg(1)
        rhs = tensor.leg_embed((2, 3), 3) * tensor.coproduct_on_leg(2)
        return lhs - rhs

    rep.run("2-cocycle", cocycle)
    return rep


def twisted_coproduct(twist, el):
    """Delta_F(xi) = F Delta(xi) F^{-1}."""
    return twist.tensor * el.coproduct() * twist.inv


def twisted_antipode(twist, el):
    """S_F(xi) = beta S(xi) beta^{-1} with beta = F_1 S(F_2)."""
    return twist.beta() * el.antipode() * twist.beta_inv()


class RMatrix:
    """Triangular structure R = F_21 F^{-1} with cached inverse."""

    def __init__(self, tensor, inv=None):
        self.alg = tensor.alg
        self.tensor = tensor
        self.inv = inv if inv is not None else tensor.inverse()
        if not (self.tensor * self.inv == TensorElement.unit(self.alg, 2)):
            raise ValueError("R-matrix inverse fails")


def r_matrix(twist):
    """R_F = F_21 F^{-1} (the undeformed R of the cocommutative host is 1 ox 1)."""
    r = twist.tensor.flip() * twist.inv
    rinv = twist.tensor * twist.inv.flip()
    return RMatrix(r, rinv)


def verify_rmatrix(twist):
    """Quasi-cocommutativity, both hexagons, QYBE and triangularity of R_F."""
    rm = r_matrix(twist)
    alg = twist.alg
    rep = Report("R-matrix")
    r, rinv = rm.tensor, rm.inv

    def quasi_cocomm():
        residual = TensorElement.zero(alg, 2)
        for name in alg.names:
            d = twisted_coproduct(twist, alg.generator(name))
            residual = residual + (d.flip() - r * d * rinv)
        return residual

    rep.run("quasi-cocommutativity", quasi_cocomm)
    rep.run("hexagon (Delta_F ox id)", lambda:
            twist.delta_f_on_leg(r, 1)
            - r.leg_embed((1, 3), 3) * r.leg_embed((2, 3), 3))
    rep.run("hexagon (id ox Delta_F)", lambda:
            twist.delta_f_on_leg(r, 2)
            - r.leg_embed((1, 3), 3) * r.leg_embed((1, 2), 3))
    rep.run("quantum Yang-Baxter", lambda:
            r.leg_embed((1, 2), 3) * r.leg_embed((1, 3), 3) * r.leg_embed((2, 3), 3)
            - r.leg_embed((2, 3), 3) * r.leg_embed((1, 3), 3) * r.leg_embed((1, 2), 3))
    rep.run("triangularity R_21 = R^{-1}", lambda: r.flip() - rinv)
    return rep


def check_unitary(twist):
    """Unitarity F_1^* ox F_2^* = F^{-1}, plus S(beta) beta^* = 1."""
    alg = twist.alg
    if alg.involution is None:
        raise ValueError("host presentation has no involution table")
    rep = Report("unitary twist")
    rep.run("legwise star equals inverse", lambda:
            twist.tensor.star_legwise() - twist.inv)
    rep.run("S(beta) beta^* = 1", lambda:
            twist.beta().antipode() * twist.beta().star() - alg.unit())
    return rep


class _IndexTensor(LinearCombination):
    """Sum over tuples of basis indices of g with Scalar coefficients."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    @property
    def ctx(self):
        return self.alg.ctx

    def _like(self, terms):
        return type(self)(self.alg, terms)

    def _space(self):
        return self.alg

    def _zero_coeff(self):
        return self.ctx.zero


class ClassicalR(_IndexTensor):
    """Skew element of g ox g with Scalar coefficients (wedge storage)."""

    __slots__ = ()

    def __init__(self, alg, terms):
        out = {}
        for key, v in terms.items():
            _acc(out, key, alg.ctx.scalar(v))
        super().__init__(alg, out)
        for (i, j), v in out.items():
            if self.coeff((j, i)) != -v:
                raise ValueError("classical r-matrix coefficients must be skew")

    @classmethod
    def from_wedge(cls, alg, entries):
        """entries: {(name_i, name_j): coeff} meaning sum c * e_i wedge e_j."""
        rho = {}
        ctx = alg.ctx
        for (ni, nj), c in entries.items():
            i, j = alg._index[ni], alg._index[nj]
            cv = ctx.scalar(c)
            _acc(rho, (i, j), cv)
            _acc(rho, (j, i), -cv)
        return cls(alg, rho)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            if i < j:
                c = self.terms[(i, j)]
                parts.append("(%s)*(%s^%s)" % (c.to_text(),
                                               self.alg.names[i], self.alg.names[j]))
        return " + ".join(parts)


def classical_r(twist, normalization="difference"):
    """First-order data of a twist as a classical r-matrix.

    With F = 1 ox 1 + hbar rt + O(hbar^2), returns rt_21 - rt (the wedge
    form whose contraction gives the Poisson bracket of the star product);
    normalization="half" divides by two, the convention used when reading
    the r-matrix off a universal R-matrix.  Both are exposed because the
    sources use both and the engine does not decide between them.
    """
    alg = twist.alg
    rt = {}
    for (m1, m2), c in twist.tensor.terms.items():
        c1 = c.coeff(1)
        if c1.is_zero:
            continue
        if sum(m1) != 1 or sum(m2) != 1:
            raise ValueError("order-1 term of the twist is not in g ox g")
        i = m1.index(1)
        j = m2.index(1)
        _acc(rt, (i, j), c1)
    rho = {}
    for (i, j), v in rt.items():
        _acc(rho, (j, i), v)
        _acc(rho, (i, j), -v)
    if normalization == "half":
        rho = {k: v * Fraction(1, 2) for k, v in rho.items()}
    elif normalization != "difference":
        raise ValueError("normalization must be 'difference' or 'half'")
    return ClassicalR(alg, rho)


def cybe_check(r):
    """The classical Yang-Baxter image [r12,r13]+[r12,r23]+[r13,r23] in g^x3."""
    alg = r.alg
    ctx = alg.ctx
    acc = {}
    items = list(r.terms.items())
    for (s1, s2), cs in items:
        for (t1, t2), ct in items:
            c = cs * ct
            for m, bv in alg.bracket(s1, t1).items():
                _acc(acc, (m, s2, t2), c * bv)
            for m, bv in alg.bracket(s2, t1).items():
                _acc(acc, (s1, m, t2), c * bv)
            for m, bv in alg.bracket(s2, t2).items():
                _acc(acc, (s1, t1, m), c * bv)
    # the PBW exponent tuple of each basis letter
    letters = [tuple(int(k == idx) for k in range(alg.dim)) for idx in range(alg.dim)]
    return TensorElement(alg, 3, {tuple(letters[idx] for idx in key): ctx.series([c])
                                  for key, c in acc.items()})


class Wedge3(_IndexTensor):
    """Element of Lambda^3 g with Scalar coefficients (CYBE residual carrier)."""

    __slots__ = ()

    def to_text(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*(%s^%s^%s)"
                          % (c.to_text(), *(self.alg.names[i] for i in key))
                          for key, c in sorted(self.terms.items()))


def schouten_square(r):
    """[[r, r]] in Lambda^3 g via the exterior-algebra Gerstenhaber bracket."""
    alg = r.alg
    acc = {}

    def emit(i, j, k, c):
        key, sign = sort_sign((i, j, k))
        if sign:
            _acc(acc, key, c * sign)

    wedges = [((i, j), c) for (i, j), c in r.terms.items() if i < j]
    for (x1, x2), cx in wedges:
        for (y1, y2), cy in wedges:
            c = cx * cy
            # [[x1^x2, y1^y2]] expanded with signs (-1)^{i+j}
            for m, bv in alg.bracket(x1, y1).items():
                emit(m, x2, y2, c * bv)
            for m, bv in alg.bracket(x1, y2).items():
                emit(m, x2, y1, -(c * bv))
            for m, bv in alg.bracket(x2, y1).items():
                emit(m, x1, y2, -(c * bv))
            for m, bv in alg.bracket(x2, y2).items():
                emit(m, x1, y1, c * bv)
    return Wedge3(alg, acc)


def symplectic_leaf(r):
    """Basis of g_r = span{(alpha ox id)(r)}, verified closed under the bracket."""
    alg = r.alg
    ctx = alg.ctx
    n = alg.dim
    rows = []
    for i in range(n):
        row = [r.coeff((i, j)) for j in range(n)]
        if any(not v.is_zero for v in row):
            rows.append(row)
    basis_rows = _rref(rows, ctx)
    # bracket closure
    for u in basis_rows:
        for v in basis_rows:
            w = [ctx.zero] * n
            for i in range(n):
                if u[i].is_zero:
                    continue
                for j in range(n):
                    if v[j].is_zero:
                        continue
                    for m, bv in alg.bracket(i, j).items():
                        w[m] = w[m] + u[i] * v[j] * bv
            if any(not x.is_zero for x in w) and not _in_span(basis_rows, w, ctx):
                raise ValueError("symplectic leaf candidate is not bracket-closed")
    out = []
    for row in basis_rows:
        el = alg.zero_el()
        for j, cv in enumerate(row):
            if not cv.is_zero:
                el = el + alg.generator(alg.names[j]).scale(cv)
        out.append(el)
    return out


def _rref(rows, ctx):
    rows = [list(r) for r in rows]
    out = []
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    for col in range(ncols):
        pivot = None
        for r in rows:
            if not r[col].is_zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pivot[col].inverse()
        pivot = [v * inv for v in pivot]
        rows = [[rv[k] - rv[col] * pivot[k] for k in range(ncols)] for rv in rows]
        for prev in out:
            if not prev[col].is_zero:
                f = prev[col]
                for k in range(ncols):
                    prev[k] = prev[k] - f * pivot[k]
        out.append(pivot)
        pivot_cols.append(col)
        rows = [r for r in rows if any(not v.is_zero for v in r)]
    return out


def _in_span(basis_rows, vec, ctx):
    v = list(vec)
    ncols = len(v)
    for row in basis_rows:
        col = next(k for k in range(ncols) if not row[k].is_zero)
        if not v[col].is_zero:
            f = v[col]
            for k in range(ncols):
                v[k] = v[k] - f * row[k]
    return all(x.is_zero for x in v)


def compose_twists(f2, f1):
    """F2 F1 for F2 a twist on the F1-twisted bialgebra (Drinfel'd composition).

    F2 is verified to be normalized and a 2-cocycle with respect to Delta_F1
    before the product twist is formed and verified on the original host.
    """
    t2 = f2.tensor if isinstance(f2, Twist) else f2
    alg = t2.alg
    one1 = TensorElement.unit(alg, 1)
    if not (t2.counit_on_leg(1) - one1).is_zero:
        raise ValueError("F2 is not normalized")
    if not (t2.counit_on_leg(2) - one1).is_zero:
        raise ValueError("F2 is not normalized")
    lhs = t2.leg_embed((1, 2), 3) * f1.delta_f_on_leg(t2, 1)
    rhs = t2.leg_embed((2, 3), 3) * f1.delta_f_on_leg(t2, 2)
    if not (lhs - rhs).is_zero:
        raise ValueError("F2 is not a 2-cocycle with respect to the twisted coproduct")
    return Twist(t2 * f1.tensor)
