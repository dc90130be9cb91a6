"""Twist star products, twisted Cartan operators and braided verifications.

The braided operations on the twisted algebra are computed through the twist
formulas (precompose the classical operation with the inverse twist acting
legwise); the braided Cartan identities are then verified with graded braided
commutators taken with respect to R_F = F_21 F^{-1}.  Also: the Moyal-Weyl
and Gutt star products, Poisson brackets from classical r-matrices, and
twisted *-involutions for unitary twists.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (CoordSystem, DiffForm, PolyFunction, Realization,
                       VectorField, exterior_derivative, insert, lie_form,
                       schouten)
from .lie import abelian, symmetrize, unsymmetrize
from .reports import Report
from .scalars import Scalar
from .twists import Twist, check_unitary, r_matrix


def _scale_obj(obj, coeff):
    if isinstance(obj, PolyFunction):
        return obj * coeff
    return obj.scale(coeff)


class TwistedCalculus:
    """Star product and twisted Cartan operators for (realization, twist).

    Heavily repeated monomial actions are memoized; all results are exact.
    """

    def __init__(self, real, twist):
        if real.alg is not twist.alg:
            raise ValueError("realization and twist live on different algebras")
        self.real = real
        self.twist = twist
        self.chart = real.chart
        self.rmatrix = r_matrix(twist)
        self._act_cache = {}
        self._op_cache = {}
        self._unitary = None

    # -- cached monomial action -------------------------------------------------

    def _act(self, exps, obj):
        key = (exps, obj)
        out = self._act_cache.get(key)
        if out is None:
            out = self.real.act_monomial(exps, obj)
            self._act_cache[key] = out
        return out

    def _pairwise(self, tensor, first, second, combine):
        """sum over tensor terms of coeff * combine(m1 |> first, m2 |> second)."""
        out = None
        for (m1, m2), c in tensor.terms.items():
            piece = combine(self._act(m1, first), self._act(m2, second))
            piece = _scale_obj(piece, c)
            out = piece if out is None else out + piece
        return out

    # -- star product --------------------------------------------------------------

    def star(self, f, g):
        """f star g = mu(F^{-1} |> (f ox g))."""
        out = self._pairwise(self.twist.inv, f, g, lambda u, v: u * v)
        return self.chart.zero_fn() if out is None else out

    def braided_opposite(self, f, g):
        """(R_F1^{-1} |> f) star (R_F2^{-1} |> g); equals g star f."""
        out = self._pairwise(self.rmatrix.inv, f, g, self.star)
        return self.chart.zero_fn() if out is None else out

    # -- twisted graded operations ---------------------------------------------------

    def wedge(self, aa, bb):
        """Twisted wedge of two multivectors or two forms."""
        return self._pairwise(self.twist.inv, aa, bb, lambda u, v: u.wedge(v))

    def schouten(self, x, y):
        """Twisted Schouten bracket [[F1^{-1}|>X, F2^{-1}|>Y]]."""
        if isinstance(x, VectorField):
            x = x.to_multivector()
        if isinstance(y, VectorField):
            y = y.to_multivector()
        return self._pairwise(self.twist.inv, x, y, schouten)

    def lie(self, x, omega):
        """Twisted Lie derivative L_{F1^{-1}|>X}(F2^{-1}|>omega)."""
        if isinstance(x, VectorField):
            x = x.to_multivector()
        key = ("L", x, omega)
        out = self._op_cache.get(key)
        if out is None:
            out = self._pairwise(self.twist.inv, x, omega, lie_form)
            self._op_cache[key] = out
        return out

    def insert(self, x, omega):
        """Twisted insertion i_{F1^{-1}|>X}(F2^{-1}|>omega)."""
        if isinstance(x, VectorField):
            x = x.to_multivector()
        key = ("i", x, omega)
        out = self._op_cache.get(key)
        if out is None:
            out = self._pairwise(self.twist.inv, x, omega, insert)
            self._op_cache[key] = out
        return out

    def d(self, omega):
        """The de Rham differential is undeformed."""
        return exterior_derivative(omega)

    def lie_fn(self, x, f):
        """Twisted Lie derivative of a function: (F1^{-1}|>X)(F2^{-1}|>f)."""
        out = self._pairwise(self.twist.inv, x, f,
                             lambda u, v: u.apply(v))
        return self.chart.zero_fn() if out is None else out

    # -- twisted involution -----------------------------------------------------------

    def is_unitary(self):
        if self._unitary is None:
            self._unitary = check_unitary(self.twist).passed
        return self._unitary

    def involution(self, obj):
        """obj^{*F} = S(beta) |> obj^*; requires a unitary twist."""
        if not self.is_unitary():
            raise ValueError("twisted involution requires a unitary twist")
        starred = obj.star()
        s_beta = self.twist.beta().antipode()
        return self.real.act(s_beta, starred)

    # -- braided commutators and the Cartan report ---------------------------------------

    def _apply_op(self, kind, x, omega):
        if kind == "L":
            return self.lie(x, omega)
        if kind == "i":
            return self.insert(x, omega)
        raise ValueError(kind)

    @staticmethod
    def _op_degree(kind, k):
        return 1 - k if kind == "L" else -k

    def braided_commutator(self, op_a, op_b, omega):
        """[A_X, B_Y]_R omega with the braiding acting on the parameters.

        op_a, op_b: ("L"|"i", X, k) with X a homogeneous multivector of
        degree k.  The sign is (-1)^{deg A * deg B} with operator degrees.
        """
        kind_a, x, k = op_a
        kind_b, y, l = op_b
        lhs = self._apply_op(kind_a, x, self._apply_op(kind_b, y, omega))
        sign = -1 if (self._op_degree(kind_a, k) * self._op_degree(kind_b, l)) % 2 else 1
        rhs = None
        for (m1, m2), c in self.rmatrix.inv.terms.items():
            yb = self._act(m1, y)
            xb = self._act(m2, x)
            piece = self._apply_op(kind_b, yb, self._apply_op(kind_a, xb, omega))
            piece = _scale_obj(piece, c)
            rhs = piece if rhs is None else rhs + piece
        if rhs is None:
            rhs = DiffForm.zero(self.chart)
        return lhs - rhs.scale(self.chart.constant(sign))

    def default_samples(self):
        """Coordinate fields, realized generators, wedges up to degree 2 and
        coordinate forms up to degree 3 with linear coefficients."""
        chart = self.chart
        coords = [chart.coordinate_field(i).to_multivector() for i in range(chart.dim)]
        gens = [self.real.field(n).to_multivector() for n in self.real.alg.names]
        x1 = chart.coordinate(0)
        deg1 = coords + gens
        deg2 = [coords[0].wedge(coords[1 % chart.dim])]
        if len(gens) >= 2:
            deg2.append(gens[0].wedge(gens[1]))
        mvs = [(m, 1) for m in deg1] + [(m, 2) for m in deg2]
        forms = [DiffForm.from_function(x1),
                 chart.basis_form(0),
                 chart.basis_form(1 % chart.dim).scale(x1),
                 chart.basis_form(0).wedge(chart.basis_form(1 % chart.dim)),
                 chart.basis_form(0).wedge(
                     chart.basis_form(1 % chart.dim)).scale(x1)]
        if chart.dim >= 3:
            vol = chart.basis_form(0).wedge(chart.basis_form(1)).wedge(
                chart.basis_form(2))
            forms.append(vol.scale(x1))
        return mvs, forms

    def cartan_report(self, samples=None, rmatrix=None):
        """All six braided Cartan identities on the sample set, exact residuals.

        rmatrix overrides R_F (used to demonstrate that a corrupted braiding
        breaks the identities).
        """
        rep = Report("braided Cartan calculus")
        saved = self.rmatrix
        if rmatrix is not None:
            self.rmatrix = rmatrix
        try:
            mvs, forms = samples if samples is not None else self.default_samples()
            pairs = []
            for idx, (x, k) in enumerate(mvs):
                y, l = mvs[(idx + 1) % len(mvs)]
                pairs.append(((x, k), (y, l)))
                y2, l2 = mvs[(idx + len(mvs) // 2) % len(mvs)]
                pairs.append(((x, k), (y2, l2)))

            def form_of_degree(minimum):
                # pick forms that make the identity nontrivial by degree count
                out = [om for om in forms
                       if om.is_zero or max(om.degrees()) >= minimum]
                return out or forms[:1]

            def ident_lie_lie():
                res = DiffForm.zero(self.chart)
                for ((x, k), (y, l)) in pairs:
                    for om in form_of_degree(k + l - 2)[:2]:
                        br = self.schouten(x, y)
                        res = res + (self.braided_commutator(("L", x, k),
                                                             ("L", y, l), om)
                                     - self.lie(br, om))
                return res

            def ident_lie_ins():
                res = DiffForm.zero(self.chart)
                for ((x, k), (y, l)) in pairs:
                    for om in form_of_degree(k + l - 1)[:2]:
                        br = self.schouten(x, y)
                        res = res + (self.braided_commutator(("L", x, k),
                                                             ("i", y, l), om)
                                     - self.insert(br, om))
                return res

            def ident_lie_d():
                res = DiffForm.zero(self.chart)
                for (x, k) in mvs:
                    for om in forms:
                        sign = -1 if (1 - k) % 2 else 1
                        res = res + (self.lie(x, self.d(om))
                                     - self.d(self.lie(x, om)).scale(sign))
                return res

            def ident_ins_ins():
                res = DiffForm.zero(self.chart)
                for ((x, k), (y, l)) in pairs:
                    for om in form_of_degree(k + l)[:2]:
                        res = res + self.braided_commutator(("i", x, k),
                                                            ("i", y, l), om)
                return res

            def ident_ins_d():
                res = DiffForm.zero(self.chart)
                for (x, k) in mvs:
                    for om in forms:
                        sign = -1 if k % 2 else 1
                        res = res + (self.insert(x, self.d(om))
                                     - self.d(self.insert(x, om)).scale(sign)
                                     - self.lie(x, om))
                return res

            def ident_d_d():
                res = DiffForm.zero(self.chart)
                for om in forms:
                    res = res + self.d(self.d(om))
                return res

            rep.run("[L_X, L_Y]_R = L_[[X,Y]]_F", ident_lie_lie)
            rep.run("[L_X, i_Y]_R = i_[[X,Y]]_F", ident_lie_ins)
            rep.run("[L_X, d]_R = 0", ident_lie_d)
            rep.run("[i_X, i_Y]_R = 0", ident_ins_ins)
            rep.run("[i_X, d]_R = L_X", ident_ins_d)
            rep.run("[d, d]_R = 0", ident_d_d)
        finally:
            self.rmatrix = saved
        return rep


# -- constant Poisson structures and the Moyal-Weyl product ---------------------------


class ConstantPoisson:
    """Skew matrix pi^{ij} of scalars over the coordinate chart."""

    def __init__(self, chart, entries):
        self.chart = chart
        ctx = chart.ctx
        self.matrix = {}
        for (i, j), v in entries.items():
            val = v if isinstance(v, Scalar) else ctx.scalar(v)
            if not val.is_zero:
                self.matrix[(i, j)] = val
        for (i, j), v in list(self.matrix.items()):
            if self.matrix.get((j, i), ctx.zero) != -v:
                raise ValueError("Poisson matrix must be skew")

    def pairs(self):
        return self.matrix.items()


def moyal_star(pi, f, g, sign=1):
    """exp(sign * hbar * sum_ij pi^{ij} d_i ox d_j) then multiply, truncated.

    The full skew sum runs over both index orders, so [x^i, x^j]_star
    equals 2 hbar pi^{ij} in first order.
    """
    chart = pi.chart
    ctx = chart.ctx
    out = f * g
    layer = [(f, g, ctx.one)]
    fact = 1
    for n in range(1, ctx.order + 1):
        new = []
        for (u, v, c) in layer:
            for (i, j), p in pi.pairs():
                du = u.diff(i)
                if du.is_zero:
                    continue
                dv = v.diff(j)
                if dv.is_zero:
                    continue
                new.append((du, dv, c * p))
        if not new:
            break
        layer = new
        fact *= n
        coeff = ctx.series([0] * n + [Fraction(sign ** n, fact)])
        acc = chart.zero_fn()
        for (u, v, c) in layer:
            acc = acc + (u * v) * c
        out = out + acc * coeff
    return out


def moyal_setup(pi, sign=-1):
    """Abelian twist exp(sign*hbar*sum pi^{ij} T_i ox T_j) with T_i realized as d_i.

    With the default sign=-1 the induced star product of the twist coincides
    with moyal_star exactly (the inverse twist carries the + exponent).
    """
    from .tensors import TensorElement
    chart = pi.chart
    ctx = chart.ctx
    alg = abelian(ctx, tuple("T%d" % (k + 1) for k in range(chart.dim)),
                  anti_hermitian=True)
    fields = {alg.names[k]: chart.coordinate_field(k) for k in range(chart.dim)}
    real = Realization(alg, chart, fields)
    arg = TensorElement.zero(alg, 2)
    for (i, j), v in pi.pairs():
        arg = arg + TensorElement.from_legs(
            alg.generator(alg.names[i]), alg.generator(alg.names[j])).scale(
                ctx.series([0, v * sign]))
    twist = Twist(arg.exp())
    return real, twist


# -- Gutt star product ------------------------------------------------------------------


def gutt_chart(alg):
    """Coordinates on the dual of g, named after the basis."""
    return CoordSystem(alg.ctx, alg.dim, names=alg.names)


def gutt_star(alg, p, q, degree_bound=4):
    """Symmetrize, multiply in U(g), unsymmetrize."""
    u = symmetrize(alg, p.terms, degree_bound) * symmetrize(alg, q.terms, degree_bound)
    terms = unsymmetrize(alg, u, degree_bound)
    return PolyFunction(p.chart, terms)


# -- Poisson bracket from a classical r-matrix --------------------------------------------


def poisson_from_r(real, r, f, g):
    """{f, g} = mu(r |> (f ox g)) through the realization."""
    out = real.chart.zero_fn()
    for (i, j), c in r.rho.items():
        ei = [0] * real.alg.dim
        ej = [0] * real.alg.dim
        ei[i] = 1
        ej[j] = 1
        out = out + (real.act_monomial(tuple(ei), f)
                     * real.act_monomial(tuple(ej), g)) * c
    return out


def mod_hbar(f):
    """Classical limit: keep only the hbar^0 coefficient of every monomial."""
    ctx = f.ctx
    out = {}
    for m, c in f.terms.items():
        c0 = c.coeff(0)
        if not c0.is_zero:
            out[m] = ctx.series([c0])
    return PolyFunction(f.chart, out)


def hbar_coefficient(f, n):
    """The coefficient of hbar^n as an hbar-free polynomial."""
    ctx = f.ctx
    out = {}
    for m, c in f.terms.items():
        cn = c.coeff(n)
        if not cn.is_zero:
            out[m] = ctx.series([cn])
    return PolyFunction(f.chart, out)
