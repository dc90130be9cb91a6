"""The 2-sheet elliptic hyperboloid configuration and its verification suite.

Bundles the full setup in light-like coordinates on R^3: the quadric
generator x1*x3/2 + (a/2)*x2^2 + c, the so(2,1) symmetry realized by the
three tangent fields, the unitary Jordanian twist exp(H/2 ox log(1+i*hbar*E)),
the equivariant Minkowski metric with its flat Levi-Civita connection, and
exact checks of the closed-form tables: seven star products, the twisted
coproducts and antipodes of H, E, E', the twisted involutions, the deformed
constraint, the twisted insertion/Lie-derivative coordinate formulas and the
four twisted-connection relations.

Three quoted closed forms in the reference tables are internally
inconsistent with the data they are derived from, and the suite checks the
consistent values while recording the discrepancies: the hbar^2 coefficient
of x1 star x3 follows from the iterated action E^2 |> x3 = -2*x1 (forced by
the quoted E-action and the displayed vector field), giving +2*hbar^2*x1^2
where the table quotes -hbar^2*x1^2; the Delta_F(E') and S_F(E') closed
forms inherit a sign slip in the inductive commutation identity they rest
on (its base case and all other preliminaries hold; the induction fails at
n = 2).
"""

from __future__ import annotations

from fractions import Fraction

from .connections import Metric, connection_report, koszul_levi_civita, twist_nabla
from .geometry import CoordSystem, DiffForm, MultiVector, Realization, insert, lie_form
from .lie import so21
from .reports import Report
from .scalars import Context
from .starcalc import TwistedCalculus
from .submanifolds import QuadricIdeal, twist_project_report
from .tensors import TensorElement
from .twists import check_unitary, jordanian_twist, twisted_antipode, twisted_coproduct, verify_twist


class HyperboloidModel:
    def __init__(self, order=4, unit_a=False):
        """unit_a=True specializes a = 1 (sqrt(a) = 1), the circular case."""
        self.unit_a = unit_a
        if unit_a:
            self.ctx = Context(params=("c",), order=order)
            sqrt_a = self.ctx.one
            a = self.ctx.one
        else:
            self.ctx = Context(params=("a", "c"), radicals={"sqrt(a)": "a"},
                               order=order)
            sqrt_a = self.ctx.radical("sqrt(a)")
            a = self.ctx.param("a")
        ctx = self.ctx
        self.sqrt_a = sqrt_a
        self.a = a
        self.c = ctx.param("c")
        self.alg = so21(ctx)
        self.chart = CoordSystem(ctx, 3)
        chart = self.chart
        x1, x2, x3 = (chart.coordinate(k) for k in range(3))
        self.x = (x1, x2, x3)
        inv_sqrt_a = sqrt_a / a   # 1/sqrt(a) rationalized
        self.H = (chart.coordinate_field(0).scale(x1 * 2)
                  + chart.coordinate_field(2).scale(x3 * (-2)))
        self.E = (chart.coordinate_field(1).scale(x1 * inv_sqrt_a)
                  + chart.coordinate_field(2).scale(x2 * (-2) * sqrt_a))
        self.Ep = (chart.coordinate_field(1).scale(x3 * inv_sqrt_a)
                   + chart.coordinate_field(0).scale(x2 * (-2) * sqrt_a))
        self.real = Realization(self.alg, chart,
                                {"H": self.H, "E": self.E, "Ep": self.Ep})
        self.generator = (x1 * x3 * Fraction(1, 2) + x2 * x2 * (a * Fraction(1, 2))
                          + chart.constant(self.c))
        self.ideal = QuadricIdeal(self.generator)
        self.twist = jordanian_twist(self.alg, "H", "E", scale=ctx.i)
        self.calc = TwistedCalculus(self.real, self.twist)
        half = Fraction(1, 2)
        self.metric = Metric(chart, [[0, 0, half], [0, a, 0], [half, 0, 0]],
                             realization=self.real)
        self.connection = koszul_levi_civita(self.metric)
        self.weights = (2, 0, -2)   # H |> x^i = weight_i x^i

    # -- closed-form helpers -----------------------------------------------------

    def geometric_inverse(self, power=1):
        """(1 + i*hbar*E)^{-power} as a PBW series, for power in {1, 2}."""
        ctx = self.ctx
        e = self.alg.generator("E")
        out = self.alg.zero_el()
        for n in range(ctx.order + 1):
            mult = 1 if power == 1 else n + 1
            coeff = (ctx.hbar() * ctx.i * (-1)) ** n * mult
            out = out + (e ** n).scale(coeff)
        return out

    def one_plus(self):
        """1 + i*hbar*E."""
        return self.alg.unit() + self.alg.generator("E").scale(
            self.ctx.hbar() * self.ctx.i)

    def weight_factor(self, i):
        """(1 + i*hbar*E)^{weight_i/2} for the coordinate weights (2, 0, -2)."""
        lam = self.weights[i]
        if lam == 2:
            return self.one_plus()
        if lam == 0:
            return self.alg.unit()
        return self.geometric_inverse()

    def expected_star_table(self):
        """The seven nontrivial products; x1*x3 carries the action-consistent
        +2*hbar^2*x1^2 (the quoted table's -hbar^2*x1^2 contradicts the
        E-action it is derived from)."""
        x1, x2, x3 = self.x
        i = self.ctx.i
        h = self.ctx.hbar()
        s = self.sqrt_a
        inv_s = s / self.a
        return {
            ("x1", "x1"): (x1, x1, x1 * x1),
            ("x1", "x2"): (x1, x2, x1 * x2 - x1 * x1 * (i * inv_s) * h),
            ("x1", "x3"): (x1, x3, x1 * x3 + x1 * x2 * (2 * i * s) * h
                           + x1 * x1 * h * h * 2),
            ("x2", "xi"): None,   # x2 star x^i = x2 x^i, checked separately
            ("x3", "x1"): (x3, x1, x1 * x3),
            ("x3", "x2"): (x3, x2, x2 * x3 + x1 * x3 * (i * inv_s) * h),
            ("x3", "x3"): (x3, x3, x3 * x3 - x2 * x3 * (2 * i * s) * h),
        }

    def quoted_star_x1_x3(self):
        """The quoted table value with the inconsistent -hbar^2 coefficient."""
        x1, x2, x3 = self.x
        i, h, s = self.ctx.i, self.ctx.hbar(), self.sqrt_a
        return x1 * x3 + x1 * x2 * (2 * i * s) * h - x1 * x1 * h * h

    def expected_twisted_coproducts(self):
        """Delta_F on the generators.  The E' formula fixes a sign slip in
        the quoted inductive commutation identity: the last term reads
        -(hbar^2/2)(H(H/2-1) ox E/(1+i*hbar*E)^2) where the quoted table has
        +(hbar^2/2)(H(H/2+1) ox ...)."""
        alg = self.alg
        ctx = self.ctx
        i, h = ctx.i, ctx.hbar()
        H, E, Ep = (alg.generator(n) for n in ("H", "E", "Ep"))
        one = alg.unit()
        inv1 = self.geometric_inverse(1)
        inv2 = self.geometric_inverse(2)
        dH = (H.coproduct()
              - TensorElement.from_legs(H, E * inv1).scale(h * i))
        dE = E.coproduct() + TensorElement.from_legs(E, E).scale(h * i)
        dEp = (TensorElement.from_legs(one, Ep)
               + TensorElement.from_legs(Ep, inv1)
               - TensorElement.from_legs(H, H * inv1).scale(h * i * Fraction(1, 2))
               - TensorElement.from_legs(
                   H * (H.scale(Fraction(1, 2)) - one), E * inv2).scale(
                       h * h * Fraction(1, 2)))
        return {"H": dH, "E": dE, "Ep": dEp}

    def quoted_coproduct_ep(self):
        """The quoted Delta_F(E') whose last term carries the sign slip."""
        alg = self.alg
        ctx = self.ctx
        i, h = ctx.i, ctx.hbar()
        H, Ep = alg.generator("H"), alg.generator("Ep")
        E = alg.generator("E")
        one = alg.unit()
        inv1 = self.geometric_inverse(1)
        inv2 = self.geometric_inverse(2)
        return (TensorElement.from_legs(one, Ep)
                + TensorElement.from_legs(Ep, inv1)
                - TensorElement.from_legs(H, H * inv1).scale(h * i * Fraction(1, 2))
                + TensorElement.from_legs(
                    H * (H.scale(Fraction(1, 2)) + one), E * inv2).scale(
                        h * h * Fraction(1, 2)))

    def expected_twisted_antipodes(self):
        """S_F on the generators; the E' tail follows the corrected coproduct:
        +(hbar^2/2)(3H/2-1)HE + (i*hbar^3/2)(H/2-1)HE^2."""
        alg = self.alg
        ctx = self.ctx
        i, h = ctx.i, ctx.hbar()
        H, E, Ep = (alg.generator(n) for n in ("H", "E", "Ep"))
        one = alg.unit()
        one_plus = self.one_plus()
        sH = (-H) * one_plus
        sE = (-E) * self.geometric_inverse(1)
        sEp = ((-Ep) * one_plus
               - (H * H).scale(h * i * Fraction(1, 2))
               + ((H.scale(Fraction(3, 2)) - one) * H * E).scale(
                   h * h * Fraction(1, 2))
               + ((H.scale(Fraction(1, 2)) - one) * H * E * E).scale(
                   h ** 3 * i * Fraction(1, 2)))
        return {"H": sH, "E": sE, "Ep": sEp}

    def quoted_antipode_ep(self):
        """The quoted S_F(E') tail: (hbar^2/2)(H/2-1)HE + (i*hbar^3/2)(1-H/2)HE^2."""
        alg = self.alg
        ctx = self.ctx
        i, h = ctx.i, ctx.hbar()
        H, E, Ep = (alg.generator(n) for n in ("H", "E", "Ep"))
        one = alg.unit()
        return ((-Ep) * self.one_plus()
                - (H * H).scale(h * i * Fraction(1, 2))
                + ((H.scale(Fraction(1, 2)) - one) * H * E).scale(
                    h * h * Fraction(1, 2))
                + ((one - H.scale(Fraction(1, 2))) * H * E * E).scale(
                    h ** 3 * i * Fraction(1, 2)))


def hyperboloid_suite(order=4, unit_a=False, project_samples=12):
    """Full exact verification of the hyperboloid tables; see the module doc."""
    model = HyperboloidModel(order=order, unit_a=unit_a)
    ctx = model.ctx
    chart = model.chart
    calc = model.calc
    x1, x2, x3 = model.x
    rep = Report("2-sheet elliptic hyperboloid (order %d%s)"
                 % (order, ", a=1" if unit_a else ""))

    rep.extend(verify_twist(model.twist))
    rep.extend(check_unitary(model.twist))
    rep.extend(model.ideal.stability_report(model.real))

    table = model.expected_star_table()
    for key, entry in table.items():
        if entry is None:
            rep.run("x2 star x^i = x2*x^i", lambda: _x2_residual(model))
            continue
        f, g, expected = entry
        rep.run("%s star %s" % key,
                lambda f=f, g=g, e=expected: calc.star(f, g) - e)
    rep.note("x1 star x3 erratum",
             "quoted hbar^2 coefficient is -1; the E-action table forces +2 "
             "(E^2 |> x3 = -2*x1)")

    coproducts = model.expected_twisted_coproducts()
    antipodes = model.expected_twisted_antipodes()
    for name in ("H", "E", "Ep"):
        el = model.alg.generator(name)
        rep.run("Delta_F(%s)" % name,
                lambda el=el, e=coproducts[name]: twisted_coproduct(model.twist, el) - e)
        rep.run("S_F(%s)" % name,
                lambda el=el, e=antipodes[name]: twisted_antipode(model.twist, el) - e)
    rep.note("Delta_F(Ep)/S_F(Ep) errata",
             "the quoted closed forms inherit a sign slip in the inductive "
             "commutation identity (its n=1 case and all other preliminaries "
             "hold; the induction fails at n=2); the checked forms are the "
             "corrected ones")

    i, h, s = ctx.i, ctx.hbar(), model.sqrt_a
    rep.run("(x1)^{*F} = x1", lambda: calc.involution(x1) - x1)
    rep.run("(x2)^{*F} = x2", lambda: calc.involution(x2) - x2)
    rep.run("(x3)^{*F} = x3 - 2i*hbar*sqrt(a)*x2",
            lambda: calc.involution(x3) - (x3 - x2 * (2 * i * s) * h))

    def constraint():
        val = (calc.star(x3, x1) * Fraction(1, 2)
               + calc.star(x2, x2) * (model.a * Fraction(1, 2))
               + chart.constant(model.c))
        return model.ideal.reduce(val)

    rep.run("deformed constraint reduces to 0", constraint)

    sample_forms = [chart.basis_form(0),
                    chart.basis_form(1).scale(x1),
                    chart.basis_form(0).wedge(chart.basis_form(2)),
                    chart.basis_form(1).wedge(chart.basis_form(2)).scale(x3)]

    def insertion_formula():
        res = DiffForm.zero(chart)
        for idx in range(3):
            di = chart.coordinate_field(idx)
            factor = model.weight_factor(idx)
            for w in sample_forms:
                lhs = calc.insert(di, w)
                rhs = insert(di, model.real.act(factor, w))
                res = res + (lhs - rhs)
        return res

    def lie_formula():
        res = DiffForm.zero(chart)
        for idx in range(3):
            di = chart.coordinate_field(idx)
            factor = model.weight_factor(idx)
            for w in sample_forms:
                lhs = calc.lie(di, w)
                rhs = lie_form(di, model.real.act(factor, w))
                res = res + (lhs - rhs)
        return res

    rep.run("i^F_{d_i} w = i_{d_i}((1+i*hbar*E)^{w_i/2} |> w)", insertion_formula)
    rep.run("L^F_{d_i} w = L_{d_i}((1+i*hbar*E)^{w_i/2} |> w)", lie_formula)

    conn = model.connection
    rep.run("Levi-Civita of Minkowski is flat", lambda: not conn.gamma)
    nab = conn.nabla
    H, E, Ep = model.H, model.E, model.Ep

    def eq_nabla():
        one2i = chart.constant(2 * i) * h
        onei = chart.constant(i) * h
        res = MultiVector.zero(chart)
        res = res + (twist_nabla(model.real, model.twist, conn, E, H)
                     - nab(E, H) - nab(E, E).scale(one2i))
        res = res + (twist_nabla(model.real, model.twist, conn, Ep, H)
                     - nab(Ep, H) + nab(Ep, E).scale(one2i))
        res = res + (twist_nabla(model.real, model.twist, conn, E, Ep)
                     - nab(E, Ep) - nab(E, H).scale(onei)
                     + nab(E, E).scale(chart.constant(2) * h * h))
        res = res + (twist_nabla(model.real, model.twist, conn, Ep, Ep)
                     - nab(Ep, Ep) + nab(Ep, H).scale(onei))
        return res

    rep.run("twisted Levi-Civita relations (four displayed)", eq_nabla)

    cr = connection_report(model.real, model.twist, conn, model.metric,
                           frame=[H, E, Ep] + [chart.coordinate_field(k)
                                               for k in range(3)])
    rep.extend(cr)

    pr_rep = twist_project_report(model.ideal, calc, samples=project_samples)
    rep.extend(pr_rep)
    return rep


def _x2_residual(model):
    res = model.chart.zero_fn()
    x2 = model.x[1]
    for xi in model.x:
        res = res + (model.calc.star(x2, xi) - x2 * xi)
    return res
