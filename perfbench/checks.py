"""Output checks that do not rest on the engine's own expected tables.

Star products are compared with a short sympy reference for the Jordanian
twist on the hyperboloid chart: for a monomial f of H-weight lam,

    f * g = f . (1 + i hbar E)^(-lam/2) |> g,   E = (x1/sqrt(a)) d2 - 2 sqrt(a) x2 d3,

at every hbar order up to the truncation.  The comparison is exact, in
sympy's sparse polynomials over Q(i), at a point of the parameters drawn
from the seed (sqrt(a) and c rational), so an error in the engine's
coefficients, as functions of a and c, shows on almost every seed.
Twisted coproducts and antipodes are checked against the Hopf axioms
(counit, antipode) and against the undeformed maps at hbar^0; involutions
against involutivity and complex conjugation at hbar^0.  Negative controls
make sure a vacuous `is_zero` cannot pass.  Every check returns a list of
failure messages, empty when the check holds.
"""

from __future__ import annotations

import re
from fractions import Fraction

from sympy.polys.domains import QQ_I
from sympy.polys.rings import ring

import twistcalc.tensors as tensors
import twistcalc.twists as twists

RING, X1, X2, X3, HBAR = ring("x1,x2,x3,hbar", QQ_I)
I = QQ_I(0, 1)
_PRINTED = re.compile(r"^(?:[0-9]+|x[123]|hbar|sqrt|[aci]|[-+*/^() ])*$")


def random_point(rng):
    """sqrt(a) and c as seeded rationals."""
    return (Fraction(rng.randint(2, 30), rng.randint(2, 30)),
            Fraction(rng.randint(-30, 30) or 1, rng.randint(2, 30)))


class Reference:
    """Engine polynomials and the reference star product at one parameter point."""

    def __init__(self, point):
        s, c = (QQ_I.convert(v) for v in point)
        self.s = s
        self.names = {"x1": X1, "x2": X2, "x3": X3, "hbar": HBAR, "i": I,
                      "a": s * s, "c": c, "sqrt": self._sqrt, "N": QQ_I,
                      "__builtins__": {}}

    def _sqrt(self, value):
        if value != self.s * self.s:
            raise ValueError("only sqrt(a) is expected in printed output")
        return self.s

    def value(self, obj):
        """The engine's polynomial at the point, read from its printed form
        (digits, x1..x3, hbar, a, c, i, sqrt and arithmetic only)."""
        text = obj.to_text()
        if not _PRINTED.match(text):
            raise ValueError("unexpected printed form %r" % text)
        text = re.sub(r"\^([0-9]+)", r"**\1", text)
        text = re.sub(r"(?<![a-z*])[0-9]+", r"N(\g<0>)", text)
        return RING(eval(text, self.names))

    def apply_e(self, p):
        return (p.diff(X2) * X1).mul_ground(1 / self.s) - (p.diff(X3) * X2).mul_ground(2 * self.s)

    def star(self, f, g, order):
        """f * g for hbar-free f, g, up to hbar^order."""
        e_powers = [g]
        for _ in range(order):
            e_powers.append(self.apply_e(e_powers[-1]))
        ih = HBAR.mul_ground(I)
        out = RING.zero
        for (e1, e2, e3, _), coeff in f.terms():
            k = e3 - e1   # -lam/2
            binom = QQ_I(1)
            acted = RING.zero
            for n in range(order + 1):
                acted += (e_powers[n] * ih ** n).mul_ground(binom)
                binom = binom * QQ_I(k - n) / QQ_I(n + 1)
            out += (X1 ** e1 * X2 ** e2 * X3 ** e3 * acted).mul_ground(coeff)
        return out


def _hbar_free(p):
    return all(m[3] == 0 for m in p.monoms())


def _conjugate(p):
    return RING({m: QQ_I.dtype(v.x, -v.y) for m, v in p.terms()})


def check_star(ref, f, g, result, order):
    """result (engine) against the reference star product of f and g."""
    fv, gv = ref.value(f), ref.value(g)
    if not (_hbar_free(fv) and _hbar_free(gv)):
        return ["star operands must be hbar-free: %s, %s" % (f.to_text(), g.to_text())]
    if ref.value(result) == ref.star(fv, gv, order):
        return []
    return ["star mismatch: (%s) * (%s) gave %s" % (f.to_text(), g.to_text(),
                                                    result.to_text())]


def check_involution(ref, calc, f, result, involutive=True):
    """result = f^{*F}: complex conjugation at hbar^0 and, if asked, involutive."""
    out = []
    if involutive and calc.involution(result) != f:
        out.append("involution not involutive on %s" % f.to_text())
    at_zero = RING({m: v for m, v in ref.value(result).terms() if m[3] == 0})
    if at_zero != _conjugate(ref.value(f)):
        out.append("involution of %s is not the conjugate at hbar^0" % f.to_text())
    return out


def _hbar0_equal(u, v):
    keys = set(u.terms) | set(v.terms)
    zero = u.ctx.series_zero()
    return all(u.terms.get(k, zero).coeff(0) == v.terms.get(k, zero).coeff(0)
               for k in keys)


class TwistedHopfChecker:
    """Counit and antipode axioms of (Delta_F, S_F) on elements of U(g).

    S_F on PBW monomials is memoized here, so the check costs little once a
    stream of queries has touched the same monomials.
    """

    def __init__(self, twist):
        self.twist = twist
        self.alg = twist.alg
        self._antipode = {}

    def antipode_monomial(self, exps):
        out = self._antipode.get(exps)
        if out is None:
            out = twists.twisted_antipode(self.twist, self.alg.monomial(exps)).terms
            self._antipode[exps] = out
        return out

    def check_coproduct(self, el, delta, antipode_axiom=True):
        """delta = Delta_F(el): hbar^0 part and counit axioms, and if asked the
        antipode axioms."""
        out = []
        name = el.to_text()
        if not _hbar0_equal(delta, el.coproduct()):
            out.append("Delta_F(%s) differs from Delta at hbar^0" % name)
        for leg in (1, 2):
            if delta.counit_on_leg(leg).to_pbw() != el:
                out.append("counit axiom on leg %d fails for %s" % (leg, name))
        if antipode_axiom:
            eps = self.alg.unit().scale(el.counit())
            for leg in (1, 2):
                if delta.map_leg(leg, self.antipode_monomial).contract_mul() != eps:
                    out.append("antipode axiom on leg %d fails for %s" % (leg, name))
        return out

    def check_antipode(self, el, result, antipode_axiom=True):
        """result = S_F(el): hbar^0 part and, if asked, linearity over the
        monomial antipodes and the antipode axioms of Delta_F(el)."""
        out = []
        name = el.to_text()
        if not _hbar0_equal(result, el.antipode()):
            out.append("S_F(%s) differs from S at hbar^0" % name)
        if antipode_axiom:
            combo = self.alg.zero_el()
            for exps, c in el.terms.items():
                combo = combo + self.alg.element(self.antipode_monomial(exps)).scale(c)
            if combo != result:
                out.append("S_F(%s) is not linear in the monomial antipodes" % name)
            out += self.check_coproduct(el, twists.twisted_coproduct(self.twist, el))
        return out


def check_klm(twist, el_h, delta_h, el_e, delta_e):
    """Kulish-Lyakhovsky-Mudrov: Delta_F(H) = H ox (1+i hbar E)^-1 + 1 ox H and
    Delta_F(E) = E ox (1+i hbar E) + 1 ox E, for el_h = c*H and el_e = c'*E."""
    alg = twist.alg
    ctx = alg.ctx
    ih = ctx.hbar() * ctx.i
    H, E, one = alg.generator("H"), alg.generator("E"), alg.unit()
    geometric = alg.zero_el()
    for n in range(ctx.order + 1):
        geometric = geometric + (E ** n).scale((-ih) ** n)
    expected_h = (tensors.TensorElement.from_legs(H, geometric)
                  + tensors.TensorElement.from_legs(one, H))
    expected_e = (tensors.TensorElement.from_legs(E, one + E.scale(ih))
                  + tensors.TensorElement.from_legs(one, E))
    out = []
    for name, el, delta, expected in (("H", el_h, delta_h, expected_h),
                                      ("E", el_e, delta_e, expected_e)):
        (coeff,) = el.terms.values()
        if delta != expected.scale(coeff):
            out.append("Delta_F(%s) differs from the Kulish-Lyakhovsky-Mudrov form" % name)
    return out


def quoted_errata_controls(model):
    """The three quoted closed forms the tables get wrong must leave residuals."""
    x1, _, x3 = model.x
    ep = model.alg.generator("Ep")
    residuals = {
        "quoted_star_x1_x3": model.calc.star(x1, x3) - model.quoted_star_x1_x3(),
        "quoted_coproduct_ep": (twists.twisted_coproduct(model.twist, ep)
                                - model.quoted_coproduct_ep()),
        "quoted_antipode_ep": (twists.twisted_antipode(model.twist, ep)
                               - model.quoted_antipode_ep()),
    }
    return ["negative control %s gave a zero residual" % name
            for name, res in residuals.items() if res.is_zero]


def corrupted_twist_control(twist):
    """Doubling the H ox E coefficient keeps normalization but breaks the 2-cocycle."""
    alg = twist.alg
    key = (next(iter(alg.generator("H").terms)), next(iter(alg.generator("E").terms)))
    terms = dict(twist.tensor.terms)
    terms[key] = terms[key] * 2
    bad = twists.Twist(tensors.TensorElement(alg, 2, terms), check=False)
    status = {c.name: c.passed for c in twists.verify_twist(bad).checks}
    out = []
    if status.get("2-cocycle", True):
        out.append("negative control: corrupted twist passes the 2-cocycle check")
    if not (status.get("normalization left") and status.get("normalization right")):
        out.append("negative control: corruption was meant to keep normalization")
    return out
