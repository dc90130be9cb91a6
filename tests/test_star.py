"""Twist star products, Moyal-Weyl, Gutt, Poisson brackets, braided Cartan."""

import random
from fractions import Fraction

import pytest

from twistcalc import Context
from twistcalc.geometry import CoordSystem, MultiVector, PolyFunction
from twistcalc.lie import abelian, sl2, so21
from twistcalc.starcalc import (ConstantPoisson, TwistedCalculus, gutt_chart,
                                gutt_star, hbar_coefficient, mod_hbar,
                                moyal_setup, moyal_star, poisson_from_r)
from twistcalc.twists import classical_r, jordanian_twist, r_matrix, trivial_twist


def rand_poly(chart, rng, deg=3):
    f = chart.zero_fn()
    for _ in range(4):
        m = tuple(rng.randint(0, 1) for _ in range(chart.dim))
        if sum(m) <= deg:
            f = f + PolyFunction(chart, {m: chart.ctx.series([rng.randint(-2, 2)])})
    return f


def test_star_table(model):
    calc = model.calc
    x1, x2, x3 = model.x
    i, h, s = model.ctx.i, model.ctx.hbar(), model.sqrt_a
    inv_s = s / model.a
    assert calc.star(x1, x1) == x1 * x1
    assert calc.star(x1, x2) == x1 * x2 - x1 * x1 * (i * inv_s) * h
    assert calc.star(x3, x1) == x1 * x3
    assert calc.star(x3, x2) == x2 * x3 + x1 * x3 * (i * inv_s) * h
    assert calc.star(x3, x3) == x3 * x3 - x2 * x3 * (2 * i * s) * h
    for xi in model.x:
        assert calc.star(x2, xi) == x2 * xi


def test_star_x1_x3_forced_by_action_table(model):
    """The hbar^2 coefficient is +2, forced by E^2 |> x3 = -2 x1 (which is what
    the E-action table gives); the quoted table's -1 contradicts it."""
    calc = model.calc
    x1, x2, x3 = model.x
    i, h, s = model.ctx.i, model.ctx.hbar(), model.sqrt_a
    E = model.alg.generator("E")
    assert model.real.act(E * E, x3) == x1 * (-2)
    assert calc.star(x1, x3) == \
        x1 * x3 + x1 * x2 * (2 * i * s) * h + x1 * x1 * h * h * 2


@pytest.mark.xfail(strict=True,
                   reason="quoted closed form is inconsistent with the E-action "
                          "table it is derived from; see the decisions ledger")
def test_star_x1_x3_quoted_table_value(model):
    assert model.calc.star(model.x[0], model.x[2]) == model.quoted_star_x1_x3()


def test_star_trivial_twist(model):
    calc = TwistedCalculus(model.real, trivial_twist(model.alg))
    rng = random.Random(7)
    for _ in range(5):
        f, g = rand_poly(model.chart, rng), rand_poly(model.chart, rng)
        assert calc.star(f, g) == f * g


def test_star_associativity_unitality(model):
    calc = model.calc
    rng = random.Random(11)
    one = model.chart.one_fn()
    for _ in range(6):
        f, g, h = (rand_poly(model.chart, rng) for _ in range(3))
        assert calc.star(calc.star(f, g), h) == calc.star(f, calc.star(g, h))
        assert calc.star(one, f) == f
        assert calc.star(f, one) == f


def test_star_classical_limit(model):
    calc = model.calc
    rng = random.Random(13)
    for _ in range(6):
        f, g = rand_poly(model.chart, rng), rand_poly(model.chart, rng)
        assert mod_hbar(calc.star(f, g)) == f * g


def test_star_braided_commutativity(model):
    calc = model.calc
    rng = random.Random(17)
    for _ in range(6):
        f, g = rand_poly(model.chart, rng), rand_poly(model.chart, rng)
        assert calc.star(g, f) == calc.braided_opposite(f, g)


def test_twisted_involution_table(model):
    calc = model.calc
    x1, x2, x3 = model.x
    i, h, s = model.ctx.i, model.ctx.hbar(), model.sqrt_a
    assert calc.involution(x1) == x1
    assert calc.involution(x2) == x2
    assert calc.involution(x3) == x3 - x2 * (2 * i * s) * h


def test_twisted_involution_laws(model):
    calc = model.calc
    rng = random.Random(19)
    for _ in range(5):
        f, g = rand_poly(model.chart, rng, 2), rand_poly(model.chart, rng, 2)
        f = f * model.ctx.i
        assert calc.involution(calc.involution(f)) == f
        assert calc.involution(calc.star(f, g)) == \
            calc.star(calc.involution(g), calc.involution(f))


def test_twisted_involution_requires_unitary(model):
    noni = jordanian_twist(model.alg, "H", "E", scale=1)
    calc = TwistedCalculus(model.real, noni)
    with pytest.raises(ValueError):
        calc.involution(model.x[0])


def test_trivial_involution_is_conjugation(model):
    calc = TwistedCalculus(model.real, trivial_twist(model.alg))
    f = model.x[0] * model.ctx.i
    assert calc.involution(f) == f.star()


def test_twisted_wedge_trivial_and_examples(model):
    calc = model.calc
    triv = TwistedCalculus(model.real, trivial_twist(model.alg))
    a = model.E
    b = model.Ep
    assert triv.wedge(a, b) == a.wedge(b)
    assert triv.schouten(a, b) == \
        __import__("twistcalc.geometry", fromlist=["schouten"]).schouten(a, b)
    # degree-1 twisted bracket is the bracket of the twist-acted legs
    lhs = calc.schouten(a, b)
    rhs = MultiVector.zero(model.chart)
    for (m1, m2), cv in model.twist.inv.terms.items():
        xa = model.real.act_monomial(m1, model.E)
        xb = model.real.act_monomial(m2, model.Ep)
        rhs = rhs + xa.bracket(xb).scale(
            model.chart.constant(1) * cv)
    assert lhs == rhs


def test_twisted_wedge_braided_commutativity(model):
    calc = model.calc
    rm = r_matrix(model.twist)
    samples = [(model.E, 1),
               (model.chart.coordinate_field(2), 1),
               (model.H.wedge(model.chart.coordinate_field(1)), 2)]
    for (aa, k) in samples:
        for (bb, l) in samples:
            lhs = calc.wedge(bb, aa)
            rhs = MultiVector.zero(model.chart)
            for (m1, m2), cv in rm.inv.terms.items():
                ab = model.real.act_monomial(m1, aa)
                bbb = model.real.act_monomial(m2, bb)
                rhs = rhs + calc.wedge(ab, bbb).scale(model.chart.constant(1) * cv)
            sign = -1 if (k * l) % 2 else 1
            assert lhs == rhs.scale(model.chart.constant(sign))


def test_twisted_wedge_of_forms(model):
    # same twist formula on forms; braided commutativity mirrors multivectors
    calc = model.calc
    rm = r_matrix(model.twist)
    chart = model.chart
    x1 = chart.coordinate(0)
    w1 = chart.basis_form(0).scale(x1)
    w2 = chart.basis_form(2)
    triv = TwistedCalculus(model.real, trivial_twist(model.alg))
    assert triv.wedge(w1, w2) == w1.wedge(w2)
    lhs = calc.wedge(w2, w1)
    from twistcalc.geometry import DiffForm
    rhs = DiffForm.zero(chart)
    for (m1, m2), cv in rm.inv.terms.items():
        wa = model.real.act_monomial(m1, w1)
        wb = model.real.act_monomial(m2, w2)
        rhs = rhs + calc.wedge(wa, wb).scale(chart.constant(1) * cv)
    assert lhs == rhs.scale(chart.constant(-1))   # two odd-degree forms


def test_braided_gerstenhaber_laws(model):
    """Braided skew-symmetry and braided Leibniz for the twisted Schouten
    bracket with respect to R_F."""
    calc = model.calc
    rm = r_matrix(model.twist)
    chart = model.chart
    x1 = chart.coordinate(0)
    s1 = model.E.scale(x1)
    s2 = model.H
    s3 = model.Ep.wedge(model.chart.coordinate_field(0))
    cases = [(s1, 1, s2, 1), (s2, 1, s3, 2), (s3, 2, s2, 1)]
    for (x, k, y, l) in cases:
        lhs = calc.schouten(y, x)
        rhs = MultiVector.zero(chart)
        for (m1, m2), cv in rm.inv.terms.items():
            xa = model.real.act_monomial(m1, x)
            yb = model.real.act_monomial(m2, y)
            rhs = rhs + calc.schouten(xa, yb).scale(chart.constant(1) * cv)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert lhs == rhs.scale(chart.constant(-sign))
    # braided Leibniz: [[x, y ^F z]] = [[x,y]] ^F z + (-1)^{(k-1)l} (R1|>y) ^F [[R2|>x, z]]
    for (x, k, y, l) in [(s1, 1, s2, 1), (s2, 1, s1, 1)]:
        z = s3
        lhs = calc.schouten(x, calc.wedge(y, z))
        rhs = calc.wedge(calc.schouten(x, y), z)
        acc = MultiVector.zero(chart)
        for (m1, m2), cv in rm.inv.terms.items():
            yb = model.real.act_monomial(m1, y)
            xb = model.real.act_monomial(m2, x)
            acc = acc + calc.wedge(yb, calc.schouten(xb, z)).scale(
                chart.constant(1) * cv)
        sign = -1 if ((k - 1) * l) % 2 else 1
        assert lhs == rhs + acc.scale(chart.constant(sign))
    # braided Jacobi:
    # [[x, [[y,z]] ]] = [[ [[x,y]], z]] + (-1)^{(k-1)(l-1)} [[R1|>y, [[R2|>x, z]] ]]
    for (x, k, y, l, z) in [(s1, 1, s2, 1, s3), (s2, 1, s3, 2, s1),
                            (s3, 2, s2, 1, s1)]:
        lhs = calc.schouten(x, calc.schouten(y, z))
        rhs = calc.schouten(calc.schouten(x, y), z)
        acc = MultiVector.zero(chart)
        for (m1, m2), cv in rm.inv.terms.items():
            yb = model.real.act_monomial(m1, y)
            xb = model.real.act_monomial(m2, x)
            acc = acc + calc.schouten(yb, calc.schouten(xb, z)).scale(
                chart.constant(1) * cv)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        assert lhs == rhs + acc.scale(chart.constant(sign))


def test_twisted_cartan_consistency(model):
    # L^F_X f agrees with [[X, f]]_F for degree-1 X
    calc = model.calc
    rng = random.Random(23)
    for _ in range(4):
        f = rand_poly(model.chart, rng, 2)
        x = model.E
        lhs = calc.lie_fn(x, f)
        rhs = calc.schouten(x, MultiVector.from_function(f))
        assert MultiVector.from_function(lhs) == rhs


def test_cartan_report_trivial_and_jordanian(model):
    triv = TwistedCalculus(model.real, trivial_twist(model.alg))
    assert triv.cartan_report().passed
    rep = model.calc.cartan_report()
    assert rep.passed, rep.format_text()


def test_cartan_report_detects_corrupted_braiding(model):
    from twistcalc.tensors import TensorElement
    from twistcalc.twists import RMatrix
    bad = RMatrix(TensorElement.unit(model.alg, 2),
                  TensorElement.unit(model.alg, 2))
    rep = model.calc.cartan_report(rmatrix=bad)
    names = {c.name: c.passed for c in rep.checks}
    assert not names["[i_X, i_Y]_R = 0"]


def test_moyal_star_examples(plain_ctx):
    chart = CoordSystem(plain_ctx, 2, names=("x", "y"))
    pi = ConstantPoisson(chart, {(0, 1): 1, (1, 0): -1})
    x, y = chart.coordinate(0), chart.coordinate(1)
    h = plain_ctx.hbar()
    assert moyal_star(pi, x, y) == x * y + chart.constant(1) * h
    assert moyal_star(pi, y, x) == x * y - chart.constant(1) * h
    f = x * x + y
    assert moyal_star(pi, f, chart.one_fn()) == f
    comm = moyal_star(pi, x, y) - moyal_star(pi, y, x)
    assert comm == chart.constant(2) * h


def test_moyal_skew_required(plain_ctx):
    chart = CoordSystem(plain_ctx, 2)
    with pytest.raises(ValueError):
        ConstantPoisson(chart, {(0, 1): 1, (1, 0): 1})


def test_cartan_report_abelian_moyal(plain_ctx):
    # the braided Cartan identities hold for the abelian twist as well
    chart = CoordSystem(plain_ctx, 2, names=("x", "y"))
    pi = ConstantPoisson(chart, {(0, 1): 1, (1, 0): -1})
    real, twist = moyal_setup(pi)
    rep = TwistedCalculus(real, twist).cartan_report()
    assert rep.passed, rep.format_text()


def test_moyal_twist_consistency(plain_ctx):
    # star product of the abelian twist with the default sign equals moyal_star
    chart = CoordSystem(plain_ctx, 2, names=("x", "y"))
    pi = ConstantPoisson(chart, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    real, twist = moyal_setup(pi)
    calc = TwistedCalculus(real, twist)
    rng = random.Random(31)
    for _ in range(5):
        f, g = rand_poly(chart, rng), rand_poly(chart, rng)
        assert calc.star(f, g) == moyal_star(pi, f, g)
    # [x, y]_star = hbar for pi^{12} = 1/2
    x, y = chart.coordinate(0), chart.coordinate(1)
    assert calc.star(x, y) - calc.star(y, x) == chart.one_fn() * plain_ctx.hbar()


def test_gutt_star(plain_ctx, so21_alg):
    g = so21_alg
    chart = gutt_chart(g)
    h = plain_ctx.hbar()
    xhat = chart.coordinate(0)   # H-coordinate on the dual
    yhat = chart.coordinate(1)   # E-coordinate
    prod = gutt_star(g, xhat, yhat)
    # H star E = HE + (hbar/2) [H,E]^ = HE + hbar E^
    assert prod == xhat * yhat + yhat * (h * Fraction(1, 2) * 2)
    one = chart.one_fn()
    p = xhat * yhat + chart.coordinate(2)
    assert gutt_star(g, one, p) == p
    # antisymmetrized: H star E - E star H = hbar (2E)^
    comm = gutt_star(g, xhat, yhat) - gutt_star(g, yhat, xhat)
    assert comm == yhat * (h * 2)


@pytest.mark.xfail(strict=True,
                   reason="HbarSeries.divide_hbar zero-fills the top orders, so "
                          "unsymmetrize silently drops what truncation pushed out "
                          "and order 4 returns 0 (ROADMAP 3b)")
def test_gutt_star_truncation_loses_no_terms():
    # E^2*H star F^2 at order 4 must be the order-6 product truncated to hbar^4
    def gutt(order, bound):
        g = sl2(Context(order=order))
        chart = gutt_chart(g)
        e, f, h = (chart.coordinate(k) for k in range(3))
        out = gutt_star(g, e * e * h, f * f, degree_bound=bound)
        truncated = {m: tuple(cn.to_text() for cn in c.coeffs[:5])
                     for m, c in out.terms.items()}
        return {m: cs for m, cs in truncated.items() if set(cs) != {"0"}}

    reference = gutt(6, 6)
    assert reference   # E^2*F^2*H - 2*hbar*E^2*F^2 + ...
    assert gutt(4, 4) == reference


def test_gutt_star_degree_two_graded(plain_ctx, so21_alg):
    # the product is graded (monomial degree + hbar weight is constant), so
    # truncation at the degree bound is exact; the top part is the classical
    # commutative product
    g = so21_alg
    chart = gutt_chart(g)
    Hd, Ed, Epd = (chart.coordinate(k) for k in range(3))
    p, q = Hd * Ed, Hd * Epd
    out = gutt_star(g, p, q)
    total = 4
    for m, coeff in out.terms.items():
        deg = sum(m)
        for n, cn in enumerate(coeff.coeffs):
            if not cn.is_zero:
                assert deg + n == total
    from twistcalc.starcalc import hbar_coefficient
    assert hbar_coefficient(out, 0) == p * q


def test_twisted_involution_on_fields_and_forms(model):
    calc = model.calc
    chart = model.chart
    i = model.ctx.i
    x = model.E.scale(chart.coordinate(0) * i) + model.H
    assert calc.involution(calc.involution(x)) == x
    w = chart.basis_form(0).scale(chart.coordinate(2)) \
        + chart.basis_form(1).wedge(chart.basis_form(2)).scale(i)
    assert calc.involution(calc.involution(w)) == w


def test_poisson_from_r(model):
    r = classical_r(model.twist)
    rng = random.Random(37)
    for _ in range(5):
        f, g = rand_poly(model.chart, rng, 2), rand_poly(model.chart, rng, 2)
        assert poisson_from_r(model.real, r, f, g) == \
            -poisson_from_r(model.real, r, g, f)
    zero_r = __import__("twistcalc.twists", fromlist=["ClassicalR"]).ClassicalR(
        model.alg, {})
    assert poisson_from_r(model.real, zero_r, model.x[0], model.x[1]).is_zero


def test_correspondence_principle(model):
    """(1/hbar)[f,g]_star mod hbar equals the Poisson bracket of classical_r."""
    calc = model.calc
    r = classical_r(model.twist)
    monos = [model.x[0], model.x[1], model.x[2],
             model.x[0] * model.x[1], model.x[0] * model.x[2],
             model.x[1] * model.x[1], model.x[1] * model.x[2]]
    for f in monos:
        for g in monos:
            comm = calc.star(f, g) - calc.star(g, f)
            assert hbar_coefficient(comm, 0).is_zero
            lhs = hbar_coefficient(comm, 1)
            assert lhs == poisson_from_r(model.real, r, f, g)


def _hbar_texts(obj, n):
    """The hbar^n coefficient of a function, or of each component of a graded element."""
    if isinstance(obj, PolyFunction):
        return hbar_coefficient(obj, n).to_text()
    return {k: hbar_coefficient(v, n).to_text() for k, v in obj.terms.items()
            if not hbar_coefficient(v, n).is_zero}


def _cross_order_results(m):
    calc, chart = m.calc, m.chart
    x = m.x
    e = m.E
    h = m.H
    y = m.Ep.wedge(chart.coordinate_field(0)).scale(x[2])
    omega = chart.basis_form(0).wedge(chart.basis_form(1)).scale(x[2] * x[2]) \
        + chart.basis_form(2).scale(x[0])
    out = [calc.star(x[i], x[j]) for i in range(3) for j in range(3)]
    out.append(calc.wedge(e, y))
    out.append(calc.insert(y, omega))
    out.append(calc.braided_commutator(("L", e, 1), ("i", h, 1), omega))
    return out


def test_results_agree_across_orders(model):
    # the coefficients of hbar^0..hbar^4 do not depend on the truncation order
    from twistcalc.hyperboloid import HyperboloidModel
    low = _cross_order_results(model)
    high = _cross_order_results(HyperboloidModel(order=6))
    assert len(low) == len(high) == 12
    for a, b in zip(low, high):
        for n in range(5):
            assert _hbar_texts(a, n) == _hbar_texts(b, n), (n, a, b)
