"""Quadric ideals: reduction, tangency, projection, twist-projection square."""

import random
from fractions import Fraction

import pytest

from twistcalc.geometry import DiffForm
from twistcalc.submanifolds import QuadricIdeal, random_polynomial, twist_project_report
from twistcalc.starcalc import TwistedCalculus
from twistcalc.twists import trivial_twist


def test_leading_monomial(model):
    assert model.ideal.lead_monomial == (1, 0, 1)
    assert model.ideal.lead_coeff == model.ctx.series([Fraction(1, 2)])


def test_reduce_examples(model):
    x1, x2, x3 = model.x
    ideal = model.ideal
    assert ideal.reduce(model.generator).is_zero
    expected = x2 * x2 * (-model.a) - model.chart.constant(model.c * 2)
    assert ideal.reduce(x1 * x3) == expected
    assert ideal.reduce(x2) == x2


def test_reduce_idempotent_and_linear(model):
    rng = random.Random(3)
    ideal = model.ideal
    for _ in range(10):
        p = random_polynomial(model.chart, rng)
        q = random_polynomial(model.chart, rng)
        r = ideal.reduce(p)
        assert ideal.reduce(r) == r
        assert ideal.reduce(model.generator * p + q) == ideal.reduce(q)


def test_reduce_is_multiplicative_mod_ideal(model):
    rng = random.Random(5)
    ideal = model.ideal
    for _ in range(8):
        p = random_polynomial(model.chart, rng)
        q = random_polynomial(model.chart, rng)
        assert ideal.reduce(p * q) == ideal.reduce(ideal.reduce(p) * ideal.reduce(q))


def test_tangency(model):
    ideal = model.ideal
    assert ideal.is_tangent(model.H)
    assert ideal.is_tangent(model.E)
    assert ideal.is_tangent(model.Ep)
    d1 = model.chart.coordinate_field(0)
    assert not ideal.is_tangent(d1)
    # ideal closure: f*H stays tangent
    f = model.x[2] * model.x[1] + model.chart.one_fn()
    assert ideal.is_tangent(model.H.scale(f))
    # and F*anything is tangent
    assert ideal.is_tangent(d1.scale(model.generator))


def test_tangent_fields_bracket_closed(model):
    rng = random.Random(7)
    ideal = model.ideal
    gens = [model.H, model.E, model.Ep]
    for _ in range(6):
        f = random_polynomial(model.chart, rng, degree=1, terms=2)
        x = gens[rng.randrange(3)].scale(f)
        y = gens[rng.randrange(3)]
        assert ideal.is_tangent(x.bracket(y))
        assert ideal.is_tangent(x.scale(random_polynomial(model.chart, rng, 1, 2)))


def test_action_descends(model):
    rng = random.Random(9)
    ideal = model.ideal
    for name in model.alg.names:
        el = model.alg.generator(name)
        for _ in range(4):
            p = random_polynomial(model.chart, rng)
            lhs = ideal.reduce(model.real.act(el, p))
            rhs = ideal.reduce(model.real.act(el, ideal.reduce(p)))
            assert lhs == rhs


def test_project_examples(model):
    ideal = model.ideal
    assert ideal.project(model.chart.one_fn()) == model.chart.one_fn()
    with pytest.raises(ValueError):
        ideal.project(model.chart.coordinate_field(0))
    pr_h = ideal.project(model.H)
    assert ideal.is_tangent(pr_h)
    # wedges of tangent fields project
    p = model.H.wedge(model.E)
    assert ideal.is_tangent_multivector(p)
    ideal.project(p)
    bad = model.chart.coordinate_field(0).wedge(model.E)
    assert not ideal.is_tangent_multivector(bad)


def test_classical_projection_cartan(model):
    """pr(d pr w) = pr(dw) and pr(i_{prX} pr w) = pr(i_X w) in the quotient."""
    from twistcalc.geometry import exterior_derivative, insert
    rng = random.Random(11)
    ideal = model.ideal
    gens = [model.H, model.E, model.Ep]
    for _ in range(5):
        w = DiffForm(model.chart, {})
        for k in range(3):
            w = w + model.chart.basis_form(k).scale(
                random_polynomial(model.chart, rng, degree=2, terms=2))
        resid = exterior_derivative(ideal.reduce(w)) - exterior_derivative(w)
        assert ideal.form_in_kernel(gens, resid)
        x = gens[rng.randrange(3)]
        resid = insert(ideal.reduce(x), ideal.reduce(w)) \
            - insert(x, w)
        assert ideal.form_in_kernel(gens, resid)


def test_form_kernel_detects_nonmembers(model):
    gens = [model.H, model.E, model.Ep]
    dx1 = model.chart.basis_form(0)
    assert not model.ideal.form_in_kernel(gens, dx1)
    gen_times = dx1.scale(model.generator)
    assert model.ideal.form_in_kernel(gens, gen_times)


def test_twist_project_report(model):
    rep = twist_project_report(model.ideal, model.calc, samples=50)
    assert rep.passed, rep.format_text()


def test_twist_project_report_trivial(model):
    calc = TwistedCalculus(model.real, trivial_twist(model.alg))
    rep = twist_project_report(model.ideal, calc, samples=10)
    assert rep.passed, rep.format_text()


def test_star_of_ideal_elements_stays_in_ideal(model):
    rng = random.Random(13)
    for _ in range(5):
        p = random_polynomial(model.chart, rng)
        q = random_polynomial(model.chart, rng)
        assert model.ideal.reduce(model.calc.star(model.generator * p, q)).is_zero
        assert model.ideal.reduce(model.calc.star(q, model.generator * p)).is_zero


def test_report_requires_tangent_generators(model):
    # a quadric the symmetry does not preserve: x1^2 + x2^2 + x3^2 - type
    bad = model.x[0] * model.x[0] + model.x[1] * model.x[1] \
        + model.x[2] * model.x[2] + model.chart.constant(model.c)
    ideal = QuadricIdeal(bad)
    rep = twist_project_report(ideal, model.calc, samples=2)
    assert not rep.passed


def test_quadric_requires_degree_two(model):
    with pytest.raises(ValueError):
        QuadricIdeal(model.x[0])


def test_truncation_order_one_drops_second_order():
    """At order 1 the x1 star x3 table stops after the first-order term."""
    from twistcalc.hyperboloid import HyperboloidModel
    m1 = HyperboloidModel(order=1)
    x1, x2, x3 = m1.x
    i, h, s = m1.ctx.i, m1.ctx.hbar(), m1.sqrt_a
    v = m1.calc.star(x1, x3)
    assert v == x1 * x3 + x1 * x2 * (2 * i * s) * h
    assert all(c.order == 1 for c in v.terms.values())
