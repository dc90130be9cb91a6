"""Equivariant metrics, Levi-Civita, braided curvature/torsion, twisting."""

import random
from fractions import Fraction

import pytest

from twistcalc.connections import (Connection, Metric, MetricError,
                                   connection_report, curvature,
                                   equivariance_report, flat_connection,
                                   koszul_levi_civita, levi_civita_report,
                                   torsion, twist_nabla, TwistedMetric)
from twistcalc.geometry import CoordSystem, MultiVector, PolyFunction, pairing
from twistcalc.twists import r_matrix


def rand_vf(chart, rng, deg=1):
    def f():
        out = chart.zero_fn()
        for _ in range(2):
            m = tuple(rng.randint(0, 1) for _ in range(chart.dim))
            if sum(m) <= deg:
                out = out + PolyFunction(
                    chart, {m: chart.ctx.series([rng.randint(-2, 2)])})
        return out
    return MultiVector.field(chart, tuple(f() for _ in range(chart.dim)))


def test_metric_requires_symmetry(ctx):
    chart = CoordSystem(ctx, 2)
    with pytest.raises(MetricError):
        Metric(chart, [[0, 1], [2, 0]])


def test_metric_equivariance_validated(model):
    # the Minkowski metric with the wrong x2-coefficient is not equivariant
    chart = model.chart
    half = Fraction(1, 2)
    with pytest.raises(MetricError):
        Metric(chart, [[0, 0, half], [0, 1 if not model.unit_a else 2, 0],
                       [half, 0, 0]], realization=model.real)


def test_flat_connection_examples(model):
    chart = model.chart
    conn = flat_connection(chart)
    d1, d2 = chart.coordinate_field(0), chart.coordinate_field(1)
    assert conn.nabla(d1, d2).is_zero
    x1 = chart.coordinate(0)
    assert conn.nabla(d1, d2.scale(x1)) == d2


def test_koszul_minkowski_and_euclidean(model, ctx):
    lc = model.connection
    assert not lc.gamma
    chart = CoordSystem(ctx, 3)
    ge = Metric(chart, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not koszul_levi_civita(ge).gamma


def test_koszul_nonconstant_metric(ctx):
    # g = diag(1, 1 + x1^2-style entries) with unit determinant solves exactly
    chart = CoordSystem(ctx, 2)
    x1 = chart.coordinate(0)
    g = Metric(chart, [[1, x1], [x1, x1 * x1 + 1]])
    conn = koszul_levi_civita(g)
    assert levi_civita_report(conn, g).passed


def test_koszul_error_path(ctx):
    chart = CoordSystem(ctx, 2)
    x1 = chart.coordinate(0)
    g = Metric(chart, [[1, 0], [0, x1 * x1]])
    with pytest.raises(MetricError):
        koszul_levi_civita(g)


def test_classical_curvature_torsion_flat(model):
    conn = flat_connection(model.chart)
    assert curvature(conn, model.real, model.H, model.E, model.Ep).is_zero
    assert torsion(conn, model.real, model.H, model.E).is_zero


def test_braided_torsion_skew(model):
    """Tor(Y,X) = -Tor(R1^{-1}|>X, R2^{-1}|>Y) with the braiding legs."""
    conn = model.connection
    rm = r_matrix(model.twist)
    rng = random.Random(5)
    chart = model.chart
    for _ in range(4):
        x, y = rand_vf(chart, rng), rand_vf(chart, rng)
        lhs = torsion(conn, model.real, y, x, rinv=rm.inv)
        rhs = MultiVector.zero(chart)
        for (m1, m2), cv in rm.inv.terms.items():
            xb = model.real.act_monomial(m1, x)
            yb = model.real.act_monomial(m2, y)
            rhs = rhs + torsion(conn, model.real, xb, yb, rinv=rm.inv).scale(
                chart.constant(1) * cv)
        assert lhs == -rhs


def test_curvature_left_linearity(model):
    """R(a X, Y) s = a R(X, Y) s: classical tensoriality for any Christoffel
    data, and the braided instance for the (equivariant) flat connection."""
    rng = random.Random(9)
    chart = model.chart
    gamma = {(0, 1, 2): chart.coordinate(0), (2, 0, 0): chart.coordinate(1)}
    conn = Connection(chart, gamma)
    for _ in range(3):
        a = chart.coordinate(rng.randrange(3))
        x, y, z = (rand_vf(chart, rng) for _ in range(3))
        lhs = curvature(conn, model.real, x.scale(a), y, z)
        rhs = curvature(conn, model.real, x, y, z).scale(a)
        assert lhs == rhs
    rm = r_matrix(model.twist)
    flat = flat_connection(chart)
    for _ in range(2):
        a = chart.coordinate(rng.randrange(3))
        x, y, z = (rand_vf(chart, rng) for _ in range(3))
        assert curvature(flat, model.real, x.scale(a), y, z, rinv=rm.inv).is_zero
        assert curvature(flat, model.real, x, y, z, rinv=rm.inv).is_zero


def test_eq_nabla_relations(model):
    conn = model.connection
    chart = model.chart
    i, h = model.ctx.i, model.ctx.hbar()
    twoi = chart.constant(2 * i) * h
    onei = chart.constant(i) * h
    H, E, Ep = model.H, model.E, model.Ep
    nabF = lambda x, y: twist_nabla(model.real, model.twist, conn, x, y)
    nab = conn.nabla
    assert nabF(E, H) == nab(E, H) + nab(E, E).scale(twoi)
    assert nabF(Ep, H) == nab(Ep, H) - nab(Ep, E).scale(twoi)
    assert nabF(E, Ep) == nab(E, Ep) + nab(E, H).scale(onei) \
        - nab(E, E).scale(chart.constant(2) * h * h)
    assert nabF(Ep, Ep) == nab(Ep, Ep) - nab(Ep, H).scale(onei)
    # combinations with H in the direction slot stay undeformed
    assert nabF(H, H) == nab(H, H)
    assert nabF(H, E) == nab(H, E)


def test_twist_nabla_braided_leibniz(model):
    """nab^F_X(a .F s) = (L^F_X a) .F s + (R1^{-1}|>a) .F nab^F_{R2^{-1}|>X} s."""
    conn = model.connection
    calc = model.calc
    chart = model.chart
    rm = r_matrix(model.twist)
    rng = random.Random(13)

    def mod_action(a, s):
        # a .F s: the twisted module action of a function on a field
        out = MultiVector.zero(chart)
        for (m1, m2), cv in model.twist.inv.terms.items():
            ab = model.real.act_monomial(m1, a)
            sb = model.real.act_monomial(m2, s)
            out = out + sb.scale(ab).scale(chart.constant(1) * cv)
        return out

    for _ in range(3):
        a = chart.coordinate(rng.randrange(3))
        x = (model.E, model.Ep, model.H)[rng.randrange(3)]
        s = rand_vf(chart, rng)
        lhs = twist_nabla(model.real, model.twist, conn, x, mod_action(a, s))
        rhs = mod_action(calc.lie_fn(x, a), s)
        for (m1, m2), cv in rm.inv.terms.items():
            ab = model.real.act_monomial(m1, a)
            xb = model.real.act_monomial(m2, x)
            piece = mod_action(ab, twist_nabla(model.real, model.twist, conn, xb, s))
            rhs = rhs + piece.scale(chart.constant(1) * cv)
        assert lhs == rhs


def test_equivariance_of_flat_connection(model):
    assert equivariance_report(model.real, flat_connection(model.chart)).passed


def test_connection_report(model):
    frame = [model.H, model.E, model.Ep] + \
        [model.chart.coordinate_field(k) for k in range(3)]
    rep = connection_report(model.real, model.twist, model.connection,
                            model.metric, frame=frame)
    assert rep.passed, rep.format_text()


def test_twisted_metric_values(model):
    gF = TwistedMetric(model.real, model.twist, model.metric)
    chart = model.chart
    # g_F on coordinate fields picks up the twist corrections:
    # g_F(d1, d3) = g(d1, d3) since H-weights cancel on that pair
    d1, d3 = chart.coordinate_field(0), chart.coordinate_field(2)
    assert gF.eval(d1, d3) == model.metric.eval(d1, d3)
    # braided symmetry: g_F(Y,X) = g_F(R1^{-1}|>X, R2^{-1}|>Y)
    rm = r_matrix(model.twist)
    x, y = model.E, model.Ep
    lhs = gF.eval(y, x)
    rhs = chart.zero_fn()
    for (m1, m2), cv in rm.inv.terms.items():
        xb = model.real.act_monomial(m1, x)
        yb = model.real.act_monomial(m2, y)
        rhs = rhs + gF.eval(xb, yb) * cv
    assert lhs == rhs


def test_dual_connection_pairing(model):
    conn = model.connection
    chart = model.chart
    rng = random.Random(21)
    from twistcalc.geometry import DiffForm
    for _ in range(3):
        x = rand_vf(chart, rng)
        y = rand_vf(chart, rng)
        w = DiffForm(chart, {(0,): chart.coordinate(1), (2,): chart.coordinate(0)})
        lhs = pairing(conn.nabla_form(x, w), y)
        rhs = x.apply(pairing(w, y)) - pairing(w, conn.nabla(x, y))
        assert lhs == rhs
