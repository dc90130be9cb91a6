"""Classical Cartan calculus, Hopf actions and *-involutions on R^3."""

import random
from itertools import combinations, product

import pytest

from twistcalc.connections import Connection
from twistcalc.geometry import (CoordSystem, DiffForm, MultiVector,
                                PolyFunction, Realization,
                                exterior_derivative as d, insert,
                                lie_form, pairing, schouten)
from twistcalc.hyperboloid import HyperboloidModel


def sgn(e):
    return -1 if e % 2 else 1


@pytest.fixture(scope="module")
def chart(ctx):
    return CoordSystem(ctx, 3)


@pytest.fixture(scope="module")
def rng():
    return random.Random(101)


def rand_fn(chart, rng, deg=2):
    f = chart.zero_fn()
    for _ in range(3):
        m = tuple(rng.randint(0, 1) for _ in range(3))
        if sum(m) <= deg:
            f = f + PolyFunction(chart, {m: chart.ctx.series([rng.randint(-2, 2)])})
    return f


def rand_mv(chart, rng, k):
    out = MultiVector.zero(chart)
    for m in combinations(range(3), k):
        out = out + MultiVector(chart, {m: rand_fn(chart, rng, 1)})
    return out


def rand_form(chart, rng, k):
    out = DiffForm.zero(chart)
    for m in combinations(range(3), k):
        out = out + DiffForm(chart, {m: rand_fn(chart, rng, 1)})
    return out


def test_vf_apply_examples(chart):
    x1, x2 = chart.coordinate(0), chart.coordinate(1)
    d1 = chart.coordinate_field(0)
    assert d1.apply(x1 * x2) == x2
    assert d1.apply(chart.one_fn()).is_zero


def test_44_fields_annihilate_generator(model):
    f = model.generator
    for fld in (model.H, model.E, model.Ep):
        assert fld.apply(f).is_zero


def test_44_bracket_table(model):
    assert model.H.bracket(model.E) == model.E.scale(model.chart.constant(2))
    assert model.H.bracket(model.Ep) == model.Ep.scale(model.chart.constant(-2))
    assert model.Ep.bracket(model.E) == model.H


def test_vf_bracket_coordinates(chart):
    assert chart.coordinate_field(0).bracket(chart.coordinate_field(1)).is_zero


def test_bracket_antisymmetry_jacobi(chart, rng):
    for _ in range(6):
        x = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
        y = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
        z = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
        assert x.bracket(y) == -(y.bracket(x))
        jac = (x.bracket(y.bracket(z)) + z.bracket(x.bracket(y))
               + y.bracket(z.bracket(x)))
        assert jac.is_zero


def test_field_operations_reject_other_degrees(chart):
    x1 = chart.coordinate(0)
    d1 = chart.coordinate_field(0)
    for other in (MultiVector.from_function(x1), d1.wedge(chart.coordinate_field(1))):
        with pytest.raises(ValueError, match="vector field"):
            other.apply(x1)
        with pytest.raises(ValueError, match="vector field"):
            other.bracket(d1)
        with pytest.raises(ValueError, match="vector field"):
            d1.bracket(other)


def test_schouten_of_fields_is_bracket(chart):
    rng = random.Random(202)
    for _ in range(6):
        x = MultiVector.field(chart, tuple(rand_fn(chart, rng, 2) for _ in range(3)))
        y = MultiVector.field(chart, tuple(rand_fn(chart, rng, 2) for _ in range(3)))
        assert schouten(x, y) == x.bracket(y)


def test_wedge_antisymmetry(chart):
    d1 = chart.coordinate_field(0)
    d2 = chart.coordinate_field(1)
    assert d1.wedge(d2) == -(d2.wedge(d1))
    assert d1.wedge(d1).is_zero


def test_schouten_degree_rules(chart, rng):
    x = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
    f = rand_fn(chart, rng)
    assert schouten(x, MultiVector.from_function(f)) == \
        MultiVector.from_function(x.apply(f))
    x1 = chart.coordinate(0)
    p = MultiVector(chart, {(1, 2): x1})
    assert schouten(chart.coordinate_field(0), p) == \
        MultiVector(chart, {(1, 2): chart.one_fn()})


def test_schouten_gerstenhaber_laws(chart, rng):
    for (kk, ll, mm) in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1)]:
        x, y, z = (rand_mv(chart, rng, k) for k in (kk, ll, mm))
        assert schouten(y, x) == \
            schouten(x, y).scale(chart.constant(-sgn((kk - 1) * (ll - 1))))
        jac = (schouten(x, schouten(y, z)) - schouten(schouten(x, y), z)
               - schouten(y, schouten(x, z)).scale(
                   chart.constant(sgn((kk - 1) * (ll - 1)))))
        assert jac.is_zero
        leib = (schouten(x, y.wedge(z)) - schouten(x, y).wedge(z)
                - y.wedge(schouten(x, z)).scale(chart.constant(sgn((kk - 1) * ll))))
        assert leib.is_zero


def test_exterior_derivative_examples(chart):
    x1 = chart.coordinate(0)
    assert d(DiffForm.from_function(x1)) == chart.basis_form(0)
    w = chart.basis_form(1).scale(x1)
    assert d(w) == chart.basis_form(0).wedge(chart.basis_form(1))


def test_d_squared_zero(chart, rng):
    for k in range(3):
        assert d(d(rand_form(chart, rng, k))).is_zero


def test_insert_examples(chart):
    d1 = chart.coordinate_field(0)
    dx1, dx2 = chart.basis_form(0), chart.basis_form(1)
    assert insert(d1, dx1) == DiffForm.from_function(chart.one_fn())
    assert insert(d1, dx1.wedge(dx2)) == dx2
    # degree-0 insertion is multiplication
    f = chart.coordinate(2)
    assert insert(MultiVector.from_function(f), dx1) == dx1.scale(f)
    # i_{X^Y} = i_X i_Y
    x, y = d1, chart.coordinate_field(1)
    w = dx1.wedge(dx2)
    assert insert(x.wedge(y), w) == insert(x, insert(y, w))


def test_lie_form_example(chart):
    x1 = chart.coordinate(0)
    w = chart.basis_form(1).scale(x1)
    assert lie_form(chart.coordinate_field(0), w) == chart.basis_form(1)


def test_cartan_identities_random(chart, rng):
    cases = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3), (0, 1, 1), (1, 0, 2)]
    for (kk, ll, kw) in cases:
        x, y, w = rand_mv(chart, rng, kk), rand_mv(chart, rng, ll), \
            rand_form(chart, rng, kw)
        br = schouten(x, y)
        r = (lie_form(x, lie_form(y, w))
             - lie_form(y, lie_form(x, w)).scale(
                 chart.constant(sgn((kk - 1) * (ll - 1))))
             - lie_form(br, w))
        assert r.is_zero
        r = (lie_form(x, insert(y, w))
             - insert(y, lie_form(x, w)).scale(chart.constant(sgn((kk - 1) * ll)))
             - insert(br, w))
        assert r.is_zero
        r = (insert(x, insert(y, w))
             - insert(y, insert(x, w)).scale(chart.constant(sgn(kk * ll))))
        assert r.is_zero
        r = (lie_form(x, d(w))
             - d(lie_form(x, w)).scale(chart.constant(sgn(1 - kk))))
        assert r.is_zero
        r = (insert(x, d(w)) - d(insert(x, w)).scale(chart.constant(sgn(kk)))
             - lie_form(x, w))
        assert r.is_zero


def test_realization_validates_brackets(ctx, chart):
    from twistcalc.lie import so21
    g = so21(ctx)
    bad = {"H": chart.coordinate_field(0), "E": chart.coordinate_field(1),
           "Ep": chart.coordinate_field(2)}
    with pytest.raises(ValueError):
        Realization(g, chart, bad)
    with pytest.raises(ValueError):
        Realization(g, chart, {"H": chart.coordinate_field(0)})


def test_realization_accepts_zero_field_rejects_bivector(ctx, chart):
    from twistcalc.lie import abelian
    g = abelian(ctx, ("P", "Q"))
    real = Realization(g, chart, {"P": MultiVector.zero(chart),
                                  "Q": chart.coordinate_field(0)})
    x1 = chart.coordinate(0)
    assert real.act(g.generator("P"), x1).is_zero
    assert real.act(g.generator("Q"), x1) == chart.one_fn()
    bivector = chart.coordinate_field(0).wedge(chart.coordinate_field(1))
    with pytest.raises(TypeError):
        Realization(g, chart, {"P": bivector, "Q": chart.coordinate_field(0)})


def test_act_rejects_unrealized_algebra(model, plain_ctx):
    from twistcalc.lie import abelian
    foreign = abelian(plain_ctx, ("P", "Q"))
    with pytest.raises(ValueError):
        model.real.act(foreign.generator("P"), model.x[0])


def test_hopf_action_examples(model):
    x1, x2, x3 = model.x
    H = model.alg.generator("H")
    E = model.alg.generator("E")
    s, a = model.sqrt_a, model.a
    assert model.real.act(H, x1) == x1 * 2
    assert model.real.act(H, x3) == x3 * (-2)
    assert model.real.act(E, x3) == x2 * (-2) * s
    assert model.real.act(E, x2) == x1 * (s / a)
    # xi |> 1 = eps(xi) 1
    assert model.real.act(H, model.chart.one_fn()).is_zero
    one = model.alg.unit()
    assert model.real.act(one, x1) == x1


def test_module_algebra_law(model, rng):
    # xi |> (fg) = (xi_(1) |> f)(xi_(2) |> g) for monomials of degree <= 2
    real = model.real
    chart = model.chart
    els = [model.alg.generator("H") * model.alg.generator("E"),
           model.alg.generator("E") * model.alg.generator("E"),
           model.alg.generator("H")]
    for el in els:
        for _ in range(3):
            f = rand_fn(chart, rng)
            g = rand_fn(chart, rng)
            lhs = real.act(el, f * g)
            rhs = chart.zero_fn()
            for (m1, m2), cv in el.coproduct().terms.items():
                rhs = rhs + (real.act_monomial(m1, f) * real.act_monomial(m2, g)) * cv
            assert lhs == rhs


def test_adjoint_action_on_fields_is_bracket(model):
    # primitives act on vector fields as the bracket with the realized field
    H = model.alg.generator("H")
    target = model.E
    assert model.real.act(H, target) == model.H.bracket(target)


def test_form_action_matches_pairing(model, rng):
    # <xi |> w, X> = xi_(1) |> <w, S(xi_(2)) |> X> for monomials
    real = model.real
    chart = model.chart
    el = model.alg.generator("E") * model.alg.generator("H")
    w = chart.basis_form(0).scale(rand_fn(chart, rng, 1)) \
        + chart.basis_form(2).scale(rand_fn(chart, rng, 1))
    x = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
    lhs = pairing(real.act(el, w).homogeneous(1), x)
    rhs = chart.zero_fn()
    for (m1, m2), cv in el.coproduct().terms.items():
        s_leg = model.alg.element({m2: 1}).antipode()
        inner = MultiVector.zero(chart)
        for m, c2 in s_leg.terms.items():
            inner = inner + real.act_monomial(m, x).scale(chart.constant(1) * c2)
        rhs = rhs + real.act_monomial(m1, pairing(w, inner)) * cv
    assert lhs == rhs


def test_star_involution(chart, rng):
    x1 = chart.coordinate(0)
    i = chart.ctx.i
    assert (x1 * i).star() == x1 * (-i)
    assert chart.coordinate_field(0).star() == -chart.coordinate_field(0)
    for k in (1, 2):
        w = rand_form(chart, rng, k).scale(i)
        assert w.star().star() == w
        p = rand_mv(chart, rng, k)
        assert p.star().star() == p


def test_field_star_law(chart, rng):
    # L_{X*} f = -(L_X f*)*
    x = MultiVector.field(chart, tuple(rand_fn(chart, rng, 1) for _ in range(3)))
    f = rand_fn(chart, rng) * chart.ctx.i
    assert x.star().apply(f) == -(x.apply(f.star()).star())


def test_act_monomial_matches_the_word(model):
    # the suffix-memoised action equals the PBW word applied letter by letter
    real = Realization(model.alg, model.chart, model.real.fields)   # cold cache
    chart = model.chart
    x1, x2, x3 = model.x
    f = x1 * x3 + x2 * x2 * model.sqrt_a + chart.constant(model.c)
    mv = model.E.wedge(chart.coordinate_field(2))
    form = chart.basis_form(0).wedge(chart.basis_form(1)).scale(x3) \
        + chart.basis_form(2).scale(x2 * model.ctx.i)
    monomials = [e for e in product(range(5), repeat=3) if sum(e) <= 4]
    assert (1, 1, 1) in monomials and (2, 1, 1) in monomials and len(monomials) == 35

    def by_word(exps, obj):
        for letter in reversed(model.alg.word_of(exps)):
            obj = real._act_letter(letter, obj)
        return obj

    for obj in (f, model.Ep, mv, form):
        for exps in monomials:
            assert real.act_monomial(exps, obj) == by_word(exps, obj), (exps, obj)


@pytest.fixture(scope="module")
def model3():
    return HyperboloidModel(order=3)


def test_contract_matches_per_term_sum(model3):
    # grouping by first leg gives the plain sum over F^{-1} and R^{-1}
    m = model3
    real, chart = m.real, m.chart
    x1, x2, x3 = m.x
    i = m.ctx.i
    f = x1 * x3 + x2 * x2 * m.sqrt_a
    g = x2 + x1 * x1 * i
    xa = m.E.scale(x2) + m.H
    xb = m.Ep + chart.coordinate_field(1).scale(x1)
    mv1 = xa
    mv2 = m.Ep.wedge(chart.coordinate_field(0))
    w1 = chart.basis_form(0).scale(x3) + chart.basis_form(1).scale(x2 * i)
    w2 = chart.basis_form(1).wedge(chart.basis_form(2)).scale(x1)
    conn = Connection(chart, {(0, 1, 2): x1, (2, 2, 0): chart.constant(m.sqrt_a)})
    cases = [(lambda u, v: u * v, f, g),
             (lambda u, v: u.wedge(v), mv1, mv2),
             (lambda u, v: u.wedge(v), w1, w2),
             (schouten, mv1, mv2),
             (lie_form, mv1, w2),
             (insert, mv2, w2),
             (MultiVector.apply, xa, f),
             (MultiVector.bracket, xa, xb),
             (conn.nabla, xa, xb),
             (m.metric.eval, xa, xb)]
    for tensor in (m.twist.inv, m.calc.rmatrix.inv):
        for combine, first, second in cases:
            ref = None
            for (m1, m2), c in tensor.terms.items():
                piece = combine(real.act_monomial(m1, first),
                                real.act_monomial(m2, second)).scale(c)
                ref = piece if ref is None else ref + piece
            assert real.contract(tensor, first, second, combine) == ref
