"""Linear and bilinear extension of basis maps, checked against hand-written loops."""

import random

import pytest

from twistcalc.finite_hopf import sweedler_h4
from twistcalc.lie import so21
from twistcalc.linear import _acc, extend_bilinear, extend_linear
from twistcalc.tensors import TensorElement
from twistcalc.twists import ClassicalR


def test_cancelling_sum_is_dropped(plain_ctx):
    one = plain_ctx.one
    c = plain_ctx.series([2, 1])
    images = {"p": {"x": one, "y": one}, "q": {"x": -one}}
    assert extend_linear({"p": c, "q": c}, images.__getitem__) == {"y": c}
    products = {("p", "r"): {"x": one}, ("q", "r"): {"x": -one}}
    assert extend_bilinear({"p": c, "q": c}, {"r": c},
                           lambda a, b: products[(a, b)]) == {}


def test_zero_coefficient_product_never_reaches_the_map(plain_ctx):
    h = plain_ctx.series([0, 1])
    top = plain_ctx.series([0] * plain_ctx.order + [1])
    seen = []

    def products(a, b):
        seen.append((a, b))
        return {a + b: plain_ctx.one}

    # hbar * hbar^order vanishes under truncation
    assert extend_bilinear({"p": h}, {"q": top}, products) == {}
    assert seen == []


def test_unit_constant_passes_through(plain_ctx):
    c = plain_ctx.series([plain_ctx.i, 3, 0, 1])
    one = plain_ctx.one
    out = extend_linear({"p": c}, lambda k: {"x": one, "y": one * 2})
    assert out["x"] is c
    assert out == {"x": c * one, "y": c * 2}
    out = extend_bilinear({"p": c}, {"q": c}, lambda a, b: {"x": one})
    assert out == {"x": c * c * one}


def test_series_is_one(plain_ctx):
    ctx = plain_ctx
    assert ctx.series([1]).is_one
    assert ctx.series_one(2).is_one
    assert not ctx.series([1, 1]).is_one
    assert not ctx.series([0]).is_one
    assert not ctx.series([ctx.i]).is_one
    assert not ctx.series([0, 0, 1]).is_one


# -- differential test against the per-method loops the kernel replaced ----------


def _pbw_mul(x, y):
    alg = x.alg
    out = {}
    for ma, ca in x.terms.items():
        wa = alg.word_of(ma)
        for mb, cb in y.terms.items():
            cc = ca * cb
            if cc.is_zero:
                continue
            for m, sv in alg.normal_word(wa + alg.word_of(mb)).items():
                _acc(out, m, cc * sv)
    return out


def _pbw_coproduct(x):
    out = {}
    for m, c in x.terms.items():
        for key, sv in x.alg.coproduct_monomial(m).items():
            _acc(out, key, c * sv)
    return out


def _pbw_antipode(x):
    out = {}
    for m, c in x.terms.items():
        for m2, sv in x.alg.antipode_monomial(m).items():
            _acc(out, m2, c * sv)
    return out


def _pbw_star(x):
    eps = x.alg.involution
    out = {}
    for m, c in x.terms.items():
        sign = 1
        for i, k in enumerate(m):
            if k and eps[i] == -1 and k % 2:
                sign = -sign
        word = tuple(reversed(x.alg.word_of(m)))
        cc = c.conjugate() * sign
        for m2, sv in x.alg.normal_word(word).items():
            _acc(out, m2, cc * sv)
    return out


def _contract_mul(t):
    alg = t.alg
    out = {}
    for key, c in t.terms.items():
        word = ()
        for m in key:
            word += alg.word_of(m)
        for m, sv in alg.normal_word(word).items():
            _acc(out, m, c * sv)
    return out


def _random_coefficient(ctx, rng):
    a = ctx.param("a")
    atoms = [1, -2, ctx.i, a, a * ctx.i + 1]
    return ctx.series([rng.choice(atoms) if rng.random() < 0.6 else 0
                       for _ in range(ctx.order + 1)])


def _random_pbw(g, rng, terms=4, degree=3):
    out = g.zero_el()
    for _ in range(terms):
        exps = [0] * g.dim
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(g.dim)] += 1
        out = out + g.monomial(tuple(exps), _random_coefficient(g.ctx, rng))
    return out


def test_pbw_and_tensor_maps_match_term_loops(ctx):
    g = so21(ctx)
    rng = random.Random(1717)
    for _ in range(3):
        x, y = _random_pbw(g, rng), _random_pbw(g, rng)
        assert (x * y).terms == _pbw_mul(x, y)
        assert x.coproduct().terms == _pbw_coproduct(x)
        assert x.antipode().terms == _pbw_antipode(x)
        assert x.star().terms == _pbw_star(x)
        t = TensorElement.from_legs(x, y) + TensorElement.from_legs(y, g.generator("H"))
        assert t.contract_mul().terms == _contract_mul(t)


def _random_vec(h, rng, legs=0):
    ctx = h.ctx
    atoms = [ctx.one, -ctx.one, ctx.i, ctx.param("a"), ctx.param("c") - ctx.i]
    out = {}
    for _ in range(4):
        key = rng.randrange(h.dim) if not legs else tuple(
            rng.randrange(h.dim) for _ in range(legs))
        _acc(out, key, rng.choice(atoms))
    return out


def test_sweedler_table_maps_match_term_loops(ctx):
    h = sweedler_h4(ctx)
    rng = random.Random(44)
    for _ in range(5):
        u, v, t = _random_vec(h, rng), _random_vec(h, rng), _random_vec(h, rng, legs=2)
        mul = {}
        for i, cu in u.items():
            for j, cv in v.items():
                for k, ck in h.mult[(i, j)].items():
                    _acc(mul, k, cu * cv * ck)
        assert h.mul_vec(u, v) == mul
        delta, anti = {}, {}
        for i, c in u.items():
            for key, cv in h.coproduct[i].items():
                _acc(delta, key, c * cv)
            for k, cv in h.antipode[i].items():
                _acc(anti, k, c * cv)
        assert h.delta_vec(u) == delta
        assert h.antipode_vec(u) == anti
        for leg in (0, 1):
            on_leg = {}
            for key, c in t.items():
                for (a, b), cv in h.coproduct[key[leg]].items():
                    _acc(on_leg, key[:leg] + (a, b) + key[leg + 1:], c * cv)
            assert h.delta_on_leg(t, leg) == on_leg


# -- ClassicalR as a linear combination -----------------------------------------------


def test_classical_r_linear_structure(so21_alg):
    g = so21_alg
    i = g.ctx.i
    r = ClassicalR.from_wedge(g, {("H", "E"): 1})
    s = ClassicalR.from_wedge(g, {("E", "Ep"): i})
    both = ClassicalR.from_wedge(g, {("H", "E"): 1, ("E", "Ep"): i})
    assert r + s == both
    assert both - s == r
    assert (r - r).is_zero
    assert -r == ClassicalR.from_wedge(g, {("E", "H"): 1})
    assert hash(r + s) == hash(both)
    assert len({r, both - s, s}) == 2
    assert both.coeff((2, 1)) == -i
    with pytest.raises(ValueError, match="skew"):
        ClassicalR(g, {(0, 1): 1})
