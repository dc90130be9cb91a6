"""Tensor legs: products, embeddings, coproduct splicing, counit contraction."""

import random

from twistcalc.lie import so21
from twistcalc.linear import _acc
from twistcalc.tensors import TensorElement
from twistcalc.twists import jordanian_twist, r_matrix


def test_unit_absorbs(so21_alg):
    g = so21_alg
    t = TensorElement.from_legs(g.generator("H"), g.generator("E"))
    assert TensorElement.unit(g, 2) * t == t
    assert t * TensorElement.unit(g, 2) == t


def test_disjoint_legs(so21_alg):
    g = so21_alg
    H, E = g.generator("H"), g.generator("E")
    one = g.unit()
    assert (TensorElement.from_legs(H, one) * TensorElement.from_legs(one, E)
            == TensorElement.from_legs(H, E))


def test_legwise_pbw_renormalization(so21_alg):
    g = so21_alg
    H, E = g.generator("H"), g.generator("E")
    one = g.unit()
    lhs = TensorElement.from_legs(E, one) * TensorElement.from_legs(H, one)
    rhs = TensorElement.from_legs(H * E - E.scale(2), one)
    assert lhs == rhs


def test_leg_embed_examples(so21_alg):
    g = so21_alg
    H, E = g.generator("H"), g.generator("E")
    t = TensorElement.from_legs(H, E)
    assert t.leg_embed((1, 2), 3) == TensorElement.from_legs(H, E, g.unit())
    assert t.leg_embed((2, 1), 2) == TensorElement.from_legs(E, H)
    assert t.leg_embed((1, 3), 3) == TensorElement.from_legs(H, g.unit(), E)


def test_coproduct_on_leg_primitive(so21_alg):
    g = so21_alg
    H = g.generator("H")
    one = g.unit()
    t = TensorElement.from_legs(H, one)
    spliced = t.coproduct_on_leg(1)
    expected = (TensorElement.from_legs(H, one, one)
                + TensorElement.from_legs(one, H, one))
    assert spliced == expected
    assert TensorElement.unit(g, 2).coproduct_on_leg(2) == TensorElement.unit(g, 3)


def test_counit_recovers(so21_alg):
    g = so21_alg
    rng = random.Random(3)
    for _ in range(10):
        el = g.monomial(tuple(rng.randint(0, 2) for _ in range(3)),
                        rng.randint(1, 2))
        d = el.coproduct()
        assert d.counit_on_leg(1).to_pbw() == el
        assert d.counit_on_leg(2).to_pbw() == el


def test_coassociativity_random(so21_alg):
    g = so21_alg
    rng = random.Random(5)
    for _ in range(8):
        el = g.monomial(tuple(rng.randint(0, 2) for _ in range(3)))
        d = el.coproduct()
        assert d.coproduct_on_leg(1) == d.coproduct_on_leg(2)


def test_embed_respects_multiplication(so21_alg):
    g = so21_alg
    rng = random.Random(9)
    for _ in range(8):
        s = TensorElement.from_legs(
            g.monomial(tuple(rng.randint(0, 1) for _ in range(3))),
            g.monomial(tuple(rng.randint(0, 1) for _ in range(3))))
        t = TensorElement.from_legs(
            g.monomial(tuple(rng.randint(0, 1) for _ in range(3))),
            g.monomial(tuple(rng.randint(0, 1) for _ in range(3))))
        positions, arity = (2, 3), 4
        assert (s * t).leg_embed(positions, arity) == \
            s.leg_embed(positions, arity) * t.leg_embed(positions, arity)


def test_arity_mismatch_rejected(so21_alg):
    g = so21_alg
    import pytest
    with pytest.raises(ValueError):
        TensorElement.unit(g, 2) * TensorElement.unit(g, 3)
    with pytest.raises(ValueError):
        TensorElement.unit(g, 2).leg_embed((1, 1), 2)
    with pytest.raises(ValueError):
        TensorElement.unit(g, 2).leg_embed((1, 4), 3)


def test_exp_inverse(so21_alg):
    g = so21_alg
    ctx = g.ctx
    arg = TensorElement.from_legs(g.generator("H"), g.generator("E")).scale(ctx.hbar())
    f = arg.exp()
    assert f * f.inverse() == TensorElement.unit(g, 2)
    assert f.inverse() * f == TensorElement.unit(g, 2)


def _per_leg_product(a, b):
    """The tensor product as a per-leg loop that carries the series through
    every leg's normal form: the reference for the scalar-first product."""
    alg = a.alg
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            c = ca * cb
            if c.is_zero:
                continue
            partial = {(): c}
            for leg in range(a.arity):
                nf = alg.normal_word(alg.word_of(ka[leg]) + alg.word_of(kb[leg]))
                new = {}
                for key, cv in partial.items():
                    for m, sv in nf.items():
                        _acc(new, key + (m,), cv * sv)
                partial = new
            for key, cv in partial.items():
                _acc(out, key, cv)
    return TensorElement(alg, a.arity, out)


def _random_tensor(g, arity, coeffs, rng, terms=4):
    out = TensorElement.zero(g, arity)
    for _ in range(terms):
        legs = [g.monomial(tuple(rng.randint(0, 2) for _ in range(3)))
                for _ in range(arity)]
        out = out + TensorElement.from_legs(*legs).scale(rng.choice(coeffs))
    return out


def test_product_matches_per_leg_loop(ctx):
    g = so21(ctx)
    h = ctx.hbar()
    coeffs = [ctx.param("a"), ctx.radical("sqrt(a)"), 1 + h + h * h,
              ctx.i * ctx.param("c") * h, ctx.scalar(-3)]
    rng = random.Random(17)
    pairs = []
    for arity in (1, 2, 3):
        for _ in range(3):
            pairs.append((_random_tensor(g, arity, coeffs, rng),
                          _random_tensor(g, arity, coeffs, rng)))
    r = r_matrix(jordanian_twist(g, scale=ctx.i)).tensor
    r12, r13, r23 = (r.leg_embed(p, 3) for p in ((1, 2), (1, 3), (2, 3)))
    s = r.scale(1 + h + h * h)
    pairs += [(r12, r13), (r13, r23), (r12 * r13, r23), (r, s), (s, r.flip()),
              (s.leg_embed((1, 3), 3), _random_tensor(g, 3, coeffs, rng))]
    for a, b in pairs:
        assert a * b == _per_leg_product(a, b)
