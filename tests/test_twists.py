"""Drinfel'd twists: construction, verification, twisted structures,
R-matrices, unitarity, classical r-matrices and composition."""

import random
from fractions import Fraction

import pytest

from twistcalc import Context
from twistcalc.lie import abelian, so21
from twistcalc.starcalc import hbar_coefficient
from twistcalc.tensors import TensorElement
from twistcalc.twists import (ClassicalR, Twist, abelian_twist,
                              check_unitary, classical_r, compose_twists,
                              cybe_check, jordanian_twist, r_matrix,
                              schouten_square, symplectic_leaf, trivial_twist,
                              twisted_antipode, twisted_coproduct, verify_rmatrix,
                              verify_twist)


@pytest.fixture(scope="module")
def jord(plain_ctx, so21_alg):
    return jordanian_twist(so21_alg, "H", "E", scale=plain_ctx.i)


@pytest.fixture(scope="module")
def ab_alg(plain_ctx):
    return abelian(plain_ctx, ("X", "Y"), anti_hermitian=True)


@pytest.fixture(scope="module")
def ab_twist(plain_ctx, ab_alg):
    return abelian_twist(ab_alg, [("X", "Y")], scale=plain_ctx.i)


def test_jordanian_first_order(plain_ctx, so21_alg, jord):
    g = so21_alg
    h, i = plain_ctx.hbar(), plain_ctx.i
    first = TensorElement.unit(g, 2) + TensorElement.from_legs(
        g.generator("H").scale(Fraction(1, 2)), g.generator("E")).scale(h * i)
    diff = jord.tensor - first
    # no terms of hbar-order < 2 remain
    assert all(c.coeff(0).is_zero and c.coeff(1).is_zero
               for c in diff.terms.values())


def test_trivial_twist(so21_alg):
    t = trivial_twist(so21_alg)
    assert t.tensor == TensorElement.unit(so21_alg, 2)
    assert verify_twist(t).passed


def test_abelian_twist_terms(plain_ctx, ab_alg, ab_twist):
    # exp(i hbar x ox y) = sum (i hbar)^n/n! x^n ox y^n
    g = ab_alg
    expected = TensorElement.zero(g, 2)
    fact = 1
    for n in range(plain_ctx.order + 1):
        if n:
            fact *= n
        coeff = (plain_ctx.hbar() * plain_ctx.i) ** n * Fraction(1, fact)
        expected = expected + TensorElement.from_legs(
            g.monomial((n, 0)), g.monomial((0, n))).scale(coeff)
    assert ab_twist.tensor == expected


def test_abelian_requires_commuting(plain_ctx, so21_alg):
    with pytest.raises(ValueError):
        abelian_twist(so21_alg, [("H", "E")])


def test_jordanian_requires_bracket(plain_ctx, so21_alg):
    with pytest.raises(ValueError):
        jordanian_twist(so21_alg, "H", "Ep")


def test_verify_twist_suites(jord, ab_twist, so21_alg):
    assert verify_twist(jord).passed
    assert verify_twist(ab_twist).passed
    assert verify_twist(trivial_twist(so21_alg)).passed
    # the cached inverse is two-sided
    one = TensorElement.unit(jord.alg, 2)
    assert jord.tensor * jord.inv == one
    assert jord.inv * jord.tensor == one


def test_inverse_cocycle_condition(jord, ab_twist):
    # (Delta ox id)(F^-1)(F^-1 ox 1) = (id ox Delta)(F^-1)(1 ox F^-1),
    # the mirrored condition satisfied by inverses of twists
    for twist in (jord, ab_twist):
        inv = twist.inv
        lhs = inv.coproduct_on_leg(1) * inv.leg_embed((1, 2), 3)
        rhs = inv.coproduct_on_leg(2) * inv.leg_embed((2, 3), 3)
        assert lhs == rhs


def test_non_cocycle_detected(plain_ctx, so21_alg):
    g = so21_alg
    bad = TensorElement.unit(g, 2) + TensorElement.from_legs(
        g.generator("H"), g.generator("H")).scale(plain_ctx.hbar())
    rep = verify_twist(bad)
    names = {c.name: c.passed for c in rep.checks}
    assert names["normalization left"] and names["normalization right"]
    assert not names["2-cocycle"]
    with pytest.raises(ValueError):
        Twist(bad)


def test_twisted_coproduct_jordanian(plain_ctx, so21_alg, jord):
    g = so21_alg
    i, h = plain_ctx.i, plain_ctx.hbar()
    E, H = g.generator("E"), g.generator("H")
    assert twisted_coproduct(jord, E) == \
        E.coproduct() + TensorElement.from_legs(E, E).scale(h * i)
    # Delta_F(H) = Delta(H) - i hbar (H ox E/(1+i hbar E))
    geo = g.zero_el()
    for n in range(plain_ctx.order + 1):
        geo = geo + (E ** n).scale((h * i * (-1)) ** n)
    assert twisted_coproduct(jord, H) == \
        H.coproduct() - TensorElement.from_legs(H, E * geo).scale(h * i)


def test_twisted_coproduct_trivial(so21_alg):
    t = trivial_twist(so21_alg)
    for name in so21_alg.names:
        el = so21_alg.generator(name)
        assert twisted_coproduct(t, el) == el.coproduct()
        assert twisted_antipode(t, el) == el.antipode()


def test_twisted_coproduct_is_algebra_map(plain_ctx, so21_alg, jord):
    rng = random.Random(3)
    for _ in range(5):
        a = so21_alg.monomial(tuple(rng.randint(0, 1) for _ in range(3)))
        b = so21_alg.monomial(tuple(rng.randint(0, 1) for _ in range(3)))
        assert twisted_coproduct(jord, a * b) == \
            twisted_coproduct(jord, a) * twisted_coproduct(jord, b)


def test_twisted_coproduct_coassociative(so21_alg, jord):
    for name in so21_alg.names:
        d = twisted_coproduct(jord, so21_alg.generator(name))
        assert jord.delta_f_on_leg(d, 1) == jord.delta_f_on_leg(d, 2)


def test_twisted_antipode_jordanian(plain_ctx, so21_alg, jord):
    g = so21_alg
    i, h = plain_ctx.i, plain_ctx.hbar()
    E, H = g.generator("E"), g.generator("H")
    one = g.unit()
    assert twisted_antipode(jord, H) == (-H) * (one + E.scale(h * i))
    geo = g.zero_el()
    for n in range(plain_ctx.order + 1):
        geo = geo + (E ** n).scale((h * i * (-1)) ** n)
    assert twisted_antipode(jord, E) == (-E) * geo


def test_beta_inverse_pair(jord):
    assert jord.beta() * jord.beta_inv() == jord.alg.unit()
    assert jord.beta_inv() * jord.beta() == jord.alg.unit()


def test_twisted_antipode_axiom(so21_alg, jord):
    # mu (S_F ox id) Delta_F = eta eps on basis elements
    g = so21_alg
    for name in g.names:
        el = g.generator(name)
        d = twisted_coproduct(jord, el)
        lhs = d.map_leg(1, lambda m: twisted_antipode(
            jord, g.element({m: 1})).terms).contract_mul()
        assert lhs == g.unit().scale(el.counit())


def test_beta_coproduct_identity(so21_alg, jord, plain_ctx, ab_alg, ab_twist):
    # F Delta(beta) (S(F_2) ox S(F_1)) = beta ox beta
    for twist in (jord, ab_twist):
        beta = twist.beta()
        rhs = TensorElement.from_legs(beta, beta)
        swapped = twist.tensor.flip().antipode_on_leg(1).antipode_on_leg(2)
        lhs = twist.tensor * beta.coproduct() * swapped
        assert lhs == rhs


def test_r_matrix_trivial(so21_alg):
    rm = r_matrix(trivial_twist(so21_alg))
    assert rm.tensor == TensorElement.unit(so21_alg, 2)


def test_r_matrix_abelian_closed_form(plain_ctx, ab_alg, ab_twist):
    # R = exp(i hbar y ox x) exp(-i hbar x ox y) for commuting legs
    g = ab_alg
    i, h = plain_ctx.i, plain_ctx.hbar()
    X = TensorElement.from_legs(g.generator("X"), g.generator("Y"))
    Y = TensorElement.from_legs(g.generator("Y"), g.generator("X"))
    expected = Y.scale(h * i).exp() * X.scale(h * i * (-1)).exp()
    assert r_matrix(ab_twist).tensor == expected


def test_r_matrix_jordanian_first_order(plain_ctx, so21_alg, jord):
    g = so21_alg
    i, h = plain_ctx.i, plain_ctx.hbar()
    rm = r_matrix(jord)
    first = (TensorElement.from_legs(g.generator("E"),
                                     g.generator("H").scale(Fraction(1, 2)))
             - TensorElement.from_legs(g.generator("H").scale(Fraction(1, 2)),
                                       g.generator("E"))).scale(h * i)
    diff = rm.tensor - TensorElement.unit(g, 2) - first
    assert all(c.coeff(0).is_zero and c.coeff(1).is_zero
               for c in diff.terms.values())


@pytest.mark.parametrize("which", ["trivial", "abelian", "jordanian"])
def test_verify_rmatrix_suites(plain_ctx, so21_alg, ab_alg, which, jord, ab_twist):
    twist = {"trivial": trivial_twist(so21_alg),
             "abelian": ab_twist,
             "jordanian": jord}[which]
    rep = verify_rmatrix(twist)
    assert rep.passed, rep.format_text()


def test_unitarity(plain_ctx, so21_alg, ab_alg, jord, ab_twist):
    assert check_unitary(ab_twist).passed
    assert check_unitary(jord).passed
    no_i = abelian_twist(ab_alg, [("X", "Y")], scale=1)
    assert not check_unitary(no_i).passed


def test_unitarity_requires_involution(plain_ctx):
    alg = abelian(plain_ctx, ("P", "Q"))
    t = abelian_twist(alg, [("P", "Q")], scale=plain_ctx.i)
    with pytest.raises(ValueError):
        check_unitary(t)


def test_classical_r_jordanian(plain_ctx, so21_alg, jord):
    r = classical_r(jord)
    i = plain_ctx.i
    expected = ClassicalR.from_wedge(so21_alg, {("H", "E"): -i * Fraction(1, 2)})
    assert r == expected
    halved = classical_r(jord, normalization="half")
    assert halved == ClassicalR.from_wedge(so21_alg,
                                           {("H", "E"): -i * Fraction(1, 4)})


def test_classical_r_trivial_and_abelian(plain_ctx, so21_alg, ab_alg, ab_twist):
    assert classical_r(trivial_twist(so21_alg)).is_zero
    r = classical_r(ab_twist)
    assert r == ClassicalR.from_wedge(ab_alg, {("Y", "X"): plain_ctx.i})


def test_cybe_examples(plain_ctx, so21_alg, jord):
    g = so21_alg
    assert cybe_check(classical_r(jord)).is_zero
    assert schouten_square(classical_r(jord)).is_zero
    r_he = ClassicalR.from_wedge(g, {("H", "E"): 1})
    assert cybe_check(r_he).is_zero
    assert schouten_square(r_he).is_zero
    zero_r = ClassicalR(g, {})
    assert cybe_check(zero_r).is_zero
    r_bad = ClassicalR.from_wedge(g, {("E", "Ep"): 1})
    assert not cybe_check(r_bad).is_zero


def test_symplectic_leaf(plain_ctx, so21_alg):
    g = so21_alg
    leaf = symplectic_leaf(ClassicalR.from_wedge(g, {("H", "E"): 1}))
    assert sorted(el.to_text() for el in leaf) == ["E", "H"]
    assert symplectic_leaf(ClassicalR(g, {})) == []
    ab = abelian(plain_ctx, ("X", "Y"))
    full = symplectic_leaf(ClassicalR.from_wedge(ab, {("X", "Y"): 1}))
    assert len(full) == 2


def test_compose_twists(plain_ctx, so21_alg, jord):
    g = so21_alg
    assert compose_twists(jord.inv, jord).tensor == TensorElement.unit(g, 2)
    assert compose_twists(trivial_twist(g).tensor, jord).tensor == jord.tensor
    # two abelian twists on commuting data multiply to the exp of summed exponents
    ab = abelian(plain_ctx, ("X", "Y"))
    t1 = abelian_twist(ab, [("X", "Y")], scale=1)
    t2 = abelian_twist(ab, [("X", "Y")], scale=2)
    composed = compose_twists(t2.tensor, t1)
    t3 = abelian_twist(ab, [("X", "Y")], scale=3)
    assert composed.tensor == t3.tensor


def test_compose_structures_agree(plain_ctx, so21_alg, jord):
    # coproducts of the composite equal iterated twisting on basis elements
    g = so21_alg
    f2 = jord.inv
    composed = compose_twists(f2, jord)
    f2_twist_raw = TensorElement.unit(g, 2) + (f2 - TensorElement.unit(g, 2))
    for name in g.names:
        el = g.generator(name)
        lhs = twisted_coproduct(composed, el)
        inner = twisted_coproduct(jord, el)
        rhs = f2_twist_raw * inner * f2_twist_raw.inverse()
        assert lhs == rhs


def test_classical_r_rejects_higher_degree(plain_ctx, so21_alg):
    g = so21_alg
    bad = TensorElement.unit(g, 2) + TensorElement.from_legs(
        g.monomial((2, 0, 0)), g.generator("E")).scale(plain_ctx.hbar())
    twist_like = Twist(bad, check=False)
    with pytest.raises(ValueError):
        classical_r(twist_like)


@pytest.mark.parametrize("kind", ["jordanian", "abelian"])
def test_delta_f_on_leg_matches_per_monomial_splice(kind):
    ctx = Context(order=3)
    g = so21(ctx)
    if kind == "jordanian":
        tw = jordanian_twist(g, scale=ctx.i)
    else:
        tw = abelian_twist(g, [("H", "H")], scale=ctx.i)

    def splice(t, leg):
        return t.expand_leg(
            leg, lambda m: twisted_coproduct(tw, g.monomial(m)).terms, 2)

    r = r_matrix(tw).tensor
    rng = random.Random(23)
    t3 = TensorElement.zero(g, 3)
    for _ in range(5):
        legs = [g.monomial(tuple(rng.randint(0, 1) for _ in range(3))) for _ in range(3)]
        t3 = t3 + TensorElement.from_legs(*legs).scale(rng.choice([1, -2, ctx.i]))
    for t, legs in ((r, (1, 2)), (t3, (2, 3))):
        for leg in legs:
            assert tw.delta_f_on_leg(t, leg) == splice(t, leg)


def test_twisted_maps_agree_across_orders():
    # the coefficients of hbar^0..hbar^4 do not depend on the truncation order
    monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2)]

    def results(order):
        ctx = Context(order=order)
        g = so21(ctx)
        tw = jordanian_twist(g, scale=ctx.i)
        out = []
        for m in monos:
            el = g.monomial(m, 2 + ctx.i)
            out += [twisted_coproduct(tw, el), twisted_antipode(tw, el)]
        return out

    low, high = results(4), results(6)
    assert len(low) == len(high) == 14
    for a, b in zip(low, high):
        for n in range(5):
            assert hbar_coefficient(a, n).to_text() == hbar_coefficient(b, n).to_text()
