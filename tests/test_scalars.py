"""Exact scalar field and truncated series arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from twistcalc import Context, NonUnitError, TruncationMismatch


def rand_scalar(ctx, rng, depth=2):
    atoms = [ctx.one, ctx.i, ctx.rational(rng.randint(-4, 4)),
             ctx.rational(rng.randint(1, 5), rng.randint(1, 5)),
             ctx.param("a"), ctx.param("c"), ctx.radical("sqrt(a)")]
    value = atoms[rng.randrange(len(atoms))]
    for _ in range(depth):
        op = rng.randrange(3)
        other = atoms[rng.randrange(len(atoms))]
        if op == 0:
            value = value + other
        elif op == 1:
            value = value * other
        elif not other.is_zero:
            value = value / other
    return value


def test_imaginary_unit_squares_to_minus_one(ctx):
    assert ctx.i * ctx.i == ctx.rational(-1)


def test_radical_relation(ctx):
    s = ctx.radical("sqrt(a)")
    assert s * s == ctx.param("a")
    assert s ** 4 == ctx.param("a") ** 2


def test_radical_denominator_rationalized(ctx):
    s = ctx.radical("sqrt(a)")
    a = ctx.param("a")
    assert ctx.one / s == s / a
    assert (ctx.one / s) * s == ctx.one


def test_fraction_cancellation_is_canonical(ctx):
    a, c = ctx.param("a"), ctx.param("c")
    assert (a * a - c * c) / (a - c) == a + c
    assert hash((a * a - c * c) / (a - c)) == hash(a + c)


def test_constant_normal_form(ctx):
    half = ctx.scalar(Fraction(1, 2))
    assert ctx.scalar(Fraction(2, 4)) == half
    assert hash(ctx.scalar(Fraction(2, 4))) == hash(half)
    assert ctx.rational(1, -2) == ctx.rational(-1, 2) == -half
    assert hash(ctx.rational(1, -2)) == hash(-half)
    assert ctx.rational(1, -2).to_text() == "-1/2"
    i = ctx.i
    assert i / (1 + i) == (1 + i) / 2
    assert hash(i / (1 + i)) == hash((1 + i) / 2)
    z = 3 - 4 * i
    assert z.inverse() * z == ctx.one
    assert z.inverse() == (3 + 4 * i) / 25


def test_parametric_path_reaches_constant_normal_form(ctx):
    a, c = ctx.param("a"), ctx.param("c")
    for value in (a / a, (a * c) / (c * a), (a + c) - (c + a) + 1):
        assert value.is_constant
        assert value == ctx.one
        assert hash(value) == hash(ctx.one)
    assert ((a - ctx.i) / (a - ctx.i)) * ctx.rational(3, 4) == ctx.rational(3, 4)


def test_monomial_denominators_cancel_canonically(ctx):
    a, c = ctx.param("a"), ctx.param("c")
    s = ctx.radical("sqrt(a)")
    lhs, rhs = (a * c + a * a) / (a * a), (c + a) / a
    assert lhs == rhs and hash(lhs) == hash(rhs)
    lhs, rhs = (s / (a * a)) * a, ctx.one / s
    assert lhs == rhs and hash(lhs) == hash(rhs)
    lhs, rhs = (c * c * a + 2 * a * a) / (3 * a ** 3), (c * c + 2 * a) / (3 * a * a)
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert lhs.to_text() == "(1/3*c^2 + 2/3*a)/a^2"
    rng = random.Random(31)
    for _ in range(40):
        x, y = rand_scalar(ctx, rng), rand_scalar(ctx, rng)
        if not y.is_zero:
            back = (x * y) / y
            assert back == x and hash(back) == hash(x)


def _gaussian(s):
    """(re, im) of a constant Scalar, checking its normal form on the way."""
    re, im, den = s._g
    assert den > 0 and math.gcd(re, im, den) == 1
    return Fraction(re, den), Fraction(im, den)


def test_constant_arithmetic_against_fractions(ctx):
    rng = random.Random(29)

    def draw():
        return tuple(Fraction(rng.randint(-12, 12), rng.randint(-6, 6) or 1)
                     for _ in range(2))

    for _ in range(300):
        (p, q), (r, t) = draw(), draw()
        x = ctx.rational(p) + ctx.i * q
        y = ctx.rational(r) + ctx.i * t
        assert _gaussian(x) == (p, q)
        assert _gaussian(x + y) == (p + r, q + t)
        assert _gaussian(x - y) == (p - r, q - t)
        assert _gaussian(x * y) == (p * r - q * t, p * t + q * r)
        if r or t:
            norm = r * r + t * t
            assert _gaussian(x / y) == ((p * r + q * t) / norm, (q * r - p * t) / norm)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert _gaussian(x.conjugate()) == (p, -q)
        assert (x == y) == ((p, q) == (r, t))


@pytest.mark.parametrize("radicals", [
    {"r": 4}, {"r": -1}, {"r": 0}, {"r": [(1, {"a": 2})]},
    {"s": "a", "t": [(4, {"a": 1})]},
])
def test_square_radicands_rejected(radicals):
    with pytest.raises(ValueError, match="square"):
        Context(params=("a", "c"), radicals=radicals)


@pytest.mark.parametrize("radicals", [{"sqrt(a)": "a"}, {"r": 2}, {"s": "a", "t": "c"}])
def test_independent_radicals_accepted(radicals):
    ctx = Context(params=("a", "c"), radicals=radicals)
    roots = [ctx.radical(name) for name in radicals]
    product = ctx.one
    for root in roots:
        assert not root.is_constant
        product = product * root
    assert not product.is_zero and not (product * product).is_zero


def test_conjugation(ctx):
    a = ctx.param("a")
    v = ctx.rational(1, 2) + ctx.i * a
    assert v.conjugate() == ctx.rational(1, 2) - ctx.i * a
    assert v.conjugate().conjugate() == v
    assert ctx.radical("sqrt(a)").conjugate() == ctx.radical("sqrt(a)")


def test_field_axioms_on_random_scalars(ctx):
    rng = random.Random(11)
    for _ in range(40):
        x, y, z = (rand_scalar(ctx, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == ctx.one
            assert (ctx.one / x) * x == ctx.one


def test_zero_division_raises(ctx):
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero
    with pytest.raises(ZeroDivisionError):
        (ctx.param("a") - ctx.param("a")).inverse()


def test_series_difference_of_squares(ctx):
    one = ctx.series_one()
    h = ctx.hbar()
    assert (one + h) * (one - h) == ctx.series([1, 0, -1])


def test_series_identity_and_truncation(ctx):
    rng = random.Random(5)
    s = ctx.series([rand_scalar(ctx, rng) for _ in range(5)])
    assert ctx.series_one() * s == s
    h = ctx.hbar()
    assert (h * h ** ctx.order).is_zero


def test_series_inverse_geometric_oracle(ctx):
    # inv(1 + i*hbar) against the geometric series, and multiply-back
    u = ctx.series_one() + ctx.hbar() * ctx.i
    inv = u.inverse()
    geometric = ctx.series([(-ctx.i) ** n for n in range(ctx.order + 1)])
    assert inv == geometric
    assert inv * u == ctx.series_one()


def test_series_inverse_errors(ctx):
    assert ctx.series_one().inverse() == ctx.series_one()
    with pytest.raises(NonUnitError):
        ctx.hbar().inverse()


def test_exp_log_pair(ctx):
    assert ctx.series_zero().exp() == ctx.series_one()
    u = ctx.hbar() * ctx.i
    expected = ctx.series([0, ctx.i, Fraction(1, 2), -ctx.i * Fraction(1, 3),
                           Fraction(-1, 4)])
    assert u.log1p() == expected
    rng = random.Random(3)
    for _ in range(10):
        v = ctx.series([0] + [rand_scalar(ctx, rng, 1) for _ in range(4)])
        assert v.log1p().exp() == ctx.series_one() + v
        assert (v.exp() - ctx.series_one()).log1p() == v


def test_exp_requires_zero_constant_term(ctx):
    with pytest.raises(ValueError):
        ctx.series_one().exp()
    with pytest.raises(ValueError):
        ctx.series_one().log1p()


def test_series_ring_axioms_random(ctx):
    rng = random.Random(17)
    for _ in range(15):
        s1 = ctx.series([rand_scalar(ctx, rng, 1) for _ in range(5)])
        s2 = ctx.series([rand_scalar(ctx, rng, 1) for _ in range(5)])
        s3 = ctx.series([rand_scalar(ctx, rng, 1) for _ in range(5)])
        assert (s1 * s2) * s3 == s1 * (s2 * s3)
        assert s1 * (s2 + s3) == s1 * s2 + s1 * s3
        assert s1 * s2 == s2 * s1
        if s1.is_unit:
            assert s1 * s1.inverse() == ctx.series_one()


def test_truncation_mismatch_rejected(ctx):
    s4 = ctx.series([1, 2])
    s2 = ctx.series([1, 2], order=2)
    with pytest.raises(TruncationMismatch):
        s4 + s2
    with pytest.raises(TruncationMismatch):
        s4 * s2


def test_divide_hbar(ctx):
    h = ctx.hbar()
    v = h * h * ctx.i
    assert v.divide_hbar(2) == ctx.series([ctx.i])
    with pytest.raises(ValueError):
        (ctx.series_one() + h).divide_hbar(1)


def test_text_roundtrip_via_repr(ctx):
    rng = random.Random(23)
    for _ in range(10):
        v = rand_scalar(ctx, rng)
        assert repr(v).startswith("Scalar(")
