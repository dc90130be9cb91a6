"""Quadric submanifold ideals: reduction, tangency, projection, and the
commutation of twisting with projection.

The ideal is principal with a degree-2 generator; reduction is
single-generator division with respect to a graded lexicographic monomial
order, which is canonical and realizes the projection onto the quotient
algebra by canonical representatives.
"""

from __future__ import annotations

import random

from .geometry import DiffForm, MultiVector, PolyFunction, exterior_derivative, insert
from .linear import _acc
from .reports import Report
from .scalars import HbarSeries


class QuadricIdeal:
    """Principal ideal (F) with monomial-order reduction.

    coord_priority lists coordinate indices from most to least significant in
    the graded-lex comparison; the default x1 > x2 > ... makes the leading
    monomial of the hyperboloid generator the mixed term x1*x3.
    """

    def __init__(self, generator, coord_priority=None):
        self.chart = generator.chart
        self.generator = generator
        if generator.degree() != 2:
            raise ValueError("quadric generator must have degree 2")
        self.priority = tuple(coord_priority
                              if coord_priority is not None
                              else range(self.chart.dim))
        lead = max(generator.terms, key=self._key)
        self.lead_monomial = lead
        self.lead_coeff = generator.terms[lead]
        if not self.lead_coeff.is_unit:
            raise ValueError("leading coefficient of the generator must be a unit")
        self._lead_inv = self.lead_coeff.inverse()
        if not self.reduce(generator).is_zero:
            raise AssertionError("reduce(generator) != 0")

    def _key(self, monom):
        return (sum(monom), tuple(monom[p] for p in self.priority))

    # -- reduction ------------------------------------------------------------

    def reduce(self, p):
        """Normal form under division by the generator; idempotent."""
        if isinstance(p, (int, HbarSeries)):
            return p
        if isinstance(p, (MultiVector, DiffForm)):
            return p._map(self.reduce)
        out = dict(p.terms)
        lead = self.lead_monomial
        while True:
            target = None
            for m in out:
                if all(a >= b for a, b in zip(m, lead)):
                    if target is None or self._key(m) > self._key(target):
                        target = m
            if target is None:
                break
            c = out[target]
            quot_m = tuple(a - b for a, b in zip(target, lead))
            factor = c * self._lead_inv
            for gm, gc in self.generator.terms.items():
                _acc(out, tuple(a + b for a, b in zip(quot_m, gm)), -(factor * gc))
        return PolyFunction(self.chart, out)

    # -- tangency --------------------------------------------------------------

    def is_tangent(self, x):
        """X(F) in (F): sufficient and necessary for a principal ideal."""
        return self.reduce(x.apply(self.generator)).is_zero

    def is_tangent_multivector(self, p):
        """Contraction with dF in the first slot reduces to zero.

        For P = sum f_I d_I the contraction is
        sum_I f_I sum_p (-1)^p (d_{i_p} F) d_{I without i_p}; on wedges of
        tangent fields every coefficient lands in the ideal.  Exact in degree
        one, the necessary criterion in higher degree.
        """
        contracted = {}
        for m, f in p.terms.items():
            if not m:
                continue
            for pos, i in enumerate(m):
                dfi = self.generator.diff(i)
                coeff = f * dfi
                if pos % 2:
                    coeff = -coeff
                _acc(contracted, m[:pos] + m[pos + 1:], coeff)
        for coeff in contracted.values():
            if not self.reduce(coeff).is_zero:
                return False
        return True

    def stability_report(self, real):
        """The realized generators must be tangent (Hopf-stability of the ideal)."""
        rep = Report("ideal stability")
        for name in real.alg.names:
            fld = real.field(name)
            rep.run("tangency of %s" % name,
                    lambda fld=fld: self.reduce(fld.apply(self.generator)))
        return rep

    def form_in_kernel(self, tangent_frame, omega):
        """Membership of a form in the kernel of the projection.

        The kernel is defined recursively: a function lies in it iff it
        reduces to zero, and a k-form iff inserting any tangent field lands
        in the (k-1)-kernel.  With a frame spanning the tangent fields over
        the algebra it suffices to insert frame members; insertions of
        ideal-multiples of coordinate fields produce ideal-multiplied forms,
        which lie in the kernel automatically.
        """
        for m, coeff in omega.terms.items():
            if not m:
                if not self.reduce(coeff).is_zero:
                    return False
        degrees = [k for k in omega.degrees() if k >= 1]
        for k in degrees:
            part = omega.homogeneous(k)
            for t in tangent_frame:
                contracted = insert(t, part)
                if not self.form_in_kernel(tangent_frame, contracted):
                    return False
        return True

    # -- projection ------------------------------------------------------------

    def project(self, obj):
        """Canonical representative of the class of obj in the quotient."""
        if isinstance(obj, PolyFunction):
            return self.reduce(obj)
        if isinstance(obj, MultiVector):
            if not self.is_tangent_multivector(obj):
                raise ValueError("multivector is not tangent to the quadric")
            return self.reduce(obj)
        if isinstance(obj, DiffForm):
            return self.reduce(obj)
        raise TypeError("cannot project %r" % (obj,))


def random_polynomial(chart, rng, degree=3, terms=4):
    """Small random polynomial with integer coefficients (exact)."""
    out = chart.zero_fn()
    for _ in range(terms):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(chart.dim)] += 1
        if sum(exps) > degree:
            continue
        coeff = rng.randint(-3, 3)
        if coeff:
            out = out + PolyFunction(
                chart, {tuple(exps): chart.ctx.series([coeff])})
    return out


def twist_project_report(ideal, calc, samples=50, seed=20260810):
    """Residuals of pr(star) - star(pr), and the twisted-Cartan analogues.

    All residuals are reduced modulo the ideal and must vanish exactly; the
    twist generators must act tangentially (checked first).
    """
    real = calc.real
    chart = real.chart
    rep = Report("twist-projection commutation")
    stability = ideal.stability_report(real)
    rep.extend(stability)
    if not stability.passed:
        return rep
    rng = random.Random(seed)
    pr = ideal.reduce

    def star_residuals():
        res = chart.zero_fn()
        for _ in range(samples):
            f = random_polynomial(chart, rng)
            g = random_polynomial(chart, rng)
            res = res + pr(calc.star(pr(f), pr(g)) - pr(calc.star(f, g)))
        return res

    def ideal_absorption():
        res = chart.zero_fn()
        for _ in range(10):
            p = random_polynomial(chart, rng)
            q = random_polynomial(chart, rng)
            res = res + pr(calc.star(ideal.generator * p, q))
            res = res + pr(calc.star(q, ideal.generator * p))
        return res

    gens = [real.field(n) for n in real.alg.names]

    def tangent_mv(k):
        if k == 1:
            out = gens[rng.randrange(len(gens))]
            return out.scale(random_polynomial(chart, rng, degree=1, terms=2))
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        return a.wedge(b)

    def rand_form(k, quadratic=False):
        deg = 2 if quadratic else 1
        out = DiffForm.zero(chart)
        for i in range(chart.dim):
            if k == 1:
                out = out + chart.basis_form(i).scale(
                    random_polynomial(chart, rng, degree=deg, terms=2))
            else:
                out = out + chart.basis_form(i).wedge(
                    chart.basis_form((i + 1) % chart.dim)).scale(
                        random_polynomial(chart, rng, degree=deg, terms=2))
        return out

    def wedge_residuals():
        res = MultiVector.zero(chart)
        for _ in range(8):
            A = tangent_mv(1)
            B = tangent_mv(rng.choice((1, 2)))
            res = res + pr(calc.wedge(pr(A), pr(B)) - pr(calc.wedge(A, B)))
        return res

    def schouten_residuals():
        res = MultiVector.zero(chart)
        for _ in range(8):
            A = tangent_mv(1)
            B = tangent_mv(rng.choice((1, 2)))
            res = res + pr(calc.schouten(pr(A), pr(B)) - pr(calc.schouten(A, B)))
        return res

    def form_kernel_check(make_residual, count=8):
        # residuals of form-valued operations live in the recursive kernel
        # of the projection, not merely in ideal-multiplied forms
        bad = None
        for _ in range(count):
            res = make_residual()
            if not ideal.form_in_kernel(gens, res):
                bad = res
                break
        return None if bad is None else bad

    def lie_residual_once():
        X = tangent_mv(1)
        w = rand_form(rng.choice((1, 2)), quadratic=True)
        return calc.lie(pr(X), pr(w)) - calc.lie(X, w)

    def insert_residual_once():
        X = tangent_mv(rng.choice((1, 2)))
        w = rand_form(2, quadratic=True)
        return calc.insert(pr(X), pr(w)) - calc.insert(X, w)

    def d_residual_once():
        w = rand_form(rng.choice((1, 2)), quadratic=True)
        return exterior_derivative(pr(w)) - exterior_derivative(w)

    rep.run("pr(a) star pr(b) = pr(a star b), %d samples" % samples, star_residuals)
    rep.run("ideal absorbed by star", ideal_absorption)
    rep.run("twisted wedge commutes with pr", wedge_residuals)
    rep.run("twisted Schouten commutes with pr", schouten_residuals)
    rep.run("twisted Lie derivative commutes with pr",
            lambda: form_kernel_check(lie_residual_once))
    rep.run("twisted insertion commutes with pr",
            lambda: form_kernel_check(insert_residual_once))
    rep.run("d commutes with pr", lambda: form_kernel_check(d_residual_once))
    return rep
