"""Hopf-axiom verification for enveloping algebras and finite Hopf algebras.

All residuals are computed exactly and must be zero: coassociativity, both
counit axioms, both antipode axioms, the anti-homomorphism and
anti-coalgebra properties of the antipode, and S^2 = id whenever the algebra
is commutative or cocommutative (reported informationally otherwise).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .lie import LiePresentation
from .linear import _acc, extend_linear
from .finite_hopf import FiniteHopf
from .reports import Report


def _monomials_up_to(alg, bound):
    out = []
    for deg in range(bound + 1):
        for combo in combinations_with_replacement(range(alg.dim), deg):
            exps = [0] * alg.dim
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _aggregate(failures, total):
    if not failures:
        return None
    name, residual = failures[0]
    return "%d/%d monomial checks failed, first at %s: %s" % (
        len(failures), total, name, residual)


def hopf_axiom_report(algebra, degree_bound=3):
    """Residual report of the Hopf axioms; dispatches on the algebra kind."""
    if isinstance(algebra, LiePresentation):
        return _lie_report(algebra, degree_bound)
    if isinstance(algebra, FiniteHopf):
        return _finite_report(algebra)
    raise TypeError("unsupported algebra %r" % (algebra,))


def _lie_report(alg, bound):
    rep = Report("hopf-axioms U(g) dim %d" % alg.dim)
    monos = _monomials_up_to(alg, bound)
    elements = [alg.monomial(m) for m in monos]
    names = [alg.monomial(m).to_text() for m in monos]
    unit = alg.unit()

    def per_monomial(fn):
        failures = []
        for nm, el in zip(names, elements):
            res = fn(el)
            if not res.is_zero:
                failures.append((nm, res.to_text()))
        return _aggregate(failures, len(elements))

    rep.run("coassociativity", lambda: per_monomial(
        lambda el: el.coproduct().coproduct_on_leg(1)
        - el.coproduct().coproduct_on_leg(2)))
    rep.run("counit left", lambda: per_monomial(
        lambda el: el.coproduct().counit_on_leg(1).to_pbw() - el))
    rep.run("counit right", lambda: per_monomial(
        lambda el: el.coproduct().counit_on_leg(2).to_pbw() - el))
    rep.run("antipode left", lambda: per_monomial(
        lambda el: el.coproduct().antipode_on_leg(1).contract_mul()
        - unit.scale(el.counit())))
    rep.run("antipode right", lambda: per_monomial(
        lambda el: el.coproduct().antipode_on_leg(2).contract_mul()
        - unit.scale(el.counit())))

    def antihom():
        failures = []
        for nm1, e1 in zip(names, elements):
            for nm2, e2 in zip(names, elements):
                res = (e1 * e2).antipode() - e2.antipode() * e1.antipode()
                if not res.is_zero:
                    failures.append(("%s | %s" % (nm1, nm2), res.to_text()))
        return _aggregate(failures, len(elements) ** 2)

    rep.run("antipode anti-homomorphism", antihom)
    rep.run("antipode anti-coalgebra map", lambda: per_monomial(
        lambda el: el.antipode().coproduct() - _flip_ss(el)))
    rep.run("cocommutativity", lambda: per_monomial(
        lambda el: el.coproduct() - el.coproduct().flip()))
    rep.run("S^2 = id (cocommutative)", lambda: per_monomial(
        lambda el: el.antipode().antipode() - el))
    return rep


def _flip_ss(el):
    """tau (S ox S) Delta, the right side of the anti-coalgebra law."""
    return el.coproduct().antipode_on_leg(1).antipode_on_leg(2).flip()


def _finite_report(h):
    rep = Report("hopf-axioms finite dim %d" % h.dim)
    basis = list(range(h.dim))

    def per_basis(fn, render=h.render):
        failures = []
        for i in basis:
            res = fn(i)
            if res:
                failures.append((h.names[i], render(res)))
        return _aggregate(failures, len(basis))

    rep.run("multiplication table closes/assoc", lambda: per_basis(
        lambda i: _assoc_failure(h, i)))
    rep.run("coassociativity", lambda: per_basis(
        lambda i: _diff(h.delta_on_leg(h.delta_vec(h.basis_vec(i)), 0),
                        h.delta_on_leg(h.delta_vec(h.basis_vec(i)), 1))))
    rep.run("counit left", lambda: per_basis(
        lambda i: _diff(_counit_leg(h, i, 0), h.basis_vec(i))))
    rep.run("counit right", lambda: per_basis(
        lambda i: _diff(_counit_leg(h, i, 1), h.basis_vec(i))))
    rep.run("antipode left", lambda: per_basis(
        lambda i: _diff(_antipode_side(h, i, left=True), _eps_unit(h, i))))
    rep.run("antipode right", lambda: per_basis(
        lambda i: _diff(_antipode_side(h, i, left=False), _eps_unit(h, i))))

    def antihom():
        failures = []
        for i in basis:
            for j in basis:
                lhs = h.antipode_vec(h.mul_vec(h.basis_vec(i), h.basis_vec(j)))
                rhs = h.mul_vec(h.antipode_vec(h.basis_vec(j)),
                                h.antipode_vec(h.basis_vec(i)))
                res = _diff(lhs, rhs)
                if res:
                    failures.append(("%s*%s" % (h.names[i], h.names[j]), h.render(res)))
        return _aggregate(failures, len(basis) ** 2)

    rep.run("antipode anti-homomorphism", antihom)

    comm = h.is_commutative()
    cocomm = h.is_cocommutative()
    if comm or cocomm:
        rep.run("S^2 = id ((co)commutative)", lambda: per_basis(
            lambda i: _diff(h.antipode_vec(h.antipode_vec(h.basis_vec(i))),
                            h.basis_vec(i))))
    else:
        s2 = all(not _diff(h.antipode_vec(h.antipode_vec(h.basis_vec(i))),
                           h.basis_vec(i)) for i in basis)
        rep.note("S^2 = id", "not required (neither commutative nor cocommutative); "
                 + ("holds anyway" if s2 else "S^2 != id"))
    rep.note("commutative", "yes" if comm else "no")
    rep.note("cocommutative", "yes" if cocomm else "no")
    return rep


def _assoc_failure(h, i):
    for j in range(h.dim):
        for k in range(h.dim):
            lhs = h.mul_vec(h.mul_vec(h.basis_vec(i), h.basis_vec(j)), h.basis_vec(k))
            rhs = h.mul_vec(h.basis_vec(i), h.mul_vec(h.basis_vec(j), h.basis_vec(k)))
            diff = _diff(lhs, rhs)
            if diff:
                return diff
    return {}


def _diff(a, b):
    """a - b for sparse dicts of scalars."""
    out = dict(a)
    for k, v in b.items():
        _acc(out, k, -v)
    return out


def _counit_leg(h, i, leg):
    return extend_linear(h.delta_vec(h.basis_vec(i)), lambda key: {
        key[1 - leg]: h.counit.get(key[leg], h.ctx.zero)})


def _antipode_side(h, i, left):
    """mu (S ox id) Delta, or mu (id ox S) Delta, on basis element i."""
    one = h.ctx.one
    return extend_linear(h.delta_vec(h.basis_vec(i)), lambda key: (
        h.mul_vec(h.antipode[key[0]], {key[1]: one}) if left
        else h.mul_vec({key[0]: one}, h.antipode[key[1]])))


def _eps_unit(h, i):
    eps = h.counit.get(i)
    return {} if eps is None else {k: eps * v for k, v in h.unit.items()}
