"""Equivariant metrics, covariant derivatives and their twist deformations.

Metrics are symmetric coefficient matrices over the coordinate frame;
connections carry Christoffel data.  The Koszul solve produces the unique
torsion-free metric connection on the coordinate frame when the metric
determinant is a unit (divisions by non-unit polynomials raise rather than
silently extending the ring).  Braided curvature/torsion take the braiding
legs explicitly, and the twisted connection precomposes with the inverse
twist acting legwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .geometry import MultiVector, PolyFunction
from .linear import sort_sign
from .reports import Report
from .twists import r_matrix


class MetricError(ValueError):
    pass


class Metric:
    """Symmetric matrix g_ij of polynomial entries with g(X,Y) = X^i g_ij Y^j."""

    def __init__(self, chart, entries, realization=None):
        self.chart = chart
        d = chart.dim
        self.entries = []
        for i in range(d):
            row = []
            for j in range(d):
                v = entries[i][j]
                if not isinstance(v, PolyFunction):
                    v = chart.constant(v)
                row.append(v)
            self.entries.append(tuple(row))
        self.entries = tuple(self.entries)
        for i in range(d):
            for j in range(d):
                if self.entries[i][j] != self.entries[j][i]:
                    raise MetricError("metric matrix is not symmetric at (%d,%d)" % (i, j))
        if realization is not None:
            self._check_equivariance(realization)

    def _check_equivariance(self, real):
        """xi |> g(X,Y) = g(xi_(1)|>X, xi_(2)|>Y) on primitives: the realized
        generators must be Killing fields of g."""
        chart = self.chart
        frame = [chart.coordinate_field(i) for i in range(chart.dim)]
        for name in real.alg.names:
            k = real.field(name)
            for i, xi in enumerate(frame):
                for j in range(i, chart.dim):
                    yj = frame[j]
                    lhs = k.apply(self.eval(xi, yj))
                    rhs = self.eval(k.bracket(xi), yj) + self.eval(xi, k.bracket(yj))
                    if lhs != rhs:
                        raise MetricError(
                            "metric is not equivariant: %s is not Killing" % name)

    def eval(self, x, y):
        out = self.chart.zero_fn()
        for (i,), xi in x.terms.items():
            for (j,), yj in y.terms.items():
                out = out + xi * self.entries[i][j] * yj
        return out

    def determinant(self):
        d = self.chart.dim
        out = self.chart.zero_fn()
        for perm in permutations(range(d)):
            sign = sort_sign(perm)[1]
            term = self.chart.one_fn()
            for i in range(d):
                term = term * self.entries[i][perm[i]]
            out = out + term if sign > 0 else out - term
        return out

    def inverse_matrix(self):
        """Adjugate over unit determinant; raises if the solve needs non-unit division."""
        det = self.determinant()
        unit_key = (0,) * self.chart.dim
        if set(det.terms) != {unit_key} or not det.terms[unit_key].is_unit:
            raise MetricError(
                "metric determinant %s is not a unit; symbolic inverse would leave "
                "the polynomial ring" % det.to_text())
        dinv = det.terms[unit_key].inverse()
        d = self.chart.dim
        out = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                rows = [r for r in range(d) if r != j]
                cols = [cc for cc in range(d) if cc != i]
                minor = self.chart.zero_fn()
                for perm in permutations(range(len(cols))):
                    sign = sort_sign(perm)[1]
                    term = self.chart.one_fn()
                    for k, r in enumerate(rows):
                        term = term * self.entries[r][cols[perm[k]]]
                    minor = minor + term if sign > 0 else minor - term
                cof = minor if (i + j) % 2 == 0 else -minor
                out[i][j] = cof * dinv
        return out


class Connection:
    """Christoffel data Gamma^k_{ij}; left-linear in X, Leibniz in Y."""

    def __init__(self, chart, gamma=None):
        self.chart = chart
        d = chart.dim
        zero = chart.zero_fn()
        self.gamma = {}
        for (k, i, j), v in (gamma or {}).items():
            if not isinstance(v, PolyFunction):
                v = chart.constant(v)
            if not v.is_zero:
                self.gamma[(k, i, j)] = v

    def nabla(self, x, y):
        chart = self.chart
        comps = []
        for k in range(chart.dim):
            acc = x.apply(y.coeff((k,)))
            for (i,), xi in x.terms.items():
                for (j,), yj in y.terms.items():
                    gam = self.gamma.get((k, i, j))
                    if gam is not None:
                        acc = acc + xi * gam * yj
            comps.append(acc)
        return MultiVector.field(chart, comps)

    def nabla_form(self, x, omega):
        """Dual connection on 1-forms via the pairing:
        <nabla~_X w, Y> = X<w, Y> - <w, nabla_X Y>."""
        from .geometry import DiffForm, pairing
        chart = self.chart
        terms = {}
        for k in range(chart.dim):
            ek = chart.coordinate_field(k)
            val = x.apply(pairing(omega, ek)) - pairing(omega, self.nabla(x, ek))
            if not val.is_zero:
                terms[(k,)] = val
        return DiffForm(chart, terms)


def flat_connection(chart):
    return Connection(chart, {})


def koszul_levi_civita(metric):
    """The unique torsion-free metric connection, from the Koszul formula on
    the coordinate frame; verified post-hoc for both defining properties."""
    chart = metric.chart
    ginv = metric.inverse_matrix()
    d = chart.dim
    gamma = {}
    half = Fraction(1, 2)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = chart.zero_fn()
                for l in range(d):
                    dg = (metric.entries[j][l].diff(i)
                          + metric.entries[i][l].diff(j)
                          - metric.entries[i][j].diff(l))
                    acc = acc + ginv[k][l] * dg
                acc = acc * half
                if not acc.is_zero:
                    gamma[(k, i, j)] = acc
    conn = Connection(chart, gamma)
    rep = levi_civita_report(conn, metric)
    if not rep.passed:
        raise MetricError("Koszul solve failed verification:\n" + rep.format_text())
    return conn


def levi_civita_report(conn, metric):
    """Classical metric compatibility and zero torsion on the coordinate frame."""
    chart = metric.chart
    rep = Report("Levi-Civita")
    frame = [chart.coordinate_field(i) for i in range(chart.dim)]

    def compat():
        res = chart.zero_fn()
        for x in frame:
            for y in frame:
                for z in frame:
                    res = res + (x.apply(metric.eval(y, z))
                                 - metric.eval(conn.nabla(x, y), z)
                                 - metric.eval(y, conn.nabla(x, z)))
        return res

    def torsion_free():
        res = MultiVector.zero(chart)
        for x in frame:
            for y in frame:
                res = res + (conn.nabla(x, y) - conn.nabla(y, x) - x.bracket(y))
        return res

    rep.run("metric compatibility", compat)
    rep.run("zero torsion", torsion_free)
    return rep


# -- braided curvature and torsion -----------------------------------------------


def _braided_bracket(real, rinv, x, y):
    """[X, Y]_R = X Y - (R1^{-1}|>Y)(R2^{-1}|>X) as a vector field."""
    if rinv is None:
        return x.bracket(y)
    return _compose(x, y) - real.contract(rinv, y, x, _compose)


def _compose(x, y):
    """The second-order operator X Y as its values on the coordinates."""
    chart = x.chart
    return MultiVector.field(chart, [x.apply(y.apply(chart.coordinate(k)))
                                     for k in range(chart.dim)])


def curvature(conn, real, x, y, z, rinv=None):
    """R(X,Y)Z = nab_X nab_Y Z - nab_{R1|>Y} nab_{R2|>X} Z - nab_{[X,Y]_R} Z."""
    out = conn.nabla(x, conn.nabla(y, z))
    if rinv is None:
        out = out - conn.nabla(y, conn.nabla(x, z))
    else:
        out = out - real.contract(rinv, y, x,
                                  lambda yb, xb: conn.nabla(yb, conn.nabla(xb, z)))
    out = out - conn.nabla(_braided_bracket(real, rinv, x, y), z)
    return out


def torsion(conn, real, x, y, rinv=None):
    """Tor(X,Y) = nab_X Y - nab_{R1|>Y}(R2|>X) - [X,Y]_R."""
    out = conn.nabla(x, y)
    if rinv is None:
        out = out - conn.nabla(y, x)
    else:
        out = out - real.contract(rinv, y, x, conn.nabla)
    out = out - _braided_bracket(real, rinv, x, y)
    return out


# -- twist deformation ---------------------------------------------------------------


def twist_nabla(real, twist, conn, x, y):
    """nab^F_X Y = nab_{F1^{-1}|>X}(F2^{-1}|>Y)."""
    out = real.contract(twist.inv, x, y, conn.nabla)
    return out if out is not None else MultiVector.zero(conn.chart)


class TwistedMetric:
    """g_F(X,Y) = g(F1^{-1}|>X, F2^{-1}|>Y)."""

    def __init__(self, real, twist, metric):
        self.real = real
        self.twist = twist
        self.metric = metric
        self.chart = metric.chart

    def eval(self, x, y):
        return self.real.contract(self.twist.inv, x, y, self.metric.eval)


def connection_report(real, twist, conn, metric, frame=None):
    """Braided metric compatibility of nab^F w.r.t. g_F and braided torsion.

    The connection must be Levi-Civita for the metric (verified first); the
    braiding is R_F and the twisted Lie derivative acts on the evaluation.
    """
    chart = metric.chart
    rep = Report("twisted connection")
    lc = levi_civita_report(conn, metric)
    rep.extend(lc)
    if not lc.passed:
        return rep
    rm = r_matrix(twist)
    gF = TwistedMetric(real, twist, metric)
    if frame is None:
        frame = [chart.coordinate_field(i) for i in range(chart.dim)]
        frame += [real.field(n) for n in real.alg.names]

    nab_cache = {}

    def nabF(x, y):
        key = (x, y)
        out = nab_cache.get(key)
        if out is None:
            out = twist_nabla(real, twist, conn, x, y)
            nab_cache[key] = out
        return out

    gf_cache = {}

    def geval(x, y):
        key = (x, y)
        out = gf_cache.get(key)
        if out is None:
            out = gF.eval(x, y)
            gf_cache[key] = out
        return out

    def compat():
        res = chart.zero_fn()
        for x in frame:
            for y in frame:
                for z in frame:
                    lhs = real.contract(twist.inv, x, geval(y, z), MultiVector.apply)
                    lhs = lhs - geval(nabF(x, y), z)
                    for (m1, m2), c in rm.inv.terms.items():
                        yb = real.act_monomial(m1, y)
                        xb = real.act_monomial(m2, x)
                        lhs = lhs - geval(yb, nabF(xb, z)) * c
                    res = res + lhs
        return res

    def braided_torsion():
        res = MultiVector.zero(chart)
        for x in frame:
            for y in frame:
                # [X, Y]_{R_F}: the twisted Schouten bracket in degree one
                t = (nabF(x, y) - real.contract(rm.inv, y, x, nabF)
                     - real.contract(twist.inv, x, y, MultiVector.bracket))
                res = res + t
        return res

    rep.run("braided metric compatibility", compat)
    rep.run("braided torsion-freeness", braided_torsion)
    return rep


def equivariance_report(real, conn):
    """xi |> (nab_X Y) = nab_{xi_(1)|>X}(xi_(2)|>Y) for primitive generators."""
    chart = conn.chart
    rep = Report("connection equivariance")
    frame = [chart.coordinate_field(i) for i in range(chart.dim)]
    frame += [real.field(n) for n in real.alg.names]

    def primitive_equivariance():
        res = MultiVector.zero(chart)
        for name in real.alg.names:
            k = real.field(name)
            for x in frame:
                for y in frame:
                    lhs = k.bracket(conn.nabla(x, y))
                    rhs = conn.nabla(k.bracket(x), y) + conn.nabla(x, k.bracket(y))
                    res = res + (lhs - rhs)
        return res

    rep.run("primitive equivariance", primitive_equivariance)
    return rep
