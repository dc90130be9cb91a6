"""Classical Cartan calculus on polynomial functions of x^1..x^D.

Functions are polynomials with truncated hbar-series coefficients;
multivectors and differential forms carry polynomial coefficients over the
coordinate frame with strictly increasing index tuples and normalized
signs.  Vector fields are the multivectors of degree 1.  A Realization maps
a Lie presentation into polynomial vector fields and extends the U(g)-action
to functions (iterated Lie derivative), multivector fields (adjoint action)
and forms (Lie derivative, matching the dual-pairing formula).
"""

from __future__ import annotations

from .lie import PBWElement
from .linear import SCALARS, LinearCombination, _acc, format_sum, monomial_text, sort_sign
from .scalars import HbarSeries


class CoordSystem:
    """Coordinates x^1..x^D over a scalar context."""

    def __init__(self, ctx, dim, names=None):
        self.ctx = ctx
        self.dim = dim
        self.names = tuple(names) if names else tuple("x%d" % (k + 1) for k in range(dim))
        if len(self.names) != dim:
            raise ValueError("need %d coordinate names" % dim)
        self._zero_fn = PolyFunction(self, {})
        self._one_fn = PolyFunction(self, {(0,) * dim: ctx.series([1])})

    def zero_fn(self):
        return self._zero_fn

    def one_fn(self):
        return self._one_fn

    def constant(self, coeff):
        c = coeff if isinstance(coeff, HbarSeries) else self.ctx.series([coeff])
        if c.is_zero:
            return self._zero_fn
        return PolyFunction(self, {(0,) * self.dim: c})

    def coordinate(self, i):
        exps = [0] * self.dim
        exps[i] = 1
        return PolyFunction(self, {tuple(exps): self.ctx.series([1])})

    def coordinate_field(self, i):
        return MultiVector(self, {(i,): self._one_fn})

    def basis_form(self, i):
        return DiffForm(self, {(i,): self._one_fn})


class PolyFunction(LinearCombination):
    """Polynomial in the coordinates with hbar-series coefficients."""

    __slots__ = ("chart",)

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = terms

    @property
    def ctx(self):
        return self.chart.ctx

    def _like(self, terms):
        return PolyFunction(self.chart, terms)

    def _space(self):
        return self.chart

    def _unit(self):
        return self.chart.one_fn()

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in o.terms.items():
                _acc(out, tuple(x + y for x, y in zip(ma, mb)), ca * cb)
        return PolyFunction(self.chart, out)

    __rmul__ = __mul__

    def diff(self, i):
        out = {}
        for m, c in self.terms.items():
            if not m[i]:
                continue
            new = list(m)
            new[i] -= 1
            out[tuple(new)] = c * m[i]
        return PolyFunction(self.chart, out)

    def star(self):
        """Complex conjugation of coefficients; the coordinates are real."""
        return self._map(HbarSeries.conjugate)

    def to_text(self):
        names = self.chart.names
        return format_sum((self.terms[m].to_text(), monomial_text(names, m))
                          for m in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True))

    __str__ = to_text


class _Graded(LinearCombination):
    """Shared machinery of multivectors and forms (dict: index tuple -> function)."""

    __slots__ = ("chart",)

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}

    @property
    def ctx(self):
        return self.chart.ctx

    def _like(self, terms):
        return type(self)(self.chart, terms)

    def _space(self):
        return self.chart

    def _zero_coeff(self):
        return self.chart.zero_fn()

    def degrees(self):
        return sorted({len(k) for k in self.terms})

    def homogeneous(self, k):
        return self._like({m: c for m, c in self.terms.items() if len(m) == k})

    def wedge(self, other):
        if type(other) is not type(self):
            raise TypeError("wedge of different kinds")
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key, sign = sort_sign(ma + mb)
                if sign:
                    _acc(out, key, ca * cb if sign > 0 else -(ca * cb))
        return self._like(out)

    def star(self):
        """Graded *-involution: (A wedge B)* = B* wedge A*, generators flip sign."""
        out = {}
        for m, c in self.terms.items():
            k = len(m)
            out[m] = -c.star() if (k * (k + 1) // 2) % 2 else c.star()
        return self._like(out)

    @classmethod
    def from_function(cls, f):
        return cls(f.chart, {(): f})

    @classmethod
    def zero(cls, chart):
        return cls(chart, {})

    def _basis_symbol(self, i):
        raise NotImplementedError

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda k: (len(k), k)):
            ct = self.terms[m].to_text()
            if " " in ct or "/" in ct:
                ct = "(" + ct + ")"
            body = "^".join(self._basis_symbol(i) for i in m)
            parts.append(ct if not body else
                         (body if ct == "1" else "%s*%s" % (ct, body)))
        return " + ".join(parts)

    __str__ = to_text


class MultiVector(_Graded):
    """Graded element over d_{i1}^...^d_{ik} with polynomial coefficients.

    The vector fields are the multivectors whose terms all have degree 1;
    `apply` and `bracket` are defined on them only."""

    def _basis_symbol(self, i):
        return "d_%d" % (i + 1)

    @classmethod
    def field(cls, chart, comps):
        """The vector field sum_i comps[i] d_i."""
        return cls(chart, {(i,): p for i, p in enumerate(comps)})

    def _field_terms(self):
        if any(len(m) != 1 for m in self.terms):
            raise ValueError("needs a vector field (a multivector of degree 1)")
        return self.terms.items()

    def apply(self, f):
        """X(f) = sum_i X^i d_i f, the vector field as a derivation."""
        out = self.chart.zero_fn()
        for (i,), p in self._field_terms():
            out = out + p * f.diff(i)
        return out

    def bracket(self, other):
        """Lie bracket [X, Y] = sum_k (X(Y^k) - Y(X^k)) d_k of two vector fields."""
        out = {}
        for (k,), q in other._field_terms():
            _acc(out, (k,), self.apply(q))
        for (k,), p in self._field_terms():
            _acc(out, (k,), -other.apply(p))
        return MultiVector(self.chart, out)

    def factors(self, m):
        """A term f d_I as a list of vector fields [f d_{i1}, d_{i2}, ...]."""
        chart = self.chart
        out = []
        coeff = self.terms[m]
        for pos, i in enumerate(m):
            base = chart.coordinate_field(i)
            out.append(base.scale(coeff) if pos == 0 else base)
        return out


class DiffForm(_Graded):
    """Graded element over dx^{i1}^...^dx^{ik} with polynomial coefficients."""

    def _basis_symbol(self, i):
        return "dx%d" % (i + 1)


# -- Cartan operations -----------------------------------------------------------


def exterior_derivative(omega):
    """Graded derivation of degree 1 with d(f dx^I) = df wedge dx^I and d^2 = 0."""
    chart = omega.chart
    out = {}
    for m, f in omega.terms.items():
        for i in range(chart.dim):
            df = f.diff(i)
            if df.is_zero:
                continue
            key, sign = sort_sign((i,) + m)
            if sign:
                _acc(out, key, df if sign > 0 else -df)
    return DiffForm(chart, out)


def _insert_coordinate(i, omega):
    """i_{d_i} as a graded derivation of degree -1 on forms."""
    out = {}
    for m, f in omega.terms.items():
        if i not in m:
            continue
        pos = m.index(i)
        _acc(out, m[:pos] + m[pos + 1:], f if pos % 2 == 0 else -f)
    return DiffForm(omega.chart, out)


def insert(mv, omega):
    """Insertion of a multivector: i_{X1^...^Xk} = i_{X1} ... i_{Xk};
    a degree-0 multivector inserts as left multiplication."""
    chart = omega.chart
    result = DiffForm.zero(chart)
    for m, f in mv.terms.items():
        piece = omega
        for i in reversed(m):
            piece = _insert_coordinate(i, piece)
        piece = piece.scale(f)
        result = result + piece
    return result


def pairing(omega, x):
    """<omega, X> for a 1-form and a vector field."""
    out = omega.chart.zero_fn()
    for m, f in omega.terms.items():
        if len(m) != 1:
            raise ValueError("pairing needs a 1-form")
        out = out + f * x.coeff(m)
    return out


def lie_form(mv, omega):
    """L_X = [i_X, d] (graded commutator) on forms, for X of any degree."""
    chart = omega.chart
    out = DiffForm.zero(chart)
    for k in mv.degrees():
        p = mv.homogeneous(k)
        sign = -1 if k % 2 else 1   # (-1)^k from deg(i_X) = -k against deg(d) = 1
        piece = insert(p, exterior_derivative(omega)) \
            - exterior_derivative(insert(p, omega)).scale(sign)
        out = out + piece
    return out


def schouten(p, q):
    """Schouten-Nijenhuis bracket extending [.,.] with X(a) in degree 0/1.

    On factorizing terms it is the alternating double sum over bracketed
    factor pairs; degree-0 entries follow [[a, Y]] = sum_j (-1)^j Y_j(a) ...
    and the graded skew-symmetry.
    """
    chart = p.chart
    out = MultiVector.zero(chart)
    for mi in p.terms:
        for mj in q.terms:
            out = out + _schouten_term(p, mi, q, mj)
    return out


def _schouten_term(p, mi, q, mj):
    chart = p.chart
    k, l = len(mi), len(mj)
    f, g = p.terms[mi], q.terms[mj]
    if k == 0 and l == 0:
        return MultiVector.zero(chart)
    if k == 0:
        return _schouten_fn_term(f, q, mj)
    if l == 0:
        res = _schouten_fn_term(g, p, mi)
        sign = -1 if (k - 1) % 2 else 1   # -(-1)^{(k-1)(0-1)} [[g, X]]
        return res.scale(-sign)
    xs = p.factors(mi)
    ys = q.factors(mj)
    out = MultiVector.zero(chart)
    for a in range(k):
        for b in range(l):
            br = xs[a].bracket(ys[b])
            rest = MultiVector(chart, {(): chart.one_fn()})
            for t, x in enumerate(xs):
                if t != a:
                    rest = rest.wedge(x)
            for t, y in enumerate(ys):
                if t != b:
                    rest = rest.wedge(y)
            piece = br.wedge(rest)
            if (a + b) % 2:   # (-1)^{i+j} with 1-based indices = (-1)^{a+b} 0-based
                piece = -piece
            out = out + piece
    return out


def _schouten_fn_term(a, q, mj):
    """[[a, Y1^...^Yl]] = sum_j (-1)^j Y_j(a) Y1 ^ ... ^ hat Y_j ^ ... ^ Yl."""
    chart = q.chart
    ys = q.factors(mj)
    out = MultiVector.zero(chart)
    for j, y in enumerate(ys):
        coeff = y.apply(a)
        if coeff.is_zero:
            continue
        rest = MultiVector(chart, {(): coeff})
        for t, yy in enumerate(ys):
            if t != j:
                rest = rest.wedge(yy)
        out = out + rest if j % 2 else out - rest   # (-1)^{j+1} 0-based = (-1)^j 1-based
    return out


# -- Hopf action through a realization ---------------------------------------------


class Realization:
    """Bracket-preserving map from a Lie presentation into polynomial fields.

    The induced U(g)-action: iterated Lie derivative on functions, adjoint
    action on multivector fields (for primitives, the bracket with the
    realized field), Lie derivative on forms (equivalent to the dual-pairing
    extension).  The module-algebra law holds because the generators act as
    derivations.
    """

    def __init__(self, alg, chart, fields):
        self.alg = alg
        self.chart = chart
        self.fields = {}
        for name in alg.names:
            if name not in fields:
                raise ValueError("generator %s is not realized" % name)
            fld = fields[name]
            if not (isinstance(fld, MultiVector) and all(len(m) == 1 for m in fld.terms)):
                raise TypeError("realization of %s must be a vector field" % name)
            self.fields[name] = fld
        self._by_index = [self.fields[name] for name in alg.names]
        self._act_cache = {}
        for (i, j), row in alg._table.items():
            if i < j:
                lhs = self._by_index[i].bracket(self._by_index[j])
                rhs = MultiVector.zero(self.chart)
                for k, cv in row.items():
                    rhs = rhs + self._by_index[k].scale(self.chart.constant(cv))
                if lhs != rhs:
                    raise ValueError(
                        "realization does not preserve the bracket [%s,%s]"
                        % (alg.names[i], alg.names[j]))

    def field(self, name):
        return self.fields[name]

    def _act_letter(self, i, obj):
        fld = self._by_index[i]
        if isinstance(obj, PolyFunction):
            return fld.apply(obj)
        if isinstance(obj, MultiVector):
            return schouten(fld, obj)
        if isinstance(obj, DiffForm):
            return lie_form(fld, obj)
        raise TypeError("cannot act on %r" % (obj,))

    def act_monomial(self, exps, obj):
        """X_{i1} ... X_{ik} |> obj for a PBW monomial: its leading letter acting
        on the memoised action of the rest, so every suffix is acted once."""
        key = (exps, obj)
        out = self._act_cache.get(key)
        if out is None:
            for i, e in enumerate(exps):
                if e:
                    break
            else:
                return obj
            rest = exps[:i] + (e - 1,) + exps[i + 1:]
            out = self._act_letter(i, self.act_monomial(rest, obj))
            self._act_cache[key] = out
        return out

    def act(self, el, obj):
        """Action of a PBW element; on the unit monomial it is epsilon-scaling."""
        if not isinstance(el, PBWElement):
            raise TypeError("act expects a PBW element")
        if el.alg is not self.alg:
            raise ValueError("element of an unrealized algebra")
        out = None
        for m, c in el.terms.items():
            piece = self.act_monomial(m, obj).scale(c)
            out = piece if out is None else out + piece
        return obj._like({}) if out is None else out

    def contract(self, tensor, first, second, combine):
        """sum over the terms c*(m1 ox m2) of an arity-2 tensor of
        c*combine(m1 |> first, m2 |> second); None for the zero tensor.

        combine is bilinear over hbar-series constants, so the second legs
        that share a first leg are summed before one combine."""
        legs = {}
        for (m1, m2), c in tensor.terms.items():
            piece = self.act_monomial(m2, second).scale(c)
            legs[m1] = legs[m1] + piece if m1 in legs else piece
        out = None
        for m1, acted in legs.items():
            piece = combine(self.act_monomial(m1, first), acted)
            out = piece if out is None else out + piece
        return out
