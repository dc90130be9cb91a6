"""Expression grammar, printer round-trips and the declarative config format.

Grammar (no implicit multiplication):

    texpr  := expr ('ox' expr)*
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | 'sqrt' '(' NAME ')' | '(' texpr ')'

Identifiers resolve through an environment: coordinates x1..xD, Lie basis
symbols, scalar parameters, sqrt-radicals, hbar and i.  Values are scalars,
series, polynomial functions, PBW elements or tensors; mixing functions with
algebra elements is rejected.  The canonical printers of the engine types
round-trip through this grammar.

The config format is line-based with [section] headers; see load_config.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import CoordSystem, MultiVector, PolyFunction, Realization
from .lie import LiePresentation, PBWElement
from .linear import SCALARS
from .scalars import Context, HbarSeries, Scalar
from .tensors import TensorElement
from .twists import abelian_twist, jordanian_twist, trivial_twist


class ParseError(ValueError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


def tokenize(text):
    tokens = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[k:j]), k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[k:j]
            tokens.append(("ox", None, k) if word == "ox" else ("name", word, k))
            k = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None, k))
            k += 1
            continue
        raise ParseError("unexpected character %r" % ch, k)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, env):
        self.tokens = tokens
        self.env = env
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[0]), tok[2])
        return tok

    def parse_texpr(self):
        value = self.parse_expr()
        while self.peek()[0] == "ox":
            self.next()
            rhs = self.parse_expr()
            value = _tensor(self.env, value, rhs)
        return value

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = _add(value, rhs) if op == "+" else _add(value, _neg(rhs))
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.parse_unary()
            value = _mul(value, rhs) if op == "*" else _div(value, rhs, pos)
        return value

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return _neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            neg = False
            if self.peek()[0] == "-":
                self.next()
                neg = True
            tok = self.expect("int")
            exponent = -tok[1] if neg else tok[1]
            return _pow(base, exponent, tok[2])
        return base

    def parse_atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return value
        if kind == "(":
            inner = self.parse_texpr()
            self.expect(")")
            return inner
        if kind == "name":
            if value == "sqrt" and self.peek()[0] == "(":
                self.next()
                arg = self.expect("name")
                self.expect(")")
                key = "sqrt(%s)" % arg[1]
                if key not in self.env:
                    raise ParseError("unknown symbol %r" % key, pos)
                return self.env[key]
            if value not in self.env:
                raise ParseError("unknown symbol %r" % value, pos)
            return self.env[value]
        raise ParseError("unexpected token %r" % kind, pos)


def parse_expr(text, env):
    parser = _Parser(tokenize(text), env)
    value = parser.parse_texpr()
    parser.expect("end")
    return value


# -- mixed arithmetic --------------------------------------------------------------


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    try:
        return b + a if isinstance(a, SCALARS) and not isinstance(b, SCALARS) else a + b
    except TypeError as exc:
        raise ParseError("cannot add %s and %s"
                         % (type(a).__name__, type(b).__name__)) from exc


def _neg(a):
    return -a


def _mul(a, b):
    try:
        return b * a if isinstance(a, SCALARS) and not isinstance(b, SCALARS) else a * b
    except TypeError as exc:
        raise ParseError("cannot multiply %s and %s"
                         % (type(a).__name__, type(b).__name__)) from exc


def _div(a, b, pos=None):
    if isinstance(b, (PolyFunction, PBWElement, TensorElement)):
        raise ParseError("division only by scalars or series", pos)
    try:
        if isinstance(a, int) and isinstance(b, int):
            return Fraction(a, b)
        if isinstance(a, (PolyFunction, PBWElement, TensorElement)):
            return a.scale(_invert(b, pos))
        if isinstance(a, int):
            a = Fraction(a)
        out = a / b
    except ZeroDivisionError as exc:
        raise ParseError("division by zero or by a series with zero constant term",
                         pos) from exc
    if out is NotImplemented:
        raise ParseError("cannot divide %s by %s"
                         % (type(a).__name__, type(b).__name__), pos)
    return out


def _invert(b, pos):
    if isinstance(b, int):
        return Fraction(1, b)
    if isinstance(b, Fraction):
        return Fraction(1) / b
    if isinstance(b, (Scalar, HbarSeries)):
        return b.inverse()
    raise ParseError("cannot invert %s" % type(b).__name__, pos)


def _pow(a, n, pos=None):
    if isinstance(a, int):
        a = Fraction(a)
    if n < 0 and not isinstance(a, (Fraction, Scalar, HbarSeries)):
        raise ParseError("negative powers only for scalars and series", pos)
    try:
        out = a ** n
    except ZeroDivisionError as exc:
        raise ParseError("negative power of zero or of a series with zero constant "
                         "term", pos) from exc
    if out is NotImplemented:
        raise ParseError("cannot exponentiate %s" % type(a).__name__, pos)
    return out


def _tensor(env, a, b):
    alg = env.get("__alg__")
    if alg is None:
        raise ParseError("no algebra in scope for 'ox'")

    def as_pbw(v):
        if isinstance(v, PBWElement):
            return v
        if isinstance(v, SCALARS):
            return alg.unit(v)
        raise ParseError("'ox' needs algebra elements, found %s" % type(v).__name__)

    return TensorElement.from_legs(a if isinstance(a, TensorElement) else as_pbw(a),
                                   as_pbw(b))


def standard_env(ctx, alg=None, chart=None):
    """Identifier environment: i, hbar, parameters, radicals, Lie basis, coordinates."""
    env = {"i": ctx.i, "hbar": ctx.hbar()}
    for p in ctx.params:
        env[p] = ctx.param(p)
    for r in ctx.radical_names:
        env[r] = ctx.radical(r)
    if alg is not None:
        env["__alg__"] = alg
        for name in alg.names:
            env[name] = alg.generator(name)
    if chart is not None:
        for k, name in enumerate(chart.names):
            env[name] = chart.coordinate(k)
    return env


# -- declarative configuration -------------------------------------------------------


class ConfigModel:
    """Materialized configuration: context, algebra, chart, realization,
    twist, metric, quadric ideal."""

    def __init__(self):
        self.ctx = None
        self.alg = None
        self.chart = None
        self.real = None
        self.twist = None
        self.metric = None
        self.ideal = None


def _split_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("line %d outside of any [section]" % lineno)
        if ":" not in line and "=" not in line:
            raise ParseError("line %d is not a key: value entry" % lineno)
        current[1].append((lineno, line))
    return sections


def _entry(line):
    key, _, value = line.partition(":")
    return key.strip(), value.strip()


def load_config(text, order=None):
    """Build a ConfigModel from the declarative text format.

    Sections: [scalars] (params, radical), [algebra] (basis, bracket,
    involution), [realization] (coordinates, one entry per generator with a
    component tuple), [twist] (kind, generators, scale), [metric] (row
    entries), [quadric] (generator).  Later sections may refer to symbols
    declared earlier.
    """
    sections = dict()
    for name, entries in _split_sections(text):
        sections.setdefault(name, []).extend(entries)

    params = []
    radicals = {}
    cfg_order = order if order is not None else 4
    for _, line in sections.get("scalars", []):
        key, value = _entry(line)
        if key == "params":
            params.extend(value.split())
        elif key == "radical":
            lhs, _, rhs = value.partition("=")
            lhs = lhs.strip()
            if not (lhs.startswith("sqrt(") and lhs.endswith(")^2")):
                raise ParseError("radical entries look like 'sqrt(a)^2 = a'")
            radicals["sqrt(%s)" % lhs[5:-3]] = rhs.strip()
        elif key == "order" and order is None:
            cfg_order = int(value)
        elif key == "order":
            pass
        else:
            raise ParseError("unknown [scalars] key %r" % key)
    model = ConfigModel()
    model.ctx = Context(params=tuple(params), radicals=radicals, order=cfg_order)
    env = standard_env(model.ctx)

    basis = []
    brackets = {}
    involution = {}
    for _, line in sections.get("algebra", []):
        key, value = _entry(line)
        if key == "basis":
            basis.extend(value.split())
        elif key == "bracket":
            lhs, _, rhs = value.partition("=")
            lhs = lhs.strip()
            if not (lhs.startswith("[") and lhs.endswith("]")):
                raise ParseError("bracket entries look like '[H,E] = 2*E'")
            na, _, nb = lhs[1:-1].partition(",")
            expansion = _parse_linear(rhs.strip(), basis, env, model.ctx)
            brackets[(na.strip(), nb.strip())] = expansion
        elif key == "involution":
            lhs, _, rhs = value.partition("=")
            name = lhs.strip().rstrip("*").strip()
            sign = rhs.strip().replace(" ", "")
            if sign not in ("%s" % name, "-%s" % name):
                raise ParseError("involution entries look like 'H* = -H'")
            involution[name] = -1 if sign.startswith("-") else 1
        else:
            raise ParseError("unknown [algebra] key %r" % key)
    if basis:
        model.alg = LiePresentation(model.ctx, basis, brackets,
                                    involution or None)

    gen_fields = {}
    coordinates = None
    for _, line in sections.get("realization", []):
        key, value = _entry(line)
        if key == "coordinates":
            coordinates = value.split()
        else:
            gen_fields[key] = value
    if coordinates:
        model.chart = CoordSystem(model.ctx, len(coordinates), coordinates)
        env = standard_env(model.ctx, model.alg, model.chart)
        if model.alg is not None and gen_fields:
            fields = {}
            for name, value in gen_fields.items():
                comps = _parse_tuple(value, env, model.chart)
                fields[name] = MultiVector.field(model.chart, comps)
            model.real = Realization(model.alg, model.chart, fields)

    twist_kind = None
    twist_gens = []
    twist_scale = model.ctx.one
    for _, line in sections.get("twist", []):
        key, value = _entry(line)
        if key == "kind":
            twist_kind = value.strip()
        elif key == "generators":
            twist_gens = value.split()
        elif key == "scale":
            twist_scale = _as_scalar(parse_expr(value, env), model.ctx)
        else:
            raise ParseError("unknown [twist] key %r" % key)
    if twist_kind:
        model.twist = build_twist(model.alg, twist_kind, twist_gens, twist_scale)

    rows = []
    for _, line in sections.get("metric", []):
        key, value = _entry(line)
        if key != "row":
            raise ParseError("metric entries look like 'row: 0, 0, 1/2'")
        rows.append([parse_expr(part.strip(), env) for part in value.split(",")])
    if rows:
        from .connections import Metric
        entries = [[_as_function(v, model.chart) for v in row] for row in rows]
        model.metric = Metric(model.chart, entries, realization=model.real)

    quadric_gen = None
    quadric_order = None
    for _, line in sections.get("quadric", []):
        key, value = _entry(line)
        if key == "generator":
            quadric_gen = _as_function(parse_expr(value, env), model.chart)
        elif key == "order":
            names = [part.strip() for part in value.split(">")]
            if sorted(names) != sorted(model.chart.names):
                raise ParseError("quadric order must list every coordinate, "
                                 "e.g. 'x1 > x2 > x3'")
            quadric_order = tuple(model.chart.names.index(n) for n in names)
        else:
            raise ParseError("unknown [quadric] key %r" % key)
    if quadric_gen is not None:
        from .submanifolds import QuadricIdeal
        model.ideal = QuadricIdeal(quadric_gen, coord_priority=quadric_order)
    return model


def build_twist(alg, kind, generators, scale):
    if alg is None:
        raise ParseError("twist requires an [algebra] section")
    if kind == "trivial":
        return trivial_twist(alg)
    if kind == "jordanian":
        if len(generators) != 2:
            raise ParseError("jordanian twist needs two generators")
        return jordanian_twist(alg, generators[0], generators[1], scale=scale)
    if kind == "abelian":
        if not generators or len(generators) % 2:
            raise ParseError("abelian twist needs generator pairs")
        pairs = list(zip(generators[::2], generators[1::2]))
        return abelian_twist(alg, pairs, scale=scale)
    raise ParseError("unknown twist kind %r" % kind)


def _as_scalar(value, ctx):
    if isinstance(value, (int, Fraction)):
        return ctx.scalar(value)
    if isinstance(value, Scalar):
        return value
    raise ParseError("expected a scalar, found %s" % type(value).__name__)


def _as_function(value, chart):
    if isinstance(value, PolyFunction):
        return value
    if isinstance(value, SCALARS):
        return chart.constant(value)
    raise ParseError("expected a polynomial function, found %s"
                     % type(value).__name__)


import re as _re

_JUXTAPOSED = _re.compile(r"(\d|\))\s*([A-Za-z_])")


def _parse_linear(text, basis, env, ctx):
    """Right-hand side of a bracket entry as {name: Scalar}.

    Accepts juxtaposed coefficients ('2E' as well as '2*E').  Evaluated once
    per basis name with that name set to 1 and the rest to 0; bracket tables
    are linear in the basis, which makes this exact.
    """
    text = _JUXTAPOSED.sub(r"\1*\2", text)
    out = {}
    zero_env = dict(env)
    for name in basis:
        zero_env[name] = ctx.zero
    base = parse_expr(text, zero_env) if text not in ("0",) else 0
    if not _as_scalar(base, ctx).is_zero:
        raise ParseError("bracket right-hand side has a constant part")
    for name in basis:
        probe = dict(zero_env)
        probe[name] = ctx.one
        val = parse_expr(text, probe)
        coeff = _as_scalar(val, ctx)
        if not coeff.is_zero:
            out[name] = coeff
    return out


def _parse_tuple(text, env, chart):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("vector fields look like '(2*x1, 0, -2*x3)'")
    parts = _split_commas(text[1:-1])
    if len(parts) != chart.dim:
        raise ParseError("expected %d components" % chart.dim)
    return tuple(_as_function(parse_expr(p, env), chart) for p in parts)


def _split_commas(text):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts]
