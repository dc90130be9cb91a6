"""Per-module tracer for the twistcalc package, installed from the benchmark.

`Tracer.install()` wraps the public functions of every layer module and the
public and operator methods of every class defined there, replacing each
reference held by the package's modules.  Properties and the constructors
of value classes (those declaring `__slots__`) are left unwrapped: they are
trivial and called millions of times, and wrapping them would triple the
tracing overhead; their time is charged to the caller.  Each call is
counted per function, and busy time is charged to the innermost wrapped
function, so a layer's self time is the time its calls spend outside calls
into other layers.  Calls that cross from one layer into another, up to
SPAN_DEPTH crossings deep, are also kept as spans (name, start, end,
parent) for the trace file.  Nothing in the traced program waits on a queue,
lock or I/O, so no wait time is recorded.

The `to_text`/`__str__` printers of every module are charged to the
pseudo-layer `print`; time outside any wrapped call is charged to `bench`.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "twistcalc"
LAYERS = ("scalars", "lie", "tensors", "twists", "geometry", "starcalc",
          "submanifolds", "connections", "exprparse", "hyperboloid",
          "hopf_checks", "finite_hopf", "reports")
PRINTERS = ("to_text", "__str__")
UNTRACED = ("__repr__",)
SPAN_DEPTH = 2

_SCALAR_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

# per-layer operation counts: metric -> functions whose calls it sums
COUNTS = {
    "scalars.scalar_ops": ["scalars.Scalar." + n for n in _SCALAR_ARITH],
    "scalars.series_mul": ["scalars.HbarSeries.__mul__", "scalars.HbarSeries.__rmul__"],
    "scalars.series_inverse": ["scalars.HbarSeries." + n for n in ("inverse", "exp", "log1p")],
    "lie.normal_word": ["lie.LiePresentation.normal_word"],
    "lie.pbw_mul": ["lie.PBWElement.__mul__", "lie.PBWElement.__rmul__"],
    "tensors.mul": ["tensors.TensorElement.__mul__", "tensors.TensorElement.__rmul__"],
    "tensors.leg_ops": ["tensors.TensorElement." + n for n in (
        "leg_embed", "permute", "flip", "map_leg", "antipode_on_leg", "expand_leg",
        "coproduct_on_leg", "counit_on_leg")],
    "twists.twisted_ops": ["twists.twisted_coproduct", "twists.twisted_antipode"],
    "geometry.act_monomial": ["geometry.Realization.act_monomial"],
    "geometry.poly_mul": ["geometry.PolyFunction.__mul__", "geometry.PolyFunction.__rmul__"],
    "starcalc.star": ["starcalc.TwistedCalculus.star"],
    "starcalc.cartan_ops": ["starcalc.TwistedCalculus." + n for n in (
        "wedge", "schouten", "lie", "insert", "d", "lie_fn")],
    "submanifolds.reduce": ["submanifolds.QuadricIdeal.reduce"],
    "exprparse.parse": ["exprparse.parse_expr"],
}
SELF_TIMES = LAYERS + ("print",)

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.param_ops = 0
        self.spans = []
        self._layer = {"bench": "bench"}
        self._stack = ["bench"]
        self._span_stack = []
        self._mark = [0.0]
        self._undo = []

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        self._layer[name] = layer
        stack, span_stack, mark = self._stack, self._span_stack, self._mark
        busy, calls, spans, layers = self.busy, self.calls, self.spans, self._layer

        def traced(*args, **kwargs):
            t = clock()
            busy[stack[-1]] += t - mark[0]
            span = None
            if layers[stack[-1]] != layer and len(span_stack) < SPAN_DEPTH:
                span = [len(spans), span_stack[-1][0] if span_stack else None, name, t, None]
                spans.append(span)
                span_stack.append(span)
            stack.append(name)
            calls[name] += 1
            mark[0] = t
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                busy[name] += t - mark[0]
                stack.pop()
                mark[0] = t
                if span is not None:
                    span[4] = t
                    span_stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_scalar_arith(self, fn, name, is_constant):
        """Also counts the operations with a non-constant (parametric) operand."""
        inner = self._wrap(fn, name, "scalars")
        Scalar = fn.__globals__["Scalar"]

        def arith(self_, *args):
            if not (is_constant(self_) and all(
                    is_constant(a) for a in args if isinstance(a, Scalar))):
                tracer.param_ops += 1
            return inner(self_, *args)

        tracer = self
        arith.__wrapped__ = fn
        return arith

    def _wrap_member(self, members, attr, module, prefix):
        name = "%s.%s.%s" % (module, prefix, attr)
        layer = "print" if attr in PRINTERS else module
        member = members[attr]
        if isinstance(member, types.FunctionType):
            if module == "scalars" and prefix == "Scalar" and attr in _SCALAR_ARITH:
                return self._wrap_scalar_arith(member, name, members["is_constant"].fget)
            return self._wrap(member, name, layer)
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap(member.__func__, name, layer))
        if isinstance(member, classmethod):
            return classmethod(self._wrap(member.__func__, name, layer))
        return None

    def install(self):
        """Wrap every layer module; returns self for use as a context manager."""
        modules = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS}
        replaced = {}
        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    layer = "print" if attr in PRINTERS else mname
                    replaced[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (mname, attr), layer))
                elif isinstance(obj, type):
                    members = dict(vars(obj))
                    for mattr in members:
                        public = not mattr.startswith("_") or (
                            mattr.startswith("__") and mattr.endswith("__"))
                        if not public or mattr in UNTRACED or (
                                mattr == "__init__" and "__slots__" in members):
                            continue
                        wrapped = self._wrap_member(members, mattr, mname, obj.__name__)
                        if wrapped is not None:
                            setattr(obj, mattr, wrapped)
                            self._undo.append((obj, mattr, members[mattr]))
        # module-level functions are imported by name elsewhere: patch every reference
        for mod in list(_package_modules()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        for metric, names in COUNTS.items():
            for name in names:
                if name not in self._layer:
                    print("# tracer: %s counts %s, which no longer exists" % (metric, name),
                          file=sys.stderr)
        self._mark[0] = clock()
        return self

    def uninstall(self):
        t = clock()
        self.busy[self._stack[-1]] += t - self._mark[0]
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------

    def metrics(self):
        """Per-layer self times (s) and operation counts."""
        self_s = defaultdict(float)
        for name, seconds in self.busy.items():
            self_s[self._layer[name]] += seconds
        out = {"%s.self_s" % layer: (self_s[layer], "s") for layer in SELF_TIMES}
        for metric, names in COUNTS.items():
            out[metric] = (sum(self.calls[n] for n in names), "count")
        out["scalars.param_ops"] = (self.param_ops, "count")
        return out

    def trace_document(self):
        """Spans and per-function aggregates, for the trace file."""
        functions = sorted(self.calls, key=lambda n: -self.busy.get(n, 0.0))
        return {
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start": s[3], "end": s[4]} for s in self.spans],
            "functions": [{"name": n, "layer": self._layer[n], "calls": self.calls[n],
                           "self_s": self.busy.get(n, 0.0)} for n in functions],
        }


def _package_modules():
    prefix = PACKAGE + "."
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PACKAGE or name.startswith(prefix)):
            yield mod
