"""Command-line driver.

Subcommands: verify-hopf, verify-twist, star, coproduct, antipode, cartan,
connection, submanifold, hyperboloid.  Exit codes are stable contracts:
0 all checks pass, 1 a check failed, 2 usage or configuration error.
Reports go to stdout as text or as a flat key-value document (--format kv);
--output writes them to a file instead.  The default truncation order is 4,
overridable with --order or the TWISTCALC_ORDER environment variable.
Without --config the built-in hyperboloid configuration is used.
"""

from __future__ import annotations

import argparse
import os
import sys

from .exprparse import (ParseError, _as_function, _as_scalar, build_twist, load_config,
                        parse_expr, standard_env)
from .hyperboloid import HyperboloidModel, hyperboloid_suite
from .hopf_checks import hopf_axiom_report
from .reports import Report
from .scalars import Context


def _explicit_order(args):
    """Order from --order or the environment; None leaves it to the config."""
    if args.order is not None:
        return args.order
    env = os.environ.get("TWISTCALC_ORDER")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError("TWISTCALC_ORDER must be an integer, got %r" % env)
    return None


def _default_order(args):
    order = _explicit_order(args)
    return 4 if order is None else order


def _builtin_algebras(ctx):
    from .finite_hopf import function_algebra_z, group_algebra_z, sweedler_h4
    from .lie import abelian, heisenberg, sl2, so21
    return {
        "so21": lambda: so21(ctx),
        "sl2": lambda: sl2(ctx),
        "abelian2": lambda: abelian(ctx, ("X", "Y"), anti_hermitian=True),
        "heisenberg": lambda: heisenberg(ctx),
        "kz2": lambda: group_algebra_z(ctx, 2),
        "fz2": lambda: function_algebra_z(ctx, 2),
        "sweedler": lambda: sweedler_h4(ctx),
    }


def _check_options(args):
    """Reject option values that would be ignored or would empty a report."""
    if getattr(args, "degree", 0) < 0:
        raise ParseError("--degree must be at least 0, got %d" % args.degree)
    if getattr(args, "samples", 1) < 1:
        raise ParseError("--samples must be at least 1, got %d" % args.samples)
    if not getattr(args, "twist", None):
        for opt in ("scale", "generators"):
            if getattr(args, opt, None) is not None:
                raise ParseError("--%s applies only together with --twist" % opt)


class _Model:
    """Resolved working configuration for a command."""

    def __init__(self, args):
        order = _default_order(args)
        if args.config:
            with open(args.config) as fh:
                cfg = load_config(fh.read(), order=_explicit_order(args))
            self.ctx = cfg.ctx
            self.alg = cfg.alg
            self.chart = cfg.chart
            self.real = cfg.real
            self.twist = cfg.twist
            self.metric = cfg.metric
            self.ideal = cfg.ideal
            self.connection = None
            if self.metric is not None:
                from .connections import koszul_levi_civita
                self.connection = koszul_levi_civita(self.metric)
        else:
            hm = HyperboloidModel(order=order, unit_a=getattr(args, "unit_a", False))
            self.ctx = hm.ctx
            self.alg = hm.alg
            self.chart = hm.chart
            self.real = hm.real
            self.twist = hm.twist
            self.metric = hm.metric
            self.ideal = hm.ideal
            self.connection = hm.connection
        algebra = getattr(args, "algebra", None)
        if algebra and not args.config:
            ctx = Context(order=order)
            builders = _builtin_algebras(ctx)
            lie_only = {k: v for k, v in builders.items()
                        if k in ("so21", "sl2", "abelian2", "heisenberg")}
            if algebra not in lie_only:
                raise ParseError("--algebra for twist commands must be one of %s"
                                 % ", ".join(sorted(lie_only)))
            self.ctx = ctx
            self.alg = lie_only[algebra]()
            self.chart = None
            self.real = None
            self.metric = None
            self.ideal = None
            self.connection = None
            self.twist = None
        kind = getattr(args, "twist", None)
        if kind:
            gens = (args.generators or "H E").split()
            env = standard_env(self.ctx, self.alg, self.chart)
            scale = self.ctx.one
            if args.scale:
                scale = _as_scalar(parse_expr(args.scale, env), self.ctx)
            self.twist = build_twist(self.alg, kind, gens, scale)

    def env(self):
        return standard_env(self.ctx, self.alg, self.chart)

    def calculus(self):
        from .starcalc import TwistedCalculus
        if self.real is None or self.twist is None:
            raise ParseError("this command needs a realization and a twist")
        return TwistedCalculus(self.real, self.twist)


def _emit(args, report):
    text = report.format_kv() if args.format == "kv" else report.format_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.passed else 1


def _print_value(args, value):
    text = value.to_text() if hasattr(value, "to_text") else str(value)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify_hopf(args):
    ctx = Context(order=_default_order(args))
    builtins = _builtin_algebras(ctx)
    name = args.algebra or "so21"
    if name not in builtins:
        raise ParseError("unknown algebra %r (choose from %s)"
                         % (name, ", ".join(sorted(builtins))))
    rep = hopf_axiom_report(builtins[name](), degree_bound=args.degree)
    return _emit(args, rep)


def cmd_verify_twist(args):
    from .twists import check_unitary, verify_rmatrix, verify_twist
    model = _Model(args)
    if model.twist is None:
        raise ParseError("no twist in scope; choose one with --twist/--kind")
    rep = Report("twist verification")
    rep.extend(verify_twist(model.twist))
    if args.rmatrix:
        rep.extend(verify_rmatrix(model.twist))
    if args.unitary:
        rep.extend(check_unitary(model.twist))
    return _emit(args, rep)


def cmd_star(args):
    model = _Model(args)
    calc = model.calculus()
    env = model.env()
    f = _as_function(parse_expr(args.left, env), model.chart)
    g = _as_function(parse_expr(args.right, env), model.chart)
    return _print_value(args, calc.star(f, g))


def cmd_coproduct(args):
    from .twists import twisted_coproduct
    model = _Model(args)
    env = model.env()
    el = parse_expr(args.expr, env)
    from .lie import PBWElement
    if not isinstance(el, PBWElement):
        raise ParseError("coproduct needs an enveloping-algebra expression")
    return _print_value(args, twisted_coproduct(model.twist, el))


def cmd_antipode(args):
    from .twists import twisted_antipode
    model = _Model(args)
    env = model.env()
    el = parse_expr(args.expr, env)
    from .lie import PBWElement
    if not isinstance(el, PBWElement):
        raise ParseError("antipode needs an enveloping-algebra expression")
    return _print_value(args, twisted_antipode(model.twist, el))


def cmd_cartan(args):
    model = _Model(args)
    rep = model.calculus().cartan_report()
    return _emit(args, rep)


def cmd_connection(args):
    from .connections import connection_report
    model = _Model(args)
    if model.metric is None or model.connection is None:
        raise ParseError("this command needs a metric in the configuration")
    frame = [model.chart.coordinate_field(k) for k in range(model.chart.dim)]
    frame += [model.real.field(n) for n in model.real.alg.names]
    rep = connection_report(model.real, model.twist, model.connection,
                            model.metric, frame=frame)
    return _emit(args, rep)


def cmd_submanifold(args):
    from .submanifolds import twist_project_report
    model = _Model(args)
    if model.ideal is None:
        raise ParseError("this command needs a quadric in the configuration")
    rep = twist_project_report(model.ideal, model.calculus(),
                               samples=args.samples)
    return _emit(args, rep)


def cmd_hyperboloid(args):
    rep = hyperboloid_suite(order=_default_order(args), unit_a=args.unit_a,
                            project_samples=args.samples)
    return _emit(args, rep)


def _common(parser, twist_opts=True):
    parser.add_argument("--order", type=int, default=None,
                        help="hbar truncation order (default 4 or TWISTCALC_ORDER)")
    parser.add_argument("--config", help="declarative configuration file")
    parser.add_argument("--format", choices=("text", "kv"), default="text")
    parser.add_argument("--output", help="write the report to a file")
    if twist_opts:
        parser.add_argument("--twist", "--kind", dest="twist",
                            choices=("trivial", "abelian", "jordanian"),
                            help="override the configured twist")
        parser.add_argument("--generators", help="twist generators, e.g. 'H E'")
        parser.add_argument("--scale", help="twist scale expression, e.g. 'i'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistcalc",
        description="exact verification engine for Drinfel'd twists, twist star "
                    "products, braided Cartan calculi and quadric submanifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-hopf", help="Hopf axiom suite")
    _common(p, twist_opts=False)
    p.add_argument("--algebra", help="so21|sl2|abelian2|heisenberg|kz2|fz2|sweedler")
    p.add_argument("--degree", type=int, default=3, help="monomial degree bound")
    p.set_defaults(fn=cmd_verify_hopf)

    p = sub.add_parser("verify-twist", help="twist axioms (optionally R-matrix, unitarity)")
    _common(p)
    p.add_argument("--algebra", help="ignored with --config; informational")
    p.add_argument("--rmatrix", action="store_true",
                   help="also verify hexagons, QYBE, triangularity")
    p.add_argument("--unitary", action="store_true", help="also verify unitarity")
    p.set_defaults(fn=cmd_verify_twist)

    p = sub.add_parser("star", help="twisted star product of two expressions")
    _common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("coproduct", help="twisted coproduct of a PBW expression")
    _common(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("antipode", help="twisted antipode of a PBW expression")
    _common(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("cartan", help="braided Cartan calculus report")
    _common(p)
    p.set_defaults(fn=cmd_cartan)

    p = sub.add_parser("connection", help="twisted Levi-Civita report")
    _common(p)
    p.set_defaults(fn=cmd_connection)

    p = sub.add_parser("submanifold", help="twist-projection commutation report")
    _common(p)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_submanifold)

    p = sub.add_parser("hyperboloid", help="full 2-sheet elliptic hyperboloid suite")
    _common(p, twist_opts=False)
    p.add_argument("--unit-a", action="store_true", dest="unit_a",
                   help="specialize a = 1 (circular hyperboloid)")
    p.add_argument("--samples", type=int, default=12,
                   help="projection sample count")
    p.set_defaults(fn=cmd_hyperboloid)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "unit_a"):
        args.unit_a = False
    try:
        _check_options(args)
        return args.fn(args)
    except (ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
