"""The three benchmark workloads: inputs from a seed, one measured round, checks.

Each workload is a closed loop with one client.  The engine only ever sees
the inputs generated here.  A round is the unit the benchmark repeats until
its time is up; `verdict_s` is the median wall time of a round, and each
query inside a round is timed on its own for `query_p50_ms`/`query_tail_ms`.

  flagship  the program's `hyperboloid_suite(order=4)` on a freshly built
            model, the coefficients of its twist-projection samples drawn
            from the seed.  Queries: the suite's calls of the star calculus.
  algebra   twist axioms, R-matrix laws, unitarity, twisted coproducts and
            antipodes of PBW monomials up to degree 3 and the Hopf axioms of
            six algebras, on a freshly built bare so(2,1) at order 5.
            Queries: the 40 coproducts and antipodes.
  session   a fresh order-4 hyperboloid model, warmed by the stream itself,
            answering 100 text queries (star, twisted involution, twisted
            coproduct, twisted antipode), parsed with exprparse and printed
            with to_text; half of the operands repeat earlier ones.
            Queries: every answer.

Operations that raise count as failed; nonzero residuals and failed checks
are collected in `Ops.problems`.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
import traceback

import twistcalc.exprparse as exprparse
import twistcalc.finite_hopf as finite_hopf
import twistcalc.geometry as geometry
import twistcalc.hopf_checks as hopf_checks
import twistcalc.hyperboloid as hyperboloid
import twistcalc.lie as lie
import twistcalc.scalars as scalars
import twistcalc.submanifolds as submanifolds
import twistcalc.twists as twists

import checks

clock = time.perf_counter


class Ops:
    """Counts operations, times queries and collects failures and problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.query_ms = []

    def run(self, name, fn, timed=False):
        """One operation; returns (ok, value).  An exception counts as failed."""
        self.attempted += 1
        t0 = clock()
        try:
            value = fn()
        except Exception:
            self.failed += 1
            print("operation %s raised:" % name, file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False, None
        if timed:
            self.query_ms.append((clock() - t0) * 1000.0)
        return True, value

    def report(self, name, fn):
        """A library report; each of its checks counts as one operation."""
        ok, rep = self.run(name, fn)
        if not ok:
            return
        graded = [c for c in rep.checks if not c.info]
        self.attempted += len(graded) - 1
        for c in graded:
            if not c.passed:
                self.problems.append("%s/%s: %s" % (name, c.name, c.residual))


# -- random inputs -------------------------------------------------------------------
#
# The seed draws every coefficient.  The shapes of the inputs (monomial
# supports, generators, ranks, query order, which operands repeat) come
# from streams with fixed seeds: flagship keeps the shapes the program's
# own `random_polynomial` draws at the suite's fixed seed, algebra and
# session use fixed `shape` streams that continue from round to round.
# The work of a round then hardly depends on the seed; with shapes drawn
# from the seed, the flagship verdict of one seed differed from another's
# by up to 10% from the inputs alone, on top of the machine's own noise.
# Algebra and session deal the kind of each coefficient (integer, i,
# parameter) from `shape`, since the kind sets the cost, and draw only an
# integer factor from the seed.

FACTORS = (1, -1, 2, -3)


class Deck:
    """Draws a fixed multiset in random order, reshuffled when used up, so a
    round uses every item about equally often."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def monomials(degree, dim=3):
    return [tuple(combo.count(k) for k in range(dim))
            for combo in itertools.combinations_with_replacement(range(dim), degree)]


class PolyDealer:
    """Polynomials with one term of each requested degree: monomials drawn
    from decks shuffled by `shape`, coefficients from `coeff()`."""

    def __init__(self, shape, coeff):
        self.decks = {d: Deck(shape, monomials(d)) for d in range(4)}
        self.coeff = coeff

    def __call__(self, *degrees):
        return {self.decks[d].draw(): self.coeff() for d in degrees}


# -- flagship -------------------------------------------------------------------------


class Flagship:
    """`hyperboloid_suite(order=4)`, the verdict of `twistcalc hyperboloid`,
    on a fresh model per round.

    The program's suite runs unchanged, with two substitutions for the
    round: it is handed the round's model instead of building its own (that
    build is `setup_s`), and the polynomials its twist-projection report
    draws with `submanifolds.random_polynomial` at the report's fixed
    default seed keep their monomials but take coefficients drawn from the
    benchmark's seed.  The model's star products and involutions are
    recorded for the reference checks.

    A query is one call of an operation of the model's star calculus
    (`QUERIES`) made by the suite; a call made inside another is part of
    it.  That gives 146 queries a round, spread over most of it, where the
    55 star products alone fall in a few seconds.
    """

    order = 4
    # one round's figures moved with the machine by 12-18% over ten runs;
    # the median of two is steadier
    min_rounds = 2
    COEFFS = (-3, -2, -1, 1, 2, 3)
    QUERIES = ("star", "braided_opposite", "wedge", "schouten", "lie", "insert",
               "d", "lie_fn", "involution", "braided_commutator")

    def setup(self):
        return hyperboloid.HyperboloidModel(order=self.order)

    def inputs(self, rng):
        return {"coeff_seed": rng.getrandbits(64), "point": checks.random_point(rng)}

    def round(self, model, spec, ops):
        coeffs = random.Random(spec["coeff_seed"])
        calc = model.calc
        program_polynomial = submanifolds.random_polynomial
        program_model = hyperboloid.HyperboloidModel
        out = {"star": [], "involution": []}
        depth = [0]

        def seeded_polynomial(chart, rng, *args, **kwargs):
            shape = program_polynomial(chart, rng, *args, **kwargs)
            return geometry.PolyFunction(chart, {
                e: chart.ctx.series([coeffs.choice(self.COEFFS)]) for e in shape.terms})

        def round_model(order, unit_a=False):
            if (order, unit_a) != (self.order, False):
                raise ValueError("the suite asked for another model")
            return model

        def query(name):
            method = getattr(calc, name)

            def timed(*args):
                depth[0] += 1
                t0 = clock()
                try:
                    res = method(*args)
                finally:
                    depth[0] -= 1
                if not depth[0]:
                    ops.query_ms.append((clock() - t0) * 1000.0)
                if name in out:
                    out[name].append(args + (res,))
                return res
            return timed

        for name in self.QUERIES:
            setattr(calc, name, query(name))
        submanifolds.random_polynomial = seeded_polynomial
        hyperboloid.HyperboloidModel = round_model
        try:
            ops.report("hyperboloid_suite",
                       lambda: hyperboloid.hyperboloid_suite(order=self.order))
        finally:
            hyperboloid.HyperboloidModel = program_model
            submanifolds.random_polynomial = program_polynomial
            for name in self.QUERIES:
                delattr(calc, name)
        return out

    def check(self, model, spec, out):
        """Every star product against the reference, every involution; the
        suite's twisted coproducts and antipodes of H, E, E' (recomputed)
        against the Hopf axioms; the quoted errata must fail."""
        ref = checks.Reference(spec["point"])
        problems = [] if out["star"] else ["the suite computed no star product"]
        for f, g, res in out["star"]:
            problems += checks.check_star(ref, f, g, res, model.ctx.order)
        for f, res in out["involution"]:
            problems += checks.check_involution(ref, model.calc, f, res)
        hopf = checks.TwistedHopfChecker(model.twist)
        for name in ("H", "E", "Ep"):
            el = model.alg.generator(name)
            problems += hopf.check_coproduct(el, twists.twisted_coproduct(model.twist, el))
            problems += hopf.check_antipode(el, twists.twisted_antipode(model.twist, el))
        problems += checks.quoted_errata_controls(model)
        return problems


# -- algebra --------------------------------------------------------------------------


class AlgebraState:
    def __init__(self, order):
        self.ctx = scalars.Context(order=order)
        self.alg = lie.so21(self.ctx)
        self.twist = twists.jordanian_twist(self.alg, "H", "E", scale=self.ctx.i)


class Algebra:
    """Hopf-algebra layers only: bare so(2,1), constant Gaussian coefficients."""

    order = 5
    degree = 3
    # each query is timed once a round and the machine's speed wanders by
    # tens of percent within seconds: two rounds steady its query figures
    min_rounds = 2

    def __init__(self):
        self.shape = random.Random("algebra shapes")

    def setup(self):
        return AlgebraState(self.order)

    def inputs(self, rng):
        """PBW monomials up to degree 3 in a fixed shuffled order, each times
        a Gaussian integer: a base (1, i, 1+i or 1-i) dealt from `shape`
        times a seeded integer factor.  The antipode axiom is checked on a
        fixed sixth of them in each round."""
        monos = [m for deg in range(self.degree + 1) for m in monomials(deg)]
        self.shape.shuffle(monos)
        bases = Deck(self.shape, ((1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, -1)))
        full = set(self.shape.sample(range(len(monos)), len(monos) // 6))
        spec = []
        for k, m in enumerate(monos):
            (re, im), factor = bases.draw(), rng.choice(FACTORS)
            spec.append((m, (re * factor, im * factor), k in full))
        return spec

    def round(self, state, spec, ops):
        ctx, alg, tw = state.ctx, state.alg, state.twist
        out = []
        ops.report("twist axioms", lambda: twists.verify_twist(tw))
        ops.report("R-matrix", lambda: twists.verify_rmatrix(tw))
        ops.report("unitary twist", lambda: twists.check_unitary(tw))
        for exps, (re, im), _ in spec:
            el = alg.monomial(exps, ctx.scalar(re) + ctx.i * im)
            _, delta = ops.run("Delta_F", lambda: twists.twisted_coproduct(tw, el), timed=True)
            _, anti = ops.run("S_F", lambda: twists.twisted_antipode(tw, el), timed=True)
            out.append((el, delta, anti))
        for name, build in (("so21", lambda: alg),
                            ("sl2", lambda: lie.sl2(ctx)),
                            ("heisenberg", lambda: lie.heisenberg(ctx)),
                            ("kz2", lambda: finite_hopf.group_algebra_z(ctx, 2)),
                            ("fz2", lambda: finite_hopf.function_algebra_z(ctx, 2)),
                            ("sweedler", lambda: finite_hopf.sweedler_h4(ctx))):
            ops.report("hopf axioms %s" % name,
                       lambda build=build: hopf_checks.hopf_axiom_report(build()))
        return out

    def check(self, state, spec, out):
        problems = []
        hopf = checks.TwistedHopfChecker(state.twist)
        klm = {}
        for (exps, _, full), (el, delta, anti) in zip(spec, out):
            if delta is not None:
                problems += hopf.check_coproduct(el, delta, antipode_axiom=full)
                if sum(exps) == 1:
                    klm[exps] = (el, delta)
            if anti is not None:
                problems += hopf.check_antipode(el, anti, antipode_axiom=full)
        h, e = ((1, 0, 0), (0, 1, 0))   # H and E in the basis (H, E, Ep)
        problems += checks.check_klm(state.twist, *klm[h], *klm[e])
        problems += checks.corrupted_twist_control(state.twist)
        return problems


# -- session --------------------------------------------------------------------------


def _poly_text(spec):
    terms = []
    for exps, coeff in spec.items():
        factors = ["x%d^%d" % (k + 1, e) if e > 1 else "x%d" % (k + 1)
                   for k, e in enumerate(exps) if e]
        terms.append("*".join([coeff] + factors))
    return " + ".join(terms)


def _word_text(word, names=("H", "E", "Ep")):
    return "*".join(names[k] for k in word)


class Session:
    """A warm order-4 hyperboloid model answering a stream of text queries.

    Each round is a stream of 100 queries on a freshly built model: 40 star
    products, 20 twisted involutions, 20 twisted coproducts and 20 twisted
    antipodes, in shuffled order.  Every other operand (in shuffled order)
    repeats an earlier operand of the round, so the engine's memo caches
    see reuse.  A fresh polynomial has one term of each degree up to 3; a
    fresh PBW element is c0 + c1*w + c2*w' with w a word of length 1 or 2
    and w' one of length 3, letters in any order.  A coefficient is a
    seeded integer factor times a base (1, a, c, sqrt(a) or i) dealt from
    `shape`: the base sets the cost (parametric or constant scalars), so
    the seed hardly moves the work of a round.
    """

    order = 4
    # a round lasts about nine seconds, shorter than the machine's slow spells
    min_rounds = 2
    MIX = ("star",) * 40 + ("involution",) * 20 + ("coproduct",) * 20 + ("antipode",) * 20
    POLY_BASES = ("1",) * 4 + ("a", "c", "sqrt(a)") + ("i",) * 2
    PBW_BASES = ("1",) * 3 + ("i",) * 2

    def __init__(self):
        self.shape = random.Random("session shapes")
        self.operands = 0
        self.repeats = 0

    def setup(self):
        return hyperboloid.HyperboloidModel(order=self.order)

    def inputs(self, rng):
        shape = self.shape
        pools = {"poly": [], "pbw": []}

        def coefficients(bases):
            deck = Deck(shape, bases)

            def draw():
                base, factor = deck.draw(), rng.choice(FACTORS)
                return str(factor) if base == "1" else "%d*%s" % (factor, base)
            return draw

        poly = PolyDealer(shape, coefficients(self.POLY_BASES))
        short = Deck(shape, [w for n in (1, 2) for w in itertools.product(range(3), repeat=n)])
        long = Deck(shape, itertools.product(range(3), repeat=3))
        coeff = coefficients(self.PBW_BASES)
        repeat = Deck(shape, (True, False))

        def operand(kind):
            pool = pools[kind]
            self.operands += 1
            if repeat.draw() and pool:
                self.repeats += 1
                return shape.choice(pool)
            if kind == "poly":
                text = _poly_text(poly(0, 1, 2, 3))
            else:
                text = " + ".join([coeff(),
                                   coeff() + "*" + _word_text(short.draw()),
                                   coeff() + "*" + _word_text(long.draw())])
            pool.append(text)
            return text

        mix = list(self.MIX)
        shape.shuffle(mix)
        full = Deck(shape, (True,) + (False,) * 7)
        batch = []
        for kind in mix:
            if kind == "star":
                query = (kind, operand("poly"), operand("poly"))
            elif kind == "involution":
                query = (kind, operand("poly"))
            else:
                query = (kind, operand("pbw"))
            batch.append((query, full.draw()))
        return {"queries": batch, "point": checks.random_point(rng)}

    def answer(self, model, env, query):
        """Expression text in, printed answer out."""
        kind, *texts = query
        args = [exprparse.parse_expr(t, env) for t in texts]
        if kind == "star":
            value = model.calc.star(*args)
        elif kind == "involution":
            value = model.calc.involution(*args)
        elif kind == "coproduct":
            value = twists.twisted_coproduct(model.twist, *args)
        else:
            value = twists.twisted_antipode(model.twist, *args)
        return args, value, value.to_text()

    def round(self, model, spec, ops):
        """The parser's environment is built here, so it counts in the
        verdict but not in `setup_s`, which stays the model build alone."""
        env = exprparse.standard_env(model.ctx, model.alg, model.chart)
        out = []
        for query, _ in spec["queries"]:
            ok, answer = ops.run(query[0], lambda: self.answer(model, env, query), timed=True)
            if ok:
                out.append((query, answer))
        return out

    def check(self, model, spec, out):
        """Each distinct query is checked once, a repeat must print the same
        answer.  Star products all meet the reference; the costlier checks
        (involutivity, antipode axioms) run on the eighth of queries marked
        full, the cheap ones (hbar^0 parts, counits) on all."""
        full = {}
        for query, flag in spec["queries"]:
            full.setdefault(query, flag)
        ref = checks.Reference(spec["point"])
        answers = {}
        hopf = checks.TwistedHopfChecker(model.twist)
        problems = []
        for query, (args, value, text) in out:
            if query in answers:
                if answers[query] != text:
                    problems.append("repeated query %r answered differently" % (query,))
                continue
            answers[query] = text
            kind = query[0]
            if kind == "star":
                problems += checks.check_star(ref, *args, value, model.ctx.order)
            elif kind == "involution":
                problems += checks.check_involution(ref, model.calc, args[0], value, full[query])
            elif kind == "coproduct":
                problems += hopf.check_coproduct(args[0], value, full[query])
            else:
                problems += hopf.check_antipode(args[0], value, full[query])
        return problems


WORKLOADS = {"flagship": Flagship, "algebra": Algebra, "session": Session}
