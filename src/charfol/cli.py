"""Command line front end.

Subcommands cover each stage (tango-verify, raynaud-ledger, foliation,
quotient, descend, star-check, equiv-check) plus an end-to-end pipeline for
a parameter pair (p, d). Reports render as a table on stdout, or as
versioned JSON under --json; identical parameters and seed give
byte-identical JSON, so the outputs are usable as golden files.
"""

import argparse
import gc
import json
import math
import random
import re
import sys
import time

from . import gf, raynaud, tango
from .algebra import ChartAlgebra, FunField, parse_poly
from .differentials import OneForm, reduce_form
from .descent import NoDescent, descend_algebra
from .foliation import (
    Derivation,
    MonomialBudgetExceeded,
    is_p_closed_rank1,
    kernel_of_form,
    p_power,
    pairing,
)
from .series import DivisionByZeroSeries, PrecisionExhausted, evaluate
from .adelic import (
    descend_and_factor,
    min_star_precision,
    pullback_form,
    random_local_point,
    star_condition,
    star_horizon,
    verify_equivalence,
)

SCHEMA = "charfol-report/1"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
ASSERTED = "asserted-by-paper"
STATUS_WIDTH = max(map(len, (PASS, FAIL, INCONCLUSIVE, ASSERTED)))


def _plain(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return str(v)


class RunReport:
    def __init__(self, command, parameters):
        self.command = command
        self.parameters = {k: _plain(v) for k, v in parameters.items()}
        self.checks = []
        self.wall_time = None

    def add(self, name, status, **values):
        self.checks.append({"name": name, "status": status,
                            "values": _plain(values)})
        return status

    def extend(self, prefix, other):
        """Append the checks of another report, named under prefix/."""
        for c in other.checks:
            self.checks.append({**c, "name": f"{prefix}/{c['name']}"})

    @property
    def status(self):
        statuses = [c["status"] for c in self.checks]
        if FAIL in statuses:
            return FAIL
        if INCONCLUSIVE in statuses:
            return INCONCLUSIVE
        return PASS

    def to_json_obj(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "checks": self.checks,
            "wall_time": None,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def render_human(self):
        lines = []
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        lines.append(f"command: {self.command}  [{self.status}]  {params}")
        if self.wall_time is not None:
            lines.append(f"wall time: {self.wall_time:.2f}s")
        width = max([len(c["name"]) for c in self.checks], default=0)
        for c in self.checks:
            vals = c["values"]
            detail = " ".join(f"{k}={vals[k]}" for k in sorted(vals)
                              if not isinstance(vals[k], (dict, list)))
            lines.append(f"  [{c['status']:^{STATUS_WIDTH}}] {c['name']:<{width}}  {detail}".rstrip())
        return "\n".join(lines) + "\n"


def _build_field(p, q):
    if q is None:
        return gf.Field(p)
    e, m = 0, q
    while m > 1 and m % p == 0:
        m //= p
        e += 1
    if m != 1 or e < 1:
        raise gf.DomainError(f"q = {q} is not a power of p = {p}")
    return gf.Field(p, e)


def preset_chart(name, p, d, q=None):
    """Named chart with its derivation and default section family."""
    field = _build_field(p, q)
    K = FunField(field)
    if name == "affine-plane":
        chart = ChartAlgebra(K, ("x", "y"), [])
        D = Derivation(chart, [chart.zero(), chart.one()])
        sections = [OneForm.d(chart, chart.var("x"))]
    elif name == "raynaud-local":
        raynaud.require_cover(p, d)
        vars = ("x", "y", "z")
        rel = parse_poly(f"z^{d} - y^{p} - x", vars, K)
        chart = ChartAlgebra(K, vars, [(rel, "z")])
        dz = OneForm.d(chart, chart.var("z"))
        D = kernel_of_form(dz)
        sections = [dz]
    else:
        raise ValueError(f"unknown chart preset {name!r}")
    return chart, D, sections


def _default_degn(p, d):
    # the degree forced by the Tango curve: p*d*degN = 2g-2 = dp(dp-3)
    return d * p - 3


# ---------------------------------------------------------------------------
# subcommands


def cmd_tango_verify(p, d, q=None, precision=None):
    rep = RunReport("tango-verify", {"p": p, "d": d, "q": q, "precision": precision})
    field = _build_field(p, q) if q is not None else None
    try:
        data = tango.verify_tango_structure(p, d, prec=precision, field=field)
    except AssertionError as e:
        # only the smoothness certificate asserts
        rep.add("smoothness", FAIL, error=str(e))
        return rep
    except (DivisionByZeroSeries, PrecisionExhausted) as e:
        default = tango.PlanarTangoCurve(p, d, field).default_precision()
        rep.add("structure", INCONCLUSIVE,
                reason=f"{e}; the curve uses precision {default} by default",
                precision=precision, default_precision=default)
        return rep
    rep.add("smoothness", PASS, **data["smoothness"])
    # n(n-3) = 2g-2 = p*degL, so this one comparison is the Tango equality
    rep.add("ord-dx-at-infinity",
            PASS if data["ord_matches_formula"] else FAIL,
            ord=data["ord_dx_at_infinity"], expected=data["n"] * (data["n"] - 3),
            canonical_degree=data["canonical_degree"], genus=data["genus"],
            degL=data["degL"])
    return rep


def _ledger_section(rep, prefix, data):
    for c in data["checks"]:
        rep.add(f"{prefix}/{c['name']}",
                PASS if c["pass"] else FAIL,
                lhs=c["lhs"], rhs=c["rhs"])


def cmd_raynaud_ledger(p, d):
    # out of the domain the ledgers raise the curve's DomainError or
    # HypothesisViolated; degN = dp - 3 fits the curve and makes every product
    # of A positive, so only a faulty lattice makes them raise anything else
    degN = _default_degn(p, d)
    rep = RunReport("raynaud-ledger", {"p": p, "d": d, "degN": degN})
    ruled = raynaud.verify_ruled_formulas(p, d, degN)
    ray = raynaud.verify_raynaud_formulas(p, d, degN)
    A, ample = raynaud.ample_class_A(p, d, degN)
    gen = raynaud.global_generation_numerics(p, d, degN)
    rep.add("ruled/modeling-assumption", ASSERTED, note=ruled["modeling_assumption"])
    rep.add("ruled/definitions", ASSERTED, **ruled["definitions"])
    _ledger_section(rep, "ruled", ruled)
    rep.add("raynaud/definitions", ASSERTED, **ray["definitions"],
            deg_K_F=ray["deg_K_F"], fiber_arithmetic_genus=ray["fiber_arithmetic_genus"])
    _ledger_section(rep, "raynaud", ray)
    _ledger_section(rep, "ample", ample)
    rep.add("ample/test-set-caveat", ASSERTED, note=ample["caveat"])
    _ledger_section(rep, "generation", gen)
    for i, note in enumerate(gen["assumptions_passed_through"]):
        rep.add(f"generation/assumption-{i}", ASSERTED, note=note)
    return rep


def cmd_foliation(p, d, chart="raynaud-local", q=None, built=None):
    """built: the (chart, D, sections) of preset_chart, when already built."""
    rep = RunReport("foliation", {"p": p, "d": d, "chart": chart, "q": q})
    ch, D, sections = built or preset_chart(chart, p, d, q)
    for i, w in enumerate(sections):
        val = pairing(w, D)
        rep.add(f"pairing-with-section-{i}", PASS if val.is_zero() else FAIL,
                section=str(w), value=str(val))
        vp = pairing(w, p_power(D))
        rep.add(f"pairing-with-p-power-{i}", PASS if vp.is_zero() else FAIL,
                value=str(vp))
    closed, h = is_p_closed_rank1(D)
    rep.add("p-closed-rank-1", PASS if closed else FAIL,
            h=None if h is None else str(h),
            images={v: str(c) for v, c in zip(ch.vars, D.coeffs)})
    return rep


def cmd_quotient(p, d, chart="raynaud-local", q=None, descended=None):
    """Checks on the factorization of the descended derivation; descended is
    the chart's descend_and_factor result, when already built."""
    rep = RunReport("quotient", {"p": p, "d": d, "chart": chart, "q": q})
    if descended is None:
        ch, D, _sections = preset_chart(chart, p, d, q)
        descended = descend_and_factor(ch, D)
    ch, D = descended.pair.model, descended.derivation
    fact = descended.factorization
    rep.add("constants-generated", PASS if fact.generated_up_to_bound else INCONCLUSIVE,
            degree_bound=fact.degree_bound)
    bad = [name for name, g in fact.generators if not D.apply(g).is_zero()]
    rep.add("generators-are-constants", FAIL if bad else PASS,
            generators={name: str(g) for name, g in fact.generators},
            failing=bad)
    proper = any(not D.apply(ch.var(v)).is_zero() for v in ch.vars)
    rep.add("constants-proper-subring", PASS if proper else FAIL)
    # each certificate, with the generators substituted, must give x^p
    gens = dict(fact.generators)
    wrong = [v for v, c in fact.power_certificates.items()
             if ch.nf(c.evaluate(gens, ch.constant)) != ch.nf(ch.var(v) ** p)]
    rep.add("p-th-powers-are-constants", FAIL if wrong else PASS,
            certificates={v: str(c) for v, c in fact.power_certificates.items()})
    if fact.quotient is None:
        rep.add("quotient-chart", INCONCLUSIVE,
                note="constants do not present as a chart at this bound")
    else:
        rep.add("quotient-chart", PASS,
                vars=list(fact.quotient.vars),
                relations=[str(r.poly) for r in fact.quotient.relations])
    return rep


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _chart_from_poly(text, q=3):
    if q < 2:
        raise ValueError(f"cannot read a characteristic from q = {q}")
    if q > gf.MAX_Q:  # before a factor search that would not end for a q far above it
        raise gf.DomainError(f"q = {q} exceeds supported bound {gf.MAX_Q}")
    # the smallest factor above 1 is prime; _build_field checks q is its power
    p = next((k for k in range(2, math.isqrt(q) + 1) if q % k == 0), q)
    names = []
    for m in _VAR_RE.finditer(text):
        s = m.group(0)
        # parse_poly reads u as the generator of F_q when q is not prime
        if s != "t" and (s != "u" or q == p) and s not in names:
            names.append(s)
    if not names:
        raise ValueError("no variables in the polynomial")
    K = FunField(_build_field(p, q))
    poly = parse_poly(text, tuple(names), K)
    designated = None
    for v in names:
        k = poly.deg_in(v)
        if k >= 1:
            lead = poly.coeff_in(v, k)
            if lead.is_constant() and lead.constant_value() == K.one():
                designated = v
                break
    if designated is None:
        raise ValueError("the polynomial is monic in none of its variables")
    return ChartAlgebra(K, tuple(names), [(poly, designated)])


def cmd_descend(poly, q=3):
    rep = RunReport("descend", {"poly": poly, "q": q})
    try:
        chart = _chart_from_poly(poly, q)
    except ValueError as e:
        rep.add("chart", FAIL, error=str(e))
        return rep
    rep.add("chart", PASS, vars=list(chart.vars),
            relations=[str(r.poly) for r in chart.relations])
    try:
        pair = descend_algebra(chart)
    except NoDescent as e:
        rep.add("model-over-Kp", FAIL, error=str(e))
        return rep
    rep.add("model-over-Kp", PASS, **pair.to_json())
    return rep


def _star_horizon_reached(rep, chart, sections, precision):
    """False, after adding an inconclusive star-horizon check, when the star
    horizon (half the precision) ends before terms a nonzero pullback of the
    sections can have along sampled points: a zero there proves nothing."""
    need = min_star_precision(chart, sections)
    if precision >= need:
        return True
    rep.add("star-horizon", INCONCLUSIVE,
            reason=f"the star horizon {star_horizon(precision)} (half the precision) "
                   f"ends before terms a nonzero pullback can have along "
                   f"the sampled points; use precision >= {need}",
            precision=precision, min_precision=need)
    return False


def cmd_star_check(p, d, chart="raynaud-local", q=None, trials=20, seed=0,
                   precision=64):
    rep = RunReport("star-check", {"p": p, "d": d, "chart": chart, "q": q,
                                   "trials": trials, "seed": seed,
                                   "precision": precision})
    ch, _D, sections = preset_chart(chart, p, d, q)
    if not _star_horizon_reached(rep, ch, sections, precision):
        return rep
    rng = random.Random(seed)
    stars = 0
    chain_ok = True
    # chain rule witness: pulling back d(g) must give d/dt of g along the point
    g = ch.nf(sum((ch.var(v) for v in ch.vars), ch.zero()) ** 2)
    dg = OneForm.d(ch, g)
    for _ in range(trials):
        pt = random_local_point(ch, rng, precision)
        if star_condition(pt, sections):
            stars += 1
        lhs = pullback_form(pt, dg)
        rhs = evaluate(g, pt.coords, pt.prec).derivative()
        if (lhs - rhs).nonzero_before(min(star_horizon(precision), lhs.prec, rhs.prec)):
            chain_ok = False
    # zero trials count nothing: no verdict
    rep.add("pullbacks-evaluated", PASS if trials else INCONCLUSIVE, star_true=stars,
            star_false=trials - stars,
            sections=[str(w) for w in sections])
    rep.add("chain-rule-spot-check",
            (PASS if chain_ok else FAIL) if trials else INCONCLUSIVE, trials=trials)
    return rep


def cmd_equiv_check(p, d, chart="raynaud-local", q=None, trials=200, seed=0,
                    precision=64, verbose=False,
                    built=None, descended=None):
    """built and descended: the preset_chart and descend_and_factor results
    for the chart, when already built."""
    rep = RunReport("equiv-check", {"p": p, "d": d, "chart": chart, "q": q,
                                    "trials": trials, "seed": seed,
                                    "precision": precision})
    ch, D, sections = built or preset_chart(chart, p, d, q)
    if not _star_horizon_reached(rep, ch, sections, precision):
        return rep
    data = verify_equivalence(descended or descend_and_factor(ch, D), sections,
                              trials=trials, seed=seed,
                              N=precision, verbose=verbose)
    # no trial (none asked, or no section to test) finds no counterexample
    status = FAIL if data["counterexamples"] else PASS if data["trials"] else INCONCLUSIVE
    log = {"log": data["trial_log"]} if "trial_log" in data else {}
    rep.add("zero-counterexamples", status,
            counterexamples=data["counterexamples"],
            lift_exists=data["lift_exists"], lift_fails=data["lift_fails"],
            star_true=data["star_true"], star_false=data["star_false"],
            images=data["presentation"]["images"],
            source_vars=data["presentation"]["source_vars"], **log)
    rep.add("both-sides-populated", PASS if data["buckets_ok"] else INCONCLUSIVE,
            lift_exists=data["lift_exists"], lift_fails=data["lift_fails"])
    basis = data["generation_basis"]
    rep.add("sections-generate",
            PASS if basis == "unit-coefficient-section" else INCONCLUSIVE, basis=basis)
    return rep


def cmd_pipeline(p, d, seed=0, trials=200, precision=64, q=None, verbose=False):
    """The chain curve -> ledger -> chart, D and sections -> foliation ->
    descent and factorization -> quotient -> equivalence; each stage result
    is built once and handed to the stages after it."""
    rep = RunReport("pipeline", {"p": p, "d": d, "degN": _default_degn(p, d),
                                 "seed": seed, "trials": trials,
                                 "precision": precision, "q": q})

    rep.extend("tango", cmd_tango_verify(p, d, q=q))
    try:
        rep.extend("lattice", cmd_raynaud_ledger(p, d))
    except raynaud.HypothesisViolated as e:
        rep.add("hypothesis/d-divides-p-plus-1", FAIL, p=p, d=d, error=str(e))
    if rep.status == FAIL:
        return rep

    built = preset_chart("raynaud-local", p, d, q)
    ch, D, _sections = built
    rdx = reduce_form(OneForm.d(ch, ch.var("x")))
    want = OneForm(ch, [ch.zero(), ch.zero(),
                        ch.constant(ch.domain.from_int(d)) * ch.var("z") ** (d - 1)])
    sat_ok = all((a - b).is_zero() for a, b in zip(rdx.comps, want.comps))
    rep.add("local-chart/saturation-identity", PASS if sat_ok else FAIL,
            reduced=str(rdx), expected=str(want))

    rep.extend("foliation", cmd_foliation(p, d, q=q, built=built))
    try:
        descended = descend_and_factor(ch, D)
    except NoDescent as e:
        rep.add("descent/model-and-derivation", FAIL, error=str(e))
        return rep
    except MonomialBudgetExceeded as e:
        rep.add("quotient/constants-generated", INCONCLUSIVE, reason=str(e),
                degree_bound=e.degree_bound, monomials_needed=e.monomials_needed,
                budget=e.budget)
        return rep
    rep.extend("quotient", cmd_quotient(p, d, q=q, descended=descended))
    if rep.status == FAIL:
        return rep
    rep.add("descent/model-and-derivation", PASS,
            provenance_entries=len(descended.pair.provenance))

    rep.extend("equivalence", cmd_equiv_check(
        p, d, trials=trials, seed=seed, precision=precision, q=q,
        verbose=verbose, built=built, descended=descended))

    rep.add("conclusion/rationality-criterion", ASSERTED,
            note="the checks above verify the numerical and foliation inputs "
                 "of the adelic rationality criterion for these surfaces; its "
                 "conclusion (adelic points invisible to the Brauer-Manin cut) "
                 "is recorded as an implication, not computed")
    return rep


# ---------------------------------------------------------------------------
# argument plumbing


def _int_at_least(least, what):
    """argparse type: an int of at least least."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer of at least {least}, got {text!r}")
        return n
    return parse


def _add_common(sp, *names):
    if "p" in names:
        sp.add_argument("--p", type=int, required=True)
    if "d" in names:
        sp.add_argument("--d", type=int, required=True)
    if "q" in names:
        sp.add_argument("--q", type=int, default=None)
    if "chart" in names:
        sp.add_argument("--chart", default="raynaud-local",
                        choices=["raynaud-local", "affine-plane"])
    if "precision" in names:
        sp.add_argument("--precision", type=_int_at_least(1, "precision"), default=64)
    if "trials" in names:
        sp.add_argument("--trials", type=_int_at_least(0, "trials"), default=200)
    if "seed" in names:
        sp.add_argument("--seed", type=int, default=0)
    if "verbose" in names:
        sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--json", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(prog="charfol")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tango-verify", help="curve structure and ord of dx")
    _add_common(sp, "p", "d", "q")
    sp.add_argument("--precision", type=_int_at_least(1, "precision"), default=None,
                    help="series precision; default is the curve's own bound")

    sp = sub.add_parser("raynaud-ledger", help="exact intersection ledger")
    _add_common(sp, "p", "d")

    sp = sub.add_parser("foliation", help="kernel derivation and p-closure")
    _add_common(sp, "p", "d", "chart", "q")

    sp = sub.add_parser("quotient", help="constants, certificates, quotient chart")
    _add_common(sp, "p", "d", "chart", "q")

    sp = sub.add_parser("descend", help="model over K^p for a chart")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("star-check", help="pullback nonvanishing statistics")
    _add_common(sp, "p", "d", "chart", "q", "precision", "trials", "seed")

    sp = sub.add_parser("equiv-check", help="lift vs pullback dichotomy")
    _add_common(sp, "p", "d", "chart", "q", "precision", "trials", "seed",
                "verbose")

    sp = sub.add_parser("pipeline", help="full chain for one (p, d)")
    _add_common(sp, "p", "d", "q", "precision", "trials", "seed", "verbose")
    return ap


_DISPATCH = {
    "tango-verify": cmd_tango_verify,
    "raynaud-ledger": cmd_raynaud_ledger,
    "foliation": cmd_foliation,
    "quotient": cmd_quotient,
    "descend": cmd_descend,
    "star-check": cmd_star_check,
    "equiv-check": cmd_equiv_check,
    "pipeline": cmd_pipeline,
}


_PARSER = None


def main(argv=None):
    # the parser is built on the first call and reused: parsing leaves it
    # as it was, and an in-process caller runs main many times
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    ns = _PARSER.parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if k not in ("command", "json")}
    # a fallback report lists the parameters the command's own report would
    params = {k: v for k, v in kwargs.items() if k != "verbose"}
    if ns.command in ("raynaud-ledger", "pipeline"):
        params["degN"] = _default_degn(ns.p, ns.d)
    t0 = time.monotonic()
    try:
        rep = _DISPATCH[ns.command](**kwargs)
    except raynaud.HypothesisViolated as e:
        rep = RunReport(ns.command, params)
        rep.add("hypothesis/d-divides-p-plus-1", FAIL, p=ns.p, d=ns.d, error=str(e))
    except gf.DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # the run stopped short of a verdict, or a stage is at fault: report
        # why, not a traceback (only a DomainError is a bad argument).
        # The failed run's frames, reachable from the traceback and from
        # reference cycles, can hold the memory the report needs: free them.
        e.__traceback__ = None
        gc.collect()
        rep = RunReport(ns.command, params)
        reason = f"{type(e).__name__}: {e}" if str(e) else type(e).__name__
        rep.add("error", INCONCLUSIVE, reason=reason)
    rep.wall_time = time.monotonic() - t0
    if ns.json:
        sys.stdout.write(rep.to_json())
    else:
        sys.stdout.write(rep.render_human())
    return 0 if rep.status == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
