"""Local points of chart algebras over F_q((t)), pullback of 1-forms along
them, the nonvanishing test for a family of sections, and point lifting
through a purely inseparable degree-p quotient presentation.

The headline operation is verify_equivalence. descend_and_factor descends a
chart and its derivation to their model and factors the descended
derivation; verify_equivalence builds the quotient presentation from that
factorization and confirms over seeded random local points that a point
lifts exactly when every supplied section pulls back to zero.
"""

import random

from .algebra import MultiPoly, FunField, restrict_to_field
from .series import LaurentSeries, NotSimpleRoot, evaluate, from_codes, newton
from .differentials import OneForm
from .descent import descend_algebra, descend_derivation, pth_root_K, NoDescent
from .foliation import _generator_monomials, _vector, frobenius_factorization_check
from ._linalg import solve_span


class NotOnVariety(ValueError):
    def __init__(self, relation_index, valuation, msg):
        super().__init__(msg)
        self.relation_index = relation_index
        self.valuation = valuation


class NoLift(Exception):
    """The equation for coordinate needs a p-th root of the series for svar
    that does not exist, or (svar None) the lift failed its verification."""

    def __init__(self, coordinate, svar=None):
        self.coordinate = coordinate
        self.svar = svar

    def __str__(self):
        if self.svar is None:
            return f"{self.coordinate}: lift verification failed"
        return (f"{self.coordinate}: series for {self.svar} requires a p-th root "
                f"that does not exist")


class UnsupportedPresentation(ValueError):
    pass


class NoStarBound(RuntimeError):
    """min_star_precision cannot bound the pullback terms of a section."""


def _base_field(chart):
    return chart.domain.field if isinstance(chart.domain, FunField) else chart.domain


class LocalPoint:
    __slots__ = ("chart", "coords", "prec")

    def __init__(self, chart, coords, prec):
        self.chart = chart
        self.coords = coords
        self.prec = prec

    def to_json(self):
        return {v: str(s) for v, s in sorted(self.coords.items())}

    def __repr__(self):
        inner = ", ".join(f"{v}={s}" for v, s in sorted(self.coords.items()))
        return f"<local point {inner}>"


def make_point(chart, coords, N=64):
    """Certify that the series coordinates satisfy every chart relation
    below the precision of the point returned: relation j holds when var^d
    and its rewrite, with coefficients to N, agree at the point below the
    lower precision of the two sides. That precision is the least of these
    windows, N and the coordinates' precisions; a coefficient 1/t can make a
    window smaller than the coordinates'. Only a relation that fails builds
    its residual, whose valuation NotOnVariety reports."""
    clean = {}
    prec = N
    for v in chart.vars:
        if v not in coords:
            raise KeyError(f"no value for coordinate {v}")
        s = clean[v] = coords[v]
        prec = s.prec if s.prec < prec else prec
    window = prec
    for j, rel in enumerate(chart.relations):
        power = evaluate(rel.power, clean, N)
        rewrite = evaluate(rel.rewrite, clean, N)
        if not power.agrees_below(rewrite, prec):
            val = evaluate(rel.poly, clean, N).val()
            raise NotOnVariety(
                j, val,
                f"relation {j} ({rel.poly}) has residual of valuation {val}",
            )
        window = min(window, power.prec, rewrite.prec)
    return LocalPoint(chart, clean, window)


def solve_coordinate(chart, coords, name, N=64, initial=None):
    """Complete a partial point by series.newton on one designated relation.

    coords must fix every variable except name. The starting residue is
    searched over the field unless given; it must be a simple root of the
    reduced relation.
    """
    rel = next((r for r in chart.relations if r.var == name), None)
    if rel is None:
        raise ValueError(f"{name} is not a designated relation variable")
    field = _base_field(chart)
    fixed = {v: s for v, s in coords.items() if v != name}
    F = rel.poly
    if initial is None:
        Fw = F.partial(name)
        for a in field.elements():
            guess = {**fixed, name: LaurentSeries.constant(field, a, 1)}
            if (not evaluate(F, guess, N).nonzero_before(1)
                    and evaluate(Fw, guess, N).nonzero_before(1)):
                initial = a
                break
        if initial is None:
            raise NotSimpleRoot(f"no simple starting residue for {name} over F_{field.q}")
    w0 = LaurentSeries.constant(field, initial, 1)
    return {**fixed, name: newton(F, name, fixed, w0, N)}


def pullback_form(point, form):
    """Coefficient of dt in the pullback: sum a_i(x(t)) x_i'(t) + a_t(x(t))."""
    if form.chart is not point.chart and form.chart != point.chart:
        raise TypeError("form and point live on different charts")
    out = None
    for v, a in zip(point.chart.vars, form.comps):
        if a.is_zero():
            continue
        term = evaluate(a, point.coords, point.prec) * point.coords[v].derivative()
        out = term if out is None else out + term
    if form.t_comp is not None and not form.t_comp.is_zero():
        term = evaluate(form.t_comp, point.coords, point.prec)
        out = term if out is None else out + term
    if out is None:
        out = LaurentSeries.zero(_base_field(point.chart), point.prec)
    return out


def star_horizon(prec):
    """Half the working precision: stars and lifts are checked below it."""
    return prec // 2


def min_star_precision(chart, sections):
    """Least precision whose star_horizon reaches every term a nonzero
    pullback of the sections can have along a drawn point.

    Drawn coordinates have terms up to degree top and derivatives below
    _FREE_TOP - 1 (p-th powers differentiate to 0). The coordinate that
    random_local_point solves for is a polynomial of degree w in the drawn
    ones: it weighs w in a coefficient's degree, and its derivative has
    terms below w * top. A component a*dv then has terms below
    deg(a) * top plus the bound for v' (_FREE_TOP - 1 for dt). Raises
    NoStarBound when a section needs a Newton-completed coordinate, a series
    with no last term, or a coefficient that is not constant in t.
    """
    top = max(_FREE_TOP - 1, chart.domain.p * (_P_POWER_MULTIPLES - 1))
    weight = dict.fromkeys(chart.vars, 1)
    below = dict.fromkeys(chart.vars + (None,), _FREE_TOP - 1)
    plan = chart.solve_plan
    solved = plan.solve_var
    if solved is not None:
        _require_t_free(plan.rel.poly, f"the relation solved for {solved}")
        weight[solved] = max((sum(e) for e in plan.rest.terms), default=0)
        below[solved] = weight[solved] * top
    elif plan.newton_var is not None:
        weight[plan.newton_var] = None
    bound = _FREE_TOP - 1
    for w in sections:
        for v, a in (*zip(chart.vars, w.comps), (None, w.t_comp)):
            if a is None or a.is_zero():
                continue
            _require_t_free(a, f"section {w}")
            used = {u for e in a.terms for u, k in zip(chart.vars, e) if k} | {v}
            newton = [u for u in chart.vars if u in used and weight[u] is None]
            if newton:
                raise NoStarBound(
                    f"section {w} needs the Newton-completed coordinate {newton[0]}, "
                    f"a series with no last term")
            deg = max(sum(k * weight[u] for u, k in zip(chart.vars, e) if k)
                      for e in a.terms)
            bound = max(bound, deg * top + below[v])
    return 2 * bound


def _require_t_free(poly, what):
    if isinstance(poly.domain, FunField) and not all(
            c.is_constant() for c in poly.terms.values()):
        raise NoStarBound(f"{what} has a coefficient that is not constant in t")


def star_condition(point, sections):
    """True when some section pulls back to a series nonzero before the star
    horizon of the working precision."""
    horizon = star_horizon(point.prec)
    for w in sections:
        pb = pullback_form(point, w)
        if pb.nonzero_before(min(horizon, pb.prec)):
            return True
    return False


class QuotientPresentation:
    """phi: source -> target, purely inseparable of degree p at chart level.

    images[v] is phi^*(v) as a polynomial on the source chart. Construction
    verifies that the p-th power of every source variable lies in the subring
    the images generate: the search spans image products up to degree 3p and
    stops once every x^p is in their span; lift_point compares the
    equations it sets aside. What lift_point does with the equation for v
    depends only on which source variables are already assigned, so each
    step is worked out once per (v, assigned set) by lift_step and kept in
    _steps; the order of assignment can still differ from point to
    point, since a factor may vanish at one point and not at another.
    """

    __slots__ = ("source", "target", "images", "_steps")

    def __init__(self, source, target, images):
        if source.domain != target.domain:
            raise UnsupportedPresentation("source and target have different domains")
        p = source.domain.p
        self.source = source
        self.target = target
        self.images = {}
        self._steps = {}
        for v in target.vars:
            if v not in images:
                raise UnsupportedPresentation(f"no image for target coordinate {v}")
            img = images[v]
            if img.vars != source.vars:
                raise UnsupportedPresentation(
                    f"image of {v} is not a polynomial on the source chart"
                )
            self.images[v] = source.nf(img)
        bound = 3 * p
        image_list = list(self.images.values())
        # the span check runs over F_q when the chart and images are t-free
        chart, image_list = (restrict_to_field(source, image_list)
                             or (source, image_list))
        targets = [_vector(chart.nf(chart.var(s) ** p)) for s in chart.vars]
        products, _, _ = _generator_monomials(
            chart, [_vector(f) for f in image_list], bound, targets)
        vectors = [vec for _, vec in products]
        for s, combo in zip(source.vars, solve_span(vectors, targets, chart.domain)):
            if combo is None:
                raise UnsupportedPresentation(
                    f"{s}^{p} is not visibly in the image subring "
                    f"(degree bound {bound})"
                )

    def lift_step(self, v, assigned):
        """What lift_point does with the equation for v once the source
        variables in the frozenset assigned are known: _SET_ASIDE when none
        of them is left open in it, _WAIT unless exactly one term holds an
        open variable and only as a power p^j, and otherwise
        (svar, j, factor, closed): the open variable, its root count, the
        term's cofactor and the closed terms (None when there are none)."""
        source = self.source
        open_terms = []
        closed = {}
        for e, c in self.images[v].terms.items():
            open_vars = [
                i for i, k in enumerate(e) if k and source.vars[i] not in assigned
            ]
            if open_vars:
                open_terms.append((e, c, open_vars))
            else:
                closed[e] = c
        if not open_terms:
            return _SET_ASIDE
        if len(open_terms) > 1 or len(open_terms[0][2]) > 1:
            return _WAIT
        e, c, (ui,) = open_terms[0]
        j = _pure_p_power(e[ui], source.domain.p)
        if j is None:
            return _WAIT  # another equation may pin the variable down first
        factor = MultiPoly(source.domain, source.vars, {e[:ui] + (0,) + e[ui + 1 :]: c})
        closed = MultiPoly(source.domain, source.vars, closed) if closed else None
        return source.vars[ui], j, factor, closed

    def to_json(self):
        return {
            "source_vars": list(self.source.vars),
            "target_vars": list(self.target.vars),
            "images": {v: str(self.images[v]) for v in self.target.vars},
        }


_SET_ASIDE = "set aside"
_WAIT = "wait"


def _pure_p_power(exp, p):
    j = 0
    m = exp
    while m % p == 0:
        m //= p
        j += 1
    return j if m == 1 else None


def lift_point(point, pres):
    """Solve phi^*(v)(source coords) = v(t) for every target coordinate v.

    Triangular rounds: an equation becomes usable once it has exactly one
    term containing exactly one undetermined source variable, raised to a
    power p^j; that variable is then solved by division and j p-th roots,
    unless its cofactor vanishes at this point, and the equation holds by
    construction. An equation with no undetermined variable left is set
    aside. pres.lift_step says which case applies, and each round walks the
    waiting equations once. Source variables never pinned down default to
    0. Each set-aside image is compared with its target coordinate below the
    star horizon or the lower precision of the two sides, whichever is
    lower; a p-th root divides the precision by p, so at p = 5 and N = 64
    every raynaud-local lift compares y only to t^13, not t^32.
    """
    if point.chart is not pres.target and point.chart != pres.target:
        raise TypeError("point does not live on the target chart")
    source = pres.source
    field = _base_field(source)
    N = point.prec
    prec = N
    steps = pres._steps
    assigned = {}
    known = frozenset()
    set_aside = set()
    pending = pres.target.vars
    while pending:
        waiting = []
        for v in pending:
            step = steps.get((v, known))
            if step is None:
                step = steps[v, known] = pres.lift_step(v, known)
            if step is _SET_ASIDE:
                set_aside.add(v)
                continue
            if step is not _WAIT:
                svar, j, cofactor, closed = step
                factor = evaluate(cofactor, assigned, N)
                if not factor.is_zero():
                    rhs = point.coords[v]
                    rest = (rhs - evaluate(closed, assigned, N) if closed is not None
                            else rhs.truncate(N))
                    val = rest / factor
                    for _ in range(j):
                        val = val.pth_root()
                        if val is None:
                            raise NoLift(v, svar)
                    assigned[svar] = val
                    prec = val.prec if val.prec < prec else prec
                    known = known | {svar}
                    continue
            waiting.append(v)
        if len(waiting) == len(pending):
            raise UnsupportedPresentation(
                f"cannot isolate a source variable in the equation for {pending[0]}"
            )
        pending = waiting
    for s in source.vars:
        if s not in assigned:
            assigned[s] = LaurentSeries.zero(field, N)
    horizon = star_horizon(N)
    for v in pres.target.vars:
        if v in set_aside and not evaluate(
                pres.images[v], assigned, prec).agrees_below(point.coords[v], horizon):
            raise NoLift(v)
    return make_point(source, assigned, prec)


# ---------------------------------------------------------------------------
# randomized point generation and the equivalence run


# exponents _random_free_series draws: below _FREE_TOP off the p-th-power
# side, p*k for k below _P_POWER_MULTIPLES on it
_FREE_TOP = 8
_P_POWER_MULTIPLES = 3
_POINT_TRIES = 40


def _randbelow(rng, n):
    """rng.randrange(n) as CPython 3.10 to 3.13 draws it, the same stream,
    without its argument handling."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_free_series(field, rng, N, p_powered):
    p, q = field.p, field.q
    terms = {}
    if p_powered:
        for _ in range(1 + _randbelow(rng, 3)):
            k = p * _randbelow(rng, _P_POWER_MULTIPLES)
            terms[k] = _randbelow(rng, q)
    else:
        k0 = _randbelow(rng, _FREE_TOP)
        while k0 % p == 0:
            k0 = _randbelow(rng, _FREE_TOP)
        terms[k0] = 1 + _randbelow(rng, q - 1)
        for _ in range(_randbelow(rng, 3)):
            terms[_randbelow(rng, _FREE_TOP)] = _randbelow(rng, q)
    v0 = min(terms) if terms else 0
    codes = [0] * (max(terms) - v0 + 1) if terms else []
    for k, c in terms.items():
        # c < q is the code of an element of F_q, not only of the prime field
        codes[k - v0] = c
    return from_codes(field, v0, codes, N)


def random_local_point(chart, rng, N=64):
    """A random point on the chart, each free coordinate a short random
    series that is purely a p-th power with probability 1/2. The solve plan
    completes it, solving a variable that appears linearly with a unit
    coefficient, or else the designated one by Newton; either way the one
    relation holds by construction, so make_point does not check it again,
    and the precision is min(N, the coordinates'). A second relation is
    refused before any draw; a non-simple Newton root draws again, up to
    _POINT_TRIES times."""
    if len(chart.relations) > 1:
        raise UnsupportedPresentation("random points need at most one relation")
    field = _base_field(chart)
    plan = chart.solve_plan
    solve_var, newton_var = plan.solve_var, plan.newton_var
    for _ in range(_POINT_TRIES):
        coords = {}
        for v in chart.vars:
            if v in (solve_var, newton_var):
                continue
            coords[v] = _random_free_series(field, rng, N, rng.random() < 0.5)
        if solve_var is not None:
            coords[solve_var] = evaluate(plan.rest, coords, N)
        elif newton_var is not None:
            try:
                coords = solve_coordinate(chart, coords, newton_var, N)
            except NotSimpleRoot:
                continue
        coords = {v: coords[v] for v in chart.vars}
        return LocalPoint(chart, coords, min([N, *(s.prec for s in coords.values())]))
    raise RuntimeError(f"no random point found on {chart!r} after {_POINT_TRIES} draws")


def _descend_sections(sections, model):
    out = []
    for w in sections:
        if w.t_comp is not None and not w.t_comp.is_zero():
            raise NoDescent("only relative sections (no dt part) descend here")
        comps = [c.map_coeffs(pth_root_K) for c in w.comps]
        out.append(OneForm(model, comps))
    return out


def _has_unit_section(sections):
    for w in sections:
        for c in w.comps:
            if not c.is_zero() and c.is_constant():
                return True
    return False


class DescendedChart:
    """A chart's model over K^p, its descended derivation, and the
    factorization of that derivation's constants."""

    __slots__ = ("pair", "derivation", "factorization")

    def __init__(self, pair, derivation, factorization):
        self.pair = pair
        self.derivation = derivation
        self.factorization = factorization


def descend_and_factor(chart, D):
    """Descend the chart and D to their model, then factor the descended D."""
    pair = descend_algebra(chart)
    Dm = descend_derivation(D, pair)
    return DescendedChart(pair, Dm, frobenius_factorization_check(Dm))


def verify_equivalence(
    descended,
    sections,
    trials=200,
    seed=0,
    N=64,
    verbose=False,
):
    """Check lift-exists == every-section-pulls-back-to-zero on random points.

    descended comes from descend_and_factor on the chart the sections live
    on; the quotient presentation comes from its factorization, and the
    sections are descended to its model. Points are generated with the
    p-th-power bias so both outcomes occur.
    The run is marked inconclusive unless some section has a unit
    coefficient (the generation hypothesis for the section family has no
    chart-level test).
    """
    pair = descended.pair
    model = pair.model
    report_fact = descended.factorization
    if report_fact.quotient is None:
        raise UnsupportedPresentation(
            "the constants of the derivation do not present as a chart"
        )
    pres = QuotientPresentation(
        report_fact.quotient, model, report_fact.power_certificates
    )
    model_sections = _descend_sections(sections, model)

    if not sections:
        # nothing to test: an empty run, inconclusive whatever was asked
        trials, verbose = 0, False
    basis = "unit-coefficient-section" if _has_unit_section(model_sections) else "none"

    rng = random.Random(seed)
    lift_yes = lift_no = star_yes = star_no = 0
    counterexamples = []
    trial_log = []
    for trial in range(trials):
        point = random_local_point(model, rng, N)
        star = star_condition(point, model_sections)
        # the obstruction's fields, not the exception, whose traceback holds
        # this frame; its text is built only for a record
        missing = None
        try:
            lift_point(point, pres)
            lift_yes += 1
        except NoLift as e:
            missing = e.coordinate, e.svar
            lift_no += 1
        if star:
            star_yes += 1
        else:
            star_no += 1
        consistent = (missing is None) == (not star)
        if consistent and not verbose:
            continue
        record = {
            "trial": trial,
            "point": point.to_json(),
            "star": star,
            "lift": "ok" if missing is None else str(NoLift(*missing)),
        }
        if not consistent:
            counterexamples.append(record)
        if verbose:
            trial_log.append(record)
    buckets_ok = (
        trials > 0
        and lift_yes * 10 >= trials * 3
        and lift_no * 10 >= trials * 3
    )
    if counterexamples:
        status = "fail"
    elif basis == "none" or not buckets_ok:
        status = "inconclusive"
    else:
        status = "pass"
    report = {
        "trials": trials,
        "seed": seed,
        "precision": N,
        "model": pair.to_json(),
        "presentation": pres.to_json(),
        "sections": [str(w) for w in model_sections],
        "lift_exists": lift_yes,
        "lift_fails": lift_no,
        "star_true": star_yes,
        "star_false": star_no,
        "buckets_ok": buckets_ok,
        "counterexamples": counterexamples,
        "generation_basis": basis,
        "status": status,
    }
    if verbose:
        report["trial_log"] = trial_log
    return report
