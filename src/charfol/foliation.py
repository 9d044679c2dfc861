"""Derivations on chart algebras and the quotient they generate.

A Derivation here is K-linear (it kills the constant field, including t),
stores one image polynomial per chart variable, and is only accepted when it
preserves the relation ideal. On top of that sit the p-th power, the rank-1
p-closedness certificate, 1-form kernels, the ring of constants up to a
degree bound, and a checked presentation of the degree-p quotient.

The ring of constants applies D to monomials by the Leibniz rule, from the
images D(x_i). When the chart and D have only coefficients constant in t,
the factorization runs over F_q and extends its results back to K: from the
Leibniz images to the certificates, vectors hold F_q codes, as SpanTracker
does over a gf.Field, and become FieldElements where they become MultiPolys;
_linalg's term-dict product and normal form reduce images and closure
products on the codes, as MultiPoly and ChartAlgebra do on elements.
"""

from operator import add

from . import gf
from .algebra import MultiPoly, ChartAlgebra, restrict_to_field
from .differentials import reduce_form
from ._linalg import (SpanTracker, _addmul, _mul, _nf, _shift, _submul, kernel_basis,
                      solve_span)


class DegreeBoundTooSmall(RuntimeError):
    pass


# the most reduced monomials up to its degree bound ring_of_constants
# accepts, counted before it builds any: it builds them all and applies D to
# them when D has more than one image term, and on the one-term path builds
# only the constants, about 1/p of them. On the raynaud-local models, the
# pairs (43,2), (47,2) and (59,3) count 819,025, 1,172,889 and 1,893,379 at
# their factorization bounds; (61,2) counts 3,356,224
MONOMIAL_BUDGET = 2_000_000


class MonomialBudgetExceeded(RuntimeError):
    """More reduced monomials up to the degree bound than MONOMIAL_BUDGET."""

    def __init__(self, degree_bound, monomials_needed, budget):
        super().__init__(
            f"the ring of constants up to degree {degree_bound} needs "
            f"{monomials_needed} reduced monomials, over the budget of {budget}")
        self.degree_bound = degree_bound
        self.monomials_needed = monomials_needed
        self.budget = budget


class Derivation:
    __slots__ = ("chart", "coeffs", "_p_power")

    def __init__(self, chart, coeffs):
        if isinstance(coeffs, dict):
            coeffs = [coeffs.get(v, chart.zero()) for v in chart.vars]
        self.chart = chart
        self._p_power = None
        self.coeffs = tuple(
            chart.nf(c if isinstance(c, MultiPoly) else chart.constant(c)) for c in coeffs
        )
        for j, rel in enumerate(chart.relations):
            # the relation must be used unreduced here: nf(rel.poly) is 0
            if not self._apply_reduced(rel.poly).is_zero():
                raise ValueError(
                    f"derivation does not preserve relation {j}: {rel.poly}"
                )

    def _apply_reduced(self, f):
        out = self.chart.zero()
        for g, v in zip(self.coeffs, self.chart.vars):
            if not g.is_zero():
                out = out + g * f.partial(v)
        return self.chart.nf(out)

    def apply(self, f):
        return self._apply_reduced(self.chart.nf(f))

    def __str__(self):
        parts = []
        for g, v in zip(self.coeffs, self.chart.vars):
            if not g.is_zero():
                gs = str(g)
                if " " in gs:
                    gs = f"({gs})"
                parts.append(f"d/d{v}" if gs == "1" else f"{gs}*d/d{v}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<derivation {self} on {self.chart!r}>"


def p_power(D):
    """D^[p]: its images are D applied p-1 times to the images of D. A
    derivation never changes, so it keeps the one it builds on the first
    call, as a series keeps its powers."""
    if D._p_power is None:
        imgs = []
        for h in D.coeffs:
            for _ in range(D.chart.domain.p - 1):
                h = D._apply_reduced(h)
            imgs.append(h)
        D._p_power = Derivation(D.chart, imgs)
    return D._p_power


def pairing(form, D):
    """<form, D> = sum of form coefficients times variable images, reduced.

    The dt coefficient never contributes because derivations kill t.
    """
    if form.chart != D.chart:
        raise TypeError("form and derivation on different charts")
    out = D.chart.zero()
    for a, g in zip(form.comps, D.coeffs):
        out = out + a * g
    return D.chart.nf(out)


def _try_exact_divide(chart, num, den):
    """num/den in the chart algebra, or None; any answer is verified."""
    num, den = chart.nf(num), chart.nf(den)
    if den.is_zero():
        return None
    if num.is_zero():
        return chart.zero()
    q = _free_divide(num, den)
    if q is None:
        bound = num.degree() + sum(r.degree for r in chart.relations) + 2
        monos = chart.reduced_monomials(bound)
        vectors = [chart.nf(MultiPoly(chart.domain, chart.vars, {e: chart.domain.one()}) * den).terms for e in monos]
        (combo,) = solve_span(vectors, [num.terms])
        if combo is None:
            return None
        q = MultiPoly(chart.domain, chart.vars, {monos[i]: c for i, c in combo.items()})
    if not chart.nf(num - q * den).is_zero():
        return None
    return chart.nf(q)


def _free_divide(num, den):
    """Exact single-divisor division in the free ring, grlex leading terms."""
    ed, cd = den.leading()
    r = num
    q = MultiPoly.zero(num.domain, num.vars)
    while not r.is_zero():
        er, cr = r.leading()
        if any(a < b for a, b in zip(er, ed)):
            return None
        e = tuple(a - b for a, b in zip(er, ed))
        term = MultiPoly(num.domain, num.vars, {e: cr / cd})
        q = q + term
        r = r - term * den
    return q


def is_p_closed_rank1(D):
    """(True, h) with D^[p] = h*D verified on every image, else (False, None)."""
    chart = D.chart
    Dp = p_power(D)
    g, G = D.coeffs, Dp.coeffs
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            if not chart.nf(g[i] * G[j] - g[j] * G[i]).is_zero():
                return False, None
    if all(c.is_zero() for c in G):
        return True, chart.zero()
    pivot = next((i for i in range(n) if not g[i].is_zero()), None)
    if pivot is None:
        return False, None
    h = _try_exact_divide(chart, G[pivot], g[pivot])
    if h is None:
        return False, None
    for k in range(n):
        if not chart.nf(G[k] - h * g[k]).is_zero():
            return False, None
    return True, h


def kernel_of_form(form):
    """The rank-1 kernel derivation of a 1-form with two relative coordinates.

    Eliminated coordinates get the images the relations force on them. The
    result is normalized: common univariate content is removed and the first
    nonzero image is scaled to leading coefficient 1.
    """
    chart = form.chart
    red = reduce_form(form)
    if red.unreduced_at:
        raise ValueError(
            f"relations {red.unreduced_at} have no unit partial; kernel is not defined here"
        )
    subs, _ = chart.elimination
    rel_idx = [i for i in range(len(chart.vars)) if i not in subs]
    if len(rel_idx) != 2:
        raise ValueError(
            f"need exactly two relative coordinates, found {len(rel_idx)}"
        )
    i, j = rel_idx
    a, b = red.comps[i], red.comps[j]
    if a.is_zero() and b.is_zero():
        raise ValueError("the zero form has no rank-1 kernel")
    img_i, img_j = b, -a
    used = set()
    for c in (img_i, img_j):
        for e in c.terms:
            used.update(k for k, x in enumerate(e) if x)
    if len(used) <= 1:
        ga, gb = img_i, img_j
        if used:
            (k,) = used
            from .algebra import uni_gcd, uni_divmod

            name = chart.vars[k]
            to_uni = lambda f: MultiPoly(
                chart.domain, (name,), {(e[k],): c for e, c in f.terms.items()}
            )
            from_uni = lambda f: MultiPoly(
                chart.domain,
                chart.vars,
                {
                    tuple(d[0] if m == k else 0 for m in range(len(chart.vars))): c
                    for d, c in f.terms.items()
                },
            )
            gcd = uni_gcd(to_uni(img_i), to_uni(img_j))
            if gcd.degree() > 0:
                ga = from_uni(uni_divmod(to_uni(img_i), gcd)[0])
                gb = from_uni(uni_divmod(to_uni(img_j), gcd)[0])
        img_i, img_j = ga, gb
    first = img_i if not img_i.is_zero() else img_j
    _, lead = first.leading()
    inv = lead.inverse()
    img_i = img_i.map_coeffs(lambda c: c * inv)
    img_j = img_j.map_coeffs(lambda c: c * inv)
    imgs = {chart.vars[i]: img_i, chart.vars[j]: img_j}
    for elim, (coeffs, _tco) in subs.items():
        img = chart.zero()
        for k, pk in coeffs.items():
            img = img + pk * imgs[chart.vars[k]]
        imgs[chart.vars[elim]] = chart.nf(img)
    return Derivation(chart, imgs)


def ring_of_constants(D, max_total):
    """Basis of {f reduced, deg <= max_total : D(f) = 0}, ascending leading
    terms, as vectors: term dicts as _vector gives them, codes over a
    gf.Field and elements over F_q(t).

    The image of a monomial comes from the images D(x_i) by the Leibniz
    rule, D(x^e) = sum_i e_i * x^(e - 1_i) * D(x_i): the terms of each
    nonzero D(x_i), scaled by e_i mod p and shifted by e - 1_i, as _vector
    holds them. An image is put in normal form only when a term can reach a
    relation's degree, which each term of D(x_i) decides once.

    A monomial with a zero image is a constant by itself. An image that
    shares no monomial with any other is independent of all of them, so it
    is in no dependency; only the remaining, coupled images are spanned.
    Raises MonomialBudgetExceeded, before building any monomial, when there
    are more than MONOMIAL_BUDGET reduced monomials, whichever path runs.

    When D has one nonzero image D(x_i) = c*x^m, one term that reaches no
    relation, no image is built: each nonzero image e_i*c*x^(e - 1_i + m)
    is already reduced and one term, and distinct monomials e give distinct
    terms, so none is coupled and the constants are the monomials with
    e_i = 0 mod p, the only ones built. Without the reach condition this
    fails: on z^2 = x*z, D = z*d/dy sends x*y and y*z to x*z and z^2, equal
    in normal form, and x*y - y*z is a constant with y exponent 1.
    """
    chart = D.chart
    domain = chart.domain
    p = domain.p
    needed = chart.count_reduced_monomials(max_total)
    if needed > MONOMIAL_BUDGET:
        raise MonomialBudgetExceeded(max_total, needed, MONOMIAL_BUDGET)
    field = domain if isinstance(domain, gf.Field) else None
    images = []  # (i, {e_f - 1_i: coefficient of x^e_f in D(x_i)}, reach)
    for i, g in enumerate(D.coeffs):
        if not g.terms:
            continue
        shifts = {tuple(k - (j == i) for j, k in enumerate(f)): c
                  for f, c in _vector(g).items()}
        # (j, m): from x_j^m on, some term lifts x_j to its relation's degree
        reach = [(rel.index, rel.degree - lift) for rel in chart.relations
                 if (lift := max(s[rel.index] for s in shifts)) > 0]
        images.append((i, shifts, reach))
    if len(images) == 1 and len(images[0][1]) == 1 and not images[0][2]:
        kernel_basis([], domain)  # the one span, as below, of no coupled image
        one = 1 if field else domain.one()
        return [{e: one} for e in chart.reduced_monomials(max_total, images[0][0], p)]
    monos = chart.reduced_monomials(max_total)
    rules = _rules(chart, field)
    # r mod p as a scalar of the vectors: the code of r is r itself
    scalars = range(p) if field else [domain.from_int(r) for r in range(p)]
    scaled = {}  # (i, r) -> the items of r * D(x_i), keyed by shift
    vectors = []
    holders = {}  # monomial -> how many images hold it
    for e in monos:
        terms = {}
        reduce = False
        for i, shifts, reach in images:
            r = e[i] % p
            if not r:
                continue
            img = scaled.get((i, r))
            if img is None:
                img = scaled[i, r] = list(_addmul(field, {}, shifts, scalars[r]).items())
            if terms:
                _addmul(field, terms, {tuple(map(add, e, s)): a for s, a in img},
                        scalars[1])
            else:
                for s, a in img:
                    terms[tuple(map(add, e, s))] = a
            if reach and not reduce:
                reduce = any(e[j] >= m for j, m in reach)
        if reduce:
            terms = _nf(field, terms, rules)
        vectors.append(terms)
        for e2 in terms:
            holders[e2] = holders.get(e2, 0) + 1
    shared = {e2 for e2, n in holders.items() if n > 1}
    coupled = [i for i, terms in enumerate(vectors) if not shared.isdisjoint(terms)]
    # kernel_basis gives the dependent vector itself the int 1; its index is
    # the largest in the relation, so relations come in the order of it
    relations = {
        coupled[max(rel)]: {coupled[j]: c for j, c in rel.items()}
        for rel in kernel_basis([vectors[i] for i in coupled], domain)
    }
    out = []
    for i, terms in enumerate(vectors):
        rel = {i: 1} if not terms else relations.get(i)
        if rel is None:
            continue
        vec = {monos[j]: c for j, c in rel.items()}
        if field is None:
            vec[monos[i]] = domain.one()  # kernel_basis gives monomial i the int 1
        out.append(vec)
    return out


def _vector(f):
    """f's terms as a SpanTracker over f's domain holds them."""
    if isinstance(f.domain, gf.Field):
        return {e: c.n for e, c in f.terms.items()}
    return f.terms


def _rules(chart, field):
    """chart.rules with each rewrite a vector over field (None: elements)."""
    return chart.rules if field is None else [
        (i, d, {e: c.n for e, c in rewrite.items()}) for i, d, rewrite in chart.rules]


def _degree(vec):
    """Total degree of a vector's polynomial; -1 for the empty vector."""
    return max(map(sum, vec), default=-1)


def _poly(domain, vars, vec):
    """The MultiPoly of a vector over domain, on the tuple vars; off a
    gf.Field an int is the 1 kernel_basis gives. A code is not from_int's:
    that reduces mod p. A vector holds no zero, so no filter runs."""
    if isinstance(domain, gf.Field):
        return MultiPoly._of(domain, vars, {e: gf.FieldElement(domain, n) for e, n in vec.items()})
    return MultiPoly._of(domain, vars, {
        e: domain.from_int(c) if isinstance(c, int) else c for e, c in vec.items()})


def _generator_monomials(chart, gens, bound, targets=()):
    """gens-monomials discovered by closure, their span and its relations.

    gens and targets are vectors, as _vector gives them. Breadth-first:
    extend a product by one generator at a time, keep it when its reduced
    degree still fits the bound, and only extend it further when it enlarged
    the span (a dependent product is a linear combination of kept ones, so
    its multiples add nothing to the span). Products are term dicts,
    multiplied and reduced by _mul and _nf on the tracker's scalars; no
    MultiPoly is built. A product by a one-term generator is an exponent
    shift (_shift), and one by a generator free of every rule variable is
    already reduced, of degree the parent's plus the generator's (a product
    of nonzero polynomials over a field). Each product goes into one
    SpanTracker over the chart's domain, tagged by its exponent tuple, as it
    is found. Given targets, the closure stops once every target is in the
    span: each keeps its residual, free of every pivot, reduced again
    whenever a new row's pivot is in it, and the span only grows. Returns
    the (exponents, reduced product) list in that order, the tracker, and
    (exponents, certificate) for each dependent product: the certificate
    writes it in the tags of earlier products, so it is one relation.
    """
    tracker = SpanTracker(chart.domain)
    field = tracker.field
    rules = _rules(chart, field)
    ruled = [i for i, _, _ in rules]
    zero_exps = (0,) * len(gens)
    unit = 1 if field else chart.domain.one()
    one = {(0,) * len(chart.vars): unit}
    # per generator: its one term (exponent, scalar or None for 1) or None,
    # whether it holds a rule variable, and its degree
    shapes = []
    for g in gens:
        term = None
        if len(g) == 1:
            ((e, c),) = g.items()
            term = e, None if c == unit else c
        shapes.append((term, any(e[i] for e in g for i in ruled), _degree(g)))
    out = [(zero_exps, one)]
    tracker.insert(one, zero_exps)
    residuals = [r for t in targets if (r := tracker.reduce(t)[0])]
    dependencies = []
    seen = {zero_exps}
    work = [(zero_exps, one, 0)]
    while work and (residuals or not targets):
        exps, vec, deg = work.pop(0)
        for k, (g, (term, ruled_in, g_deg)) in enumerate(zip(gens, shapes)):
            e2 = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
            if e2 in seen:
                continue
            seen.add(e2)
            prod = _mul(field, vec, g) if term is None else _shift(field, vec, *term)
            if ruled_in:
                prod = _nf(field, prod, rules)
                prod_deg = _degree(prod)
            else:
                prod_deg = deg + g_deg
            if prod_deg > bound:
                continue
            out.append((e2, prod))
            cert = tracker.insert(prod, e2)
            if cert is None:
                work.append((e2, prod, prod_deg))
                if residuals and not _reduced(tracker, residuals):
                    break
            else:
                dependencies.append((e2, cert))
    return out, tracker, dependencies


def _reduced(tracker, residuals):
    """The list residuals, free of every pivot but the newest row's, reduced
    by the tracker in place and those reaching zero dropped. A row may hold
    earlier pivots, so a residual holding the new pivot is reduced by every
    row again, not only by the new one."""
    pivot = tracker.rows[-1][0]
    residuals[:] = [tracker.reduce(r)[0] if pivot in r else r for r in residuals]
    residuals[:] = [r for r in residuals if r]
    return residuals


class FactorizationReport:
    """Outcome of presenting the constants of a derivation as a chart.

    generators: list of (name, expression on the source chart)
    quotient:   ChartAlgebra on the generator names over the source domain,
                or None when the found relations are not triangular monic
    relations:  every linear dependence among generator monomials within the
                degree bound, as polynomials in the generator names
    power_certificates: per source variable, x^p written in the generators
    generated_up_to_bound: True when every bounded constant lies in the span
    """

    __slots__ = (
        "generators",
        "quotient",
        "relations",
        "power_certificates",
        "generated_up_to_bound",
        "degree_bound",
    )

    def __init__(self, generators, quotient, relations, certs, generated, bound):
        self.generators = generators
        self.quotient = quotient
        self.relations = relations
        self.power_certificates = certs
        self.generated_up_to_bound = generated
        self.degree_bound = bound

    def to_json(self):
        return {
            "generators": [{"name": n, "expression": str(g)} for n, g in self.generators],
            "relations": [str(r) for r in self.relations],
            "quotient_chart": None if self.quotient is None else self.quotient.to_json(),
            "power_certificates": {
                v: str(c) for v, c in self.power_certificates.items()
            },
            "generated_up_to_bound": self.generated_up_to_bound,
            "degree_bound": self.degree_bound,
        }


def frobenius_factorization_check(D):
    """Present the constants of D as a quotient chart with certificates.

    The bound is 3p, raised to the largest degree of a normal form x^p when
    that is higher. Each accepted generator starts one closure round
    (_generator_monomials); the span of the last round answers everything
    else: whether the constants are generated, the relations (one per
    dependent product) and the x^p certificates. Raises DegreeBoundTooSmall
    when some x^p is not in that span. The search stops once the span has
    as many rows as ring_of_constants returned vectors: those are a basis
    of the reduced constants of degree <= bound, every closure product is
    such a constant, so equal dimension is equal span and no later
    constant can become a generator.

    When the chart and D are constant in t, all of this runs over F_q
    (restrict_to_field); results go back to K before the quotient is built.
    """
    source = D.chart
    restricted = restrict_to_field(source, D.coeffs)
    if restricted is None:
        extend = lambda f: f
    else:
        K = source.domain
        extend = lambda f: f.map_coeffs(K.from_field, K)
        D = Derivation(*restricted)
    chart = D.chart
    p = chart.domain.p
    targets = {v: chart.nf(chart.var(v) ** p) for v in chart.vars}
    bound = max(3 * p, *(t.degree() for t in targets.values()))
    vectors = ring_of_constants(D, bound)

    gens = []  # the accepted generators' vectors
    last = 0  # the index of the last accepted generator
    _, tracker, dependencies = _generator_monomials(chart, gens, bound)
    for k, vec in enumerate(vectors):
        if len(tracker.rows) == len(vectors):
            break  # full rank: the span is every bounded constant
        if _degree(vec) == 0:
            continue
        residual, _ = tracker.reduce(vec)
        if not residual:
            continue
        gens.append(vec)
        last = k
        _, tracker, dependencies = _generator_monomials(chart, gens, bound)
    # below full rank, every later constant reduced to zero on this final
    # tracker already, and a constant of degree 0 is a multiple of the
    # product 1 it starts from
    generated = len(tracker.rows) == len(vectors) or all(
        not tracker.reduce(vec)[0] for vec in vectors[:last] if _degree(vec) > 0)

    # the scalar of one in the vectors
    one = 1 if tracker.field else chart.domain.one()
    names = []
    counter = 1
    for g in gens:
        name = None
        if len(g) == 1:
            ((e, c),) = g.items()
            if sum(e) == 1 and c == one:
                name = chart.vars[e.index(1)]
        if name is None or name in names:
            while f"w{counter}" in names or f"w{counter}" in chart.vars:
                counter += 1
            name = f"w{counter}"
            counter += 1
        names.append(name)
    names = tuple(names)

    relations = []
    for exps, cert in dependencies:
        rel = _submul(tracker.field, {}, cert, 1)
        rel[exps] = 1
        relations.append(_poly(chart.domain, names, rel))

    certs = {}
    for v, target in targets.items():
        residual, combo = tracker.reduce(_vector(target))
        if residual:
            raise DegreeBoundTooSmall(
                f"{v}^{p} is not a combination of generator monomials of weight <= {bound}"
            )
        certs[v] = _poly(chart.domain, names, combo)

    relations = [extend(r) for r in relations]
    return FactorizationReport(
        [(n, extend(_poly(chart.domain, chart.vars, g))) for n, g in zip(names, gens)],
        _chart_from_relations(source, names, relations),
        relations,
        {v: extend(c) for v, c in certs.items()},
        generated,
        bound,
    )


def _chart_from_relations(chart, names, relations):
    """ChartAlgebra on the generator names, or None if not triangular monic."""
    if not relations:
        return ChartAlgebra(chart.domain, names, ())
    ordered = sorted(relations, key=lambda r: (r.degree(), sorted(r.terms)))
    chosen = {}
    for r in ordered:
        for v in names:
            if v in chosen:
                continue
            if r.monic_in(v) and r.deg_in(v) >= 1:
                chosen[v] = r
                break
    if not chosen:
        return None
    try:
        quotient = ChartAlgebra(
            chart.domain, names, [(r, v) for v, r in chosen.items()]
        )
        for r in relations:
            if not quotient.nf(r).is_zero():
                return None
    except (ValueError, RuntimeError):
        return None
    return quotient
