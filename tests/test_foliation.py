import hashlib
import json
import random

import pytest

from charfol import gf
from charfol.algebra import ChartAlgebra, FunField, MultiPoly, parse_poly, restrict_to_field
from charfol.differentials import OneForm
from charfol._linalg import SpanTracker, kernel_basis
from charfol.foliation import (
    Derivation,
    _free_divide,
    _generator_monomials,
    _vector,
    _try_exact_divide,
    frobenius_factorization_check,
    is_p_closed_rank1,
    kernel_of_form,
    p_power,
    pairing,
    ring_of_constants,
)

F3 = gf.Field(3)
K = FunField(F3)


def raynaud_chart(p=3, d=2, K=K):
    vars = ("x", "y", "z")
    return ChartAlgebra(K, vars, [(parse_poly(f"z^{d} - y^{p} - x", vars, K), "z")])


def test_derivation_must_preserve_relations():
    C = raynaud_chart()
    Derivation(C, [C.zero(), C.one(), C.zero()])  # d/dy kills z^2 - y^3 - x
    with pytest.raises(ValueError):
        Derivation(C, [C.one(), C.zero(), C.zero()])  # d/dx does not


def test_apply_is_leibniz():
    rng = random.Random(41)
    C = ChartAlgebra(K, ("x", "y"), [])
    D = Derivation(C, [C.poly("y"), C.poly("x^2")])

    def rand_poly():
        terms = {}
        for _ in range(4):
            e = (rng.randrange(3), rng.randrange(3))
            terms[e] = K.from_int(rng.randrange(1, 3))
        return MultiPoly(K, ("x", "y"), terms)

    for _ in range(30):
        f, g = rand_poly(), rand_poly()
        assert D.apply(f * g) == f * D.apply(g) + g * D.apply(f)


def test_p_power_matches_literal_iteration():
    rng = random.Random(42)
    for p in (3, 5):
        field = gf.Field(p)
        Kp = FunField(field)
        C = ChartAlgebra(Kp, ("x", "y"), [])
        for _ in range(30):
            coeffs = []
            for _ in range(2):
                terms = {}
                for _ in range(3):
                    e = (rng.randrange(2), rng.randrange(2))
                    terms[e] = Kp.from_int(rng.randrange(p))
                coeffs.append(MultiPoly(Kp, ("x", "y"), terms))
            D = Derivation(C, coeffs)
            Dp = p_power(D)
            for v in C.vars:
                lit = C.var(v)
                for _ in range(p):
                    lit = D.apply(lit)
                assert Dp.apply(C.var(v)) == lit


def test_a_derivation_keeps_its_p_power():
    C = raynaud_chart()
    D = kernel_of_form(OneForm.d(C, C.var("z")))
    assert p_power(D) is p_power(D)


@pytest.mark.parametrize("chart", ["raynaud-local", "affine-plane"])
def test_cmd_foliation_builds_d_p_once(chart, monkeypatch):
    from charfol import cli

    built = cli.preset_chart(chart, 5, 3)
    made = []
    init = Derivation.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Derivation, "__init__", counting_init)
    rep = cli.cmd_foliation(5, 3, chart, built=built)
    assert rep.status == "pass"
    # the section pairing and the p-closedness check share one D^[p]
    assert len(made) == 1


def test_p_closed_examples():
    C = ChartAlgebra(K, ("x", "y"), [])
    Dy = Derivation(C, [C.zero(), C.one()])
    closed, h = is_p_closed_rank1(Dy)
    assert closed and h is not None and h.is_zero()

    Dx = Derivation(C, [C.poly("x"), C.zero()])  # x d/dx, D^[p] = D
    closed, h = is_p_closed_rank1(Dx)
    assert closed
    assert h == C.one()

    # x d/dx + d/dy has D^[p] = x d/dx, not proportional
    D = Derivation(C, [C.poly("x"), C.one()])
    closed, _ = is_p_closed_rank1(D)
    assert not closed


def test_pairing_and_checks():
    C = raynaud_chart()
    dz = OneForm.d(C, C.var("z"))
    D = kernel_of_form(dz)
    assert pairing(dz, D).is_zero()
    assert pairing(dz, p_power(D)).is_zero()


def test_kernel_of_dz_is_dy():
    C = raynaud_chart()
    D = kernel_of_form(OneForm.d(C, C.var("z")))
    assert [str(c) for c in D.coeffs] == ["0", "1", "0"]


def test_kernel_content_removed():
    C = ChartAlgebra(K, ("x", "y"), [])
    w = OneForm(C, [C.poly("x^2 + x"), C.poly("2*x^2 + 2*x")])
    D = kernel_of_form(w)
    # (b, -a) = (x^2+x)(2, -1), content removed, then scaled to lead with 1
    assert [str(c) for c in D.coeffs] == ["1", "1"]
    assert pairing(w, D).is_zero()


def test_exact_divide_falls_back_to_a_span():
    # x = z * z on z^2 = x, but z does not divide x in the free ring
    C = ChartAlgebra(K, ("x", "z"), [(parse_poly("z^2 - x", ("x", "z"), K), "z")])
    x, z = C.var("x"), C.var("z")
    assert _free_divide(x, z) is None
    assert _try_exact_divide(C, x, z) == z
    assert _try_exact_divide(C, z, x) is None


def test_ring_of_constants_plane():
    C = ChartAlgebra(K, ("x", "y"), [])
    Dy = Derivation(C, [C.zero(), C.one()])
    basis = ring_of_constants(Dy, max_total=4)
    assert all(Dy.apply(MultiPoly(K, C.vars, b)).is_zero() for b in basis)
    assert {(0, 3): K.one()} in basis and {(0, 1): K.one()} not in basis


def test_factorization_plane():
    C = ChartAlgebra(K, ("x", "y"), [])
    Dy = Derivation(C, [C.zero(), C.one()])
    rep = frobenius_factorization_check(Dy)
    assert rep.generated_up_to_bound
    names = [n for n, _ in rep.generators]
    assert names == ["x", "w1"]
    assert rep.quotient is not None and not rep.quotient.relations
    assert str(rep.power_certificates["x"]) == "x^3"
    assert str(rep.power_certificates["y"]) == "w1"
    for _, g in rep.generators:
        assert Dy.apply(g).is_zero()


def test_factorization_raynaud_chart():
    C = raynaud_chart()
    D = kernel_of_form(OneForm.d(C, C.var("z")))
    rep = frobenius_factorization_check(D)
    assert [n for n, _ in rep.generators] == ["z", "x"]
    assert rep.quotient is not None and not rep.quotient.relations
    certs = {v: str(c) for v, c in rep.power_certificates.items()}
    assert certs == {"x": "x^3", "y": "z^2 + 2*x", "z": "z^3"}


def test_factorization_finds_quotient_relation():
    vars = ("x", "z")
    C = ChartAlgebra(K, vars, [(parse_poly("z^2 - x^3", vars, K), "z")])
    Dy_free = Derivation(C, [C.zero(), C.zero()])
    # the zero derivation has everything constant; the quotient re-finds the cusp
    rep = frobenius_factorization_check(Dy_free)
    assert rep.quotient is not None
    rels = [str(r.poly) for r in rep.quotient.relations]
    assert rels == ["x^3 + 2*z^2"]


def _t_plane_derivation():
    C = ChartAlgebra(K, ("x", "y"), [])
    return Derivation(C, [C.poly("t*y"), C.one()])


def _kernel_of_d(rel, var):
    vars = ("x", "y", "z")
    C = ChartAlgebra(K, vars, [(parse_poly(rel, vars, K), "z")])
    return kernel_of_form(OneForm.d(C, C.var(var)))


def _coupled_plane_derivation():
    # D = y*d/dx + d/dy: a monomial x^a*y^b with a, b prime to 3 has two
    # image terms, each shared with the image of a neighbour
    C = ChartAlgebra(F3, ("x", "y"), [])
    return Derivation(C, [C.var("y"), C.one()])


def _fq_raynaud_derivation(images, field=F3):
    C = raynaud_chart(K=field)
    return Derivation(C, [C.poly(g) for g in images])


F9 = gf.Field(3, 2)


def _zero_divisor_derivation():
    # D = z*d/dy on z^2 = x*z over F_3: the image z of y is one term, but
    # x*y and y*z go to x*z and z^2, equal in normal form, so x*y - y*z is
    # a constant with y exponent 1
    vars = ("x", "y", "z")
    C = ChartAlgebra(F3, vars, [(parse_poly("z^2 - x*z", vars, F3), "z")])
    return Derivation(C, [C.zero(), C.var("z"), C.zero()])


def _f9_plane_derivation(x_image):
    C = ChartAlgebra(F9, ("x", "y"), [])
    return Derivation(C, [C.poly(x_image), C.one()])


# the first cases depend on t, so ring_of_constants runs over K; the presets
# are t-free and factor over F_q, as the last cases do
@pytest.mark.parametrize("make", [
    # a coefficient of D depends on t
    _t_plane_derivation,
    # a relation of degree 3 that depends on t; D = d/dy
    lambda: _kernel_of_d("z^3 - t^3*y^3 - t*x", "z"),
    # D = (2/t)*z*d/dx + d/dz: shifted exponents reach z^2, so images need nf
    lambda: _kernel_of_d("z^2 - y^3 - t*x", "y"),
    # D = d/dy on z^2 = y^3 + x over F_3: every image is one monomial, and
    # no two images share one
    lambda: _fq_raynaud_derivation(["0", "1", "0"]),
    _coupled_plane_derivation,
    # every image is zero: every monomial is a constant
    lambda: _fq_raynaud_derivation(["0", "0", "0"]),
    # over F_9 the vectors hold codes up to 8 and go through the log tables;
    # u*y*d/dx + d/dy has constants whose coefficients lie outside F_3
    lambda: _fq_raynaud_derivation(["0", "1", "0"], F9),
    lambda: _f9_plane_derivation("y"),
    lambda: _f9_plane_derivation("u*y"),
    # one one-term image that is not a constant and reaches no relation: the
    # constants are read off the exponents, and no image is built
    lambda: _fq_raynaud_derivation(["0", "x", "0"]),
    # one one-term image that reaches the relation: the span path
    _zero_divisor_derivation,
], ids=["t*y*d/dx + d/dy", "z^3 - t^3*y^3 - t*x", "z^2 - y^3 - t*x",
        "F_3 d/dy on z^2 - y^3 - x", "F_3 y*d/dx + d/dy", "F_3 zero derivation",
        "F_9 d/dy on z^2 - y^3 - x", "F_9 y*d/dx + d/dy", "F_9 u*y*d/dx + d/dy",
        "F_3 x*d/dy on z^2 - y^3 - x", "F_3 z*d/dy on z^2 - x*z"])
def test_ring_of_constants_matches_applying_D_to_each_monomial(make):
    D = make()
    C = D.chart
    bound = 9
    monos = C.reduced_monomials(bound)
    vectors = [D.apply(MultiPoly(C.domain, C.vars, {e: C.domain.one()})).terms
               for e in monos]
    want = [
        _vector(MultiPoly(C.domain, C.vars, {monos[i]: C.domain.from_int(c) if isinstance(c, int)
                                             else c for i, c in rel.items()}))
        for rel in kernel_basis(vectors)
    ]
    assert len(want) > 1
    assert ring_of_constants(D, bound) == want


def _recording_kernel_basis(monkeypatch):
    from charfol import foliation

    spanned = []

    def recording(vectors, *args):
        spanned.append(list(vectors))
        return kernel_basis(vectors, *args)

    monkeypatch.setattr(foliation, "kernel_basis", recording)
    return spanned


def test_ring_of_constants_spans_no_image_of_d_by_dy(monkeypatch):
    from charfol import foliation
    from charfol.cli import preset_chart

    spanned = _recording_kernel_basis(monkeypatch)
    chart, D, _ = preset_chart("raynaud-local", 7, 4)
    bound = 21

    def no_image(*args):
        raise AssertionError("a Leibniz image was built")

    with monkeypatch.context() as m:
        m.setattr(foliation, "_addmul", no_image)
        m.setattr(foliation, "_nf", no_image)
        basis = ring_of_constants(D, bound)
    # one kernel_basis call, with no vectors: D = d/dy sends each monomial to
    # a multiple of a monomial no other image holds, so the constants are
    # read off the exponents and no image is built
    assert spanned == [[]]
    # the constants are the monomials whose y exponent 7 divides
    assert [list(b) for b in basis] == [
        [e] for e in chart.reduced_monomials(bound) if e[1] % 7 == 0]


def test_ring_of_constants_spans_exactly_the_coupled_images(monkeypatch):
    spanned = _recording_kernel_basis(monkeypatch)
    D = _coupled_plane_derivation()
    C = D.chart
    bound = 9
    vectors = [D.apply(MultiPoly(F3, C.vars, {e: F3.one()})).terms
               for e in C.reduced_monomials(bound)]
    holders = {}
    for v in vectors:
        for e in v:
            holders[e] = holders.get(e, 0) + 1
    coupled = [v for v in vectors if any(holders[e] > 1 for e in v)]
    ring_of_constants(D, bound)
    assert spanned == [coupled]
    # some nonzero images are lone, so the split leaves them out
    assert 0 < len(coupled) < sum(1 for v in vectors if v)


def test_scaled_kernel_still_pairs_to_zero():
    C = raynaud_chart(5, 2, FunField(gf.Field(5)))
    dz = OneForm.d(C, C.var("z"))
    D = kernel_of_form(dz)
    assert pairing(dz, D).is_zero()
    closed, _ = is_p_closed_rank1(D)
    assert closed


def test_factorization_builds_one_span_per_closure_round(monkeypatch):
    from charfol import foliation
    from charfol._linalg import SpanTracker
    from charfol.descent import descend_algebra, descend_derivation

    C = raynaud_chart(5, 3, FunField(gf.Field(5)))
    D = kernel_of_form(OneForm.d(C, C.var("z")))
    Dm = descend_derivation(D, descend_algebra(C))
    calls = {"kernel_basis": 0, "solve_span": 0, "_generator_monomials": 0}

    def counting(name):
        fn = getattr(foliation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(foliation, name, counting(name))
    trackers = []
    init = SpanTracker.__init__

    def counting_init(self, *args):
        trackers.append(self)
        init(self, *args)

    monkeypatch.setattr(SpanTracker, "__init__", counting_init)
    rep = frobenius_factorization_check(Dm)
    assert len(rep.power_certificates) == 3
    # one closure round with no generator, then one per accepted generator;
    # the constants are spanned once, inside ring_of_constants' kernel_basis
    rounds = len(rep.generators) + 1
    assert calls == {"kernel_basis": 1, "solve_span": 0, "_generator_monomials": rounds}
    assert len(trackers) == 1 + rounds


@pytest.mark.parametrize("q", [5, 25])
def test_generator_search_stops_once_the_closure_spans_every_constant(q, monkeypatch):
    from charfol import cli, foliation
    from charfol.descent import descend_algebra, descend_derivation

    chart, D, _ = cli.preset_chart("raynaud-local", 5, 3, q)
    Dm = descend_derivation(D, descend_algebra(chart))
    constants = []
    ring = foliation.ring_of_constants

    def recording(*args):
        out = ring(*args)
        constants.extend(out)
        return out

    reduced = []
    reduce = SpanTracker.reduce

    def counting(self, vec):
        if any(vec is c for c in constants):
            reduced.append(vec)
        return reduce(self, vec)

    monkeypatch.setattr(foliation, "ring_of_constants", recording)
    monkeypatch.setattr(SpanTracker, "reduce", counting)
    rep = frobenius_factorization_check(Dm)
    # 91 constants up to degree 15; z and x span them all by the second
    # one reduced, so none after it is reduced (without the stop, all 91 are)
    assert len(constants) == 91
    assert len(reduced) <= len(rep.generators) + 1
    assert rep.to_json() == {
        "degree_bound": 15,
        "generated_up_to_bound": True,
        "generators": [{"expression": "z", "name": "z"}, {"expression": "x", "name": "x"}],
        "power_certificates": {"x": "x^5", "y": "z^3 + 4*x", "z": "z^5"},
        "quotient_chart": {"relations": [], "vars": ["z", "x"]},
        "relations": [],
    }


def _closure_on_polys(chart, gens, bound):
    """The closure with MultiPoly arithmetic: each product is
    chart.nf(poly * g), converted to codes for the tracker."""
    zero_exps = (0,) * len(gens)
    tracker = SpanTracker(chart.domain)
    out = [(zero_exps, _vector(chart.one()))]
    tracker.insert(out[0][1], zero_exps)
    dependencies = []
    seen = {zero_exps}
    work = [(zero_exps, chart.one())]
    while work:
        exps, poly = work.pop(0)
        for k, g in enumerate(gens):
            e2 = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
            if e2 in seen:
                continue
            seen.add(e2)
            prod = chart.nf(poly * g)
            if prod.degree() > bound:
                continue
            out.append((e2, _vector(prod)))
            cert = tracker.insert(_vector(prod), e2)
            if cert is None:
                work.append((e2, prod))
            else:
                dependencies.append((e2, cert))
    return out, tracker, dependencies


@pytest.mark.parametrize("q", [7, 49])
def test_closure_builds_no_polynomial(monkeypatch, q):
    from charfol.cli import preset_chart
    from charfol.descent import descend_algebra, descend_derivation

    chart, D, _ = preset_chart("raynaud-local", 7, 4, q)
    Dm = descend_derivation(D, descend_algebra(chart))
    rep = frobenius_factorization_check(Dm)
    # the closure's chart and generators over F_q, as the factorization has them
    fchart, gens = restrict_to_field(Dm.chart, [g for _, g in rep.generators])
    bound = rep.degree_bound
    want, want_tracker, want_deps = _closure_on_polys(fchart, gens, bound)
    vectors = [_vector(g) for g in gens]

    def refuse(*args):
        raise AssertionError("the closure built a MultiPoly")

    for name in ("__init__", "_of", "__mul__", "__rmul__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    for name in ("normal_form", "nf"):
        monkeypatch.setattr(ChartAlgebra, name, refuse)
    got, tracker, deps = _generator_monomials(fchart, vectors, bound)
    assert got == want
    assert tracker.rows == want_tracker.rows
    assert deps == want_deps
    # the generators are monomials, so a product of two terms is one that
    # z^4 = y^7 + x reduced
    assert all(len(v) == 1 for v in vectors) and any(len(v) > 1 for _, v in got)


def _zero_derivation(p, e, vars, rel):
    K = FunField(gf.Field(p, e))
    C = ChartAlgebra(K, vars, [(parse_poly(rel, vars, K), "z")])
    return Derivation(C, [C.zero()] * len(vars))


# FactorizationReport.to_json() digests for zero derivations, whose constants
# are the whole chart, so every chart relation comes back as generator
# relations; recorded before relations were read off the closure's tracker.
# Over F_9 and F_25 the certificates print constants of K as ((u+2)), which
# a factorization over F_q that is not extended back to K would print (u+2)
FACTORIZATION_GOLDEN = [
    (3, 1, ("x", "z"), "z^2 - x^3", 5,
     "27d03b3747bbb74cd23ea0f2eeabc0d8a2af854a95c7ec4fc92a4f89938e9505"),
    (3, 1, ("x", "y", "z"), "z^2 - y^3 - x", 25,
     "fd2d830b000840cc2d9b5d741033071ec151ad2b26fb98e56e06bb285dd75cdc"),
    (5, 1, ("x", "z"), "z^3 - x^2 - t^5*x", 14,
     "a623863cbef40ae5813393bc0072425efd4b3283ed37b0a63c33e23be3462de8"),
    (3, 2, ("x", "z"), "z^2 - (u+1)*x^3 - x", 5,
     "6dd0e3752d617b158f14d7c84cc3ed277a237f8a85d99a2976aefbd2e7c01dcb"),
    (5, 2, ("x", "z"), "z^3 - (u+2)*x^2 - x", 14,
     "0d48879f2057bbc831ab4115f44a6d00772b3749220f99d558f5627451b6f5ab"),
]


@pytest.mark.parametrize("p,e,vars,rel,n_relations,digest", FACTORIZATION_GOLDEN,
                         ids=[g[3] for g in FACTORIZATION_GOLDEN])
def test_factorization_report_digests(p, e, vars, rel, n_relations, digest):
    rep = frobenius_factorization_check(_zero_derivation(p, e, vars, rel))
    assert len(rep.relations) == n_relations
    for r in rep.relations:
        assert rep.quotient is None or rep.quotient.nf(r).is_zero()
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
