import hashlib
import json
import random

import pytest

from charfol import adelic, gf, series
from charfol.algebra import ChartAlgebra, FunField, parse_poly
from charfol.differentials import OneForm, reduce_form
from charfol.foliation import Derivation, _generator_monomials, kernel_of_form
from charfol.series import LaurentSeries, evaluate
from charfol._linalg import solve_span
from charfol.adelic import (
    LocalPoint,
    NoLift,
    NoStarBound,
    NotOnVariety,
    QuotientPresentation,
    UnsupportedPresentation,
    descend_and_factor,
    lift_point,
    make_point,
    min_star_precision,
    pullback_form,
    random_local_point,
    solve_coordinate,
    star_condition,
    verify_equivalence,
)

F3 = gf.Field(3)
K = FunField(F3)
N = 64


def tango_chart(K=K):
    vars = ("x", "y")
    return ChartAlgebra(K, vars, [(parse_poly("y^6 - y - x^5", vars, K), "y")])


def raynaud_chart(K=K, p=3, d=2):
    vars = ("x", "y", "z")
    return ChartAlgebra(K, vars, [(parse_poly(f"z^{d} - y^{p} - x", vars, K), "z")])


def test_make_point_by_hensel():
    C = tango_chart()
    xt = LaurentSeries.t_power(F3, 1, N)
    coords = solve_coordinate(C, {"x": xt}, "y", N, initial=0)
    pt = make_point(C, coords, N)
    # y = -x^5 + higher: leading term 2t^5
    assert pt.coords["y"].val() == 5
    assert pt.coords["y"].coeff(5) == F3.from_int(2)


def test_random_local_point_completes_by_newton():
    # no variable of z^2 = y^3 + x^3 appears linearly, so z is completed by
    # Newton from a simple residue
    F5 = gf.Field(5)
    K5 = FunField(F5)
    vars = ("x", "y", "z")
    C = ChartAlgebra(K5, vars, [(parse_poly("z^2 - y^3 - x^3", vars, K5), "z")])
    rng = random.Random(3)
    for _ in range(10):
        pt = random_local_point(C, rng, 32)
        z = pt.coords["z"]
        assert pt.prec == 32 and z.prec == 32
        assert z.val() == 0  # a simple root: 2z is a unit
        residual = evaluate(C.relations[0].poly, pt.coords, 32)
        assert not residual.nonzero_before(32)


def test_newton_completion_substitutes_the_point_once(monkeypatch):
    # newton's closing check is the one substitution of the relation at the
    # completed point; make_point would repeat it on the same coordinates
    F5 = gf.Field(5)
    K5 = FunField(F5)
    vars = ("x", "y", "z")
    C = ChartAlgebra(K5, vars, [(parse_poly("z^2 - y^3 - x^3", vars, K5), "z")])
    rel = C.relations[0].poly
    calls = []

    def recording(poly, coords, prec):
        calls.append((poly, dict(coords), prec))
        return evaluate(poly, coords, prec)

    monkeypatch.setattr(adelic, "evaluate", recording)
    monkeypatch.setattr(series, "evaluate", recording)
    rng = random.Random(3)
    for _ in range(10):
        calls.clear()
        pt = random_local_point(C, rng, 32)
        at_point = [c for poly, c, prec in calls if poly is rel and prec == 32
                    and all(c[v] is s for v, s in pt.coords.items())]
        assert len(at_point) == 1


def test_make_point_origin():
    C = tango_chart()
    z = LaurentSeries.zero(F3, N)
    make_point(C, {"x": z, "y": z}, N)


def test_make_point_rejects_off_curve():
    F9 = gf.Field(3, 2)
    K9 = FunField(F9)
    C = tango_chart(K9)
    z = LaurentSeries.zero(F9, N)
    u = LaurentSeries.constant(F9, F9.gen(), N)
    with pytest.raises(NotOnVariety) as info:
        make_point(C, {"x": z, "y": u}, N)
    assert info.value.valuation == 0


# y^2 = x and z^3 = x*y over F_5(t) at y = t, x = t^2 + t^a, z = t + t^b: z is
# known to t^15, the working precision; relation 0 leaves -t^a, relation 1
# 3t^(b+2) and -t^(a+1)
@pytest.mark.parametrize("a, b, failure", [
    (14, None, (0, 14)),  # relation 0's residual starts just below the precision
    (15, 12, (1, 14)),    # relation 1's does
    (15, 13, None),       # both start at the precision
])
def test_make_point_certifies_each_relation_to_the_working_precision(a, b, failure):
    F5 = gf.Field(5)
    K5 = FunField(F5)
    vars = ("x", "y", "z")
    C = ChartAlgebra(K5, vars, [(parse_poly("y^2 - x", vars, K5), "y"),
                                (parse_poly("z^3 - x*y", vars, K5), "z")])
    t = lambda k, prec: LaurentSeries.t_power(F5, k, prec)
    z = t(1, 15) if b is None else t(1, 15) + t(b, 15)
    coords = {"x": t(2, 20) + t(a, 20), "y": t(1, 20), "z": z}
    if failure is None:
        assert make_point(C, coords, N).prec == 15
        return
    with pytest.raises(NotOnVariety) as info:
        make_point(C, coords, N)
    assert (info.value.relation_index, info.value.valuation) == failure
    assert str(info.value) == (f"relation {failure[0]} ({C.relations[failure[0]].poly}) "
                               f"has residual of valuation {failure[1]}")


def test_make_point_returns_the_window_it_compared():
    # y^2 = x + y/t over F_5(t): y/t loses a term, so with both coordinates
    # known to t^64 the relation is compared below t^63 only
    F5 = gf.Field(5)
    K5 = FunField(F5)
    vars = ("x", "y")
    pole = parse_poly("y^2 - x", vars, K5) - parse_poly("y", vars, K5) * K5.gen().inverse()
    C = ChartAlgebra(K5, vars, [(pole, "y")])
    t = lambda k: LaurentSeries.t_power(F5, k, N)
    y = t(0) + t(1)
    x = series.from_codes(F5, -1, [4, 0, 2, 1], N)  # y^2 - y/t, exactly
    assert (x.prec, y.prec) == (N, N)
    assert make_point(C, {"x": x, "y": y}, N).prec == N - 1
    # a residual t^63 lies at the window: not certified, and not claimed
    off = make_point(C, {"x": x + t(N - 1), "y": y}, N)
    assert off.prec == N - 1
    assert not evaluate(pole, off.coords, N).nonzero_before(off.prec)
    with pytest.raises(NotOnVariety) as info:
        make_point(C, {"x": x + t(N - 2), "y": y}, N)
    assert info.value.valuation == N - 2


def test_solve_coordinate_searches_residue():
    C = tango_chart()
    xt = LaurentSeries.t_power(F3, 1, N)
    coords = solve_coordinate(C, {"x": xt}, "y", N)
    make_point(C, coords, N)


def test_pullback_dx_oracles():
    A1 = ChartAlgebra(K, ("x",), [])
    dx = OneForm.d(A1, A1.var("x"))
    p1 = make_point(A1, {"x": LaurentSeries.t_power(F3, 1, N)}, N)
    assert str(pullback_form(p1, dx)).startswith("1")
    p3 = make_point(A1, {"x": LaurentSeries.t_power(F3, 3, N)}, N)
    assert pullback_form(p3, dx).is_zero()


def test_pullback_matches_chain_rule():
    rng = random.Random(51)
    C = raynaud_chart()
    g = C.nf(C.poly("x*z + y^2"))
    dg = OneForm.d(C, g)

    for _ in range(10):
        pt = random_local_point(C, rng, N)
        lhs = pullback_form(pt, dg)
        rhs = evaluate(g, pt.coords, pt.prec).derivative()
        assert not (lhs - rhs).nonzero_before(min(N // 2, lhs.prec, rhs.prec))


def test_pullback_of_reduced_form_agrees():
    rng = random.Random(52)
    C = raynaud_chart()
    dx = OneForm.d(C, C.var("x"))
    rdx = reduce_form(dx)
    assert str(rdx) == "2*z*dz"
    for _ in range(10):
        pt = random_local_point(C, rng, N)
        a = pullback_form(pt, dx)
        b = pullback_form(pt, rdx)
        assert not (a - b).nonzero_before(min(N // 2, a.prec, b.prec))


def test_star_condition():
    A1 = ChartAlgebra(K, ("x",), [])
    dx = OneForm.d(A1, A1.var("x"))
    p1 = make_point(A1, {"x": LaurentSeries.t_power(F3, 1, N)}, N)
    p3 = make_point(A1, {"x": LaurentSeries.t_power(F3, 3, N)}, N)
    assert star_condition(p1, [dx])
    assert not star_condition(p3, [dx])
    assert not star_condition(p1, [])


def line_presentation(image="u^3"):
    S = ChartAlgebra(K, ("u",), [])
    T = ChartAlgebra(K, ("x",), [])
    return QuotientPresentation(S, T, {"x": parse_poly(image, ("u",), K)})


def test_presentation_frobenius_on_line():
    pres = line_presentation()
    good = make_point(pres.target, {"x": LaurentSeries.t_power(F3, 3, N)}, N)
    lifted = lift_point(good, pres)
    assert str(lifted.coords["u"]).startswith("t ")
    bad = make_point(pres.target, {"x": LaurentSeries.t_power(F3, 1, N)}, N)
    with pytest.raises(NoLift):
        lift_point(bad, pres)


def _recording_closures(monkeypatch):
    """The arguments of every closure QuotientPresentation runs."""
    calls = []

    def recording(chart, gens, bound, targets=()):
        calls.append((chart, gens, bound, targets))
        return _generator_monomials(chart, gens, bound, targets)

    monkeypatch.setattr(adelic, "_generator_monomials", recording)
    return calls


def test_presentation_rejects_non_inseparable(monkeypatch):
    closures = _recording_closures(monkeypatch)
    with pytest.raises(UnsupportedPresentation):
        # u^2 generates only even powers; u^3 never appears
        line_presentation("u^2")
    # so the closure never stops early: it spans every product up to 3p
    ((chart, gens, bound, targets),) = closures
    stopped, _, _ = _generator_monomials(chart, gens, bound, targets)
    assert bound == 9
    assert stopped == _generator_monomials(chart, gens, bound)[0]
    assert [sum(e) for e, _ in stopped] == [0, 1, 2, 3, 4]


def raynaud_presentation():
    # phi: K[z_s, x_s] -> chart, z -> z_s^3, x -> x_s^3, y -> z_s^2 - x_s
    C = raynaud_chart()
    S = ChartAlgebra(K, ("z", "x"), [])
    images = {
        "x": parse_poly("x^3", ("z", "x"), K),
        "y": parse_poly("z^2 - x", ("z", "x"), K),
        "z": parse_poly("z^3", ("z", "x"), K),
    }
    return C, QuotientPresentation(S, C, images)


def test_lift_on_raynaud_quotient():
    C, pres = raynaud_presentation()
    zt = LaurentSeries.t_power(F3, 3, N)
    yt = LaurentSeries.t_power(F3, 1, N)
    xt = zt * zt - yt * yt * yt
    pt = make_point(C, {"x": xt, "y": yt, "z": zt}, N)
    lifted = lift_point(pt, pres)  # z = t^3 is a cube
    assert lifted.coords["z"].val() == 1
    bad_z = LaurentSeries.t_power(F3, 1, N)
    bad_x = bad_z * bad_z - yt * yt * yt
    bad = make_point(C, {"x": bad_x, "y": yt, "z": bad_z}, N)
    with pytest.raises(NoLift):
        lift_point(bad, pres)


def test_point_and_form_on_another_chart_raise_type_error():
    C, pres = raynaud_presentation()
    zt = LaurentSeries.t_power(F3, 3, N)
    yt = LaurentSeries.t_power(F3, 1, N)
    coords = {"x": zt * zt - yt * yt * yt, "y": yt, "z": zt}
    pt = make_point(C, coords, N)
    # a chart equal to the point's is accepted, a different one is not
    same = raynaud_chart()
    assert same is not C and same == C
    assert pullback_form(pt, OneForm.d(same, same.var("z"))) == \
        pullback_form(pt, OneForm.d(C, C.var("z")))
    assert lift_point(make_point(same, coords, N), pres).coords["z"].val() == 1
    other = raynaud_chart(d=4)
    with pytest.raises(TypeError, match="different charts"):
        pullback_form(pt, OneForm.d(other, other.var("z")))
    with pytest.raises(TypeError, match="target chart"):
        lift_point(make_point(pres.source, {"z": yt, "x": yt}, N), pres)


def test_lift_evaluates_no_zero_polynomial(monkeypatch):
    # x and z are solved from x_s^3 and z_s^3, with no other term to subtract
    C, pres = raynaud_presentation()
    zt = LaurentSeries.t_power(F3, 3, N)
    yt = LaurentSeries.t_power(F3, 1, N)
    pt = make_point(C, {"x": zt * zt - yt * yt * yt, "y": yt, "z": zt}, N)
    zero_polys = []

    def counting(poly, coords, prec):
        if poly.is_zero():
            zero_polys.append(poly)
        return evaluate(poly, coords, prec)

    monkeypatch.setattr(adelic, "evaluate", counting)
    assert lift_point(pt, pres).coords["z"].val() == 1
    assert zero_polys == []


def point_dependent_presentation():
    # y = a*b^3 solves b where a does not vanish; where it does, z = b^3
    # solves b and the equation for y is only verified
    S = ChartAlgebra(K, ("a", "b"), [])
    T = ChartAlgebra(K, ("x", "y", "z"), [])
    images = {v: parse_poly(img, S.vars, K)
              for v, img in (("x", "a^3"), ("y", "a*b^3"), ("z", "b^3"))}
    return T, lambda: QuotientPresentation(S, T, images)


def _lift_or_error(point, pres):
    try:
        return lift_point(point, pres).to_json()
    except (NoLift, UnsupportedPresentation) as e:
        return f"{type(e).__name__}: {e}"


def point_dependent_points(T):
    # a, b = t, t + t^2; the first two lift, z set aside in the first and y
    # in the second
    t = LaurentSeries.t_power(F3, 1, N)
    zero = LaurentSeries.zero(F3, N)
    a, b = t, t + t * t
    return [make_point(T, coords, N) for coords in (
        {"x": a**3, "y": a * b**3, "z": b**3},
        {"x": zero, "y": zero, "z": b**3},
        {"x": t, "y": a * b**3, "z": b**3},
        {"x": zero, "y": t, "z": b**3},
        {"x": a**3, "y": a * t, "z": b**3},
    )]


def test_lift_steps_depend_on_the_point():
    T, build = point_dependent_presentation()
    points = point_dependent_points(T)
    fresh = [_lift_or_error(pt, build()) for pt in points]
    # the terms of a and b, to the precision the roots leave
    assert [fresh[0][v].split("O(")[0] for v in "ab"] == ["t + ", "t + t^2 + "]
    assert [fresh[1][v].split("O(")[0] for v in "ab"] == ["", "t + t^2 + "]
    assert fresh[2] == "NoLift: x: series for a requires a p-th root that does not exist"
    assert fresh[3] == "NoLift: y: lift verification failed"
    assert fresh[4] == "NoLift: y: series for b requires a p-th root that does not exist"
    # one presentation for every point, in either order, keeps its steps
    # per assigned set: the same lifts and errors
    for order in (points, points[::-1]):
        shared = build()
        got = [_lift_or_error(pt, shared) for pt in order]
        assert got == [fresh[points.index(pt)] for pt in order]


def sum_of_powers_presentation():
    S = ChartAlgebra(K, ("u", "v"), [])
    T = ChartAlgebra(K, ("x", "y"), [])
    return QuotientPresentation(S, T, {"x": parse_poly("u^3 + v^3", S.vars, K),
                                       "y": parse_poly("u^3 - v^3", S.vars, K)})


def test_lift_cannot_isolate_in_a_sum_of_powers():
    pres = sum_of_powers_presentation()
    t3 = LaurentSeries.t_power(F3, 3, N)
    pt = make_point(pres.target, {"x": t3, "y": t3}, N)
    for _ in range(2):  # the second call reads the memo
        with pytest.raises(UnsupportedPresentation,
                           match="cannot isolate a source variable in the equation for x"):
            lift_point(pt, pres)


def _stopped_and_full_closures(monkeypatch, build):
    """The closure a presentation runs, stopped at its x^p targets, and the
    full closure on the same generators; every target reduces to zero on
    the span of either, the stopped products come first in the full
    closure's order, and the last of them is the first that puts every
    target in the span."""
    closures = _recording_closures(monkeypatch)
    build()
    ((chart, gens, bound, targets),) = closures
    stopped, tracker, _ = _generator_monomials(chart, gens, bound, targets)
    full, full_tracker, _ = _generator_monomials(chart, gens, bound)
    assert stopped == full[: len(stopped)]
    for target in targets:
        assert not tracker.reduce(target)[0]
        assert not full_tracker.reduce(target)[0]
    before = solve_span([vec for _, vec in stopped[:-1]], targets, chart.domain)
    assert None in before
    return stopped, full


def constant_term_presentation():
    # w^3 = u + 1 on the source: the target for w has a constant term
    S = ChartAlgebra(K, ("u", "w"), [(parse_poly("w^3 - u - 1", ("u", "w"), K), "w")])
    T = ChartAlgebra(K, ("x", "y"), [])
    return QuotientPresentation(S, T, {"x": S.var("u"), "y": S.var("w")})


@pytest.mark.parametrize("build", [
    line_presentation,
    lambda: raynaud_presentation()[1],
    lambda: point_dependent_presentation()[1](),
    sum_of_powers_presentation,
    constant_term_presentation,
], ids=["u^3", "raynaud", "point-dependent", "u^3 + v^3, u^3 - v^3", "w^3 = u + 1"])
def test_presentation_span_stops_once_every_p_th_power_is_in_it(monkeypatch, build):
    stopped, full = _stopped_and_full_closures(monkeypatch, build)
    assert len(stopped) < len(full)


@pytest.mark.parametrize("y_image, products", [
    # u^3 = 2*x^2 + x*y + x + y over F_3: it enters the span with x*y
    ("u^2 - u", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]),
    # u^3 = 2*(x^2 - y): it enters with x^2, before x*y
    ("u^4 + u^2", [(0, 0), (1, 0), (0, 1), (2, 0)]),
])
def test_presentation_span_stops_at_a_product_of_two_images(monkeypatch, y_image, products):
    S = ChartAlgebra(K, ("u",), [])
    T = ChartAlgebra(K, ("x", "y"), [])
    images = {"x": parse_poly("u^2 + u", S.vars, K), "y": parse_poly(y_image, S.vars, K)}
    stopped, full = _stopped_and_full_closures(
        monkeypatch, lambda: QuotientPresentation(S, T, images))
    assert [e for e, _ in stopped] == products
    assert len(stopped) < len(full)


def test_presentation_span_stops_when_a_row_holds_an_earlier_pivot(monkeypatch):
    # x -> u^2, y -> u + u^2 over F_3: y's row keeps x's pivot u^2, x*y's
    # row u^3 + u^4 keeps x^2's pivot u^4, and the target u^3 = x*y - x^2
    # leaves the residual -u^4 on x*y's row alone; it reaches zero only when
    # x^2's row, the earlier one, is subtracted again
    S = ChartAlgebra(K, ("u",), [])
    T = ChartAlgebra(K, ("x", "y"), [])
    images = {"x": parse_poly("u^2", S.vars, K), "y": parse_poly("u + u^2", S.vars, K)}
    stopped, full = _stopped_and_full_closures(
        monkeypatch, lambda: QuotientPresentation(S, T, images))
    assert [e for e, _ in stopped] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    assert len(stopped) < len(full)


def test_raynaud_lifts_are_verified_to_the_precision_a_root_leaves(monkeypatch):
    # x = x_s^5 and z = z_s^5 solve their variables and leave their roots
    # precision ceil(64/5) = 13; y = z_s^3 + 4*x_s, set aside once both are
    # known, is the one image compared, and only to t^13
    pres = preset_presentation("raynaud-local", 5)
    assert not pres.source.relations  # make_point checks nothing on the lift
    rng = random.Random(1)
    points = [random_local_point(pres.target, rng, N) for _ in range(40)]
    checked = []
    agrees_below = LaurentSeries.agrees_below

    def recording(s, other, n):
        # the target coordinate compared and the window the comparison reads
        checked.append((other, min(n, s.prec, other.prec)))
        return agrees_below(s, other, n)

    monkeypatch.setattr(LaurentSeries, "agrees_below", recording)
    horizons = []
    for pt in points:
        checked.clear()
        try:
            lift_point(pt, pres)
        except NoLift:
            continue
        ((target, window),) = checked
        assert target is pt.coords["y"]
        horizons.append(window)
    assert adelic.star_horizon(N) == 32
    assert len(horizons) > 10 and set(horizons) == {13}


def preset_presentation(name, q):
    from charfol.cli import preset_chart

    chart, D, _ = preset_chart(name, 5, 3, q)
    descended = descend_and_factor(chart, D)
    report = descended.factorization
    return QuotientPresentation(report.quotient, descended.pair.model,
                                report.power_certificates)


@pytest.mark.parametrize("build", [
    *(lambda name=name, q=q: preset_presentation(name, q)
      for name in ("raynaud-local", "affine-plane") for q in (5, 25)),
    lambda: point_dependent_presentation()[1](),
], ids=["raynaud-local-F5", "raynaud-local-F25", "affine-plane-F5", "affine-plane-F25",
        "point-dependent"])
def test_every_image_holds_at_a_returned_lift(build):
    # lift_point compares only the images it set aside: an image that solved
    # a variable by division and p-th roots holds by construction, here
    # checked by subtraction at every lift it returns
    pres = build()
    target = pres.target
    points = point_dependent_points(target) if target.domain.p == 3 else []
    for seed in range(10):
        rng = random.Random(seed)
        points += [random_local_point(target, rng, N) for _ in range(20)]
    lifts = 0
    for pt in points:
        try:
            lifted = lift_point(pt, pres)
        except NoLift:
            continue
        lifts += 1
        for v in target.vars:
            image = evaluate(pres.images[v], lifted.coords, lifted.prec)
            window = min(adelic.star_horizon(N), image.prec, pt.coords[v].prec)
            assert window > 0
            assert not (image - pt.coords[v]).nonzero_before(window), (v, window)
    assert lifts >= 2


def test_random_points_live_on_chart_and_bias_works():
    rng = random.Random(53)
    C = raynaud_chart()
    cubes = 0
    for _ in range(40):
        pt = random_local_point(C, rng, N)
        assert isinstance(pt, LocalPoint)
        if pt.coords["z"].pth_root() is not None:
            cubes += 1
    assert 5 < cubes < 35  # both sides of the dichotomy get traffic
    # the sampler does not certify its points: each relation vanishes below
    # the point's precision, which is the one make_point gives, on the
    # models equiv-check samples and on a solve plan with a pole in t
    charts = [preset_presentation(name, q).target
              for name in ("raynaud-local", "affine-plane") for q in (5, 25)]
    K5 = FunField(gf.Field(5))
    vars = ("x", "y")
    pole = parse_poly("y^2 - x", vars, K5) - parse_poly("y", vars, K5) * K5.gen().inverse()
    charts.append(ChartAlgebra(K5, vars, [(pole, "y")]))
    precs = set()
    for chart in charts:
        for seed in range(20):
            rng = random.Random(seed)
            for _ in range(10):
                pt = random_local_point(chart, rng, N)
                for rel in chart.relations:
                    residual = evaluate(rel.poly, pt.coords, pt.prec)
                    # a coefficient 1/t costs the residual at most one term
                    assert residual.prec >= pt.prec - (chart is charts[-1])
                    assert not residual.nonzero_before(pt.prec)
                assert make_point(chart, pt.coords, N).prec == pt.prec
                precs.add(pt.prec)
    assert precs == {N - 1, N}  # y/t loses a term of x


def test_a_chart_with_two_relations_is_refused_before_any_draw():
    # x solves y^2 = x, so a draw meets z^3 = y only by chance
    F5 = gf.Field(5)
    K5 = FunField(F5)
    vars = ("x", "y", "z")
    C = ChartAlgebra(K5, vars, [(parse_poly("y^2 - x", vars, K5), "y"),
                                (parse_poly("z^3 - y", vars, K5), "z")])
    assert C.solve_plan.solve_var == "x"
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(UnsupportedPresentation, match="random points need at most one relation"):
        random_local_point(C, rng, N)
    assert rng.getstate() == state


@pytest.mark.parametrize("low, high", [
    (1, 4), (0, 3), (0, adelic._FREE_TOP), (0, adelic._P_POWER_MULTIPLES),
    *((lo, q) for q in (5, 25, 59049) for lo in (0, 1))])
def test_randbelow_draws_what_randrange_draws(low, high):
    # the same values from the same stream, so sampled points keep their
    # digests; several draws per seed keep the streams in step
    for seed in range(300):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert low + adelic._randbelow(ours, high - low) == ref.randrange(low, high)
        assert ours.random() == ref.random()


def test_verify_equivalence_passes_with_unit_section():
    C = raynaud_chart()
    dz = OneForm.d(C, C.var("z"))
    D = kernel_of_form(dz)
    rep = verify_equivalence(descend_and_factor(C, D), [dz], trials=60, seed=11)
    assert rep["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["buckets_ok"]
    assert rep["generation_basis"] == "unit-coefficient-section"


def test_verify_equivalence_inconclusive_paths():
    C = raynaud_chart()
    dz = OneForm.d(C, C.var("z"))
    D = kernel_of_form(dz)
    scaled = OneForm(C, [C.zero(), C.zero(), C.poly("2*z")])  # 2z dz
    rep = verify_equivalence(descend_and_factor(C, D), [scaled], trials=20, seed=3)
    assert rep["status"] == "inconclusive"
    rep = verify_equivalence(descend_and_factor(C, D), [], trials=20, seed=3)
    assert rep["status"] == "inconclusive"
    assert rep["trials"] == 0


@pytest.mark.parametrize("verbose", [False, True])
def test_verify_equivalence_without_sections(verbose):
    C = raynaud_chart()
    D = kernel_of_form(OneForm.d(C, C.var("z")))
    rep = verify_equivalence(descend_and_factor(C, D), [], trials=7, seed=2,
                             verbose=verbose)
    # an empty run whatever was asked: no trials, no basis, no trial log
    assert (rep["trials"], rep["generation_basis"], rep["status"]) == (0, "none", "inconclusive")
    assert "trial_log" not in rep
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "5f67a53a45bef03ae275add3dcebd5574abd38a943b1817802e2a544914608b5"


def test_verify_equivalence_deterministic():
    C = ChartAlgebra(K, ("x", "y"), [])
    D = Derivation(C, [C.zero(), C.one()])
    dx = OneForm.d(C, C.var("x"))
    a = verify_equivalence(descend_and_factor(C, D), [dx], trials=40, seed=9)
    b = verify_equivalence(descend_and_factor(C, D), [dx], trials=40, seed=9)
    assert a == b


def test_verify_equivalence_verbose_log():
    C = ChartAlgebra(K, ("x", "y"), [])
    D = Derivation(C, [C.zero(), C.one()])
    dx = OneForm.d(C, C.var("x"))
    rep = verify_equivalence(descend_and_factor(C, D), [dx], trials=5, seed=1, verbose=True)
    assert len(rep["trial_log"]) == 5


def _star_count(chart, sections, prec, trials=200, seed=5):
    rng = random.Random(seed)
    return sum(star_condition(random_local_point(chart, rng, prec), sections)
               for _ in range(trials))


def test_min_star_precision_covers_the_solved_coordinate():
    C = raynaud_chart()
    # dz sits on a drawn coordinate; dx on x = z^2 - y^3, of degree 3 in them
    assert min_star_precision(C, [OneForm.d(C, C.var("z"))]) == 14
    dx = [OneForm.d(C, C.var("x"))]
    need = min_star_precision(C, dx)
    assert need == 42
    assert _star_count(C, dx, need) == _star_count(C, dx, 64)
    # the drawn-coordinate bound alone misses late first terms of x'
    assert _star_count(C, dx, 14) < _star_count(C, dx, 64)


def test_min_star_precision_refuses_what_it_cannot_bound():
    C = tango_chart()  # y is completed by Newton: a series with no last term
    with pytest.raises(NoStarBound, match="Newton-completed coordinate y"):
        min_star_precision(C, [OneForm.d(C, C.var("y"))])
    with pytest.raises(NoStarBound, match="Newton-completed coordinate y"):
        min_star_precision(C, [OneForm(C, [C.var("y"), C.zero()])])
    assert min_star_precision(C, [OneForm.d(C, C.var("x"))]) == 14
    t = C.constant(K.gen())
    with pytest.raises(NoStarBound, match="not constant in t"):
        min_star_precision(C, [OneForm(C, [t, C.zero()])])
