"""Property tests: series conversion of rational functions and RatFunc
normalisation, over random F_q with q = p^e, p in {3, 5, 7}, e <= 2."""

from hypothesis import given, settings, strategies as st

from charfol import gf
from charfol.algebra import MultiPoly, RatFunc
from charfol.series import LaurentSeries

FIELDS = [gf.Field(p, e) for p in (3, 5, 7) for e in (1, 2)]
VARS = ("t",)
fields = st.sampled_from(FIELDS)


@st.composite
def polys(draw, field, max_deg=5, nonzero=False):
    elem = st.tuples(*[st.integers(0, field.p - 1)] * field.e)
    coeffs = draw(st.lists(elem, min_size=1 if nonzero else 0, max_size=max_deg + 1))
    poly = MultiPoly(field, VARS, {(k,): field.element(c) for k, c in enumerate(coeffs)})
    if nonzero and poly.is_zero():
        poly = MultiPoly.constant(field, VARS, 1)
    return poly


@st.composite
def ratfunc_parts(draw):
    field = draw(fields)
    return field, draw(polys(field)), draw(polys(field, max_deg=3, nonzero=True))


precisions = st.integers(1, 24)


@settings(deadline=None)
@given(ratfunc_parts(), precisions)
def test_from_ratfunc_times_den_is_num(parts, N):
    field, num, den = parts
    r = RatFunc(num, den)
    prod = LaurentSeries.from_ratfunc(r, N) * LaurentSeries.from_poly(r.den, N)
    # the product is known at least as far as N minus the valuation of den
    den_val = min(k for (k,) in r.den.terms)
    assert prod.prec >= N - den_val
    diff = prod - LaurentSeries.from_poly(r.num, N)
    assert not diff.nonzero_before(N)


@settings(deadline=None)
@given(fields.flatmap(polys), precisions)
def test_from_ratfunc_constant_den_is_from_poly(num, N):
    r = RatFunc(num)
    s = LaurentSeries.from_ratfunc(r, N)
    assert s == LaurentSeries.from_poly(num, N)
    # the general path: divide by the series of den = 1 with padding
    pad = N + 4
    general = LaurentSeries.from_poly(r.num, pad) / LaurentSeries.from_poly(r.den, pad)
    assert s == general.truncate(N)


@settings(deadline=None)
@given(st.data())
def test_ratfunc_constant_den_scales_num(data):
    field = data.draw(fields)
    num = data.draw(polys(field))
    c = data.draw(polys(field, max_deg=0, nonzero=True)).constant_value()
    r = RatFunc(num, MultiPoly.constant(field, VARS, c))
    assert r == RatFunc(num * c.inverse())
    assert r.den == MultiPoly.constant(field, VARS, 1)


@settings(deadline=None)
@given(st.data())
def test_ratfunc_cancels_common_factor(data):
    field = data.draw(fields)
    num = data.draw(polys(field))
    den = data.draw(polys(field, max_deg=3, nonzero=True))
    g = data.draw(polys(field, max_deg=2, nonzero=True))
    assert RatFunc(num * g, den * g) == RatFunc(num, den)
