"""Property tests: series multiply and reciprocal, series conversion of
rational functions and RatFunc normalisation, over random F_q with q = p^e,
p in {3, 5, 7}, e <= 2."""

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


def _elements(field, nonzero=False):
    elem = st.tuples(*[st.integers(0, field.p - 1)] * field.e).map(field.element)
    return elem.filter(bool) if nonzero else elem


@st.composite
def series(draw, field, max_len=8, nonzero=False):
    """c_0*t^v0 + ... + O(t^prec): v0 in [-3, 3], up to max_len coefficients,
    prec from below v0 up to well past the last coefficient."""
    v0 = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(_elements(field), min_size=1 if nonzero else 0,
                           max_size=max_len))
    if nonzero:
        coeffs[0] = draw(_elements(field, nonzero=True))
    prec = v0 + draw(st.integers(1 if nonzero else -1, max_len + 4))
    return LaurentSeries(field, v0, coeffs, prec)


@settings(deadline=None)
@given(st.data())
def test_series_mul_is_schoolbook_convolution(data):
    field = data.draw(fields)
    a = data.draw(series(field))
    b = data.draw(series(field))
    va = a.v0 if a.coeffs else a.prec
    vb = b.v0 if b.coeffs else b.prec
    prec = min(a.prec + vb, b.prec + va)
    full = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.v0 + b.v0 + i + j
            full[k] = full.get(k, field.zero()) + x * y
    known = sorted(k for k, c in full.items() if c and k < prec)
    prod = a * b
    assert prod.prec == prec
    if not known:
        assert prod.coeffs == [] and prod.v0 == prec
    else:
        assert prod.v0 == known[0]
        assert prod.coeffs == [full.get(k, field.zero())
                               for k in range(known[0], known[-1] + 1)]


@settings(deadline=None)
@given(st.data())
def test_series_reciprocal_times_series_is_one(data):
    field = data.draw(fields)
    s = data.draw(series(field, nonzero=True))
    # known to s's relative precision: 1 + O(t^(prec - v0))
    rel = s.prec - s.v0
    assert s.reciprocal() * s == LaurentSeries.constant(field, 1, rel)


@settings(deadline=None)
@given(st.data())
def test_series_monomial_inverts_exactly(data):
    field = data.draw(fields)
    c = data.draw(_elements(field, nonzero=True))
    v = data.draw(st.integers(-3, 3))
    P = v + data.draw(st.integers(1, 12))
    r = LaurentSeries(field, v, [c], P).reciprocal()
    assert (r.v0, r.coeffs, r.prec) == (-v, [c.inverse()], P - 2 * v)
