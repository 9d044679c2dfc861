"""Property tests: the field axioms, Frobenius and p-th roots, and series
multiply (a one-term factor on either side too), sums, subtraction,
negation, d/dt, reciprocal, division, powers and p-th roots over F_q with p
in {2, 3, 5, 7}, e <= 4, each result in normal form, and field elements
combined with series from either side; series.evaluate against a
term-by-term reference over those fields and F_q(t), a second call reading
the kept coefficient series, and a constant or zero polynomial served the
same kept series each call; prime-field series products against the
schoolbook convolution, on both sides of the one-byte Kronecker slot's edge;
series.evaluate over F_p and F_p(t) against the term-by-term reference with
long, zero and negative-valuation coordinates and exponents divisible by p,
past each packed slot's edge; series conversion of rational functions and
RatFunc normalisation, over random F_q with q = p^e, p in {3, 5, 7}, e <= 2;
RatFunc arithmetic against its general construction over F_5 (inverse and
powers over F_9 too); sparse elimination against dense Gaussian elimination
over F_5, F_9 and F_5(t), with rows and inserted vectors never changed and a
lead-1 vector stored as given; chart normal forms (idempotent, blind to the
relation ideal); the term-dict sum, product (and the one-term product as a
shift) and normal form on F_q codes against the same kernels on elements
over F_5, F_25 and F_27; the descent p-th roots in K = F_q(t) and in
polynomial rings over F_q and K; MultiPoly one-term products and powers
against the schoolbook double loop, over F_q with p in {2, 3, 5, 7}, e <= 4,
and over F_q(t); the agreement of two series below a window against their
difference."""

import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from charfol import gf
from charfol._linalg import (SpanTracker, _addmul, _mul, _nf, _shift, _submul, kernel_basis,
                             solve_span)
from charfol.algebra import ChartAlgebra, FunField, MultiPoly, RatFunc, parse_poly
from charfol.descent import (
    NoDescent,
    descend_algebra,
    frobenius_K,
    in_Kp,
    multipoly_pth_root,
    pth_root_K,
)
from charfol.foliation import _rules
from charfol.series import DivisionByZeroSeries, LaurentSeries, evaluate, from_codes

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

FIELD_GRID = [gf.Field(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3, 4)]
grid_fields = st.sampled_from(FIELD_GRID)


@settings(deadline=None)
@given(st.data())
def test_field_axioms(data):
    field = data.draw(grid_fields)
    a, b, c = (data.draw(_elements(field)) for _ in range(3))
    zero, one = field.zero(), field.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a + (-a) == zero and a - b == a + (-b)
    if a:
        assert a * a.inverse() == one


@settings(deadline=None)
@given(st.data())
def test_frobenius_is_an_automorphism_inverted_by_pth_root(data):
    field = data.draw(grid_fields)
    a, b = (data.draw(_elements(field)) for _ in range(2))
    frob = gf.frobenius
    assert frob(a + b) == frob(a) + frob(b)
    assert frob(a * b) == frob(a) * frob(b)
    # a two-sided inverse: Frobenius is a bijection
    assert gf.pth_root(frob(a)) == a and frob(gf.pth_root(a)) == a


@settings(deadline=None)
@given(grid_fields)
def test_elements_are_q_distinct_values(field):
    elems = list(field.elements())
    assert len(elems) == len(set(elems)) == field.q
    assert all(x.field == field for x in elems)


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
    # a constant numerator, zero included, takes a direct path
    const = MultiPoly.constant(num.domain, VARS, num.constant_value())
    assert LaurentSeries.from_ratfunc(RatFunc(const), N) == LaurentSeries.from_poly(const, N)


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


def _assert_normal(s):
    """The normal form of every series result: the first and last codes are
    nonzero and v0 + len(codes) <= prec, or there are no codes and v0 = prec.
    Returns s."""
    codes = s._c
    if codes:
        assert codes[0] and codes[-1] and s.v0 + len(codes) <= s.prec, (s.v0, codes, s.prec)
    else:
        assert s.v0 == s.prec, (s.v0, s.prec)
    return s


@settings(deadline=None)
@given(st.data())
def test_series_mul_is_schoolbook_convolution(data):
    field = data.draw(grid_fields)
    _check_schoolbook(field, data.draw(series(field)), data.draw(series(field)))


@settings(deadline=None)
@given(st.data())
def test_series_mul_by_one_term_is_schoolbook_convolution(data):
    field = data.draw(grid_fields)
    s = data.draw(series(field))
    m = data.draw(series(field, max_len=1, nonzero=True))
    _check_schoolbook(field, m, s)
    _check_schoolbook(field, s, m)
    # a factor 1*t^0 that leaves the precision as it is returns the other
    # factor itself (the right one when both are such factors)
    one = LaurentSeries.constant(field, 1, data.draw(st.integers(s.prec - s.v0, s.prec + 4)))
    if s.coeffs and one.prec + s.v0 >= s.prec:
        assert one * s is s and s * one is (one if s == one else s)
        # its powers prime to p are itself too, and its memo holds no
        # reference to itself, which would be a cycle
        assert one ** (field.p + 1) is one
        assert all(v is not one for v in getattr(one, "_powers", {}).values())


def _check_schoolbook(field, a, b):
    va = a.v0 if a.coeffs else a.prec
    vb = b.v0 if b.coeffs else b.prec
    prec = min(a.prec + vb, b.prec + va)
    full = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.v0 + b.v0 + i + j
            full[k] = full.get(k, field.zero()) + x * y
    known = sorted(k for k, c in full.items() if c and k < prec)
    prod = _assert_normal(a * b)
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
    field = data.draw(grid_fields)
    s = data.draw(series(field, nonzero=True))
    # known to s's relative precision: 1 + O(t^(prec - v0))
    rel = s.prec - s.v0
    r = _assert_normal(s.reciprocal())
    assert _assert_normal(r * s) == LaurentSeries.constant(field, 1, rel)


@settings(deadline=None)
@given(st.data())
def test_series_monomial_inverts_exactly(data):
    field = data.draw(grid_fields)
    c = data.draw(_elements(field, nonzero=True))
    v = data.draw(st.integers(-3, 3))
    P = v + data.draw(st.integers(1, 12))
    r = _assert_normal(LaurentSeries(field, v, [c], P).reciprocal())
    assert (r.v0, r.coeffs, r.prec) == (-v, [c.inverse()], P - 2 * v)


@settings(deadline=None)
@given(st.data())
def test_series_power_divisible_by_p_is_repeated_multiplication(data):
    field = data.draw(grid_fields)
    p = field.p
    s = data.draw(series(field))
    n = data.draw(st.sampled_from([p, 2 * p, p * p, 3 * p]))
    # the zero series too, at the drawn precision
    for base in (s, LaurentSeries.zero(field, s.prec)):
        ref = base
        for _ in range(n - 1):
            ref = ref * base
        got = _assert_normal(base**n)
        assert (got.v0, got.coeffs, got.prec) == (ref.v0, ref.coeffs, ref.prec)


@settings(deadline=None)
@given(st.data())
def test_series_memoized_powers_match_a_fresh_copy(data):
    field = data.draw(grid_fields)
    p = field.p
    s = data.draw(series(field, nonzero=True))
    exps = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, p, 2 * p, -1, -2, -p]),
                              min_size=1, max_size=6))

    def check(base):
        for _ in range(2):  # the second round reads the memo
            for n in exps:
                got = _assert_normal(base**n)
                fresh = from_codes(field, base.v0, [c.n for c in base.coeffs], base.prec)
                want = fresh**n
                assert (got.v0, got.coeffs, got.prec) == (want.v0, want.coeffs, want.prec)

    check(s)
    # truncated once s holds its powers: at its precision truncate returns s
    # itself, below it a new series whose powers are its own
    check(s.truncate(s.prec))
    if s.prec > s.v0 + 1:
        check(s.truncate(data.draw(st.integers(s.v0 + 1, s.prec - 1))))


@settings(deadline=None)
@given(st.data())
def test_series_pth_root_inverts_the_pth_power(data):
    field = data.draw(grid_fields)
    p = field.p
    s = data.draw(series(field))
    r = _assert_normal(_assert_normal(s**p).pth_root())
    # s^p is known to prec + (p-1)v, so its root to at most s's precision
    assert r.prec <= s.prec and r == s.truncate(r.prec)
    if s.coeffs and s.prec > s.v0 + 1:
        # a known term off the p-th powers has no root
        k = p * s.v0 + 1
        assert (s**p + LaurentSeries.t_power(field, k, k + 1)).pth_root() is None


@settings(deadline=None)
@given(st.data())
def test_series_sub_matches_elements(data):
    field = data.draw(grid_fields)
    a, b = data.draw(series(field)), data.draw(series(field))
    # zero operands, at their own precisions, on either side
    for x, y in ((a, b), (LaurentSeries.zero(field, a.prec), b),
                 (a, LaurentSeries.zero(field, b.prec))):
        prec = min(x.prec, y.prec)
        diff, total = _assert_normal(x - y), _assert_normal(x + y)
        assert diff.prec == total.prec == prec
        for k in range(min(x.v0, y.v0, prec), prec):
            assert diff.coeff(k) == x.coeff(k) - y.coeff(k)
            assert total.coeff(k) == x.coeff(k) + y.coeff(k)
        want = _assert_normal(x + _assert_normal(-y))
        assert (diff.v0, diff.coeffs, diff.prec) == (want.v0, want.coeffs, want.prec)
    n = data.draw(st.integers(0, field.p - 1))
    rsub = _assert_normal(n - a)
    assert rsub.prec == a.prec
    for k in range(min(a.v0, 0, a.prec), a.prec):
        assert rsub.coeff(k) == field.from_int(n if k == 0 else 0) - a.coeff(k)


@st.composite
def series_pairs(draw):
    """(a, b, n) over F_q, q = p^e with p in {2, 3, 5, 7} and e <= 4: b drawn
    on its own, a zero series, or a with one term added (perhaps zero) at
    its own precision; n from below both valuations to past both
    precisions."""
    field = draw(grid_fields)
    a = draw(series(field))
    kind = draw(st.sampled_from(["own", "zero", "perturbed"]))
    if kind == "own":
        b = draw(series(field))
    elif kind == "zero":
        b = LaurentSeries.zero(field, a.prec + draw(st.integers(-4, 4)))
    else:
        k = draw(st.integers(-4, 14))
        prec = a.prec + draw(st.integers(-4, 4))
        b = a + LaurentSeries.t_power(field, k, prec, draw(_elements(field)))
    if draw(st.booleans()):
        a, b = b, a
    return a, b, draw(st.integers(-6, 16))


F7 = gf.Field(7)


@settings(deadline=None)
@given(series_pairs())
# a window that ends inside the run of zeros before b's t^3
@example((LaurentSeries.constant(F7, 1, 8),
          LaurentSeries.constant(F7, 1, 8) + LaurentSeries.t_power(F7, 3, 8, 5), 3))
def test_series_agree_below_exactly_when_their_difference_vanishes(triple):
    a, b, n = triple
    diff = a - b
    want = not diff.nonzero_before(min(n, diff.prec))
    assert a.agrees_below(b, n) is want
    assert b.agrees_below(a, n) is want


def test_series_agree_below_windows():
    one = LaurentSeries.constant(F7, 1, 8)
    b = one + LaurentSeries.t_power(F7, 3, 8, 5)
    assert one.agrees_below(b, 3) and not one.agrees_below(b, 4)
    # a window below both valuations, and windows past one side's precision
    t5, t6 = LaurentSeries.t_power(F7, 5, 9), LaurentSeries.t_power(F7, 6, 7, 2)
    assert t5.agrees_below(t6, 5) and not t5.agrees_below(t6, 6)
    longer = LaurentSeries.t_power(F7, 6, 20, 2) + LaurentSeries.t_power(F7, 7, 20)
    assert t6.agrees_below(longer, 9) and longer.agrees_below(t6, 9)
    assert not longer.agrees_below(LaurentSeries.t_power(F7, 6, 20, 2), 9)
    zero = LaurentSeries.zero(F7, 4)
    assert zero.agrees_below(t5, 64) and zero.agrees_below(LaurentSeries.zero(F7, 2), 64)
    assert not zero.agrees_below(LaurentSeries.t_power(F7, 3, 9), 64)


@settings(deadline=None)
@given(st.data())
def test_series_neg_and_derivative_match_elements(data):
    field = data.draw(grid_fields)
    a = data.draw(series(field))
    neg, d = _assert_normal(-a), _assert_normal(a.derivative())
    assert (neg.prec, d.prec) == (a.prec, a.prec - 1)
    for k in range(min(a.v0, a.prec), a.prec):
        assert neg.coeff(k) == -a.coeff(k)
        assert d.coeff(k - 1) == a.coeff(k) * field.from_int(k)


@settings(deadline=None)
@given(st.data())
def test_element_and_series_combine_from_either_side(data):
    # an element defers to the series' reflected operators
    for field in FIELD_GRID:
        s = data.draw(series(field, nonzero=True))
        c = data.draw(_elements(field))
        const = LaurentSeries.constant(field, c, s.prec)
        for got, want in ((c + s, s + c), (c - s, const - s), (c * s, s * c),
                          (c / s, const / s)):
            assert (got.v0, got.coeffs, got.prec) == (want.v0, want.coeffs, want.prec)
    other = gf.Field(11)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        # an element of another field combines with neither
        with pytest.raises(TypeError):
            op(other.one(), s)
        with pytest.raises(TypeError):
            op(other.one(), field.one())


@settings(deadline=None)
@given(st.data())
def test_series_division_is_product_with_reciprocal(data):
    field = data.draw(grid_fields)
    a, b = data.draw(series(field)), data.draw(series(field, nonzero=True))
    fresh = from_codes(field, b.v0, [c.n for c in b.coeffs], b.prec)
    want = a * fresh.reciprocal()
    for _ in range(2):  # the second quotient reuses b's kept reciprocal
        got = _assert_normal(a / b)
        assert (got.v0, got.coeffs, got.prec) == (want.v0, want.coeffs, want.prec)
    if a.coeffs:
        # a known numerator keeps its leading term: v(a) - v(b) lies below
        # the quotient's precision
        assert got.v0 == a.v0 - b.v0
        assert got.coeffs[0] == a.coeffs[0] / b.coeffs[0]
    with pytest.raises(DivisionByZeroSeries):
        a / LaurentSeries.zero(field, b.prec)


def _evaluate_termwise(poly, coords, P):
    """Each coefficient converted, times fresh powers of the coordinates in
    variable order, the terms added in order; the zero polynomial gives its
    converted zero."""
    domain = poly.domain

    def convert(c):
        if isinstance(domain, FunField):
            return LaurentSeries.from_ratfunc(c, P)
        return LaurentSeries.constant(domain, c, P)

    out = None
    for e, c in poly.terms.items():
        term = convert(c)
        for v, k in zip(poly.vars, e):
            if k:
                s = coords[v]
                term = term * from_codes(s.field, s.v0, [x.n for x in s.coeffs], s.prec) ** k
        out = term if out is None else out + term
    return convert(domain.zero()) if out is None else out


@settings(deadline=None)
@given(st.data())
def test_series_evaluate_is_termwise(data):
    domain = data.draw(st.sampled_from(POLY_DOMAINS))
    field = domain.field if isinstance(domain, FunField) else domain
    vars = ("x", "y")
    f = data.draw(chart_polys(domain, vars))
    coords = {v: data.draw(series(field)) for v in vars}
    precs = data.draw(st.lists(st.integers(1, 24), min_size=2, max_size=2))
    constant = MultiPoly.constant(domain, vars, data.draw(_coeffs(domain).filter(bool)))
    for poly in (f, MultiPoly.zero(domain, vars), constant):
        for _ in range(2):  # the second round reads the kept coefficient series
            for P in precs:
                got = _assert_normal(evaluate(poly, coords, P))
                want = _evaluate_termwise(poly, coords, P)
                assert (got.v0, got.coeffs, got.prec) == (want.v0, want.coeffs, want.prec)
    # a polynomial with no variable term is its kept series
    for poly in (MultiPoly.zero(domain, vars), constant):
        assert evaluate(poly, coords, precs[0]) is evaluate(poly, coords, precs[0])


def test_series_evaluate_precision_can_exceed_the_working_precision():
    F17 = gf.Field(17)
    poly = parse_poly("16*y^17 + z^2", ("y", "z"), F17)
    coords = {"y": LaurentSeries.t_power(F17, 34, 64, 14),
              "z": LaurentSeries.t_power(F17, 34, 64, 3)}
    for _ in range(2):
        got = evaluate(poly, coords, 64)
        # 16*y^17 = 3t^578 + O(t^608) lies past z^2 = 9t^68 + O(t^98)
        assert (got.v0, got.coeffs, got.prec) == (68, [F17.from_int(9)], 98)
        assert got == _evaluate_termwise(poly, coords, 64)


# the prime-field kernels across the code range: one-byte codes (F_3,
# F_251) and two-byte codes (F_257, F_65521), in products of up to about
# 300 terms, whose Kronecker slots hold 1 to 5 bytes of value
PRIME_FIELDS = [gf.Field(p) for p in (3, 251, 257, 65521)]
prime_fields = st.sampled_from(PRIME_FIELDS)


@st.composite
def long_series(draw, field, max_len=300):
    """A series over a prime field with up to max_len codes, either all
    p-1 (the largest products) or read from drawn bytes, known from below
    its last term to a little past it."""
    p = field.p
    v0 = draw(st.integers(-3, 3))
    n = draw(st.integers(0, max_len))
    if draw(st.booleans()):
        codes = [p - 1] * n
    else:
        raw = draw(st.binary(min_size=2 * n, max_size=2 * n))
        codes = [int.from_bytes(raw[i : i + 2], "little") % p for i in range(0, 2 * n, 2)]
    return from_codes(field, v0, codes, v0 + n + draw(st.integers(-2, 4)))


def _codes(s):
    return [c.n for c in s.coeffs]


# F_3 at the one-byte slot's edge: 63 codes 2 make coefficients up to
# (p-1)^2 * 63 = 252, one byte; 64 make 256, which needs two
@settings(deadline=None)
@given(prime_fields.flatmap(lambda f: st.tuples(long_series(f), long_series(f))))
@example((from_codes(PRIME_FIELDS[0], 0, [2] * 63, 130),) * 2)
@example((from_codes(PRIME_FIELDS[0], 0, [2] * 64, 130),) * 2)
def test_prime_series_mul_is_schoolbook_convolution(pair):
    a, b = pair
    field = a.field
    p = field.p
    ca, cb = _codes(a), _codes(b)
    full = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            full[i + j] += x * y
    prec = min(a.prec + b.v0, b.prec + a.v0)
    assert _assert_normal(a * b) == from_codes(field, a.v0 + b.v0, [c % p for c in full], prec)


@st.composite
def prime_substitutions(draw):
    """A polynomial in x and y over a prime field, or over F_p(t) with
    coefficients free of t, of exponents up to 3 and multiples of p, and
    two long series, which may be zero or of negative valuation."""
    field = draw(prime_fields)
    p = field.p
    domain = draw(st.sampled_from([field, FunField(field)]))
    exps = st.sampled_from([0, 1, 2, 3, p, 2 * p])
    terms = draw(st.dictionaries(st.tuples(exps, exps), st.integers(1, p - 1),
                                 min_size=1, max_size=4))
    poly = MultiPoly(domain, ("x", "y"), {e: domain.from_int(c) for e, c in terms.items()})
    zeros = st.builds(LaurentSeries.zero, st.just(field), st.integers(0, 40))
    coords = {v: draw(st.one_of(long_series(field), zeros)) for v in poly.vars}
    return poly, coords, draw(st.integers(1, 80))


def _slot_edge(exponent, code):
    """x^exponent + y over F_257 at x = code and y = 0: two terms, so the
    packed path takes it, and the unreduced value code^exponent is the
    slot's bound itself, so a slot one byte narrower than evaluate picks
    spills into the next."""
    F257 = PRIME_FIELDS[2]
    poly = MultiPoly(F257, ("x", "y"), {(exponent, 0): F257.one(), (0, 1): F257.one()})
    return poly, {"x": LaurentSeries.constant(F257, code, 40),
                  "y": LaurentSeries.zero(F257, 40)}, 30


def _zero_factor():
    """x*y + 1 over F_257 at x = 0 and y = 256: the polynomial's value at
    t = 1 is 1, yet y's code needs a two-byte slot."""
    F257 = PRIME_FIELDS[2]
    poly = MultiPoly(F257, ("x", "y"), {(1, 1): F257.one(), (0, 0): F257.one()})
    return poly, {"x": LaurentSeries.zero(F257, 0),
                  "y": LaurentSeries.constant(F257, 256, 1)}, 1


# series.evaluate takes the packed-integer substitution over F_p when the
# polynomial has two terms or more and every coordinate it uses has
# valuation >= 0, else the series path; the examples
# sit just past the 1-, 2- and 4-byte slots' edges (256, 2^16 and 2^32,
# two-, four- and eight-byte slots) and past 8 bytes (2^64, the series
# path), and one holds a code wider than the polynomial's value at t = 1
@settings(deadline=None)
@given(prime_substitutions())
@example(_zero_factor())
@example(_slot_edge(1, 256))
@example(_slot_edge(2, 256))
@example(_slot_edge(4, 256))
@example(_slot_edge(8, 256))
def test_prime_series_evaluate_is_termwise(case):
    poly, coords, P = case
    for _ in range(2):  # the second round reads the kept plan
        got = _assert_normal(evaluate(poly, coords, P))
        want = _evaluate_termwise(poly, coords, P)
        assert (got.v0, got._c, got.prec) == (want.v0, want._c, want.prec)


@settings(deadline=None)
@given(st.data())
def test_prime_series_add_neg_derivative_match_elements(data):
    field = data.draw(prime_fields)
    a, b = data.draw(long_series(field)), data.draw(long_series(field))
    prec = min(a.prec, b.prec)
    total, diff = _assert_normal(a + b), _assert_normal(a - b)
    assert total.prec == diff.prec == prec
    for k in range(min(a.v0, b.v0), prec):
        assert total.coeff(k) == a.coeff(k) + b.coeff(k)
        assert diff.coeff(k) == a.coeff(k) - b.coeff(k)
    neg, d = _assert_normal(-a), _assert_normal(a.derivative())
    assert (neg.prec, d.prec) == (a.prec, a.prec - 1)
    for k in range(a.v0, a.prec):
        assert neg.coeff(k) == -a.coeff(k)
        assert d.coeff(k - 1) == a.coeff(k) * field.from_int(k)


@settings(deadline=None)
@given(st.data())
def test_prime_series_frobenius_and_pth_root_match_elements(data):
    field = data.draw(prime_fields)
    p, zero = field.p, field.zero()
    s = data.draw(long_series(field))
    f = _assert_normal(s**p)
    assert f.prec == s.prec + (p - 1) * s.v0
    want = {p * k: c**p for k, c in enumerate(s.coeffs, s.v0) if c and p * k < f.prec}
    assert {k: c for k, c in enumerate(f.coeffs, f.v0) if c} == want
    # a series with terms at multiples of p only: its root is termwise
    codes = _codes(s)[: -(-300 // p)]
    spread = [0] * (p * len(codes))
    spread[::p] = codes
    v0 = p * data.draw(st.integers(-1, 1))
    t = from_codes(field, v0, spread, v0 + len(spread) + data.draw(st.integers(-2, 4)))
    r = _assert_normal(t.pth_root())
    assert r.prec == -(-t.prec // p)
    for k in range(t.v0 if t.coeffs else t.prec, t.prec):
        if k % p == 0:
            assert r.coeff(k // p) == gf.pth_root(t.coeff(k))
        else:
            assert t.coeff(k) == zero
    if t.coeffs:
        off = t + LaurentSeries.t_power(field, t.v0 + 1, t.v0 + 2)
        assert off.prec <= t.v0 + 1 or off.pth_root() is None


F5 = gf.Field(5)


@st.composite
def ratfuncs(draw, field=F5):
    """num over denominator 1, or over a random polynomial (made monic)."""
    num = draw(polys(field))
    den = draw(st.one_of(st.none(), polys(field, max_deg=3, nonzero=True)))
    return RatFunc(num, den)


def _same_parts(r, num, den):
    general = RatFunc(num, den)
    for got, want in ((r.num, general.num), (r.den, general.den)):
        assert list(got.terms.items()) == list(want.terms.items())


@settings(deadline=None)
@given(ratfuncs(), ratfuncs(), st.booleans())
def test_ratfunc_sum_matches_general(a, b, cancel):
    if cancel:
        b = RatFunc(-a.num, a.den)
    s = a + b
    _same_parts(s, a.num * b.den + b.num * a.den, a.den * b.den)
    if cancel:
        assert s.num.is_zero()
        assert s.den.terms == {(0,): F5.one()}


@settings(deadline=None)
@given(ratfuncs(), ratfuncs())
def test_ratfunc_product_matches_general(a, b):
    _same_parts(a * b, a.num * b.num, a.den * b.den)


@settings(deadline=None)
@given(ratfuncs())
def test_ratfunc_negative_matches_general(a):
    _same_parts(-a, -a.num, a.den)


@settings(deadline=None)
@given(st.sampled_from([F5, gf.Field(3, 2)]).flatmap(ratfuncs), st.integers(0, 4))
def test_ratfunc_inverse_and_power_match_general(a, n):
    _same_parts(a ** n, a.num ** n, a.den ** n)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    _same_parts(a.inverse(), a.den, a.num)
    _same_parts(a ** -n, a.den ** n, a.num ** n)


LINALG_DOMAINS = [F5, gf.Field(3, 2), FunField(F5)]
LABELS = range(6)


def _nonzero_entries(domain):
    if isinstance(domain, gf.Field):
        return _elements(domain, nonzero=True)
    # F_5(t): some denominators are not constant
    return st.builds(RatFunc,
                     polys(domain.field, max_deg=1, nonzero=True),
                     st.one_of(st.none(), polys(domain.field, max_deg=1, nonzero=True)))


def _sparse_vectors(domain, max_size):
    vec = st.dictionaries(st.sampled_from(LABELS), _nonzero_entries(domain), max_size=3)
    return st.lists(vec, max_size=max_size)


def _combine(domain, vectors, combo):
    out = {}
    for i, c in combo.items():
        if isinstance(c, int):
            c = domain.from_int(c)
        for k, val in vectors[i].items():
            out[k] = out.get(k, domain.zero()) + val * c
    return {k: val for k, val in out.items() if val}


def _dense_rank(domain, vectors):
    m = [[v.get(k, domain.zero()) for k in LABELS] for v in vectors]
    rank = 0
    for col in range(len(LABELS)):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inverse()
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(deadline=None)
@given(st.data())
def test_span_tracker_matches_dense_elimination(data):
    domain = data.draw(st.sampled_from(LINALG_DOMAINS))
    vectors = data.draw(_sparse_vectors(domain, max_size=7))
    rank = _dense_rank(domain, vectors)
    given = [dict(vec) for vec in vectors]
    tracker = SpanTracker()
    for i, vec in enumerate(vectors):
        fresh = bool(vec) and min(vec) not in tracker.pos
        cert = tracker.insert(vec, i)
        if cert is not None:
            assert _combine(domain, vectors, cert) == vec
        if fresh:
            # independent: stored as given when it leads with 1, else a copy
            assert (tracker.rows[-1][1] is vec) == (vec[min(vec)] == domain.one())
        # echelon: each row's least label is its pivot, with coefficient 1,
        # and pos maps distinct pivots to their rows
        rows = tracker.rows
        assert [tracker.pos[pivot] for pivot, _, _ in rows] == list(range(len(rows)))
        for pivot, row, _ in rows:
            assert min(row) == pivot and row[pivot] == domain.one()
    assert len(tracker.rows) == rank
    kernel = kernel_basis(vectors)
    assert len(kernel) == len(vectors) - rank
    for rel in kernel:
        assert _combine(domain, vectors, rel) == {}
    targets = data.draw(_sparse_vectors(domain, max_size=3))
    # and some targets inside the span
    for _ in range(data.draw(st.integers(0, 2))):
        combo = data.draw(st.dictionaries(st.sampled_from(range(len(vectors))),
                                          _nonzero_entries(domain), max_size=3)
                          if vectors else st.just({}))
        targets.append(_combine(domain, vectors, combo))
    rows = [(pivot, dict(row), dict(combo)) for pivot, row, combo in tracker.rows]
    for target in targets:
        # the residual holds no pivot, and the rest of the target is the
        # certificate's combination of originals
        before = dict(target)
        residual, combo = tracker.reduce(target)
        assert target == before
        assert not any(k in tracker.pos for k in residual)
        assert _submul(None, dict(target), residual, domain.one()) \
            == _combine(domain, vectors, combo)
    for target, combo in zip(targets, solve_span(vectors, targets)):
        inside = _dense_rank(domain, vectors + [target]) == rank
        assert (combo is not None) == inside
        if inside:
            assert _combine(domain, vectors, combo) == target
    # neither insert nor reduce changed a stored row or a caller's vector
    assert tracker.rows == rows and vectors == given


# -- chart normal forms and descent to K^p --


def _chart(domain, vars, rels):
    return ChartAlgebra(domain, vars, [(parse_poly(r, vars, domain), v) for r, v in rels])


CHARTS = [
    # the raynaud-local preset at (3,2) and (5,3), the Tango chart at (3,2)
    _chart(FunField(gf.Field(3)), ("x", "y", "z"), [("z^2 - y^3 - x", "z")]),
    _chart(FunField(gf.Field(5)), ("x", "y", "z"), [("z^3 - y^5 - x", "z")]),
    _chart(FunField(gf.Field(3, 2)), ("x", "y"), [("y^6 - y - x^5", "y")]),
    # two triangular relations over a finite field
    _chart(gf.Field(5), ("x", "y", "z"), [("y^2 - x", "y"), ("z^3 - y*z - x", "z")]),
]


def _coeffs(domain):
    if isinstance(domain, gf.Field):
        return _elements(domain)
    return st.builds(RatFunc, polys(domain.field, max_deg=2),
                     polys(domain.field, max_deg=1, nonzero=True))


@st.composite
def chart_polys(draw, domain, vars, max_exp=3, max_terms=3):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * len(vars)),
                                 _coeffs(domain), max_size=max_terms))
    return MultiPoly(domain, vars, {e: c for e, c in terms.items() if c})


@settings(deadline=None)
@given(st.data())
def test_normal_form_is_idempotent(data):
    chart = data.draw(st.sampled_from(CHARTS))
    f = chart.nf(data.draw(chart_polys(chart.domain, chart.vars)))
    # no term reaches a relation's degree
    assert all(e[rel.index] < rel.degree for rel in chart.relations for e in f.terms)
    assert chart.nf(f) == f


@settings(deadline=None)
@given(st.data())
def test_normal_form_is_blind_to_the_relation_ideal(data):
    chart = data.draw(st.sampled_from(CHARTS))
    f = data.draw(chart_polys(chart.domain, chart.vars))
    g = data.draw(chart_polys(chart.domain, chart.vars, max_exp=2, max_terms=2))
    rel = data.draw(st.sampled_from(chart.relations))
    assert chart.nf(f + g * rel.poly) == chart.nf(f)


# F_8: with p = 2, -1 = 1 and its code p - 1 is the code of one
CODE_FIELDS = [gf.Field(5), gf.Field(5, 2), gf.Field(3, 3), gf.Field(2, 3)]
# two triangular relations over each field, the second one's rewrite holding y
CODE_CHARTS = [_chart(F, ("x", "y", "z"), [("y^2 - x", "y"), ("z^3 - y*z - x", "z")])
               for F in CODE_FIELDS]


def _term_dicts(field, max_exp=3, max_terms=4):
    """Term dicts on three variables holding nonzero codes; may be empty."""
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * 3),
                           st.integers(1, field.q - 1), max_size=max_terms)


def _elems(field, vec):
    """A term dict of codes with each code read as its element."""
    return {e: gf.FieldElement(field, n) for e, n in vec.items()}


@settings(deadline=None)
@given(st.data())
def test_term_dict_kernels_on_codes_match_elements(data):
    chart = data.draw(st.sampled_from(CODE_CHARTS))
    F = chart.domain
    a, b = data.draw(_term_dicts(F)), data.draw(_term_dicts(F))
    neg_b = {e: (-gf.FieldElement(F, n)).n for e, n in b.items()}
    c = data.draw(st.integers(1, F.q - 1))
    products = (_mul(F, a, b), _mul(None, _elems(F, a), _elems(F, b)))
    assert _elems(F, products[0]) == products[1]
    assert _elems(F, _addmul(F, dict(a), b)) == _addmul(None, _elems(F, a), _elems(F, b))
    assert (_elems(F, _addmul(F, dict(a), b, c))
            == _addmul(None, _elems(F, a), _elems(F, b), gf.FieldElement(F, c)))
    # sums that cancel: b - b, a*b + a*(-b), and the empty dict either way
    assert _addmul(F, dict(b), neg_b) == {} == _addmul(None, _elems(F, b), _elems(F, neg_b))
    assert _addmul(F, _mul(F, a, b), _mul(F, a, neg_b)) == {}
    assert _mul(F, a, {}) == {} == _mul(None, {}, _elems(F, b))
    # a one-term factor is a shift: the product's terms in the product's order
    e = data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    for scalar in (c, None):
        term = {e: 1 if scalar is None else scalar}
        assert list(_shift(F, a, e, scalar).items()) == list(_mul(F, a, term).items())
        elems = _shift(None, _elems(F, a), e, None if scalar is None else _elems(F, term)[e])
        assert list(elems.items()) == list(_mul(None, _elems(F, a), _elems(F, term)).items())
    # the subtracting multiply-add of the span tracker: a - c*b, term by
    # term on elements, and b - 1*b cancels
    expected = _elems(F, a)
    for e, n in b.items():
        s = expected.get(e, F.zero()) - gf.FieldElement(F, c) * gf.FieldElement(F, n)
        if s:
            expected[e] = s
        else:
            del expected[e]
    assert _elems(F, _submul(F, dict(a), b, c)) == expected
    assert _submul(None, _elems(F, a), _elems(F, b), gf.FieldElement(F, c)) == expected
    assert _submul(F, dict(b), b, 1) == {} == _submul(None, _elems(F, b), _elems(F, b), F.one())
    # the normal form against the chart's element rules, and against nf
    code_rules = _rules(chart, F)
    for vec, elems in ((a, _elems(F, a)), products):
        reduced = _nf(F, vec, code_rules)
        assert _elems(F, reduced) == _nf(None, elems, chart.rules)
        assert _elems(F, reduced) == chart.nf(MultiPoly(F, chart.vars, elems)).terms
    assert _nf(F, {}, code_rules) == {}


@settings(deadline=None)
@given(st.data())
def test_pth_root_K_inverts_the_pth_power(data):
    field = data.draw(fields)
    s = data.draw(_coeffs(FunField(field)))
    r = s**field.p
    assert in_Kp(r)
    assert pth_root_K(r) == s
    assert frobenius_K(pth_root_K(r)) == r


@settings(deadline=None)
@given(st.data())
def test_descend_algebra_model_pulls_back_to_the_chart(data):
    # z^k - a*x - b with a, b in K^p: the model roots a and b, and its base
    # change by Frobenius gives the chart back
    K = FunField(data.draw(grid_fields))
    p, k = K.p, data.draw(st.integers(1, 3))
    s, u = data.draw(_coeffs(K)), data.draw(_coeffs(K))

    def relation(a, b):
        terms = {(0, k): K.one(), (1, 0): -a, (0, 0): -b}
        return MultiPoly(K, ("x", "z"), {e: c for e, c in terms.items() if c})

    rel = relation(s**p, u**p)
    pair = descend_algebra(ChartAlgebra(K, ("x", "z"), [(rel, "z")]))
    model_rel = pair.model.relations[0].poly
    assert model_rel == relation(s, u)
    assert model_rel.map_coeffs(frobenius_K) == rel
    # s^p + t has derivative 1, so it is not in K^p
    outside = ChartAlgebra(K, ("x", "z"), [(relation(s**p + K.gen(), u**p), "z")])
    with pytest.raises(NoDescent):
        descend_algebra(outside)


@settings(deadline=None)
@given(st.data())
def test_multipoly_pth_root_inverts_the_pth_power(data):
    field = data.draw(fields)
    domain = data.draw(st.sampled_from([field, FunField(field)]))
    root = gf.pth_root if domain is field else pth_root_K
    f = data.draw(chart_polys(domain, ("x", "y"), max_exp=2))
    F = f**field.p
    assert multipoly_pth_root(F, root) == f


# -- MultiPoly products and powers, over F_q and K = F_q(t) --

POLY_DOMAINS = FIELD_GRID + [FunField(f) for f in FIELDS]


def _schoolbook(f, g):
    """The double loop over both term lists, zero sums dropped at the end."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


@settings(deadline=None)
@given(st.data())
def test_multipoly_one_term_product_is_schoolbook(data):
    domain = data.draw(st.sampled_from(POLY_DOMAINS))
    vars = ("x", "y", "z")
    f = data.draw(chart_polys(domain, vars))
    exp = data.draw(st.tuples(*[st.integers(0, 3)] * len(vars)))
    c = data.draw(_coeffs(domain).filter(bool))
    mono = MultiPoly(domain, vars, {exp: c})
    for prod, want in ((f * mono, _schoolbook(f, mono)), (mono * f, _schoolbook(mono, f))):
        # nothing cancels, and the terms keep the double loop's order
        assert list(prod.terms.items()) == list(want.items())
        assert len(prod.terms) == len(f.terms)


@settings(deadline=None)
@given(st.data())
def test_multipoly_power_is_repeated_multiplication(data):
    domain = data.draw(st.sampled_from(POLY_DOMAINS))
    vars = ("x", "y")
    f = data.draw(chart_polys(domain, vars, max_exp=2))
    n = data.draw(st.sampled_from([0, 1, 2, 3, domain.p, 7]))
    want = MultiPoly.constant(domain, vars, 1)
    for _ in range(n):
        want = MultiPoly(domain, vars, _schoolbook(want, f))
    assert f**n == want
