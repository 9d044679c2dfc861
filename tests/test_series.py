import random

import pytest

from charfol import gf
from charfol.algebra import FunField, parse_poly
from charfol.series import (
    LaurentSeries,
    NotSimpleRoot,
    PrecisionExhausted,
    implicit_series,
)

F3 = gf.Field(3)
F5 = gf.Field(5)


def rand_series(field, rng, prec, lo=-3):
    v0 = rng.randrange(lo, 4)
    coeffs = [field.from_int(rng.randrange(field.q)) for _ in range(prec - v0)]
    return LaurentSeries(field, v0, coeffs, prec)


def test_geometry_of_precision():
    s = LaurentSeries.t_power(F3, 2, 10)
    assert s.val() == 2
    assert s.prec == 10
    assert s.truncate(5).prec == 5
    assert not s.nonzero_before(2)
    assert s.nonzero_before(3)


def test_zero_val_raises():
    z = LaurentSeries.zero(F3, 8)
    with pytest.raises(PrecisionExhausted):
        z.val()


def test_reciprocal_and_division():
    rng = random.Random(3)
    for _ in range(25):
        s = rand_series(F5, rng, 12)
        if s.is_zero():
            continue
        r = s.reciprocal()
        one = s * r
        assert not (one - LaurentSeries.constant(F5, 1, one.prec)).nonzero_before(one.prec)


def test_mul_precision_rule():
    a = LaurentSeries.t_power(F3, 1, 5)
    b = LaurentSeries.t_power(F3, 2, 7)
    # O(t^5)*t^2 limits knowledge to t^7; t*O(t^7) limits to t^8
    assert (a * b).prec == 7


def test_derivative_char_p():
    s = LaurentSeries(F3, 0, [F3.from_int(1), F3.from_int(1), F3.from_int(1),
                              F3.from_int(1)], 10)  # 1 + t + t^2 + t^3
    d = s.derivative()
    assert d.coeff(0) == F3.from_int(1)
    assert d.coeff(1) == F3.from_int(2)
    assert d.coeff(2) == F3.zero()  # 3t^2 dies


def test_pth_root_roundtrip():
    rng = random.Random(7)
    F9 = gf.Field(3, 2)
    for _ in range(25):
        s = rand_series(F9, rng, 9)
        cube = s * s * s
        r = cube.pth_root()
        assert r is not None
        assert not (r - s).nonzero_before(min(r.prec, s.prec))


def test_pth_root_refuses_bad_support():
    s = LaurentSeries.t_power(F3, 1, 9)
    assert s.pth_root() is None


def test_from_ratfunc_geometric():
    K = FunField(F5)
    t = K.gen()
    s = LaurentSeries.from_ratfunc(K.one() / (K.one() - t), 6)
    for k in range(6):
        assert s.coeff(k) == F5.from_int(1)


def test_implicit_series_substitutes():
    # v^2 - v*w - w: the w-linear part is a unit at the origin
    F = parse_poly("v^2 - v*w - w", ("v", "w"), F3)
    w = implicit_series(F, 12)
    # w = v^2/(1+v) = v^2 - v^3 + v^4 - ...
    assert w.coeff(2) == F3.from_int(1)
    assert w.coeff(3) == F3.from_int(-1)
    assert w.coeff(4) == F3.from_int(1)


def test_implicit_series_needs_simple_root():
    F = parse_poly("v^2 - w^2", ("v", "w"), F3)
    with pytest.raises(NotSimpleRoot):
        implicit_series(F, 8)
