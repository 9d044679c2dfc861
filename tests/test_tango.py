import time

import pytest

from charfol import gf
from charfol.series import PrecisionExhausted
from charfol.tango import GenusMismatch, PlanarTangoCurve, verify_tango_structure

ORD_ORACLE = {(3, 2): 18, (5, 2): 70, (3, 4): 108}


def test_parameter_guards():
    with pytest.raises(ValueError):
        PlanarTangoCurve(2, 2)
    with pytest.raises(ValueError):
        PlanarTangoCurve(3, 1)
    with pytest.raises(ValueError):
        PlanarTangoCurve(3, 2, field=gf.Field(5))


def test_genus_formula():
    assert PlanarTangoCurve(3, 2).genus() == 10
    assert PlanarTangoCurve(5, 2).genus() == 36
    assert PlanarTangoCurve(3, 4).genus() == 55


def test_branch_satisfies_relation():
    # at 33 = n + (n-1)^2 + 2 the branch has its second term, at v^31
    c = PlanarTangoCurve(3, 2)
    w = c.branch_at_infinity(33)
    F = c.infinity.relations[0].poly
    from charfol.series import LaurentSeries

    v = LaurentSeries.t_power(c.field, 1, w.prec)
    conv = lambda a: LaurentSeries.constant(c.field, a, w.prec)
    residual = F.evaluate({"v": v, "w": w}, conv)
    assert not residual.nonzero_before(residual.prec)
    assert w.val() == c.n
    assert w.coeff(c.n + (c.n - 1) ** 2) != 0


@pytest.mark.parametrize("p, d, e", [(3, 2, 1), (5, 2, 1), (3, 4, 1), (5, 3, 1),
                                     (7, 4, 1), (3, 2, 2)])
def test_ord_matches_the_derivative_of_one_over_w(p, d, e):
    # the reference route, over F_(p^e): d(1/w) loses its leading term
    # v^(-n) since p | n, so the branch must reach its second term, at
    # n + (n-1)^2
    c = PlanarTangoCurve(p, d, gf.Field(p, e))
    w = c.branch_at_infinity(c.n + (c.n - 1) ** 2 + 2)
    assert c.ord_dx_at_infinity() == (1 / w).derivative().val() == c.n * (c.n - 3)


def test_ord_oracles_each_under_5s():
    for (p, d), expected in ORD_ORACLE.items():
        t0 = time.monotonic()
        c = PlanarTangoCurve(p, d)
        assert c.ord_dx_at_infinity() == expected
        assert time.monotonic() - t0 < 5.0


def test_ord_equals_canonical_degree():
    for (p, d), expected in ORD_ORACLE.items():
        c = PlanarTangoCurve(p, d)
        assert c.canonical_degree() == expected
        assert c.genus_cross_validated() == c.genus()


def test_divisor_of_dx():
    c = PlanarTangoCurve(3, 2)
    div = c.divisor_of_dx()
    assert div == {"at_infinity": 18}


def test_smoothness_certificate():
    cert = PlanarTangoCurve(5, 2).smoothness_certificate()
    assert "unit" in cert["affine"]
    assert "unit" in cert["infinity"]


def test_insufficient_precision_is_loud():
    # at prec 4 <= n the branch looks like 0, so dividing by w^2 blows up
    # explicitly
    c = PlanarTangoCurve(3, 2)
    with pytest.raises((PrecisionExhausted, ValueError, ZeroDivisionError)):
        c.ord_dx_at_infinity(prec=4)


def test_verify_report():
    rep = verify_tango_structure(3, 2)
    assert rep["ok"]
    assert rep["ord_dx_at_infinity"] == 18
    assert rep["degN"] == 3
    assert rep["degL"] == 6
    assert rep["tango_equality"]
    rep = verify_tango_structure(5, 2)
    assert rep["ok"] and rep["degN"] == 7 and rep["degL"] == 14
