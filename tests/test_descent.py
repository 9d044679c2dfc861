import random

import pytest

from charfol import descent, gf
from charfol.algebra import ChartAlgebra, FunField, parse_poly
from charfol.descent import (
    ModelPair,
    NoDescent,
    NoDerivationDescent,
    NotAPthPower,
    descend_algebra,
    descend_derivation,
    frobenius_K,
    in_Kp,
    multipoly_pth_root,
    pth_root_K,
)
from charfol.foliation import Derivation

F3 = gf.Field(3)
K = FunField(F3)


def test_in_Kp_oracles():
    t = K.gen()
    assert in_Kp(t**3)
    assert in_Kp(t**3 / (K.one() + t**6))
    assert not in_Kp(t)
    assert not in_Kp(K.one() / t)
    assert in_Kp(K.one() / t**3)
    assert in_Kp(K.from_int(2))


def test_in_Kp_matches_derivative():
    rng = random.Random(21)
    for _ in range(120):
        r = K.random_element(rng, max_deg=4)
        assert in_Kp(r) == r.derivative().is_zero()


def test_pth_root_roundtrip():
    rng = random.Random(22)
    for _ in range(120):
        r = K.random_element(rng, max_deg=3)
        assert pth_root_K(r**3) == r


def test_pth_root_refuses():
    with pytest.raises(NotAPthPower):
        pth_root_K(K.gen())


def test_frobenius_inverts_root():
    rng = random.Random(23)
    for _ in range(60):
        r = K.random_element(rng, max_deg=3) ** 3
        assert frobenius_K(pth_root_K(r)) == r


def test_multipoly_root():
    f = parse_poly("t^3*x^3 + 2*y^3", ("x", "y"), K)
    g = multipoly_pth_root(f, pth_root_K)
    assert g == parse_poly("t*x + 2*y", ("x", "y"), K)


def descend_chart(text, vars, var):
    chart = ChartAlgebra(K, vars, [(parse_poly(text, vars, K), var)])
    return chart, descend_algebra(chart)


def test_descend_roundtrip():
    chart, pair = descend_chart("y^2 - x - t^3", ("x", "y"), "y")
    assert isinstance(pair, ModelPair)
    model_rel = pair.model.relations[0].poly
    assert model_rel == parse_poly("y^2 - x - t", ("x", "y"), K)
    # pulling the model back through Frobenius recovers the original
    back = model_rel.map_coeffs(frobenius_K)
    assert back == chart.relations[0].poly


def test_descend_is_deterministic():
    # two identical descend_chart calls give equal models and equal reports
    _, pair1 = descend_chart("y^2 - t^6*x", ("x", "y"), "y")
    _, pair2 = descend_chart("y^2 - t^6*x", ("x", "y"), "y")
    assert pair1.model.relations[0].poly == pair2.model.relations[0].poly
    assert pair1.to_json() == pair2.to_json()


def test_descend_algebra_roots_each_coefficient_once(monkeypatch):
    # the raynaud-local chart at (3,2): three coefficients, three roots;
    # pth_root_K's own postcondition is the one check of each
    roots = []

    def counting(r):
        roots.append(r)
        return pth_root_K(r)

    monkeypatch.setattr(descent, "pth_root_K", counting)
    descend_chart("z^2 - y^3 - x", ("x", "y", "z"), "z")
    assert len(roots) == 3


def test_no_descent():
    with pytest.raises(NoDescent) as info:
        descend_chart("y^2 - t*x", ("x", "y"), "y")
    assert "outside K^p" in str(info.value)


def test_descend_trivial_chart():
    chart = ChartAlgebra(K, ("x", "y"), [])
    pair = descend_algebra(chart)
    assert pair.provenance == []


def test_descend_derivation():
    chart, pair = descend_chart("z^2 - y^3 - x", ("x", "y", "z"), "z")
    D = Derivation(chart, [chart.zero(), chart.one(), chart.zero()])
    Dm = descend_derivation(D, pair)
    assert Dm.chart == pair.model
    assert Dm.apply(pair.model.var("y")) == pair.model.one()


def test_descend_derivation_needs_root_coefficients():
    chart = ChartAlgebra(K, ("x",), [])
    pair = descend_algebra(chart)
    D = Derivation(chart, [chart.constant(K.gen())])  # image t is not in K^p
    with pytest.raises(NoDerivationDescent):
        descend_derivation(D, pair)
