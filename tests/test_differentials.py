import random

import pytest

from charfol import gf
from charfol.algebra import ChartAlgebra, FunField, parse_poly
from charfol.differentials import (
    CartierDecomposition,
    OneForm,
    cartier,
    decompose_pth,
    is_locally_exact,
    _elimination,
    reduce_form,
)

F3 = gf.Field(3)
K = FunField(F3)


def raynaud_chart():
    vars = ("x", "y", "z")
    return ChartAlgebra(K, vars, [(parse_poly("z^2 - y^3 - x", vars, K), "z")])


def test_d_gives_the_partials():
    C = ChartAlgebra(K, ("x", "y"), [])
    f = C.poly("x^2*y + t*x")
    w = OneForm.d(C, f)
    assert w.comps == (C.poly("2*x*y + t"), C.poly("x^2"))
    assert w.t_comp == C.poly("x")


def test_reduce_form_raynaud():
    C = raynaud_chart()
    rdx = reduce_form(OneForm.d(C, C.var("x")))
    assert str(rdx) == "2*z*dz"
    # dx is eliminated through the relation; dy and dz survive
    assert list(C.elimination[0]) == [0]


def test_a_chart_eliminates_its_relation_differentials_once(monkeypatch):
    from charfol import differentials
    from charfol.foliation import kernel_of_form

    calls = []
    monkeypatch.setattr(differentials, "_elimination",
                        lambda chart: calls.append(chart) or _elimination(chart))
    C = raynaud_chart()
    kernel_of_form(OneForm.d(C, C.var("z")))  # reduces the form, then reads the chart's
    assert str(reduce_form(OneForm.d(C, C.var("x")))) == "2*z*dz"
    assert list(C.elimination[0]) == [0]
    assert calls == [C]
    assert C.elimination == _elimination(C)


def test_reduce_form_tango_affine():
    vars = ("x", "y")
    C = ChartAlgebra(K, vars, [(parse_poly("y^6 - y - x^5", vars, K), "y")])
    rdy = reduce_form(OneForm.d(C, C.var("y")))
    # -dy - 2x^4 dx = 0 after reduction, so dy = x^4 dx in char 3
    assert rdy.comps == (C.poly("x^4"), C.zero())
    assert rdy.t_comp == C.zero()


def test_elimination_tangle():
    vars = ("x", "y")
    C = ChartAlgebra(
        K,
        vars,
        [(parse_poly("x^2 - y", vars, K), "x"), (parse_poly("y^2 - x", vars, K), "y")],
    )
    with pytest.raises(RuntimeError):
        reduce_form(OneForm.d(C, C.var("x")))


@pytest.mark.parametrize("relations,want", [
    # dx = -dy + 2z dz, then dy = 2w dw rewrites the dx substitution
    ([("z^2 - x - y", "z"), ("w^2 - y", "w")], "2*z*dz + w*dw"),
    # dy = (2/t)w dw + (2/t)y dt first, so the dx substitution takes over
    # its dt part
    ([("w^2 - t*y", "w"), ("z^2 - x - y", "z")],
     "2*z*dz + ((1)/(t))*w*dw + ((1)/(t))*y*dt"),
])
def test_elimination_substitutes_across_relations(relations, want):
    vars = ("x", "y", "z", "w")
    C = ChartAlgebra(K, vars, [(parse_poly(r, vars, K), v) for r, v in relations])
    assert str(reduce_form(OneForm.d(C, C.var("x")))) == want
    subs, flags = _elimination(C)
    assert (sorted(subs), flags) == ([0, 1], ())
    # no registered substitution names an eliminated variable
    assert all(not set(rc) & set(subs) for rc, _ in subs.values())


# --- Cartier operator on F_q(x) ---

Kx3 = FunField(F3, "x")
Kx5 = FunField(gf.Field(5), "x")


def test_monomial_law_small():
    x = Kx3.gen()
    assert is_locally_exact(x**3)
    assert is_locally_exact(x)
    assert not is_locally_exact(x**2)  # 2 = p - 1 mod 3
    assert not is_locally_exact(Kx3.one() / x)


def test_decomposition_recombines():
    rng = random.Random(31)
    for Kx in (Kx3, Kx5):
        for _ in range(20):
            f = Kx.random_element(rng, max_deg=4)
            if f.is_zero():
                continue
            dec = decompose_pth(f)
            assert isinstance(dec, CartierDecomposition)
            p = Kx.field.p
            x = Kx.gen()
            total = Kx.zero()
            for i, c in enumerate(dec.comps):
                total = total + c**p * x**i
            assert total == f


def test_semilinearity():
    rng = random.Random(32)
    for _ in range(60):
        g = Kx3.random_element(rng, max_deg=3)
        f = Kx3.random_element(rng, max_deg=3)
        if f.is_zero():
            continue
        assert cartier(g**3 * f) == g * cartier(f)


def test_cartier_kills_derivatives():
    rng = random.Random(33)
    for _ in range(60):
        g = Kx3.random_element(rng, max_deg=4)
        assert cartier(g.derivative()).is_zero()


def test_cartier_log_derivative_survives():
    # dg/g for g = x has Cartier image dx/x again
    x = Kx3.gen()
    assert cartier(Kx3.one() / x) == Kx3.one() / x
