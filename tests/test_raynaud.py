from fractions import Fraction

import pytest

from charfol.raynaud import (
    DivClass,
    FormulaMismatch,
    HypothesisViolated,
    LatticeMismatch,
    NonPositive,
    SurfaceLattice,
    ample_class_A,
    global_generation_numerics,
    verify_raynaud_formulas,
    verify_ruled_formulas,
)

PARAMS = [(3, 2, 3), (5, 2, 7)]


def test_lattice_products():
    lat = SurfaceLattice("ruled", 3, 2, 3)
    H, F = lat.section(), lat.fiber()
    assert H.dot(H) == Fraction(6)  # degL = d*degN
    assert H.dot(F) == Fraction(1)
    assert F.dot(F) == Fraction(0)


def test_lattice_rejects_mixed_classes():
    a = SurfaceLattice("ruled", 3, 2, 3).section()
    b = SurfaceLattice("raynaud", 3, 2, 3).section()
    with pytest.raises(LatticeMismatch):
        a.dot(b)


def test_genus_consistency_guard():
    # 2g-2 = 18 for (3,2) but p*d*degN = 24: the lattice refuses to exist
    with pytest.raises(FormulaMismatch):
        SurfaceLattice("raynaud", 3, 2, 4)


def test_ruled_ledger():
    for p, d, degn in PARAMS:
        rep = verify_ruled_formulas(p, d, degn)
        assert rep["ok"]
        assert all(c["pass"] for c in rep["checks"])


def test_raynaud_ledger_and_fiber_invariants():
    rep = verify_raynaud_formulas(3, 2, 3)
    assert rep["ok"]
    assert rep["deg_K_F"] == 0
    assert rep["fiber_arithmetic_genus"] == 1
    rep = verify_raynaud_formulas(5, 2, 7)
    assert rep["ok"]
    assert rep["deg_K_F"] == 2
    assert rep["fiber_arithmetic_genus"] == 2


def test_sigma_section_disjoint():
    for p, d, degn in PARAMS:
        rep = verify_raynaud_formulas(p, d, degn)
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["Sigma, T disjoint"]["pass"]


def test_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        verify_raynaud_formulas(5, 4, 1)


def test_ample_positivity():
    A, rep = ample_class_A(3, 2, 3)
    assert rep["positivity"] == {"A^2": "9", "A.T": "6", "A.F": "1", "A.Sigma": "9"}
    A, rep = ample_class_A(5, 2, 7)
    assert rep["positivity"]["A^2"] == "21"
    assert rep["positivity"]["A.Sigma"] == "35"


def test_d_equal_1_rejected():
    # A.F = d-1 degenerates to 0
    with pytest.raises(NonPositive):
        ample_class_A(3, 1, 3)


@pytest.mark.parametrize("ledger", [verify_ruled_formulas, verify_raynaud_formulas])
def test_ledgers_need_d_at_least_2(ledger):
    # the curve's error, before the lattice's genus is needed
    with pytest.raises(ValueError, match="need d >= 2"):
        ledger(5, 1, 2)


def test_ledgers_list_definitions_and_check_only_identities():
    ruled = verify_ruled_formulas(3, 2, 3)
    assert ruled["definitions"] == {"S": "H", "Gamma": "3*H + -18*F", "K": "-2*H + 24*F"}
    ray = verify_raynaud_formulas(3, 2, 3)
    assert ray["definitions"] == {"K_X": "15*F", "Sigma": "3*T + -9*F"}
    gen = global_generation_numerics(3, 2, 3)
    names = {c["name"] for rep in (ruled, ray, gen) for c in rep["checks"]}
    # each compared a class, or p(d-1) at d = 2, with itself
    assert names.isdisjoint({
        "S = H", "Gamma = p*H - p*degL*F", "K = -2*H + (p+1)*degL*F",
        "K_X = (pd-p-d-1)*T + (d+p)*degN*F", "Sigma = p*T - p*degN*F",
        "fiber degree of the pencil map = p"})


def test_pA_decompositions_coincide():
    for p, d, degn in PARAMS:
        rep = global_generation_numerics(p, d, degn)
        assert rep["ok"]
        names = [c["name"] for c in rep["checks"]]
        assert "p*A = p(d-1)*T + p*degN*F" in names
        assert "p*A = (d-1)*Sigma + p*d*degN*F" in names
        assert len(rep["assumptions_passed_through"]) == 3


def test_exact_rational_arithmetic():
    lat = SurfaceLattice("raynaud", 3, 2, 3)
    half = Fraction(1, 2) * lat.section()
    assert half.dot(lat.fiber()) == Fraction(1, 2)


@pytest.mark.parametrize("p, d, degn", [(3, 2, 3), (5, 3, 12), (7, 4, 25)])
def test_every_ledger_compares_integers(p, d, degn, monkeypatch):
    from charfol import raynaud

    compared = []
    check = raynaud._check

    def recording(report, name, lhs, rhs):
        compared.append((lhs, rhs))
        check(report, name, lhs, rhs)

    monkeypatch.setattr(raynaud, "_check", recording)
    verify_ruled_formulas(p, d, degn)
    verify_raynaud_formulas(p, d, degn)
    ample_class_A(p, d, degn)
    global_generation_numerics(p, d, degn)
    assert len(compared) == 3 + 4 + 4 + 2
    for lhs, rhs in compared:
        for side in (lhs, rhs):
            # the generation ledger compares classes, the others numbers
            values = (side.a, side.b) if isinstance(side, DivClass) else (side,)
            assert all(type(x) is int for x in values), (lhs, rhs)
