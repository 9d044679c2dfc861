"""End-to-end acceptance checks.

Each test prints one PASS/FAIL verdict line straight to the real stdout so
the verdicts survive pytest's capture and show up in piped output.
"""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

from charfol import gf
from charfol.algebra import ChartAlgebra, FunField, MultiPoly, parse_poly
from charfol.adelic import (
    descend_and_factor,
    pullback_form,
    random_local_point,
    verify_equivalence,
)
from charfol.cli import cmd_pipeline
from charfol.descent import (
    NoDescent,
    descend_algebra,
    descend_derivation,
    frobenius_K,
    in_Kp,
    pth_root_K,
)
from charfol.differentials import OneForm, cartier, is_locally_exact, reduce_form
from charfol.foliation import (
    Derivation,
    frobenius_factorization_check,
    is_p_closed_rank1,
    kernel_of_form,
    p_power,
    pairing,
)
from charfol.raynaud import (
    NonPositive,
    ample_class_A,
    global_generation_numerics,
    verify_raynaud_formulas,
    verify_ruled_formulas,
)
from charfol.tango import PlanarTangoCurve, verify_tango_structure


def announce(n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d}: {verdict} - {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n}: {detail}"


def raynaud_chart(p, d, field=None):
    K = FunField(field or gf.Field(p))
    vars = ("x", "y", "z")
    return ChartAlgebra(K, vars, [(parse_poly(f"z^{d} - y^{p} - x", vars, K), "z")])


def test_criterion_01_tango_divisor_orders():
    want = {(3, 2): 18, (5, 2): 70, (3, 4): 108}
    slowest = 0.0
    ok = True
    for (p, d), expect in want.items():
        t0 = time.perf_counter()
        got = PlanarTangoCurve(p, d).divisor_of_dx()["at_infinity"]
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        ok = ok and got == expect and dt < 5.0
    announce(1, ok, f"ord(dx) at infinity = 18, 70, 108 exactly; slowest run {slowest:.2f}s")


def test_criterion_02_tango_equality():
    ok = True
    for p, d in [(3, 2), (5, 2), (3, 4)]:
        rep = verify_tango_structure(p, d)
        g = PlanarTangoCurve(p, d).genus_cross_validated()  # must not raise
        ok = ok and rep["ok"] and rep["tango_equality"]
        ok = ok and p * rep["degL"] == 2 * g - 2
    announce(2, ok, "p*degL = 2g-2 with series-validated genus for (3,2), (5,2), (3,4)")


def test_criterion_03_surface_ledgers():
    ok = True
    kfs = []
    for p, d, degn, want_kf in [(3, 2, 3, 0), (5, 2, 7, 2)]:
        ruled = verify_ruled_formulas(p, d, degn)
        ray = verify_raynaud_formulas(p, d, degn)
        gen = global_generation_numerics(p, d, degn)
        ok = ok and ruled["ok"] and ray["ok"] and gen["ok"]
        ok = ok and ray["deg_K_F"] == want_kf
        kfs.append(ray["deg_K_F"])
        disjoint = next(c for c in ray["checks"] if c["name"] == "Sigma, T disjoint")
        ok = ok and disjoint["lhs"] == "0" and disjoint["rhs"] == "0"
        pa = [c for c in gen["checks"] if c["name"].startswith("p*A")]
        ok = ok and len(pa) == 2
        ok = ok and all(c["lhs"] == c["rhs"] for c in pa)
        ok = ok and pa[0]["lhs"] == pa[1]["lhs"]
    announce(3, ok, f"all ledger identities exact; deg K_F = {kfs[0]} and {kfs[1]}; "
                    "Sigma.T = 0; both pA decompositions coincide")


def test_criterion_04_ampleness():
    ok = True
    for p, d, degn in [(3, 2, 3), (5, 2, 7)]:
        _, rep = ample_class_A(p, d, degn)
        vals = {k: Fraction(v) for k, v in rep["positivity"].items()}
        ok = ok and rep["ok"]
        ok = ok and all(v > 0 for v in vals.values())
        ok = ok and vals["A^2"] == (d * d - 1) * degn
    rejected = False
    try:
        ample_class_A(3, 1, 3)
    except NonPositive:
        rejected = True
    ok = ok and rejected
    announce(4, ok, "A^2, A.T, A.F, A.Sigma positive for both parameter sets; d = 1 rejected")


def test_criterion_05_saturation_identity():
    C = raynaud_chart(3, 2)
    dx = OneForm.d(C, C.var("x"))
    rdx = reduce_form(dx)
    symbolic = str(rdx) == "2*z*dz"
    rng = random.Random(505)
    agree = 0
    for _ in range(50):
        pt = random_local_point(C, rng, 64)
        a = pullback_form(pt, dx)
        b = pullback_form(pt, rdx)
        if not (a - b).nonzero_before(32):
            agree += 1
    ok = symbolic and agree == 50
    announce(5, ok, f"reduce_form(dx) = 2*z*dz symbolically; pullbacks agree to order 32 "
                    f"on {agree}/50 random local points")


def _random_poly(ch, rng):
    K = ch.domain
    out = ch.zero()
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(0, 3) for _ in ch.vars)
        c = K.from_int(rng.randrange(1, K.p)) * K.gen() ** rng.randrange(0, 2)
        out = out + MultiPoly(K, ch.vars, {exps: c})
    return ch.nf(out)


def test_criterion_06_foliation_properties():
    C = raynaud_chart(3, 2)
    dz = OneForm.d(C, C.var("z"))
    D = kernel_of_form(dz)
    closed, _ = is_p_closed_rank1(D)
    ok = pairing(dz, D).is_zero()
    ok = ok and pairing(dz, p_power(D)).is_zero()
    ok = ok and closed

    samples = 0
    for p, count in ((3, 120), (5, 80)):
        K = FunField(gf.Field(p))
        A2 = ChartAlgebra(K, ("x", "y"), [])
        rng = random.Random(600 + p)
        for _ in range(count):
            D2 = Derivation(A2, [_random_poly(A2, rng), _random_poly(A2, rng)])
            fast = p_power(D2)
            for i, v in enumerate(A2.vars):
                f = A2.var(v)
                for _ in range(p):
                    f = D2.apply(f)
                ok = ok and f == fast.coeffs[i]
            samples += 1
    announce(6, ok, f"kernel of dz kills dz, its p-th power kills dz, rank-1 p-closed; "
                    f"p_power matches literal p-fold application on {samples} random derivations")


def test_criterion_07_frobenius_factorization():
    K = FunField(gf.Field(3))
    A2 = ChartAlgebra(K, ("x", "y"), [])
    Dy = Derivation(A2, [A2.zero(), A2.one()])
    C = raynaud_chart(3, 2)
    Dk = kernel_of_form(OneForm.d(C, C.var("z")))
    ok = True
    for D in (Dy, Dk):
        rep = frobenius_factorization_check(D)
        ok = ok and rep.generated_up_to_bound and rep.quotient is not None
        ok = ok and set(rep.power_certificates) == set(D.chart.vars)
        for _, poly in rep.generators:
            ok = ok and D.apply(poly).is_zero()
        # the inclusion A^D < A is proper: D is not the zero derivation
        ok = ok and any(not D.apply(D.chart.var(v)).is_zero() for v in D.chart.vars)
    announce(7, ok, "A^p inside A^D inside A certified for d/dy on the plane and for the "
                    "Raynaud kernel; every emitted generator re-verified D-constant")


def test_criterion_08_descent_suite():
    rng = random.Random(808)
    K3 = FunField(gf.Field(3))
    ok = True
    for _ in range(500):
        f = K3.random_element(rng, max_deg=2)
        ok = ok and pth_root_K(frobenius_K(f)) == f
    hits = 0
    for i in range(500):
        f = K3.random_element(rng, max_deg=2)
        if i % 5 == 0:
            f = f ** 3  # make sure the K^p side of the biconditional gets traffic
        member = in_Kp(f)
        hits += member
        ok = ok and member == f.derivative().is_zero()
    ok = ok and 0 < hits < 500

    K9 = FunField(gf.Field(3, 2))
    test_algebras = [
        ChartAlgebra(K3, ("x", "y"), [(parse_poly("y^6 - y - x^5", ("x", "y"), K3), "y")]),
        raynaud_chart(3, 2),
        ChartAlgebra(K3, ("x", "y"), [(parse_poly("y^2 - t^3*x", ("x", "y"), K3), "y")]),
        ChartAlgebra(K9, ("x", "y"), [(parse_poly("y^2 - t^3*x", ("x", "y"), K9), "y")]),
    ]
    for ch in test_algebras:
        pair = descend_algebra(ch)
        for rel, mrel in zip(ch.relations, pair.model.relations):
            ok = ok and mrel.poly.map_coeffs(frobenius_K) == rel.poly
            # cross path: the coefficientwise root lands on the same model
            ok = ok and rel.poly.map_coeffs(pth_root_K) == mrel.poly
        again = descend_algebra(ch)
        ok = ok and all(
            a.poly == b.poly for a, b in zip(pair.model.relations, again.model.relations)
        )

    ch = test_algebras[2]
    D = Derivation(ch, [ch.poly("2*y"), ch.poly("t^3")])
    pair = descend_algebra(ch)
    Dm = descend_derivation(D, pair)
    ok = ok and all(
        g.map_coeffs(frobenius_K) == orig for g, orig in zip(Dm.coeffs, D.coeffs)
    )
    refused = False
    try:
        descend_algebra(
            ChartAlgebra(K3, ("x", "y"), [(parse_poly("y^2 - t*x", ("x", "y"), K3), "y")])
        )
    except NoDescent:
        refused = True
    ok = ok and refused
    announce(8, ok, "500 p-th root round trips exact; in_Kp matches d/dt = 0 on 500 samples; "
                    "descents round trip and agree across both code paths on 4 algebras")


def test_criterion_09_equivalence_trials():
    K = FunField(gf.Field(3))
    A2 = ChartAlgebra(K, ("x", "y"), [])
    Dy = Derivation(A2, [A2.zero(), A2.one()])
    dx = OneForm.d(A2, A2.var("x"))
    C = raynaud_chart(3, 2)
    dz = OneForm.d(C, C.var("z"))
    Dk = kernel_of_form(dz)

    ok = True
    timings = []
    buckets = []
    for chart, D, sections in ((A2, Dy, [dx]), (C, Dk, [dz])):
        t0 = time.perf_counter()
        rep = verify_equivalence(descend_and_factor(chart, D), sections, trials=200, seed=909)
        dt = time.perf_counter() - t0
        timings.append(dt)
        buckets.append((rep["lift_exists"], rep["lift_fails"]))
        ok = ok and rep["status"] == "pass"
        ok = ok and rep["counterexamples"] == []
        ok = ok and rep["trials"] == 200 and rep["buckets_ok"]
        ok = ok and rep["lift_exists"] * 10 >= 3 * 200
        ok = ok and rep["lift_fails"] * 10 >= 3 * 200
        ok = ok and dt < 60.0
    announce(9, ok, f"0 counterexamples in 200 trials per chart; buckets {buckets[0]} and "
                    f"{buckets[1]}; runtimes {timings[0]:.1f}s and {timings[1]:.1f}s")


def test_criterion_10_cartier_suite():
    ok = True
    for p in (3, 5, 7):
        Kx = FunField(gf.Field(p), var="x")
        x = Kx.gen()
        for i in range(51):
            ok = ok and is_locally_exact(x ** i) == (i % p != p - 1)

    rng = random.Random(1010)
    pairs = lins = 0
    for p, count in ((3, 67), (5, 67), (7, 66)):
        Kx = FunField(gf.Field(p), var="x")
        for _ in range(count):
            f = Kx.random_element(rng, max_deg=2)
            g = Kx.random_element(rng, max_deg=2)
            ok = ok and cartier(g ** p * f) == g * cartier(f)
            pairs += 1
        for _ in range(count):
            g = Kx.random_element(rng, max_deg=3)
            ok = ok and cartier(g.derivative()).is_zero()
            lins += 1
    announce(10, ok, f"x^i dx exact iff i != -1 mod p for i <= 50, p in 3,5,7; semilinear on "
                     f"{pairs} pairs; kills {lins} exact forms")


def test_criterion_11_pipeline_determinism():
    a = cmd_pipeline(3, 2, seed=7).to_json()
    b = cmd_pipeline(3, 2, seed=7).to_json()
    ok = a.encode() == b.encode()
    ok = ok and json.loads(a)["schema"] == "charfol-report/1"
    ok = ok and json.loads(a)["status"] == "pass"
    announce(11, ok, "pipeline (3,2,seed=7) run twice: byte-identical JSON, overall pass")
