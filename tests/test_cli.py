import io
import contextlib
import hashlib
import json
import shlex

import pytest

from fractions import Fraction

from charfol import _linalg, adelic, algebra, cli, descent, foliation, raynaud, series
from test_witnesses import F_SQUARED_1, _gram


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_tango_verify_json():
    code, out = run(["tango-verify", "--p", "3", "--d", "2", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "charfol-report/1"
    assert rep["status"] == "pass"
    names = {c["name"] for c in rep["checks"]}
    assert "ord-dx-at-infinity" in names


def test_tango_verify_human_lists_checks():
    code, out = run(["tango-verify", "--p", "5", "--d", "2"])
    assert code == 0
    assert "ord-dx-at-infinity" in out
    assert "wall time" in out


def test_raynaud_ledger_asserted_items_visible():
    code, out = run(["raynaud-ledger", "--p", "3", "--d", "2", "--json"])
    assert code == 0
    rep = json.loads(out)
    by_status = {}
    for c in rep["checks"]:
        by_status.setdefault(c["status"], []).append(c["name"])
    assert rep["status"] == "pass"
    assert len(by_status.get("asserted-by-paper", [])) >= 3


def test_foliation_and_quotient_commands():
    code, _ = run(["foliation", "--p", "3", "--d", "2", "--chart", "raynaud-local", "--json"])
    assert code == 0
    code, out = run(["quotient", "--p", "3", "--d", "2", "--chart", "affine-plane", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"


def test_descend_exit_codes():
    code, out = run(["descend", "--poly", "y^2 - t*x", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    code, _ = run(["descend", "--poly", "y^2 - t^3*x", "--json"])
    assert code == 0
    # the characteristic is the smallest prime factor of q, whatever its size
    code, _ = run(["descend", "--poly", "y^2 - t^17*x", "--q", "17", "--json"])
    assert code == 0
    code, out = run(["descend", "--poly", "y^2 - t^3*x", "--q", "6", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [("chart", "fail")]


def test_descend_reads_u_as_the_generator_when_q_is_not_prime():
    code, out = run(["descend", "--poly", "y^3 - u*t^3*x", "--q", "9", "--json"])
    assert code == 0
    chart, model = json.loads(out)["checks"]
    assert chart["values"]["vars"] == ["y", "x"]
    assert model["values"]["model"]["relations"] == [{"monic_in": "y", "poly": "y^3 + u*t*x"}]
    # over a prime field u is a coordinate like any other
    code, out = run(["descend", "--poly", "y^3 - u*t^3*x", "--q", "3", "--json"])
    assert code == 0
    assert json.loads(out)["checks"][0]["values"]["vars"] == ["y", "u", "x"]


def test_star_check_frozen_counts():
    code, out = run(["star-check", "--p", "3", "--d", "2", "--chart", "raynaud-local",
                     "--trials", "10", "--seed", "4", "--json"])
    assert code == 0
    rep = json.loads(out)
    vals = next(c["values"] for c in rep["checks"] if c["name"] == "pullbacks-evaluated")
    assert vals["star_true"] == 3
    assert vals["star_false"] == 7


@pytest.mark.parametrize("precision", [1, 2, 3, 4, 13])
def test_star_check_short_precision_is_inconclusive(precision):
    # the horizon is half the precision; the sampler draws terms up to t^7,
    # so dz pulls back to terms up to t^6 and needs precision 14
    code, out = run(["star-check", "--p", "3", "--d", "2", "--precision",
                     str(precision), "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    (check,) = rep["checks"]
    assert check["name"] == "star-horizon"
    assert check["status"] == "inconclusive"
    assert check["values"]["precision"] == precision
    assert check["values"]["min_precision"] == 14
    assert "14" in check["values"]["reason"]


def test_star_check_passes_from_min_precision():
    code, out = run(["star-check", "--p", "3", "--d", "2", "--precision", "14",
                     "--trials", "10", "--seed", "4", "--json"])
    assert code == 0
    vals = json.loads(out)["checks"][0]["values"]
    assert (vals["star_true"], vals["star_false"]) == (3, 7)


def test_equiv_check_affine_plane():
    code, out = run(["equiv-check", "--p", "3", "--d", "2", "--chart", "affine-plane",
                     "--trials", "20", "--seed", "2", "--json"])
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert "zero-counterexamples" in names
    assert rep["status"] == "pass"


@pytest.mark.parametrize("chart", ["raynaud-local", "affine-plane"])
def test_equiv_check_converts_each_coefficient_once(monkeypatch, chart):
    # every polynomial keeps its coefficient series per precision, and a
    # divisor keeps its reciprocal: neither count grows with the trials
    LaurentSeries = series.LaurentSeries
    converted, inverted = [], []
    from_ratfunc, reciprocal = LaurentSeries.from_ratfunc, LaurentSeries.reciprocal

    def counting_from_ratfunc(cls, r, prec):
        converted.append((r, prec))  # kept alive, so ids stay distinct
        return from_ratfunc(r, prec)

    def counting_reciprocal(s):
        inverted.append(s)
        return reciprocal(s)

    monkeypatch.setattr(LaurentSeries, "from_ratfunc", classmethod(counting_from_ratfunc))
    monkeypatch.setattr(LaurentSeries, "reciprocal", counting_reciprocal)
    rep = cli.cmd_equiv_check(p=5, d=3, chart=chart, trials=200, seed=3)
    assert rep.status == "pass"
    assert converted
    assert len({(id(r), prec) for r, prec in converted}) == len(converted)
    assert len(inverted) <= 2


def test_pipeline_pass_and_reject():
    code, out = run(["pipeline", "--p", "3", "--d", "2", "--trials", "20", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert any(c["status"] == "asserted-by-paper" for c in rep["checks"])
    code, _ = run(["pipeline", "--p", "3", "--d", "3", "--trials", "20", "--json"])
    assert code == 1  # 3 does not divide p + 1


# every (p, d) with p an odd prime <= 11, d >= 2 and d | p + 1, and three
# pairs at p = 13
VALID_GRID = [(3, 2), (3, 4), (5, 2), (5, 3), (5, 6), (7, 2), (7, 4), (7, 8),
              (11, 2), (11, 3), (11, 4), (11, 6), (11, 12), (13, 2), (13, 7),
              (13, 14)]


@pytest.mark.parametrize("p,d", VALID_GRID, ids=[f"p{p}-d{d}" for p, d in VALID_GRID])
def test_pipeline_passes_on_valid_grid(p, d):
    code, out = run(["pipeline", "--p", str(p), "--d", str(d), "--trials", "10",
                     "--seed", "7", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    check = next(c for c in rep["checks"]
                 if c["name"] == "equivalence/zero-counterexamples")
    assert check["values"]["counterexamples"] == []


@pytest.mark.parametrize("precision", [1, 5, 6])
def test_tango_verify_short_precision_is_inconclusive(precision):
    # up to n = 6 the branch w = v^6 + ... looks like 0
    code, out = run(["tango-verify", "--p", "3", "--d", "2",
                     "--precision", str(precision), "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    (check,) = rep["checks"]
    assert check["name"] == "structure"
    assert check["status"] == "inconclusive"
    assert check["values"]["precision"] == precision
    # the reason names the precision the curve uses by default
    assert check["values"]["default_precision"] == 7
    assert "precision 7 by default" in check["values"]["reason"]


@pytest.mark.parametrize("precision", [7, 8, 12, 20])
def test_tango_verify_passes_from_n_plus_1(precision):
    code, out = run(["tango-verify", "--p", "3", "--d", "2",
                     "--precision", str(precision), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    check = next(c for c in rep["checks"] if c["name"] == "ord-dx-at-infinity")
    assert check["values"]["ord"] == 18


@pytest.mark.parametrize("command", [
    ["star-check", "--p", "3", "--d", "2"],
    ["equiv-check", "--p", "3", "--d", "2"],
    ["pipeline", "--p", "3", "--d", "2"],
    ["tango-verify", "--p", "3", "--d", "2"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("precision", ["0", "-3", "x"])
def test_bad_precision_exits_2(command, precision, capsys):
    with pytest.raises(SystemExit) as info:
        run(command + ["--precision", precision, "--json"])
    assert info.value.code == 2
    assert "precision must be an integer of at least 1" in capsys.readouterr().err


def test_pipeline_json_deterministic():
    _, a = run(["pipeline", "--p", "3", "--d", "2", "--trials", "15", "--seed", "7", "--json"])
    _, b = run(["pipeline", "--p", "3", "--d", "2", "--trials", "15", "--seed", "7", "--json"])
    assert a == b


def test_parser_is_built_once_and_survives_a_bad_call(monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    first = ["equiv-check", "--p", "3", "--d", "2", "--trials", "10", "--seed", "3", "--json"]
    second = ["raynaud-ledger", "--p", "5", "--d", "2", "--json"]
    monkeypatch.setattr(cli, "_PARSER", None)
    got = [run(first)]
    with pytest.raises(SystemExit) as info:
        run(["equiv-check", "--p", "3", "--d", "2", "--trials", "-1", "--json"])
    assert info.value.code == 2
    got.append(run(second))
    assert len(built) == 1
    fresh = []
    for argv in (first, second):
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    assert got == fresh


# sha256 of the JSON reports, recorded before the pipeline built each stage
# once; the stage chain must reproduce them byte for byte. The three pipeline
# digests and the raynaud-ledger one were recorded again when the ledgers
# listed their classes as definitions instead of comparing each with itself
# and the pipeline dropped its preflight checks; no other check changed.
# Every digest but those of the two quotient runs, descend and the two
# star-check runs was recorded again when each comparison came to be reported
# once: the three tango checks that restated ord-dx-at-infinity, the ledger's
# second T.Sigma and the unconditional passes (kernel-derivation,
# model-and-presentation, trial-log) went, and their data moved onto the
# check each explains; every other record is as it was.
GOLDEN = [
    ("pipeline --p 3 --d 2 --seed 7 --trials 15 --json",
     "4e6ce024dfac93f64a5411db1a32d13705949903d606c00a0cb21ac47425be2a"),
    ("pipeline --p 5 --d 3 --q 25 --seed 7 --trials 15 --json",
     "04b1294851bfa1711057c3d1ace112bedf2204a0a505d40afb3bdf55e809df40"),
    ("quotient --p 5 --d 3 --json",
     "14b6e1b3bc4d443fe1310362a615a1ee0d10471e869549557a9a615b8af28c4e"),
    ("quotient --p 3 --d 2 --chart affine-plane --q 9 --json",
     "3a430f0e01f61c2630199581586d7098456f5a9ced33be56109e9d006a066ce5"),
    ("equiv-check --p 5 --d 3 --chart raynaud-local --trials 15 --seed 7 --json",
     "355e90f5bd2c34b357de2cb993d144e7e9d3316b4c9fe77759ebd31016f7c51d"),
    ("equiv-check --p 3 --d 2 --chart affine-plane --trials 20 --seed 2 --json",
     "8de615eeaa844a4986b451818cc68ddb24c53c57a016c8d6d77238a4198af7ac"),
    # Newton at infinity, over a prime field and over F_9
    ("tango-verify --p 7 --d 4 --json",
     "3b0639fea64aaeab28e6ef844cdc361d1c4fa6a5c4ea8f4f5be9fd823e440ecd"),
    ("tango-verify --p 3 --d 2 --q 9 --json",
     "138c06baade68bbbae08b6c3f86a3438d2fb8870db2ae576dd4f9ab4f21aa500"),
    # the model pair's chart JSON
    ('descend --poly "y^3 - t^3*x" --q 3 --json',
     "63ce29ae30fd9af17a3bdd8343bf4ec951f735dfd2978e84cdf9833b8d3b644c"),
    # extension fields: F_25 on both charts, F_3^10 at the top of the
    # q <= 2^16 domain, and the star count over F_729
    ("equiv-check --p 5 --d 3 --q 25 --trials 50 --seed 3 --chart raynaud-local --json",
     "4d2d97b08ee002130cf2e6890c4a5744abd93b27e39e1059769b375081ac3bd9"),
    ("equiv-check --p 5 --d 3 --q 25 --trials 50 --seed 3 --chart affine-plane --json",
     "f80b2e6901101c3bf6a7a3fdd50d1bb3684c9e3b4f4e5e54af53a9184303870a"),
    ("equiv-check --p 3 --d 2 --q 59049 --trials 20 --seed 1 --json",
     "5eca86ed235ad95e300faf30e134e5f03b003403030a84f84c4a2c66f9f838c5"),
    ("star-check --p 3 --d 2 --q 729 --json",
     "e82bbb25b84a3782917b80f18cf262d840f86d215d6df4a5e9c63caf2598f791"),
    # a factorization degree bound (137) above 3p
    ("pipeline --p 17 --d 2 --trials 5 --seed 1 --json",
     "dd7deff28eb0074a0989ef0bf22be292d56c8704c3ee722dca9655917a1d1d28"),
    # at p = 17 (p-1)^2 >= 256, so series products take two-byte slots;
    # the trial log prints every sampled and lifted point
    ("equiv-check --p 17 --d 2 --trials 50 --seed 1 --verbose --json",
     "83e04284e486775d97f89219c0c67a4bf13d3337a73318514449aa7428887c81"),
    # recorded before series.evaluate became the one substitution of series
    # into chart polynomials: trial logs print every sampled and lifted
    # point, the ledger derives degN = dp - 3 (7 here), and star counts and
    # the chain-rule witness on the affine plane
    ("equiv-check --p 5 --d 3 --trials 40 --seed 1 --verbose --json",
     "5749aa3e2dcadef33bf036330f13447530af3b8240adf6c9d77438623b79eb82"),
    ("raynaud-ledger --p 5 --d 2 --json",
     "72a500ed7db59a01d20ed7580edd43fae8fdbf268d3c552af332662a997a3ffe"),
    ("star-check --p 5 --d 3 --chart affine-plane --trials 30 --seed 2 --json",
     "280eaf36fc76e3f8f9055fd0f76a4b75efebf310f42c45da1acb5c584d62756a"),
    # the extension-field series kernels outside F_25, recorded before they
    # ran inline on the log and Zech tables: p = 7, where -1 = g^24 in F_49,
    # and e = 3 (98 lifts, 102 non-lifts)
    ("equiv-check --p 7 --d 4 --q 49 --trials 200 --seed 1 --json",
     "e8eacf6acdf09140ff896c34d5b3e172bb09aad22a07be7de60e7abb4ef1124f"),
    ("equiv-check --p 3 --d 2 --q 27 --trials 200 --seed 1 --json",
     "dabd1349579251bbb308cbaa9a1a94f8d2dafa1739a2e2bfacd7bb5ef7122f0d"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_report_digests(argv, digest):
    _, out = run(shlex.split(argv))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pipeline_descends_and_factors_once(monkeypatch):
    # the t-free factorization runs over F_q inside the one call, so the
    # constants are computed and spanned once too
    calls = {"descend_algebra": 0, "frobenius_factorization_check": 0,
             "ring_of_constants": 0, "kernel_basis": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every module that binds one of these functions gets the counting wrapper
    for module in (adelic, cli, descent, foliation, _linalg):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, _ = run(["pipeline", "--p", "3", "--d", "2", "--trials", "5", "--json"])
    assert code in (0, 1)
    assert calls == {"descend_algebra": 1, "frobenius_factorization_check": 1,
                     "ring_of_constants": 1, "kernel_basis": 1}


@pytest.mark.parametrize("command,charts", [
    # min_star_precision reads the preset chart's plan, the sampler the
    # descended model's
    ("equiv-check", 2),
    ("star-check", 1),
])
def test_solve_plan_is_built_once_per_chart(monkeypatch, command, charts):
    built = []
    plan = algebra.SolvePlan

    def counting(chart):
        built.append(chart)
        return plan(chart)

    monkeypatch.setattr(algebra, "SolvePlan", counting)
    code, _ = run([command, "--p", "5", "--d", "3", "--trials", "30",
                   "--seed", "1", "--json"])
    assert code in (0, 1)
    assert len({id(c) for c in built}) == len(built) == charts


def test_pipeline_has_no_jobs_flag():
    with pytest.raises(SystemExit) as info:
        run(["pipeline", "--p", "3", "--d", "2", "--jobs", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [
    ["pipeline", "--p", "3", "--d", "2"],
    ["raynaud-ledger", "--p", "3", "--d", "2"],
], ids=lambda c: c[0])
def test_degN_is_derived_not_a_flag(command):
    # the lattice accepts only degN = dp - 3, so the flag could only fail a run
    with pytest.raises(SystemExit) as info:
        run(command + ["--degN", "3"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [
    ["star-check", "--p", "3", "--d", "2"],
    ["equiv-check", "--p", "3", "--d", "2"],
    ["pipeline", "--p", "3", "--d", "2"],
], ids=lambda c: c[0])
def test_negative_trials_exit_2(command, capsys):
    with pytest.raises(SystemExit) as info:
        run(command + ["--trials", "-3", "--json"])
    assert info.value.code == 2
    assert "trials must be an integer of at least 0" in capsys.readouterr().err


def test_star_check_without_trials_is_inconclusive():
    # no sample, no verdict: not a chain rule, nor zero counterexamples
    code, out = run(["star-check", "--p", "3", "--d", "2", "--trials", "0", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert [c["status"] for c in rep["checks"]] == ["inconclusive"] * 2
    check = rep["checks"][0]
    assert (check["name"], check["status"]) == ("pullbacks-evaluated", "inconclusive")
    assert (check["values"]["star_true"], check["values"]["star_false"]) == (0, 0)
    code, out = run(["equiv-check", "--p", "3", "--d", "2", "--trials", "0", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    # sections-generate reads the section family, not the samples
    assert [c["name"] for c in rep["checks"] if c["status"] == "pass"] == ["sections-generate"]
    check = next(c for c in rep["checks"] if c["name"] == "zero-counterexamples")
    assert (check["status"], check["values"]["counterexamples"]) == ("inconclusive", [])


@pytest.mark.parametrize("d", [1, 0, -2])
def test_raynaud_ledger_needs_d_at_least_2(d, capsys):
    code, out = run(["raynaud-ledger", "--p", "5", "--d", str(d), "--json"])
    assert (code, out) == (2, "")
    assert "error: need d >= 2" in capsys.readouterr().err


def test_raynaud_ledger_reports_a_false_identity(monkeypatch):
    # F^2 = 1 breaks the fiber adjunction and nothing else on the ruled lattice
    init = raynaud.SurfaceLattice.__init__

    def corrupted(self, tag, *args):
        init(self, tag, *args)
        if tag == "ruled":
            (hh, hf), (fh, _) = self.gram
            self.gram = ((hh, hf), (fh, Fraction(1)))

    monkeypatch.setattr(raynaud.SurfaceLattice, "__init__", corrupted)
    rep = json.loads(cli.cmd_raynaud_ledger(3, 2).to_json())
    assert rep["status"] == "fail"
    assert [c for c in rep["checks"] if c["status"] != "pass"
            and c["status"] != "asserted-by-paper"] == [
        {"name": "ruled/(K+F), F adjunction", "status": "fail",
         "values": {"lhs": "23", "rhs": "-2"}}]


def test_derived_pA_decomposition_fails_when_sigma_meets_T(monkeypatch):
    # T^2 = degN + 1 gives Sigma.T = p: the second decomposition of p*A,
    # derived from Sigma.T = 0, no longer matches p*A
    init = raynaud.SurfaceLattice.__init__

    def corrupted(self, tag, *args):
        init(self, tag, *args)
        if tag == "raynaud":
            (tt, tf), (ft, ff) = self.gram
            self.gram = ((tt + 1, tf), (ft, ff))

    monkeypatch.setattr(raynaud.SurfaceLattice, "__init__", corrupted)
    rep = json.loads(cli.cmd_raynaud_ledger(3, 2).to_json())
    check = next(c for c in rep["checks"]
                 if c["name"] == "generation/p*A = (d-1)*Sigma + p*d*degN*F")
    assert check == {"name": "generation/p*A = (d-1)*Sigma + p*d*degN*F",
                     "status": "fail",
                     "values": {"lhs": "3*T + 9*F", "rhs": "3*T + 12*F"}}


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (5, 3), (7, 4)])
def test_every_ledger_pass_compares_lhs_with_rhs(p, d):
    code, out = run(["raynaud-ledger", "--p", str(p), "--d", str(d), "--json"])
    assert code == 0
    passed = [c["values"] for c in json.loads(out)["checks"] if c["status"] == "pass"]
    assert passed
    assert all("lhs" in v and "rhs" in v and v["lhs"] == v["rhs"] for v in passed)


# d = 5 does not divide p + 1 = 4: Raynaud's cover does not exist
NEEDS_COVER = ["equiv-check", "star-check", "foliation", "quotient", "pipeline",
               "raynaud-ledger"]


@pytest.mark.parametrize("command", NEEDS_COVER)
def test_d_not_dividing_p_plus_1_fails_the_hypothesis(command):
    code, out = run([command, "--p", "3", "--d", "5", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    checks = rep["checks"]
    if command == "pipeline":
        # the curve needs no cover: its checks run and pass before the ledger
        tango = [c for c in checks if c["name"].startswith("tango/")]
        assert tango and all(c["status"] == "pass" for c in tango)
        assert checks[:len(tango)] == tango
        checks = checks[len(tango):]
        assert "degN" in rep["parameters"] and "verbose" not in rep["parameters"]
    assert checks == [
        {"name": "hypothesis/d-divides-p-plus-1", "status": "fail",
         "values": {"p": 3, "d": 5, "error": "d = 5 does not divide p + 1 = 4"}}]


@pytest.mark.parametrize("command", NEEDS_COVER)
def test_fallback_reports_list_the_commands_parameters(command, monkeypatch):
    extra = {"equiv-check": ["--trials", "3", "--verbose"],
             "pipeline": ["--trials", "3", "--verbose"],
             "star-check": ["--trials", "3"]}.get(command, [])

    def parameters(d):
        code, out = run([command, "--p", "3", "--d", str(d), "--json"] + extra)
        return code, json.loads(out)

    code, passing = parameters(2)
    assert code == 0
    keys = set(passing["parameters"])
    # the failed hypothesis check
    code, rep = parameters(5)
    assert code == 1 and set(rep["parameters"]) == keys

    # the inconclusive error check of a run stopped short of a verdict
    def stopped(**kwargs):
        raise RuntimeError("stopped")

    monkeypatch.setitem(cli._DISPATCH, command, stopped)
    code, rep = parameters(5)
    assert code == 1 and [c["name"] for c in rep["checks"]] == ["error"]
    assert set(rep["parameters"]) == keys


def test_equiv_check_has_no_assert_generated_flag():
    with pytest.raises(SystemExit) as info:
        run(["equiv-check", "--p", "3", "--d", "2", "--assert-generated"])
    assert info.value.code == 2


def test_tango_curve_needs_no_cover():
    code, _ = run(["tango-verify", "--p", "3", "--d", "5", "--json"])
    assert code == 0


@pytest.mark.parametrize("command", NEEDS_COVER + ["tango-verify"])
@pytest.mark.parametrize("p,d,error", [(4, 2, "p = 4 is not prime"),
                                       (2, 3, "need p >= 3"),
                                       (3, 1, "need d >= 2")])
def test_bad_p_or_d_exits_2(command, p, d, error, capsys):
    code, out = run([command, "--p", str(p), "--d", str(d), "--json"])
    assert (code, out) == (2, "")
    assert f"error: {error}" in capsys.readouterr().err


def test_quotient_fails_on_a_wrong_power_certificate():
    ch, D, _ = cli.preset_chart("raynaud-local", 3, 2)
    descended = adelic.descend_and_factor(ch, D)

    def status():
        rep = cli.cmd_quotient(3, 2, descended=descended)
        return next(c["status"] for c in rep.checks
                    if c["name"] == "p-th-powers-are-constants")

    assert status() == "pass"
    certs = descended.factorization.power_certificates
    certs["y"] = certs["y"] + 1
    assert status() == "fail"


@pytest.mark.parametrize("precision", [10, 13])
def test_equiv_check_below_star_precision_is_inconclusive(precision):
    # this sample gave 10 false counterexamples at precision 13: the star
    # horizon 6 ends before the t^6 terms dz pulls back to
    code, out = run(["equiv-check", "--p", "3", "--d", "2", "--trials", "100",
                     "--seed", "1", "--precision", str(precision), "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    (check,) = rep["checks"]
    assert (check["name"], check["status"]) == ("star-horizon", "inconclusive")
    assert check["values"]["precision"] == precision
    assert check["values"]["min_precision"] == 14


def test_equiv_check_from_star_precision_agrees_with_lifts():
    code, out = run(["equiv-check", "--p", "3", "--d", "2", "--trials", "100",
                     "--seed", "1", "--precision", "14", "--json"])
    assert code == 0
    rep = json.loads(out)
    vals = next(c["values"] for c in rep["checks"] if c["name"] == "zero-counterexamples")
    assert vals["counterexamples"] == []
    assert (vals["star_true"], vals["star_false"]) == (54, 46)
    assert (vals["lift_exists"], vals["lift_fails"]) == (46, 54)


def test_pipeline_below_star_precision_is_inconclusive():
    code, out = run(["pipeline", "--p", "3", "--d", "2", "--trials", "20",
                     "--precision", "10", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == []
    check = next(c for c in rep["checks"] if c["name"] == "equivalence/star-horizon")
    assert check["status"] == "inconclusive"
    assert check["values"]["min_precision"] == 14


def test_bad_parameters_exit_2():
    code, _ = run(["tango-verify", "--p", "4", "--d", "2", "--json"])
    assert code == 2


def test_tango_verify_q_0_exits_2(capsys):
    code, out = run(["tango-verify", "--p", "3", "--d", "2", "--q", "0", "--json"])
    assert (code, out) == (2, "")
    assert "error: q = 0 is not a power of p = 3" in capsys.readouterr().err


def test_tango_verify_reports_ord_once():
    code, out = run(["tango-verify", "--p", "3", "--d", "2", "--json"])
    assert code == 0
    smooth, ord_dx = json.loads(out)["checks"]
    assert smooth["name"] == "smoothness"
    assert ord_dx == {"name": "ord-dx-at-infinity", "status": "pass",
                      "values": {"ord": 18, "expected": 18, "canonical_degree": 18,
                                 "genus": 10, "degL": 6}}


def test_human_table_aligns_every_check_name():
    # asserted-by-paper is the longest status; every name starts one column
    code, out = run(["raynaud-ledger", "--p", "5", "--d", "2"])
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  [")]
    assert any("[asserted-by-paper]" in r for r in rows)
    assert len({r.index("]") for r in rows}) == 1


@pytest.mark.parametrize("error,reason", [
    (foliation.DegreeBoundTooSmall("bound 9 is below 12"),
     "DegreeBoundTooSmall: bound 9 is below 12"),
    (MemoryError(), "MemoryError"),
])
def test_runtime_errors_end_in_an_inconclusive_report(monkeypatch, error, reason):
    def stage(**kwargs):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "quotient", stage)
    code, out = run(["quotient", "--p", "3", "--d", "2", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["command"] == "quotient"
    assert rep["status"] == "inconclusive"
    (check,) = rep["checks"]
    assert check["name"] == "error"
    assert check["status"] == "inconclusive"
    assert check["values"]["reason"] == reason
    code, out = run(["quotient", "--p", "3", "--d", "2"])
    assert code == 1
    assert f"reason={reason}" in out


def test_monomial_budget_ends_in_an_inconclusive_report(monkeypatch):
    # the raynaud-local model at (5,2) factors at degree bound 15, where it
    # has 256 reduced monomials
    monkeypatch.setattr(foliation, "MONOMIAL_BUDGET", 255)
    built = []
    reduced_monomials = algebra.ChartAlgebra.reduced_monomials

    def recording(self, max_total, *args):
        built.append(max_total)
        return reduced_monomials(self, max_total, *args)

    monkeypatch.setattr(algebra.ChartAlgebra, "reduced_monomials", recording)
    code, out = run(["pipeline", "--p", "5", "--d", "2", "--trials", "5", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == []
    check = rep["checks"][-1]
    assert check["name"] == "quotient/constants-generated"
    assert check["status"] == "inconclusive"
    assert {k: check["values"][k] for k in ("degree_bound", "monomials_needed", "budget")} \
        == {"degree_bound": 15, "monomials_needed": 256, "budget": 255}
    # the budget is checked before a single monomial is built
    assert built == []
    # the other subcommands that factor end in the inconclusive error check
    for command in ("quotient", "equiv-check"):
        code, out = run([command, "--p", "5", "--d", "2", "--json"])
        assert code == 1
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "error" and check["status"] == "inconclusive"
        assert check["values"]["reason"] == (
            "MonomialBudgetExceeded: the ring of constants up to degree 15 "
            "needs 256 reduced monomials, over the budget of 255")
    monkeypatch.setattr(foliation, "MONOMIAL_BUDGET", 256)
    code, out = run(["pipeline", "--p", "5", "--d", "2", "--trials", "5", "--json"])
    assert code == 0


def test_q_above_the_supported_bound_exits_2(capsys):
    code, out = run(["tango-verify", "--p", "3", "--d", "2", "--q", "177147", "--json"])
    assert (code, out) == (2, "")
    assert "error: q = 177147 exceeds supported bound 65536" in capsys.readouterr().err


# a prime near 10^18: testing its primality or searching for its smallest
# factor by trial division would run for minutes; the bound ends both at once
HUGE_P = "1000000000000000003"


@pytest.mark.parametrize("command", ["tango-verify", "pipeline"])
def test_p_far_above_the_supported_bound_exits_2_at_once(command, capsys):
    code, out = run([command, "--p", HUGE_P, "--d", "2", "--json"])
    assert (code, out) == (2, "")
    assert f"error: q = {HUGE_P} exceeds supported bound 65536" in capsys.readouterr().err


def test_descend_q_far_above_the_supported_bound_fails_its_chart_at_once():
    code, out = run(["descend", "--poly", "y^2 - x", "--q", HUGE_P, "--json"])
    assert code == 1
    (chart,) = json.loads(out)["checks"]
    assert chart == {"name": "chart", "status": "fail",
                     "values": {"error": f"q = {HUGE_P} exceeds supported bound 65536"}}


# A fault of the library, not a bad argument, ends in the command's report
# with one inconclusive error check that names the exception (exit 1).


def _own_parameters(argv):
    code, out = run(argv)
    assert code == 0
    return json.loads(out)["parameters"]


def _error_reason(argv, parameters):
    code, out = run(argv)
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    assert rep["parameters"] == parameters
    (check,) = rep["checks"]
    assert (check["name"], check["status"]) == ("error", "inconclusive")
    return check["values"]["reason"]


@pytest.mark.parametrize("command", ["raynaud-ledger", "pipeline"])
def test_a_non_positive_product_of_A_ends_in_the_error_check(monkeypatch, command):
    # F^2 = 1 on the cover's lattice makes A.Sigma negative
    argv = [command, "--p", "5", "--d", "2", "--json"]
    if command == "pipeline":
        argv += ["--trials", "5"]
    parameters = _own_parameters(argv)
    monkeypatch.setattr(*_gram("raynaud", F_SQUARED_1))
    assert _error_reason(argv, parameters) == "NonPositive: A.Sigma = -210 is not positive"


def test_a_derivation_outside_Kp_fails_descent(monkeypatch):
    # t*D preserves the relation, but t is not a p-th power, so D has no
    # model over K^p
    argvs = {command: [command, "--p", "3", "--d", "2", "--json"] + extra
             for command, extra in (("pipeline", ["--trials", "5"]), ("quotient", []),
                                    ("equiv-check", ["--trials", "5"]))}
    parameters = {command: _own_parameters(argv) for command, argv in argvs.items()}
    preset = cli.preset_chart

    def times_t(name, p, d, q=None):
        ch, D, sections = preset(name, p, d, q)
        t = ch.constant(ch.domain.gen())
        return ch, foliation.Derivation(ch, [t * c for c in D.coeffs]), sections

    monkeypatch.setattr(cli, "preset_chart", times_t)
    error = "coefficient of d/dy has entries outside K^p: t"
    code, out = run(argvs["pipeline"])
    assert code == 1
    rep = json.loads(out)
    assert [c for c in rep["checks"] if c["status"] == "fail"] == [rep["checks"][-1]] == [
        {"name": "descent/model-and-derivation", "status": "fail",
         "values": {"error": error}}]
    # the subcommands with no descent check of their own
    for command in ("quotient", "equiv-check"):
        assert _error_reason(argvs[command], parameters[command]) == \
            f"NoDerivationDescent: {error}"


LIFT_FAULTS = [adelic.UnsupportedPresentation("no image for target coordinate y"),
               TypeError("point does not live on the target chart"),
               AssertionError(),
               series.DivisionByZeroSeries("division by a zero series"),
               series.PrecisionExhausted("no known coefficients"),
               KeyError("y")]


@pytest.mark.parametrize("error", LIFT_FAULTS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("command", ["equiv-check", "pipeline"])
def test_any_exception_of_a_stage_ends_in_the_error_check(monkeypatch, command, error):
    argv = [command, "--p", "3", "--d", "2", "--trials", "5", "--json"]
    parameters = _own_parameters(argv)

    def lift_point(point, pres):
        raise error

    monkeypatch.setattr(adelic, "lift_point", lift_point)
    assert _error_reason(argv, parameters).startswith(type(error).__name__)
