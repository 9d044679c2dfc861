import io
import contextlib
import hashlib
import json
import shlex

import pytest

from fractions import Fraction

from charfol import _linalg, adelic, algebra, cli, descent, foliation, raynaud, series


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


@pytest.mark.parametrize("precision", [1, 5, 6, 8, 12, 20])
def test_tango_verify_short_precision_is_inconclusive(precision):
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
    assert check["values"]["default_precision"] == 33
    assert "33" in check["values"]["reason"]


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
GOLDEN = [
    ("pipeline --p 3 --d 2 --seed 7 --trials 15 --json",
     "2c012cfa270fa38158046eb6b6d78b90e624c9dc61c3e9ab891fd8e72958dd0b"),
    ("pipeline --p 5 --d 3 --q 25 --seed 7 --trials 15 --json",
     "073a4655ebbe1c9d11eae68c19a1d66d1355ff597e9f3f749268437e004a9160"),
    ("quotient --p 5 --d 3 --json",
     "14b6e1b3bc4d443fe1310362a615a1ee0d10471e869549557a9a615b8af28c4e"),
    ("quotient --p 3 --d 2 --chart affine-plane --q 9 --json",
     "3a430f0e01f61c2630199581586d7098456f5a9ced33be56109e9d006a066ce5"),
    ("equiv-check --p 5 --d 3 --chart raynaud-local --trials 15 --seed 7 --json",
     "4b024f9824e45e456d00e474d65ebc2f8192c73b549b172da58a0cfb476b049a"),
    ("equiv-check --p 3 --d 2 --chart affine-plane --trials 20 --seed 2 --json",
     "754d3da90b9f9351515245c4b9139402bb3a26a33e775bc4111bc66f9834dac6"),
    # Newton at infinity, over a prime field and over F_9
    ("tango-verify --p 7 --d 4 --json",
     "7a3d9107bfdb566231ed621ef7a1b1dc26e3e7e8a69c1fec91479d12db607158"),
    ("tango-verify --p 3 --d 2 --q 9 --json",
     "85a90eac918345175a9bc243d51cc97741f98f5a88f18d0bec6ecffd9b4cafce"),
    # the model pair's chart JSON
    ('descend --poly "y^3 - t^3*x" --q 3 --json',
     "63ce29ae30fd9af17a3bdd8343bf4ec951f735dfd2978e84cdf9833b8d3b644c"),
    # extension fields: F_25 on both charts, F_3^10 at the top of the
    # q <= 2^16 domain, and the star count over F_729
    ("equiv-check --p 5 --d 3 --q 25 --trials 50 --seed 3 --chart raynaud-local --json",
     "6b0f8ec5d560a0e7a7c749625da9edac1a22e56e7beb8adc52fb7423cda1427e"),
    ("equiv-check --p 5 --d 3 --q 25 --trials 50 --seed 3 --chart affine-plane --json",
     "c363fa44bcf506e3214cd57503ab6334c78fae58ad05d0fffd6f0ab37390a7b8"),
    ("equiv-check --p 3 --d 2 --q 59049 --trials 20 --seed 1 --json",
     "008fbb4f7721b913c082615a916d0fb7d8b3014fd82c7f33a33f06293d60b4c9"),
    ("star-check --p 3 --d 2 --q 729 --json",
     "e82bbb25b84a3782917b80f18cf262d840f86d215d6df4a5e9c63caf2598f791"),
    # a factorization degree bound (137) above 3p
    ("pipeline --p 17 --d 2 --trials 5 --seed 1 --json",
     "738ee20d82453599110af6e0c072e74f7931bd8db696873d9b7d5a529eaf4e32"),
    # at p = 17 (p-1)^2 >= 256, so series products take two-byte slots;
    # the trial log prints every sampled and lifted point
    ("equiv-check --p 17 --d 2 --trials 50 --seed 1 --verbose --json",
     "5a818ed3850e471e763e17ff5f404917bfadc2140887983e5a52a2ab61834546"),
    # recorded before series.evaluate became the one substitution of series
    # into chart polynomials: trial logs print every sampled and lifted
    # point, the ledger derives degN = dp - 3 (7 here), and star counts and
    # the chain-rule witness on the affine plane
    ("equiv-check --p 5 --d 3 --trials 40 --seed 1 --verbose --json",
     "b97a91925afd85dd900ca956d33a0bed9f8ab1973ad1644866dd84c49c8a2be0"),
    ("raynaud-ledger --p 5 --d 2 --json",
     "43a394f3b4caee69c22a421dedcd887b973f6f8083a779ec2dd7c0467e9414c5"),
    ("star-check --p 5 --d 3 --chart affine-plane --trials 30 --seed 2 --json",
     "280eaf36fc76e3f8f9055fd0f76a4b75efebf310f42c45da1acb5c584d62756a"),
    # the extension-field series kernels outside F_25, recorded before they
    # ran inline on the log and Zech tables: p = 7, where -1 = g^24 in F_49,
    # and e = 3 (98 lifts, 102 non-lifts)
    ("equiv-check --p 7 --d 4 --q 49 --trials 200 --seed 1 --json",
     "7b77e10c479fec06e5071e1160f1383f08bfa17f1e910d115c84d585b9b54fa1"),
    ("equiv-check --p 3 --d 2 --q 27 --trials 200 --seed 1 --json",
     "80b8ee15f929c802be5fd5a1e57e0d8c1fb171e6a939c52b6195d7e218dbc158"),
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
    code, out = run(["star-check", "--p", "3", "--d", "2", "--trials", "0", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "inconclusive"
    check = rep["checks"][0]
    assert (check["name"], check["status"]) == ("pullbacks-evaluated", "inconclusive")
    assert (check["values"]["star_true"], check["values"]["star_false"]) == (0, 0)


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

    def recording(self, max_total):
        built.append(max_total)
        return reduced_monomials(self, max_total)

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
