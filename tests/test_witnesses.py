"""Every check a report can carry has a witness that it can fail.

WITNESSES is keyed by every check name a subcommand or the pipeline emits,
except the asserted-by-paper records; a pipeline name is looked up with its
stage prefix stripped. Each entry is an argv and either nothing, when the
input alone makes the check fail or stay inconclusive, or one monkeypatch
(object, attribute, value) of a library function, class or constant. A monkeypatched
check must not fail without its patch, so the mutation is what turns it.
"""

import contextlib
import io
import json
import shlex
from fractions import Fraction

import pytest

from charfol import adelic, cli, foliation, raynaud, tango
from charfol.algebra import ChartAlgebra, MultiPoly, parse_poly
from charfol.differentials import OneForm
from charfol.foliation import Derivation, kernel_of_form
from charfol.series import LaurentSeries

# the prefixes cmd_pipeline gives the reports of the stages it extends with
STAGES = ("tango", "lattice", "foliation", "quotient", "equivalence")
NOT_PASSED = ("fail", "inconclusive")


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(shlex.split(argv) + ["--json"])
    return json.loads(buf.getvalue())


def bare(name):
    stage, _, rest = name.partition("/")
    return rest if stage in STAGES else name


# ---------------------------------------------------------------------------
# mutations


def _gram(tag, change):
    """The lattice of that tag with its Gram matrix ((TT, TF), (FT, FF))
    replaced by change(gram): a wrong intersection form."""
    init = raynaud.SurfaceLattice.__init__

    def corrupted(self, t, *args):
        init(self, t, *args)
        if t == tag:
            self.gram = change(self.gram)

    return raynaud.SurfaceLattice, "__init__", corrupted


SELF_PLUS_1 = lambda g: ((g[0][0] + 1, g[0][1]), g[1])
F_SQUARED_1 = lambda g: (g[0], (g[1][0], Fraction(1)))
T_DOT_F_2 = lambda g: ((g[0][0], Fraction(2)), (Fraction(2), g[1][1]))


def _plane(images, section):
    """preset_chart replaced by the affine plane over F_q with the derivation
    of the given (x, y) images and one section, each read by parse_poly
    (u is the generator of F_q when q is not prime)."""
    preset = cli.preset_chart

    def plane(name, p, d, q=None):
        ch, _, _ = preset("affine-plane", p, d, q)
        read = lambda s: parse_poly(s, ch.vars, ch.domain)
        return ch, Derivation(ch, [read(s) for s in images]), \
            [OneForm(ch, [read(s) for s in section])]

    return cli, "preset_chart", plane


def _local(relation):
    """preset_chart replaced by raynaud-local on another relation, formatted
    with p and d, with the kernel of dz and dz as its section."""
    preset = cli.preset_chart

    def local(name, p, d, q=None):
        ch, _, _ = preset("raynaud-local", p, d, q)
        ch = ChartAlgebra(ch.domain, ch.vars,
                          [(parse_poly(relation.format(p=p, d=d), ch.vars, ch.domain), "z")])
        dz = OneForm.d(ch, ch.var("z"))
        return ch, kernel_of_form(dz), [dz]

    return cli, "preset_chart", local


def _singular_affine_chart():
    """The Tango curve with y^n - y^2 - x^(n-1) on its affine chart, singular
    at the origin."""
    init = tango.PlanarTangoCurve.__init__

    def singular(self, p, d, field=None):
        init(self, p, d, field)
        x, y = (MultiPoly.variable(self.field, ("x", "y"), v) for v in "xy")
        self.affine = ChartAlgebra(self.field, ("x", "y"),
                                   [(y**self.n - y**2 - x ** (self.n - 1), "y")])

    return tango.PlanarTangoCurve, "__init__", singular


def _branch_with_term_of_order_1():
    """The branch at infinity plus v: w of order 1, so dx = -w^(n-3)/F_w dv
    has order n - 3, not n(n-3), as on a curve without the Tango property.
    The smoothness certificate reads the relation, not the branch."""
    branch = tango.PlanarTangoCurve.branch_at_infinity

    def shifted(self, prec=None):
        w = branch(self, prec)
        return w + LaurentSeries.t_power(self.field, 1, w.prec)

    return tango.PlanarTangoCurve, "branch_at_infinity", shifted


def _wrong_certificate():
    """descend_and_factor whose x^p certificate for y is off by 1."""
    descend = cli.descend_and_factor

    def altered(chart, D):
        out = descend(chart, D)
        certs = out.factorization.power_certificates
        certs["y"] = certs["y"] + 1
        return out

    return cli, "descend_and_factor", altered


def _leaky_constants():
    """ring_of_constants that also returns the last variable, which D moves."""
    constants = foliation.ring_of_constants
    return foliation, "ring_of_constants", \
        lambda D, bound: constants(D, bound) + [foliation._vector(D.chart.var("y"))]


def _negated_star():
    star = adelic.star_condition
    return adelic, "star_condition", lambda point, sections: not star(point, sections)


def _doubled_pullback():
    pullback = cli.pullback_form
    return cli, "pullback_form", lambda point, form: 2 * pullback(point, form)


def _scale_section_coefficient_only():
    """c * (a*T + b*F) = c*a*T + b*F."""
    return raynaud.DivClass, "__rmul__", \
        lambda self, c: raynaud.DivClass(self.lattice, c * self.a, self.b)


LEDGER = "raynaud-ledger --p 5 --d 2"
BUDGET = (foliation, "MONOMIAL_BUDGET", 255)  # (5,2) needs 256 monomials

WITNESSES = {
    # tango-verify
    "smoothness": ("tango-verify --p 3 --d 2", _singular_affine_chart()),
    "ord-dx-at-infinity": ("tango-verify --p 3 --d 2", _branch_with_term_of_order_1()),
    "structure": ("tango-verify --p 3 --d 2 --precision 5", None),
    # raynaud-ledger
    "ruled/(K+S), S adjunction": (LEDGER, _gram("ruled", SELF_PLUS_1)),
    "ruled/(K+F), F adjunction": (LEDGER, _gram("ruled", F_SQUARED_1)),
    "ruled/S disjoint from Gamma": (LEDGER, _gram("ruled", SELF_PLUS_1)),
    "raynaud/(K_X+F), F fiber adjunction": (LEDGER, _gram("raynaud", T_DOT_F_2)),
    "raynaud/Sigma, T disjoint": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "raynaud/Sigma self-intersection": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "raynaud/(K_X+T), T section adjunction": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "ample/A^2 = (d^2-1)*degN": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "ample/A.T = d*degN": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "ample/A.F = d-1": (LEDGER, _gram("raynaud", T_DOT_F_2)),
    "ample/A.Sigma = p*degN": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "generation/p*A = p(d-1)*T + p*degN*F": (LEDGER, _scale_section_coefficient_only()),
    "generation/p*A = (d-1)*Sigma + p*d*degN*F": (LEDGER, _gram("raynaud", SELF_PLUS_1)),
    "hypothesis/d-divides-p-plus-1": ("raynaud-ledger --p 3 --d 5", None),
    # foliation: D = d/dx kills no dx; x d/dx + u*y d/dy is not p-closed
    "pairing-with-section-0": ("foliation --p 3 --d 2 --chart affine-plane",
                               _plane(("1", "0"), ("1", "0"))),
    "pairing-with-p-power-0": ("foliation --p 3 --d 2 --chart affine-plane --q 9",
                               _plane(("x", "u*y"), ("u*y", "-x"))),
    "p-closed-rank-1": ("foliation --p 3 --d 2 --chart affine-plane --q 9",
                        _plane(("x", "u*y"), ("u*y", "-x"))),
    # pipeline stages of its own
    "local-chart/saturation-identity": ("pipeline --p 3 --d 2 --trials 5",
                                        _local("z^{d} - y^{p} - 2*x")),
    "descent/model-and-derivation": ("pipeline --p 3 --d 2 --trials 5",
                                     _local("z^{d} - y^{p} - t*x")),
    # quotient
    "constants-generated": ("pipeline --p 5 --d 2 --trials 5", BUDGET),
    "generators-are-constants": ("quotient --p 3 --d 2 --chart affine-plane",
                                 _leaky_constants()),
    "constants-proper-subring": ("quotient --p 3 --d 2 --chart affine-plane",
                                 _plane(("0", "0"), ("1", "0"))),
    "p-th-powers-are-constants": ("quotient --p 3 --d 2", _wrong_certificate()),
    # the Euler derivation's constants need more than one relation
    "quotient-chart": ("quotient --p 3 --d 2 --chart affine-plane",
                       _plane(("x", "y"), ("y", "-x"))),
    "error": ("quotient --p 5 --d 2", BUDGET),
    # descend
    "chart": ("descend --poly 'y^2 - t^3*x' --q 6", None),
    "model-over-Kp": ("descend --poly 'y^2 - t*x'", None),
    # star-check and equiv-check
    "star-horizon": ("star-check --p 3 --d 2 --precision 10", None),
    "pullbacks-evaluated": ("star-check --p 3 --d 2 --trials 0", None),
    "chain-rule-spot-check": ("star-check --p 3 --d 2 --trials 5", _doubled_pullback()),
    "zero-counterexamples": ("equiv-check --p 3 --d 2 --trials 5", _negated_star()),
    "both-sides-populated": ("equiv-check --p 3 --d 2 --trials 1", None),
    "sections-generate": ("equiv-check --p 3 --d 2 --chart affine-plane --trials 5",
                          _plane(("0", "1"), ("x", "0"))),
}


def _statuses(argv, name):
    return [c["status"] for c in run(argv)["checks"] if bare(c["name"]) == name]


@pytest.mark.parametrize("name", WITNESSES)
def test_every_check_has_a_witness(name, monkeypatch):
    argv, patch = WITNESSES[name]
    if patch is not None:
        assert not set(_statuses(argv, name)) & set(NOT_PASSED)
        monkeypatch.setattr(*patch)
    got = _statuses(argv, name)
    assert set(got) & set(NOT_PASSED), (argv, got)


def _reported_names(monkeypatch):
    runs = []
    for chart in ("raynaud-local", "affine-plane"):
        for pdq in ("--p 3 --d 2 --q 9", "--p 5 --d 3 --q 25"):
            runs += [f"{command} {pdq} --chart {chart}" for command in
                     ("foliation", "quotient", "star-check --trials 5",
                      "equiv-check --trials 5")]
    for pdq in ("--p 3 --d 2 --q 9", "--p 5 --d 3 --q 25"):
        runs += [f"pipeline {pdq} --trials 5", f"tango-verify {pdq}"]
    runs += [
        "raynaud-ledger --p 5 --d 2",
        "equiv-check --p 3 --d 2 --trials 5 --verbose",
        "pipeline --p 3 --d 2 --trials 5 --verbose",
        "star-check --p 3 --d 2 --trials 0",
        "equiv-check --p 3 --d 2 --trials 0",
        "pipeline --p 3 --d 2 --trials 0",
        "star-check --p 3 --d 2 --precision 10",
        "equiv-check --p 3 --d 2 --precision 10",
        "pipeline --p 3 --d 2 --trials 5 --precision 10",
        "tango-verify --p 3 --d 2 --precision 5",
        "descend --poly 'y^3 - t^3*x'",
        "descend --poly 'y^2 - t*x'",
        "descend --poly 'y^2 - t^3*x' --q 6",
    ]
    runs += [f"{command} --p 3 --d 5" for command in
             ("tango-verify", "raynaud-ledger", "foliation", "quotient",
              "star-check --trials 5", "equiv-check --trials 5", "pipeline --trials 5")]
    reports = [run(argv) for argv in runs]
    # the budget verdict of the pipeline, and the error report of quotient
    monkeypatch.setattr(*BUDGET)
    reports += [run("pipeline --p 5 --d 2 --trials 5"), run("quotient --p 5 --d 2")]
    return {bare(c["name"]) for rep in reports for c in rep["checks"]
            if c["status"] != "asserted-by-paper"}


def test_the_witness_table_names_every_reported_check(monkeypatch):
    names = _reported_names(monkeypatch)
    missing, unreported = sorted(names - set(WITNESSES)), sorted(set(WITNESSES) - names)
    assert not missing, f"checks without a witness: {missing}"
    assert not unreported, f"witnesses of checks no report carries: {unreported}"
