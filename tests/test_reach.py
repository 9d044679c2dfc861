"""Every function under src/charfol is reached from the command line, or kept
on purpose.

SWEEP runs the CLI in process under sys.setprofile, which records the code
object of every Python call. Every def under src/charfol must be called by
the sweep or appear in KEPT with the reason it stays, and every KEPT entry
must stay uncalled, so the list cannot go stale: a def that only its own
unit tests call is removed, not kept, and a kept def that an input comes to
reach leaves KEPT.

Code objects are matched to ast defs by file, name and line: the def's own
line, or its first decorator's, where a decorated function's code starts.
(Python 3.10 has no co_qualname.) The names below are qualified as
module.Class.function, with .<locals>. before a nested def and :line after
a second def of the same name.
"""

import ast
import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

import charfol
from charfol import cli

SRC = Path(charfol.__file__).resolve().parent


def _sweep():
    argvs = []
    for p, d in ((3, 2), (5, 3)):
        for q in (p, p * p):
            at = f"--p {p} --d {d} --q {q}"
            # the pipeline prints the human report, the subcommands JSON
            argvs.append(f"pipeline {at} --trials 10 --seed 1 --verbose")
            for chart in ("raynaud-local", "affine-plane"):
                on = f"{at} --chart {chart} --json"
                argvs += [f"foliation {on}", f"quotient {on}",
                          f"star-check {on} --trials 4 --seed 1",
                          f"equiv-check {on} --trials 10 --seed 1 --verbose"]
    return argvs + [
        "tango-verify --p 3 --d 2 --precision 5 --json",
        "raynaud-ledger --p 3 --d 2",
        # over MONOMIAL_BUDGET, and below the star precision: inconclusive
        "pipeline --p 61 --d 2 --trials 4 --json",
        "pipeline --p 3 --d 2 --trials 20 --precision 10 --json",
        # outside the domain: a bad argument, a failed hypothesis, q above 2^16
        "pipeline --p 4 --d 2 --json",
        "equiv-check --p 3 --d 5 --trials 3 --json",
        "tango-verify --p 3 --d 2 --q 177147 --json",
        # t-dependent (u is the generator of F_9), no model over K^p, a
        # syntax error, no variables
        "descend --poly 'y^3 - u*t^3*x' --q 9 --json",
        "descend --poly 'y^3 - t*x' --json",
        "descend --poly 'y^3 - t^3*x +' --json",
        "descend --poly '1' --json",
    ]


SWEEP = _sweep()

OPERATOR = "a field or ring operator of a value type"
REPR = "a representation for debugging"
ACCEPTANCE = "an API of tests/test_acceptance.py"
LIBRARY_ERROR = "the error a library caller's invalid input raises; CLI inputs never build one"

KEPT = {
    "adelic.solve_coordinate":
        "the Newton branch of random_local_point, which no preset takes; "
        "a traced perfbench boundary in NOT_REACHED",
    "foliation._try_exact_divide": "finds h when D^[p] = h*D with h != 0 (Rudakov-Shafarevich)",
    "foliation._free_divide": "finds h when D^[p] = h*D with h != 0 (Rudakov-Shafarevich)",
    "algebra.uni_gcd": "removes the univariate content of a kernel in kernel_of_form",
    "algebra.uni_divmod": "removes the univariate content of a kernel in kernel_of_form",
    "algebra.uni_divmod.<locals>.rdeg": "part of uni_divmod",
    "differentials.CartierDecomposition.__init__": ACCEPTANCE + ": the Cartier operator",
    "differentials.decompose_pth": ACCEPTANCE + ": the Cartier operator",
    "differentials.cartier": ACCEPTANCE + ": the Cartier operator",
    "differentials.is_locally_exact": ACCEPTANCE + ": the Cartier operator",
    "tango.PlanarTangoCurve.genus_cross_validated": ACCEPTANCE,
    "tango.PlanarTangoCurve.divisor_of_dx": ACCEPTANCE,
    "descent.frobenius_K": ACCEPTANCE,
    "descent.frobenius_K.<locals>.expand": "part of frobenius_K",
    "gf.frobenius": "the reference Frobenius that frobenius_K and the gf tests apply",
    "gf.Field.element": "builds an element from its coefficients in tests",
    "gf.Field.elements": "the residue search of solve_coordinate",
    "gf.Field.random_element": "draws elements for tests and perfbench probes",
    "algebra.FunField.random_element": "draws elements for tests",
    "algebra.ChartAlgebra.poly": "reads a chart function in tests",
    "foliation.FactorizationReport.to_json": "the form FACTORIZATION_GOLDEN digests",
    "series.LaurentSeries.__init__": "builds a series from elements; perfbench/probes.py uses it",
    "series.LaurentSeries.coeffs": "the coefficients as elements, for tests",
    "series.LaurentSeries.coeff": "one coefficient as an element, for tests",
    "adelic.NotOnVariety.__init__": LIBRARY_ERROR + " (coordinates off the chart)",
    "algebra.UnknownVariable.__init__": LIBRARY_ERROR + " (a name the chart lacks)",
    "gf.Field._fmt_mod": "the modulus text of Field.__repr__ and ReducibleModulus",
    **dict.fromkeys([
        "algebra.MultiPoly.__rsub__",
        "algebra.MultiPoly.__bool__",
        "algebra.RatFunc.__sub__",
        "algebra.RatFunc.__rsub__",
        "algebra.RatFunc.__truediv__",
        "algebra.RatFunc.__rtruediv__",
        "algebra.FunField.__hash__",
        "gf.Field.__hash__",
        "gf.FieldElement.__sub__",
        "gf.FieldElement.__rsub__",
        "gf.FieldElement.__rtruediv__",
        "gf.FieldElement.__hash__",
        "raynaud.DivClass.__sub__",
        "raynaud.DivClass.__neg__",
        "series.LaurentSeries.__rsub__",
        "series.LaurentSeries.__rtruediv__",
        "series.LaurentSeries.__eq__",
    ], OPERATOR),
    **dict.fromkeys([
        "adelic.LocalPoint.__repr__",
        "algebra.MultiPoly.__repr__",
        "algebra.RatFunc.__repr__",
        "algebra.FunField.__repr__",
        "algebra.Relation.__repr__",
        "algebra.ChartAlgebra.__repr__",
        "descent.ModelPair.__repr__",
        "differentials.OneForm.__repr__",
        "differentials.CartierDecomposition.__repr__",
        "foliation.Derivation.__str__",
        "foliation.Derivation.__repr__",
        "gf.Field.__repr__",
        "gf.FieldElement.__repr__",
        "raynaud.SurfaceLattice.__repr__",
        "raynaud.DivClass.__repr__",
        "series.LaurentSeries.__repr__",
        "tango.PlanarTangoCurve.__repr__",
    ], REPR),
}


def _defs():
    """{qualified name: (file, name, lines)} for every def under src/charfol,
    lines holding the def's line and its first decorator's."""
    defs = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if name in defs:  # a second def of one name, in another branch
                    name += f":{child.lineno}"
                lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                defs[name] = (str(path), child.name, lines)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem + ".")
    return defs


@pytest.fixture(scope="module")
def reached():
    """The qualified names of the defs the sweep calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        # main builds its parser on its first call in a process only
        mp.setattr(cli, "_PARSER", None)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for argv in SWEEP:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(shlex.split(argv))
        finally:
            sys.setprofile(previous)
    keys = {(os.path.realpath(c.co_filename), c.co_name, c.co_firstlineno) for c in codes}
    return {name for name, (path, short, lines) in _defs().items()
            if any((path, short, line) in keys for line in lines)}


def test_every_def_is_reached_or_kept(reached):
    missing = sorted(set(_defs()) - reached - set(KEPT))
    assert not missing, f"no CLI input reaches these and KEPT gives no reason: {missing}"


def test_every_kept_def_exists_and_is_unreached(reached):
    assert all(KEPT.values())
    assert not set(KEPT) - set(_defs()), sorted(set(KEPT) - set(_defs()))
    assert not set(KEPT) & reached, sorted(set(KEPT) & reached)
