"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The workload tests run one untraced and one traced pass of every workload,
about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from gauge import Gauge  # noqa: E402


@pytest.fixture(scope="module")
def gauge():
    with Gauge() as g:
        yield g


@pytest.fixture(scope="module")
def cli(gauge):
    module, _ = run.set_up("equiv-prime", gauge)
    return module


def _bindings(originals):
    """Every (holder, key) in the package that still binds an original."""
    ids = {id(o) for o in originals}
    found = []
    for mod in spans._package_modules():
        for key, val in vars(mod).items():
            if id(val) in ids:
                found.append((mod.__name__, key))
            elif isinstance(val, type) and val.__module__.startswith("charfol"):
                found += [(val.__qualname__, k) for k, v in vars(val).items() if id(v) in ids]
            elif isinstance(val, dict):
                found += [(f"{mod.__name__}.{key}", k) for k, v in val.items() if id(v) in ids]
    return found


def _originals():
    out = []
    modules = {m.__name__.rpartition(".")[2]: m for m in spans._package_modules()}
    for table in (spans.TIMED, spans.COUNTED):
        for module, qualnames in table.items():
            for qualname in qualnames:
                owner, attr = spans._resolve(modules[module], qualname)
                out.append(vars(owner)[attr])
    return out


def test_install_rebinds_every_binding_and_uninstall_restores(cli):
    originals = _originals()
    before = _bindings(originals)
    # from-imports, class aliases and the dispatch table all bind boundaries
    assert ("charfol.cli", "descend_algebra") in before
    assert ("charfol.adelic", "descend_derivation") in before
    assert ("LaurentSeries", "__rmul__") in before
    assert ("charfol.cli._DISPATCH", "equiv-check") in before
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _bindings(originals) == []
    finally:
        tracer.uninstall()
    assert _bindings(originals) == before


def test_self_times_partition_the_covered_time(cli):
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.cmd_quotient(3, 2)
    finally:
        tracer.uninstall()
    b = tracer.boundaries
    assert b["cli.cmd_quotient"].calls == 1
    assert b["foliation.frobenius_factorization_check"].calls == 1
    assert b["linalg.SpanTracker.insert"].calls > 0
    timed = [x for x in b.values() if x.timed]
    assert all(x.self_s >= -1e-9 for x in timed)
    assert sum(x.self_s for x in timed) == pytest.approx(tracer.root_s, rel=1e-9)
    assert b["cli.cmd_quotient"].self_s < tracer.root_s
    assert b["gf.FieldElement.__mul__"].calls > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_reproduces_reports_and_reaches_every_boundary(workload, gauge):
    module, _ = run.set_up(workload, gauge)
    runner = run.Runner(module, run.make_ops(workload, 3), gauge)
    runner.run_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.ops)
    silent = [n for n in run.expected_boundaries(workload)
              if not tracer.boundaries[n].calls]
    assert silent == []


def test_tail_needs_ten_samples_above():
    assert run.tail([1.0] * 10)["value"] is None
    got = run.tail([float(i) for i in range(1, 21)])
    assert got == {"percentile": 50.0, "value": 10.0, "n": 20}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equiv-prime",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _report(*checks, status="pass"):
    return json.dumps({"status": status, "checks": [
        {"name": n, "status": st, "values": v} for n, st, v in checks]})


def test_judge_allows_only_the_sampling_check_to_be_inconclusive():
    ok = ("equivalence/zero-counterexamples", "pass", {"counterexamples": []})
    sampled = ("equivalence/both-sides-populated", "inconclusive", {})
    bound = ("quotient/constants-generated", "inconclusive", {})
    assert run.judge((0, _report(ok)), None) == []
    assert run.judge((1, _report(ok, sampled, status="inconclusive")), None) == []
    assert run.judge((0, _report(ok, sampled, status="inconclusive")), None) != []
    assert run.judge((1, _report(ok, bound, status="inconclusive")), None) != []
    bad = ("equivalence/zero-counterexamples", "fail", {"counterexamples": [{"trial": 3}]})
    assert len(run.judge((1, _report(bad, status="fail")), None)) == 2
    assert run.judge((0, _report(ok)), _report(ok, sampled)) != []
    assert run.judge(ValueError("x"), None) != []
