"""charfol benchmark: one command for every workload, timed or traced.

    python3 perfbench/run.py --workload pipeline-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; charfol is imported from src/. Load
is one client in a closed loop, in this one process and thread: each
operation starts when the previous one has returned. The workload's
operations are made from --seed. One pass runs every operation once; the
first pass is a warm-up whose JSON reports are the reference that every
later pass must reproduce byte for byte.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes (see spans.py), then runs the kernel probes, and prints the
per-layer metrics. Every reported time is scaled to reference speed (see
gauge.py). The last line of stdout is the result object; the line before it
holds the run metadata, the report digest and sample details.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import probes
import spans
from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GRID = ((3, 2), (5, 2), (5, 3), (7, 4))
PIPELINE_TRIALS = 40
EQUIV_P, EQUIV_D = 5, 3
EQUIV_TRIALS = 200
CHARTS = ("raynaud-local", "affine-plane")
FIELD_Q = {"equiv-prime": None, "equiv-ext": 25}
WORKLOADS = ("pipeline-grid",) + tuple(FIELD_Q)
SETUP_ROUNDS = 15

# boundaries that only the pipeline reaches; every other one must record a
# call on every workload, or a wrapper sits on a stale binding
PIPELINE_ONLY = frozenset({
    "cli.cmd_tango_verify", "cli.cmd_raynaud_ledger", "cli.cmd_foliation",
    "cli.cmd_quotient", "foliation.p_power", "foliation.is_p_closed_rank1",
    "tango.verify_tango_structure", "raynaud.verify_ruled_formulas",
    "raynaud.verify_raynaud_formulas",
})
# boundaries no workload reaches: every chart the workloads sample has a
# relation variable that appears linearly with a unit coefficient, so
# random_local_point solves for it exactly and never starts Newton
NOT_REACHED = frozenset({"adelic.solve_coordinate"})


def expected_boundaries(workload):
    """Boundaries that must record at least one call on the workload."""
    expected = set(spans.BOUNDARY_NAMES) - NOT_REACHED
    if workload != "pipeline-grid":
        expected -= PIPELINE_ONLY
    return expected


class Op:
    """One operation: a pipeline pair, or one equiv-check call."""

    __slots__ = ("kind", "p", "d", "chart", "q", "trials", "seed")

    def __init__(self, kind, p, d, trials, seed, chart=None, q=None):
        self.kind = kind
        self.p, self.d = p, d
        self.chart, self.q = chart, q
        self.trials = trials
        self.seed = seed

    def label(self):
        if self.kind == "pipeline":
            return f"pipeline({self.p},{self.d})"
        return f"equiv({self.chart},q={self.q})"


def make_ops(workload, seed):
    rng = random.Random(seed)
    if workload == "pipeline-grid":
        return [Op("pipeline", p, d, PIPELINE_TRIALS, rng.randrange(1 << 31))
                for p, d in GRID]
    return [Op("equiv", EQUIV_P, EQUIV_D, EQUIV_TRIALS, rng.randrange(1 << 31),
               chart=c, q=FIELD_Q[workload]) for c in CHARTS]


def preset_args(workload):
    if workload == "pipeline-grid":
        return [("raynaud-local", p, d, None) for p, d in GRID]
    return [(c, EQUIV_P, EQUIV_D, FIELD_Q[workload]) for c in CHARTS]


def set_up(workload, gauge):
    """Import charfol and build the workload's fields and charts, several
    times over; returns the cli module of the last round and each round's
    (wall, scaled) seconds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m == "charfol" or m.startswith("charfol.")]:
            del sys.modules[name]
        gc.collect()  # the previous round's modules are garbage in cycles
        gauge.start()
        cli = importlib.import_module("charfol.cli")
        for args in preset_args(workload):
            cli.preset_chart(*args)
        _, wall, factor = gauge.stop()
        times.append((wall, wall * factor))
    return cli, times


def execute(cli, op):
    """(exit code, JSON report) of one operation; raises what charfol raises."""
    if op.kind == "pipeline":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["pipeline", "--p", str(op.p), "--d", str(op.d),
                           "--seed", str(op.seed), "--trials", str(op.trials),
                           "--json"])
        return rc, buf.getvalue()
    rep = cli.cmd_equiv_check(p=op.p, d=op.d, chart=op.chart, q=op.q,
                              trials=op.trials, seed=op.seed)
    return (0 if rep.status == cli.PASS else 1), rep.to_json()


# At 40 trials a seed can leave fewer than 30 % of the points on one side of
# the lift dichotomy (3 of 40 seeded pairs in one set of ten runs); the
# report then calls this check inconclusive and the pipeline exits 1. That is
# the right verdict for the sample, so it is the one non-pass check that is
# no failure.
SAMPLING_CHECK = "both-sides-populated"


def _bad_checks(report):
    """Reasons the report counts as failed: fail checks, inconclusive checks
    other than SAMPLING_CHECK, and counterexamples."""
    out = []
    for check in report.get("checks", []):
        name, status = check["name"], check["status"]
        if status == "fail":
            out.append(f"check {name} failed")
        elif status == "inconclusive" and name.rpartition("/")[2] != SAMPLING_CHECK:
            out.append(f"check {name} is inconclusive")
        if check.get("values", {}).get("counterexamples"):
            out.append(f"check {name} has counterexamples")
    return out


def judge(outcome, ref):
    """Failure reasons for one operation against its reference report."""
    if isinstance(outcome, BaseException):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    rc, text = outcome
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit code {rc} without a JSON report"]
    # the README's contract: 0 means pass, 1 means not pass
    want = 0 if report.get("status") == "pass" else 1
    reasons = [] if rc == want else [f"exit code {rc} for status {report.get('status')}"]
    reasons += _bad_checks(report)
    if ref is not None and text != ref:
        reasons.append("report differs from the first pass")
    return reasons


class Runner:
    def __init__(self, cli, ops, gauge):
        self.cli = cli
        self.ops = ops
        self.gauge = gauge
        self.refs = [None] * len(ops)
        self.attempted = 0
        self.failures = []

    def run_pass(self):
        """(gross wall, net wall, scaled) seconds spent in the operations of
        one pass (see gauge.py); checks every report."""
        gross = wall = scaled = 0.0
        for i, op in enumerate(self.ops):
            self.gauge.start()
            try:
                outcome = execute(self.cli, op)
            except (Exception, SystemExit) as e:
                outcome = e
            g, w, factor = self.gauge.stop()
            gross += g
            wall += w
            scaled += w * factor
            self.attempted += 1
            reasons = judge(outcome, self.refs[i])
            if self.refs[i] is None and not isinstance(outcome, BaseException):
                self.refs[i] = outcome[1]
            if reasons:
                self.failures.append({"op": op.label(), "seed": op.seed,
                                      "reasons": reasons})
        return gross, wall, scaled

    def digest(self):
        return hashlib.sha256("".join(r or "" for r in self.refs).encode()).hexdigest()


def tail(samples):
    """The highest percentile with at least ten samples above it."""
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return {"percentile": None, "value": None, "n": len(s)}
    return {"percentile": 100.0 * k / len(s), "value": s[k - 1], "n": len(s)}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "charfol").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args):
    return {
        "python": platform.python_version(),
        "machine": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "charfol_source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(runner, seconds, trials_per_pass):
    passes = []  # (gross wall, net wall, scaled) seconds per pass
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(runner.run_pass())
    wall = [w for _, w, _ in passes]
    scaled = [s for _, _, s in passes]
    metrics = {
        "pipeline_s": metric(statistics.median(scaled), "s"),
        "equiv_trials_per_s": metric(
            statistics.median(trials_per_pass / s for s in scaled), "1/s"),
    }
    detail = {"pass_s": {"median": statistics.median(scaled), "tail": tail(scaled),
                         "samples": scaled},
              "wall_pass_s": {"median": statistics.median(wall), "tail": tail(wall),
                              "samples": wall}}
    return metrics, detail


def traced_run(runner, seconds, workload, seed):
    """Untraced and traced passes in turn, then the kernel probes."""
    tracer = spans.Tracer()
    untraced, traced, unattributed, snaps = [], [], [], []
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        untraced.append(runner.run_pass()[2])
        tracer.reset()
        tracer.install()
        try:
            gross, _, scaled = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.append(scaled)
        # span times include the gauge's kernel runs, spread like the work
        unattributed.append((gross - tracer.root_s) / gross)
        speed = scaled / gross
        snaps.append({n: (c, r, t * speed, h) for n, (c, r, t, h) in tracer.snapshot().items()})

    metrics = {}
    total = {n: [sum(s[n][k] for s in snaps) for k in range(4)] for n in snaps[0]}
    for name, b in tracer.boundaries.items():
        metrics[f"{name}.calls"] = metric(
            statistics.median(s[name][0] for s in snaps), "count")
        if b.timed:
            metrics[f"{name}.self_s"] = metric(
                statistics.median(s[name][2] for s in snaps), "s")

    def share(num, den):
        return num / den if den else 0.0

    calls, _, _, hits = total[spans.FROM_RATFUNC]
    metrics["series.from_ratfunc.const_den_share"] = metric(share(hits, calls), "ratio")
    ops = len(runner.ops)
    metrics["foliation.factorizations_per_pair"] = metric(
        share(total["foliation.frobenius_factorization_check"][0], ops * len(snaps)),
        "ratio")
    calls, raised, _, _ = total["adelic.make_point"]
    metrics["adelic.point_yield"] = metric(share(calls - raised, calls), "ratio")
    calls, raised, _, _ = total["adelic.lift_point"]
    metrics["adelic.lift_share"] = metric(share(calls - raised, calls), "ratio")
    calls, _, _, hits = total[spans.SERIES_MUL]
    metrics["gf.elems_per_series_mul"] = metric(share(hits, calls), "ratio")
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    metrics["trace.unattributed_frac"] = metric(statistics.median(unattributed), "ratio")
    metrics["trace.untraced_pass_s"] = metric(statistics.median(untraced), "s")
    metrics["trace.traced_pass_s"] = metric(statistics.median(traced), "s")
    metrics["trace.traced_passes"] = metric(len(traced), "count")
    metrics["trace.ops_per_pass"] = metric(ops, "count")
    for name, (value, unit) in probes.run(seed, runner.gauge).items():
        metrics[name] = metric(value, unit)

    silent = sorted(n for n in expected_boundaries(workload) if not total[n][0])
    detail = {"silent_boundaries": silent,
              "untraced_pass_s": untraced, "traced_pass_s": traced}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "charfol" / "cli.py").is_file():
        print(f"error: no charfol sources under {SRC}", file=sys.stderr)
        return 2

    with Gauge() as gauge:
        cli, setup_times = set_up(args.workload, gauge)
        ops = make_ops(args.workload, args.seed)
        runner = Runner(cli, ops, gauge)
        runner.run_pass()  # warm-up; its reports are the reference
        trials_per_pass = sum(op.trials for op in ops)
        if args.trace:
            metrics, detail = traced_run(runner, args.seconds, args.workload, args.seed)
            correct = not runner.failures and not detail["silent_boundaries"]
        else:
            metrics, detail = timed_run(runner, args.seconds, trials_per_pass)
            metrics["setup_s"] = metric(statistics.median(s for _, s in setup_times), "s")
            metrics["max_rss_mb"] = metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            correct = not runner.failures

    detail.update({
        "metadata": metadata(args),
        "report_sha256": runner.digest(),
        "ops_failed": {"failed": len(runner.failures), "attempted": runner.attempted},
        "failures": runner.failures[:20],
        "setup_s": {"first_round_wall": setup_times[0][0],
                    "median_wall": statistics.median(w for w, _ in setup_times),
                    "rounds": [s for _, s in setup_times]},
        "reference_kernel_s": {"median": statistics.median(gauge.kernel_s),
                               "min": min(gauge.kernel_s),
                               "max": max(gauge.kernel_s)},
        "ops": [op.label() + f" seed={op.seed}" for op in ops],
    })
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
