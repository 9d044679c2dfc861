"""Kernel probes: single gf and series operations timed from outside on
seeded inputs, with tracing off.

Each probe reports the median over several repetitions of the mean time of
one call within a repetition, scaled to reference speed (see gauge.py).
"""

import random
import statistics
from time import perf_counter

REPS = 7


def _per_call(gauge, fn, inner):
    """Scaled seconds of one call of fn."""
    times = []
    gauge.start()
    for _ in range(REPS):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    _, _, factor = gauge.stop()
    return statistics.median(times) * factor


def _random_series(series, field, rng, n):
    coeffs = [field.random_element(rng) for _ in range(n)]
    coeffs[0] = field.from_int(rng.randrange(1, field.p))  # a unit, so it inverts
    return series.LaurentSeries(field, 0, coeffs, n)


def run(seed, gauge):
    """{metric name: (value, unit)} for every probe."""
    from charfol import algebra, gf, series

    rng = random.Random(seed)
    fields = {"F5": gf.Field(5), "F25": gf.Field(5, 2)}
    out = {}

    for tag, field in fields.items():
        pairs = [(field.random_element(rng), field.random_element(rng))
                 for _ in range(512)]

        def mul_all(pairs=pairs):
            for a, b in pairs:
                a * b

        out[f"gf.mul_ns.{tag}"] = (
            _per_call(gauge, mul_all, 20) / len(pairs) * 1e9, "ns")

    for n, tag, inner in ((64, "F5", 200), (256, "F5", 50), (64, "F25", 5)):
        field = fields[tag]
        a = _random_series(series, field, rng, n)
        b = _random_series(series, field, rng, n)
        out[f"series.mul_us.N{n}.{tag}"] = (
            _per_call(gauge, lambda: a * b, inner) * 1e6, "us")

    for tag, inner in (("F5", 20), ("F25", 2)):
        a = _random_series(series, fields[tag], rng, 64)
        out[f"series.reciprocal_us.N64.{tag}"] = (
            _per_call(gauge, a.reciprocal, inner) * 1e6, "us")

    const = algebra.FunField(fields["F5"]).from_int(rng.randrange(1, 5))
    out["series.from_ratfunc_us.const"] = (
        _per_call(gauge, lambda: series.LaurentSeries.from_ratfunc(const, 64), 20) * 1e6,
        "us")
    return out
