"""Boundary tracing for the benchmark, installed from outside the package.

Every public boundary named in TIMED and COUNTED is wrapped in place while a
Tracer is installed, and restored when it is removed; nothing under src/
changes. A timed boundary records its calls, the calls that raised, and its
self time: the span's duration minus the part its nested timed spans cover.
gf boundaries run millions of times per operation, so they only count calls;
their time stays in the self time of the span that asked for them.

Spans are aggregated in memory per boundary instead of being stored one by
one, because a single pipeline pair opens over a million of them.
"""

import sys
from time import perf_counter

PACKAGE = "charfol"

# module -> qualnames of its timed boundaries
TIMED = {
    "cli": ("cmd_tango_verify", "cmd_raynaud_ledger", "cmd_foliation",
            "cmd_quotient", "cmd_equiv_check", "RunReport.to_json"),
    "foliation": ("frobenius_factorization_check", "ring_of_constants",
                  "kernel_of_form", "p_power", "is_p_closed_rank1"),
    "_linalg": ("SpanTracker.insert", "kernel_basis", "solve_span"),
    "algebra": ("ChartAlgebra.normal_form", "MultiPoly.evaluate",
                "MultiPoly.__mul__"),
    "descent": ("descend_algebra", "descend_derivation"),
    "differentials": ("reduce_form",),
    "tango": ("verify_tango_structure",),
    "raynaud": ("verify_ruled_formulas", "verify_raynaud_formulas"),
    "series": ("LaurentSeries.__mul__", "LaurentSeries.reciprocal",
               "LaurentSeries.from_ratfunc", "LaurentSeries.pth_root"),
    "adelic": ("verify_equivalence", "random_local_point", "solve_coordinate",
               "make_point", "star_condition", "lift_point",
               "QuotientPresentation.__init__"),
}

# module -> qualnames of boundaries that only count calls
COUNTED = {
    "gf": ("FieldElement.__init__", "FieldElement.__mul__",
           "FieldElement.inverse", "pth_root"),
}

SERIES_MUL = "series.LaurentSeries.__mul__"
FROM_RATFUNC = "series.LaurentSeries.from_ratfunc"
GF_INIT = "gf.FieldElement.__init__"


def boundary_name(module, qualname):
    # metric names may not start with "_", so "_linalg" reads "linalg"
    return f"{module.lstrip('_')}.{qualname}"


def _names(table):
    return [boundary_name(m, q) for m, qs in table.items() for q in qs]


BOUNDARY_NAMES = _names(TIMED) + _names(COUNTED)


class Boundary:
    __slots__ = ("name", "timed", "calls", "raised", "self_s", "hits")

    def __init__(self, name, timed):
        self.name = name
        self.timed = timed
        self.reset()

    def reset(self):
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0
        # boundary-specific tally: constant denominators for from_ratfunc,
        # FieldElement constructions inside the call for series multiply
        self.hits = 0


def _resolve(module, qualname):
    """(owner, attribute name) holding the boundary's defining binding."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps the boundaries of the currently imported charfol modules."""

    def __init__(self):
        counted = set(_names(COUNTED))
        self.boundaries = {n: Boundary(n, n not in counted) for n in BOUNDARY_NAMES}
        self.root_s = 0.0  # time covered by outermost timed spans
        self._stack = []  # per open timed span: time of its nested spans
        self._undo = []

    def reset(self):
        for b in self.boundaries.values():
            b.reset()
        self.root_s = 0.0

    # -- wrappers --

    def _timed(self, fn, b, hit=None, tally=None):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if hit is not None and hit(args):
                b.hits += 1
            before = tally.calls if tally is not None else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                b.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                b.self_s += dt - stack.pop()
                b.calls += 1
                if tally is not None:
                    b.hits += tally.calls - before
                if stack:
                    stack[-1] += dt
                else:
                    tracer.root_s += dt

        return wrapper

    @staticmethod
    def _counted(fn, b):
        def wrapper(*args, **kwargs):
            b.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, original, b):
        fn = original.__func__ if isinstance(original, classmethod) else original
        if not b.timed:
            wrapped = self._counted(fn, b)
        elif b.name == FROM_RATFUNC:
            # args are (cls, r, prec)
            wrapped = self._timed(fn, b, hit=lambda args: args[1].den.degree() == 0)
        elif b.name == SERIES_MUL:
            wrapped = self._timed(fn, b, tally=self.boundaries[GF_INIT])
        else:
            wrapped = self._timed(fn, b)
        return classmethod(wrapped) if isinstance(original, classmethod) else wrapped

    # -- installation --

    def _rebind(self, original, wrapped):
        """Point every binding of original in the package at wrapped.

        Covers module attributes (including names bound by from-imports),
        class attributes (including aliases such as __rmul__ = __mul__) and
        values of module-level dicts such as a dispatch table.
        """
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((setattr, mod, key, val))
                    setattr(mod, key, wrapped)
                elif isinstance(val, type) and val.__module__.startswith(PACKAGE):
                    for ckey, cval in list(vars(val).items()):
                        if cval is original:
                            self._undo.append((setattr, val, ckey, cval))
                            setattr(val, ckey, wrapped)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._undo.append((dict.__setitem__, val, dkey, dval))
                            val[dkey] = wrapped

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for table in (TIMED, COUNTED):
            for module, qualnames in table.items():
                for qualname in qualnames:
                    owner, attr = _resolve(modules[module], qualname)
                    original = vars(owner)[attr]
                    b = self.boundaries[boundary_name(module, qualname)]
                    self._rebind(original, self._wrap(original, b))

    def uninstall(self):
        while self._undo:
            setter, owner, key, val = self._undo.pop()
            setter(owner, key, val)

    def snapshot(self):
        """{name: (calls, raised, self_s, hits)} for every boundary."""
        return {n: (b.calls, b.raised, b.self_s, b.hits)
                for n, b in self.boundaries.items()}
