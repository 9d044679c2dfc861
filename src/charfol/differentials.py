"""Kahler 1-forms on charts, reduction by relation differentials, and the
Cartier operator on F_q(x).

A form on a chart with variables x_1..x_n over K carries one coefficient per
dx_i plus a dt coefficient when the constant field is F_q(t).
"""

from . import gf
from .algebra import MultiPoly, RatFunc, FunField


def _has_t(chart):
    return isinstance(chart.domain, FunField)


def _coeff_t_derivative(poly):
    return poly.map_coeffs(lambda c: c.derivative())


class OneForm:
    __slots__ = ("chart", "comps", "t_comp", "unreduced_at")

    def __init__(self, chart, comps, t_comp=None, unreduced_at=()):
        self.chart = chart
        self.comps = tuple(chart.nf(c if isinstance(c, MultiPoly) else chart.constant(c)) for c in comps)
        if _has_t(chart):
            if t_comp is None:
                t_comp = chart.zero()
            self.t_comp = chart.nf(t_comp)
        else:
            if t_comp is not None and not t_comp.is_zero():
                raise ValueError("dt component only exists over F_q(t)")
            self.t_comp = None
        self.unreduced_at = tuple(unreduced_at)

    @classmethod
    def d(cls, chart, f):
        """The differential of a chart function."""
        g = chart.nf(f)
        comps = [g.partial(v) for v in chart.vars]
        t_comp = _coeff_t_derivative(g) if _has_t(chart) else None
        return cls(chart, comps, t_comp)

    def __str__(self):
        parts = []
        for name, c in zip(self.chart.vars, self.comps):
            if not c.is_zero():
                cs = str(c)
                if " " in cs or "+" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*d{name}" if cs != "1" else f"d{name}")
        if self.t_comp is not None and not self.t_comp.is_zero():
            cs = str(self.t_comp)
            if " " in cs or "+" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*dt" if cs != "1" else "dt")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<1-form {self} on {self.chart!r}>"


def _elimination(chart):
    """Substitutions induced by d(relation) = 0.

    Returns (subs, flags): subs maps an eliminated variable index to
    (dict index -> coefficient, dt coefficient or None) expressing its
    differential in the remaining ones; flags lists relation indices whose
    partials admit no unit, left unreduced. Registered substitutions never
    reference an eliminated variable. The chart keeps the result as
    chart.elimination, built on first use.
    """
    subs = {}
    flags = []
    has_t = _has_t(chart)
    for j, rel in enumerate(chart.relations):
        partials = [chart.nf(rel.poly.partial(v)) for v in chart.vars]
        tpart = chart.nf(_coeff_t_derivative(rel.poly)) if has_t else None
        elim = None
        for i in [rel.index] + [k for k in range(len(chart.vars)) if k != rel.index]:
            if partials[i].is_constant() and not partials[i].is_zero():
                elim = i
                break
        if elim is None:
            flags.append(j)
            continue
        scale = -(partials[elim].constant_value().inverse())
        coeffs = {}
        for i, pi in enumerate(partials):
            if i != elim and not pi.is_zero():
                coeffs[i] = chart.nf(pi.map_coeffs(lambda c, s=scale: c * s))
        tco = None
        if tpart is not None and not tpart.is_zero():
            tco = chart.nf(tpart.map_coeffs(lambda c, s=scale: c * s))
        # rewrite the new expression through what is already eliminated
        for r in list(coeffs):
            if r in subs:
                c = coeffs.pop(r)
                rc, rt = subs[r]
                for i, pi in rc.items():
                    coeffs[i] = chart.nf(coeffs.get(i, chart.zero()) + c * pi)
                if rt is not None:
                    tco = chart.nf((tco if tco is not None else chart.zero()) + c * rt)
        if elim in coeffs:
            raise RuntimeError(
                f"relation {j} feeds back into its own eliminated differential; "
                "the relation system is not triangular"
            )
        # rewrite existing substitutions that mention the new variable
        for key, (rc, rt) in list(subs.items()):
            if elim in rc:
                c = rc.pop(elim)
                for i, pi in coeffs.items():
                    rc[i] = chart.nf(rc.get(i, chart.zero()) + c * pi)
                if tco is not None:
                    rt = chart.nf((rt if rt is not None else chart.zero()) + c * tco)
                subs[key] = (rc, rt)
        subs[elim] = (coeffs, tco)
    return subs, tuple(flags)


def reduce_form(form):
    """Canonical representative modulo the span of relation differentials."""
    chart = form.chart
    subs, flags = chart.elimination
    comps = list(form.comps)
    t = form.t_comp
    for elim, (coeffs, tco) in subs.items():
        c = comps[elim]
        if c.is_zero():
            continue
        for i, pi in coeffs.items():
            comps[i] = comps[i] + c * pi
        if tco is not None:
            t = t + c * tco
        comps[elim] = chart.zero()
    return OneForm(chart, comps, t, unreduced_at=flags)


# ---------------------------------------------------------------------------
# Cartier operator on rational functions of one variable over F_q


class CartierDecomposition:
    """f = sum_i comps[i]^p x^i with 0 <= i < p, verified on construction."""

    __slots__ = ("var", "p", "comps")

    def __init__(self, var, p, comps, original):
        self.var = var
        self.p = p
        self.comps = tuple(comps)
        x = RatFunc(MultiPoly.variable(original.field, original.num.vars, var))
        total = None
        for i, fi in enumerate(self.comps):
            term = fi**p * x**i
            total = term if total is None else total + term
        if total != original:
            raise AssertionError("p-th power decomposition does not recompose")

    def __repr__(self):
        inner = ", ".join(f"({c})^{self.p}*{self.var}^{i}" for i, c in enumerate(self.comps))
        return f"<decomposition {inner}>"


def decompose_pth(f):
    """Split f = u/v into sum f_i^p x^i via u*v^(p-1) and exponent residues."""
    p = f.field.p
    U = f.num * f.den ** (p - 1)
    buckets = [{} for _ in range(p)]
    for (k,), c in U.terms.items():
        buckets[k % p][((k - k % p) // p,)] = gf.pth_root(c)
    comps = [
        RatFunc(MultiPoly(f.field, f.num.vars, b), f.den) if b else RatFunc(
            MultiPoly.zero(f.field, f.num.vars)
        )
        for b in buckets
    ]
    return CartierDecomposition(f.var, p, comps, f)


def cartier(f):
    """The Cartier image of f dx, as the coefficient function f_(p-1)."""
    return decompose_pth(f).comps[f.field.p - 1]


def is_locally_exact(f):
    """f dx = dg has a solution iff the Cartier image vanishes."""
    return cartier(f).is_zero()
