"""Descent of coefficients from K = F_q(t) into K^p.

A chart over K whose relation coefficients are p-th powers is the base change
of a chart with rooted coefficients; this module checks membership in K^p,
extracts p-th roots, and descends algebras and derivations. Each root is
verified once, by pth_root_K's postcondition s^p == r.
"""

from . import gf
from .algebra import MultiPoly, RatFunc, FunField, ChartAlgebra


class NotAPthPower(ValueError):
    pass


class NoDescent(ValueError):
    pass


class NoDerivationDescent(NoDescent):
    pass


def in_Kp(r):
    """Membership in K^p by exponent residues of the reduced representative.

    F_q is perfect, so a reduced fraction is a p-th power exactly when both
    numerator and denominator have all exponents divisible by p. Independent
    of RatFunc.derivative on purpose; the two are cross-checked in tests.
    """
    p = r.field.p
    return all(k % p == 0 for (k,) in r.num.terms) and all(
        k % p == 0 for (k,) in r.den.terms
    )


def outside_Kp(chart):
    """One line per relation coefficient of the chart that is not in K^p."""
    return [
        f"relation {j}: coefficient {c} of monomial {e}"
        for j, rel in enumerate(chart.relations)
        for e, c in sorted(rel.poly.terms.items())
        if not in_Kp(c)
    ]


def pth_root_K(r):
    """The unique s in K with s^p = r; NotAPthPower when r is not in K^p."""
    s = RatFunc(*(multipoly_pth_root(f, gf.pth_root) for f in (r.num, r.den)))
    if s ** r.field.p != r:
        raise AssertionError("p-th root postcondition failed")
    return s


def frobenius_K(r):
    """r^(p) computed structurally: t -> t^p with coefficient Frobenius."""
    p = r.field.p

    def expand(poly):
        return MultiPoly(
            poly.domain,
            poly.vars,
            {(k * p,): gf.frobenius(c) for (k,), c in poly.terms.items()},
        )

    return RatFunc(expand(r.num), expand(r.den))


def multipoly_pth_root(f, coeff_root):
    """Root a polynomial that is a p-th power: exponents /p, coefficients rooted."""
    p = f.domain.p
    terms = {}
    for e, c in f.terms.items():
        if any(k % p for k in e):
            raise NotAPthPower(f"monomial exponents {e} not divisible by {p}")
        terms[tuple(k // p for k in e)] = coeff_root(c)
    return MultiPoly(f.domain, f.vars, terms)


class ModelPair:
    """A chart over K with p-th-power coefficients and its rooted model."""

    __slots__ = ("original", "model", "provenance")

    def __init__(self, original, model, provenance):
        self.original = original
        self.model = model
        self.provenance = provenance

    def to_json(self):
        return {
            "original": self.original.to_json(),
            "model": self.model.to_json(),
            "provenance": self.provenance,
        }

    def __repr__(self):
        return f"<model pair {self.model!r} of {self.original!r}>"


def descend_algebra(A):
    """Root every relation coefficient once; NoDescent lists the obstructions.

    The root of each coefficient is unique (Frobenius is injective on K) and
    pth_root_K verifies it, so the model's base change along t -> t^p with
    coefficient Frobenius (frobenius_K) recovers A.
    """
    if not isinstance(A.domain, FunField):
        raise ValueError("descent applies to charts over F_q(t)")
    offenders = outside_Kp(A)
    if offenders:
        raise NoDescent("coefficients outside K^p: " + "; ".join(offenders))

    rooted = []
    provenance = []
    for rel in A.relations:
        tilde = rel.poly.map_coeffs(pth_root_K)
        rooted.append((tilde, rel.var))
        provenance.append(
            {
                str(e): {"coefficient": str(c), "root": str(tilde.terms[e])}
                for e, c in sorted(rel.poly.terms.items())
            }
        )
    return ModelPair(A, ChartAlgebra(A.domain, A.vars, rooted), provenance)


def descend_derivation(D, pair):
    """Root the K-coefficients of D; the result must preserve the model ideal."""
    if D.chart != pair.original:
        raise ValueError("derivation does not live on the pair's original chart")
    new_coeffs = []
    for name, g in zip(D.chart.vars, D.coeffs):
        bad = [c for c in g.terms.values() if not in_Kp(c)]
        if bad:
            raise NoDerivationDescent(
                f"coefficient of d/d{name} has entries outside K^p: "
                + ", ".join(str(c) for c in bad)
            )
        new_coeffs.append(pair.model.nf(g.map_coeffs(pth_root_K)))
    return type(D)(pair.model, dict(zip(D.chart.vars, new_coeffs)))
