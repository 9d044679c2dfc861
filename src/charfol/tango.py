"""A family of smooth plane-model curves in characteristic p whose
coordinate differential is concentrated in a single point with multiplicity
divisible by p.

For n = d*p the affine model is y^n - y - x^(n-1) = 0. Substituting
x = 1/w, y = v/w and clearing denominators gives v^n - v*w^(n-1) - w = 0,
a second chart containing the one point at infinity, at (v, w) = (0, 0).
"""

from . import gf
from .algebra import MultiPoly, ChartAlgebra
from .series import LaurentSeries, evaluate, implicit_series


class GenusMismatch(AssertionError):
    pass


def check_domain(p, d):
    if p < 3:
        raise gf.DomainError("need p >= 3")
    if d < 2:
        raise gf.DomainError("need d >= 2: for d = 1 the model is rational")
    gf.check_field(p)


def plane_genus(n):
    """Genus of a smooth plane curve of degree n, as the model of degree
    n = d*p is."""
    return (n - 1) * (n - 2) // 2


class PlanarTangoCurve:
    __slots__ = ("field", "p", "d", "n", "affine", "infinity")

    def __init__(self, p, d, field=None):
        check_domain(p, d)
        if field is None:
            field = gf.Field(p)
        if field.p != p:
            raise ValueError(f"field has characteristic {field.p}, expected {p}")
        self.field = field
        self.p = p
        self.d = d
        self.n = d * p
        x = MultiPoly.variable(field, ("x", "y"), "x")
        y = MultiPoly.variable(field, ("x", "y"), "y")
        self.affine = ChartAlgebra(field, ("x", "y"), [(y**self.n - y - x ** (self.n - 1), "y")])
        v = MultiPoly.variable(field, ("v", "w"), "v")
        w = MultiPoly.variable(field, ("v", "w"), "w")
        self.infinity = ChartAlgebra(
            field, ("v", "w"), [(v**self.n - v * w ** (self.n - 1) - w, "v")]
        )

    def genus(self):
        return plane_genus(self.n)

    def genus_cross_validated(self, prec=None):
        """Genus, with the degree formula checked against the series
        computation of deg div(dx) = 2g - 2."""
        g = self.genus()
        ord_dx = self.ord_dx_at_infinity(prec)
        if ord_dx != 2 * g - 2:
            raise GenusMismatch(
                f"degree formula gives g = {g} but div(dx) has degree {ord_dx}"
            )
        return g

    def canonical_degree(self):
        return 2 * self.genus() - 2

    def default_precision(self):
        # the branch is w = v^n + O(v^(n+1)), and ord_dx_at_infinity needs
        # no more of it: every valuation in F_v/(F_w*w^2) is then fixed
        return self.n + 1

    def branch_at_infinity(self, prec=None):
        """w as a series in v along the unique point with w = 0."""
        if prec is None:
            prec = self.default_precision()
        F = self.infinity.relations[0].poly
        return implicit_series(F, prec)

    def ord_dx_at_infinity(self, prec=None):
        """Vanishing order of dx at the infinite point, read off the
        relation F = v^n - v*w^(n-1) - w along the branch w(v).

        x = 1/w, so dx = -w'/w^2 dv, and F(v, w(v)) = 0 gives
        w' = -F_v/F_w; F_w(0,0) = -1 is a unit, so v is a local parameter
        and ord dx = val(F_v/(F_w*w^2)), where F_v = -w^(n-1) since p | n.
        With w = v^n + O(v^(n+1)), each factor's valuation is fixed, so
        precision n + 1 decides it. Differentiating 1/w instead loses its
        leading term, d(v^(-n)) = 0, and needs the branch to n + (n-1)^2.
        """
        w = self.branch_at_infinity(prec)
        F = self.infinity.relations[0].poly
        at = {"v": LaurentSeries.t_power(self.field, 1, w.prec), "w": w}
        Fv, Fw = (evaluate(F.partial(name), at, w.prec) for name in ("v", "w"))
        return (Fv / (Fw * w**2)).val()

    def divisor_of_dx(self, prec=None):
        """dx has no zeros or poles on the affine chart (dy = -(n-1)x^(n-2) dx
        with the relation's y-partial the unit -1), so everything sits at
        infinity."""
        return {"at_infinity": self.ord_dx_at_infinity(prec)}

    def smoothness_certificate(self):
        """Exact identities that force both charts to be nonsingular.

        Affine: the y-partial of the relation is the constant -1, a unit, so
        no point is singular. Infinity: the v-partial equals -w^(n-1), hence a
        singular point would need w = 0; restricting the relation to w = 0
        leaves v^n, forcing v = 0; but the w-partial at (0,0) is -1.
        """
        field = self.field
        f = self.affine.relations[0].poly
        fy = f.partial("y")
        if not (fy.is_constant() and fy.constant_value() == -field.one()):
            raise AssertionError(f"affine y-partial is {fy}, expected -1")

        F = self.infinity.relations[0].poly
        Fv = F.partial("v")
        w = MultiPoly.variable(field, ("v", "w"), "w")
        if Fv != -(w ** (self.n - 1)):
            raise AssertionError(f"infinity v-partial is {Fv}, expected -w^{self.n - 1}")
        v = MultiPoly.variable(field, ("v", "w"), "v")
        F_at_w0 = MultiPoly(
            field, ("v", "w"), {e: c for e, c in F.terms.items() if e[1] == 0}
        )
        if F_at_w0 != v**self.n:
            raise AssertionError(f"relation at w=0 is {F_at_w0}, expected v^{self.n}")
        Fw00 = F.partial("w").terms.get((0, 0), field.zero())
        if Fw00 != -field.one():
            raise AssertionError(f"infinity w-partial at origin is {Fw00}, expected -1")
        return {
            "affine": "y-partial is the unit -1",
            "infinity": "v-partial = -w^(n-1) forces w=0; there the relation is v^n, "
            "forcing v=0; the w-partial at (0,0) is the unit -1",
        }

    def __repr__(self):
        return f"<plane curve y^{self.n} - y = x^{self.n - 1} over F_{self.field.q}>"


def verify_tango_structure(p, d, prec=None, field=None):
    """Run every structural check for the (p, d) curve and report the numbers.

    Checks: both charts smooth (smoothness_certificate raises otherwise);
    ord of dx at infinity equals n(n-3). Since 2g-2 = n(n-3) and p | n, that
    one comparison also makes it the canonical degree, p times the integral
    divisor of degree degL = d(dp-3).
    """
    curve = PlanarTangoCurve(p, d, field)
    cert = curve.smoothness_certificate()
    ord_dx = curve.ord_dx_at_infinity(prec)
    n = curve.n
    report = {
        "p": p,
        "d": d,
        "n": n,
        "genus": curve.genus(),
        "ord_dx_at_infinity": ord_dx,
        "canonical_degree": curve.canonical_degree(),
        "smoothness": cert,
        "ord_matches_formula": ord_dx == n * (n - 3),
        "degN": n - 3,
        "degL": d * (n - 3),
        "tango_equality": p * d * (n - 3) == 2 * curve.genus() - 2,
    }
    report["ok"] = report["ord_matches_formula"] and report["tango_equality"]
    return report
