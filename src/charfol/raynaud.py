"""Rank-2 numerical intersection lattices for a ruled surface over the curve
and for the degree-p cyclic cover built along the distinguished divisor.

Classes are tracked as integer pairs a*H + b*F (section and fiber) on an
integral Gram matrix. Each ledger lists the classes it defines and checks
identities between their intersection numbers as equalities of integers,
recording a false one as a failed check; nothing is floating point, and a
Fraction a caller passes stays exact. deg L = d * deg N throughout, and
when the base curve exists (d >= 2) its genus must satisfy
2g - 2 = p*d*degN or the lattice refuses to build.
"""

from .tango import check_domain, plane_genus


class LatticeMismatch(TypeError):
    pass


class FormulaMismatch(AssertionError):
    pass


class HypothesisViolated(ValueError):
    pass


class NonPositive(ValueError):
    pass


class SurfaceLattice:
    __slots__ = ("tag", "p", "d", "deg_n", "deg_l", "genus", "names", "gram")

    def __init__(self, tag, p, d, deg_n):
        if tag not in ("ruled", "raynaud"):
            raise ValueError(f"unknown surface tag {tag!r}")
        self.tag = tag
        self.p = p
        self.d = d
        self.deg_n = deg_n
        self.deg_l = d * deg_n
        if d >= 2:
            check_domain(p, d)
            self.genus = plane_genus(d * p)
            if 2 * self.genus - 2 != p * d * deg_n:
                raise FormulaMismatch(
                    f"2g-2 = {2 * self.genus - 2} but p*d*degN = {p * d * deg_n}; "
                    "degN does not match the curve"
                )
        else:
            self.genus = None
        self.names = ("H", "F") if tag == "ruled" else ("T", "F")
        self.gram = ((self.deg_l if tag == "ruled" else self.deg_n, 1), (1, 0))

    def cls(self, a, b):
        return DivClass(self, a, b)

    def section(self):
        return self.cls(1, 0)

    def fiber(self):
        return self.cls(0, 1)

    def __repr__(self):
        return f"<{self.tag} lattice p={self.p} d={self.d} degN={self.deg_n}>"


class DivClass:
    __slots__ = ("lattice", "a", "b")

    def __init__(self, lattice, a, b):
        self.lattice = lattice
        self.a = a
        self.b = b

    def _check(self, other):
        if not isinstance(other, DivClass) or other.lattice is not self.lattice:
            raise LatticeMismatch("classes live on different lattices")

    def __add__(self, other):
        self._check(other)
        return DivClass(self.lattice, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        self._check(other)
        return DivClass(self.lattice, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return DivClass(self.lattice, -self.a, -self.b)

    def __rmul__(self, c):
        return DivClass(self.lattice, c * self.a, c * self.b)

    def dot(self, other):
        self._check(other)
        (g00, g01), (g10, g11) = self.lattice.gram
        a, b = other.a, other.b
        return self.a * (g00 * a + g01 * b) + self.b * (g10 * a + g11 * b)

    def __eq__(self, other):
        if not isinstance(other, DivClass):
            return NotImplemented
        return self.lattice is other.lattice and self.a == other.a and self.b == other.b

    def __str__(self):
        h, f = self.lattice.names
        parts = []
        if self.a:
            parts.append(h if self.a == 1 else f"{self.a}*{h}")
        if self.b:
            parts.append(f if self.b == 1 else f"{self.b}*{f}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<class {self} on {self.lattice!r}>"


def require_cover(p, d):
    """Raise unless the d-cyclic cover exists (Raynaud, 1978): the curve's
    DomainError for p < 3 or d < 2, HypothesisViolated unless d | p + 1."""
    check_domain(p, d)
    if (p + 1) % d:
        raise HypothesisViolated(f"d = {d} does not divide p + 1 = {p + 1}")


def _check(report, name, lhs, rhs):
    report["checks"].append(
        {"name": name, "lhs": str(lhs), "rhs": str(rhs), "pass": lhs == rhs}
    )


def verify_ruled_formulas(p, d, deg_n):
    """Exact ledger for the ruled surface: both adjunction identities and
    the disjointness of section and graph, for the classes it defines:
    S = H, Gamma = p*H - p*degL*F and K = -2*H + (p+1)*degL*F."""
    check_domain(p, d)
    lat = SurfaceLattice("ruled", p, d, deg_n)
    deg_l, g = lat.deg_l, lat.genus
    S, F = lat.section(), lat.fiber()
    Gamma = lat.cls(p, -p * deg_l)
    K = lat.cls(-2, (p + 1) * deg_l)
    report = {"surface": "ruled", "p": p, "d": d, "degN": deg_n, "degL": deg_l,
              "genus": g, "checks": [],
              "definitions": {"S": str(S), "Gamma": str(Gamma), "K": str(K)},
              "modeling_assumption": "H^2 = degL, the degree of the rank-2 "
              "extension of the trivial bundle by the dualized twist"}
    _check(report, "(K+S), S adjunction", (K + S).dot(S), 2 * g - 2)
    _check(report, "(K+F), F adjunction", (K + F).dot(F), -2)
    _check(report, "S disjoint from Gamma", S.dot(Gamma), 0)
    report["ok"] = all(c["pass"] for c in report["checks"])
    return report


def verify_raynaud_formulas(p, d, deg_n):
    """Exact ledger for the cyclic cover: fiber and section adjunction, and
    the intersections of the second (thickened) section, for the classes it
    defines: K_X = (pd-p-d-1)*T + (d+p)*degN*F and Sigma = p*T - p*degN*F."""
    require_cover(p, d)
    lat = SurfaceLattice("raynaud", p, d, deg_n)
    g = lat.genus
    T, F = lat.section(), lat.fiber()
    k_f = d * p - p - d - 1
    KX = lat.cls(k_f, (d + p) * deg_n)
    Sigma = lat.cls(p, -p * deg_n)
    report = {"surface": "raynaud", "p": p, "d": d, "degN": deg_n, "genus": g,
              "deg_K_F": k_f, "fiber_arithmetic_genus": (k_f + 2) // 2,
              "definitions": {"K_X": str(KX), "Sigma": str(Sigma)},
              "checks": []}
    _check(report, "(K_X+F), F fiber adjunction", (KX + F).dot(F), k_f)
    _check(report, "Sigma, T disjoint", Sigma.dot(T), 0)
    _check(report, "Sigma self-intersection", Sigma.dot(Sigma), -(p**2) * deg_n)
    _check(report, "(K_X+T), T section adjunction", (KX + T).dot(T), 2 * g - 2)
    report["ok"] = all(c["pass"] for c in report["checks"])
    return report


def ample_class_A(p, d, deg_n):
    """A = (d-1)*T + degN*F with its positivity ledger.

    The positivity test set is {A itself, F, T, Sigma}; the report says so
    explicitly rather than claiming a full ampleness proof.
    """
    lat = SurfaceLattice("raynaud", p, d, deg_n)
    T, F = lat.section(), lat.fiber()
    A = lat.cls(d - 1, deg_n)
    Sigma = lat.cls(p, -p * deg_n)
    report = {"surface": "raynaud", "p": p, "d": d, "degN": deg_n,
              "A": str(A), "checks": [],
              "caveat": "positivity verified against the test set {F, T, Sigma} "
              "only, not against every irreducible curve"}
    positivity = {"A^2": A.dot(A), "A.T": A.dot(T), "A.F": A.dot(F),
                  "A.Sigma": A.dot(Sigma)}
    _check(report, "A^2 = (d^2-1)*degN", positivity["A^2"], (d * d - 1) * deg_n)
    _check(report, "A.T = d*degN", positivity["A.T"], d * deg_n)
    _check(report, "A.F = d-1", positivity["A.F"], d - 1)
    _check(report, "A.Sigma = p*degN", positivity["A.Sigma"], p * deg_n)
    for name, value in positivity.items():
        if value <= 0:
            raise NonPositive(f"{name} = {value} is not positive")
    report["positivity"] = {k: str(v) for k, v in positivity.items()}
    report["ok"] = all(c["pass"] for c in report["checks"])
    return A, report


def global_generation_numerics(p, d, deg_n):
    """The two decompositions of p*A; hypotheses the lattice cannot see are
    listed, not checked. The disjointness of the base loci, T.Sigma = 0, is
    the cover ledger's "Sigma, T disjoint" (verify_raynaud_formulas).

    The second decomposition is derived, not restated: R = p*A - (d-1)*Sigma
    meets F in 0, so R = c*F with c = R.T, and c = p*A.T because Sigma.T = 0.
    On a lattice where Sigma.T != 0 it therefore fails."""
    lat = SurfaceLattice("raynaud", p, d, deg_n)
    T = lat.section()
    A = lat.cls(d - 1, deg_n)
    Sigma = lat.cls(p, -p * deg_n)
    pA = p * A
    alt = (d - 1) * Sigma + pA.dot(T) * lat.fiber()
    report = {"surface": "raynaud", "p": p, "d": d, "degN": deg_n,
              "pA": str(pA), "checks": [],
              "assumptions_passed_through": [
                  "the p-th tensor power of the degree-degN bundle is "
                  "globally generated on the base curve",
                  "the base curve is not hyperelliptic",
                  "the separation argument needs d = 2",
              ]}
    _check(report, "p*A = p(d-1)*T + p*degN*F", pA, lat.cls(p * (d - 1), p * deg_n))
    _check(report, "p*A = (d-1)*Sigma + p*d*degN*F", pA, alt)
    report["ok"] = all(c["pass"] for c in report["checks"])
    return report
