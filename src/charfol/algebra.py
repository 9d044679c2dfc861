"""Sparse multivariate polynomials, F_q(t), and chart algebras.

A MultiPoly is a dict from exponent tuples to nonzero coefficients, over a
coefficient domain that is either gf.Field or FunField (= F_q(t) with RatFunc
elements). Chart algebras carry triangular monic relations and provide the
normal form every other module relies on for equality. Sums, products and
normal forms are _linalg's kernels on term dicts, run on elements here.
"""

from itertools import accumulate

from . import gf
from ._linalg import _addmul, _mul, _nf


class PolySyntaxError(ValueError):
    """Parse failure; .pos is the 0-based offset into the input."""

    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class UnknownVariable(ValueError):
    def __init__(self, name, pos):
        super().__init__(f"unknown variable {name!r} (at position {pos})")
        self.name = name
        self.pos = pos


def _grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse polynomial; do not store zero coefficients.
    _series, once set, holds series.evaluate's coefficient series per
    precision."""

    __slots__ = ("domain", "vars", "terms", "_series")

    def __init__(self, domain, vars, terms):
        self.domain = domain
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _of(cls, domain, vars, terms):
        """The polynomial on terms as given: no zero coefficient, vars a tuple."""
        f = cls.__new__(cls)
        f.domain, f.vars, f.terms = domain, vars, terms
        return f

    @classmethod
    def zero(cls, domain, vars):
        return cls(domain, vars, {})

    @classmethod
    def constant(cls, domain, vars, c):
        if isinstance(c, int):
            c = domain.from_int(c)
        z = (0,) * len(vars)
        return cls(domain, vars, {z: c})

    @classmethod
    def variable(cls, domain, vars, name):
        i = tuple(vars).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(domain, vars, {e: domain.one()})

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.domain != self.domain or other.vars != self.vars:
                raise TypeError("polynomials live in different rings")
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self.domain, self.vars, other)
        if isinstance(other, (gf.FieldElement, RatFunc)):
            # bare coefficient of the right domain
            return MultiPoly(self.domain, self.vars, {(0,) * len(self.vars): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = _addmul(None, dict(self.terms), other.terms)
        return MultiPoly._of(self.domain, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.domain, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._of(self.domain, self.vars, _mul(None, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        if len(self.terms) == 1:
            # a one-term power is one term: no product is built
            ((e, c),) = self.terms.items()
            return MultiPoly._of(self.domain, self.vars, {tuple(k * n for k in e): c**n})
        result = MultiPoly.constant(self.domain, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.domain, self.vars, other)
        return (
            isinstance(other, MultiPoly)
            and other.domain == self.domain
            and other.vars == self.vars
            and other.terms == self.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, self.domain.zero())

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def deg_in(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def partial(self, name):
        """d/d(name); exponents act through the prime subfield. Distinct
        terms stay distinct, so nothing is summed."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            k = e[i]
            if k and (kc := c * self.domain.from_int(k)):
                terms[e[:i] + (k - 1,) + e[i + 1 :]] = kc
        return MultiPoly._of(self.domain, self.vars, terms)

    def map_coeffs(self, fn, domain=None):
        """fn applied to every coefficient; domain is the result's, when fn
        maps into another one."""
        return MultiPoly(self.domain if domain is None else domain, self.vars,
                         {e: fn(c) for e, c in self.terms.items()})

    def coeff_in(self, name, k):
        """Coefficient of name^k, a polynomial in the remaining exponents."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[e[:i] + (0,) + e[i + 1 :]] = c
        return MultiPoly(self.domain, self.vars, terms)

    def evaluate(self, assignment, convert):
        """Substitute values for every variable.

        assignment: dict var name -> value whose powers lie in a ring V
        closed under + and * (a series, or series.evaluate's packed slots,
        whose powers are ints). convert: coefficient -> V. Returns a V
        element; the zero polynomial returns convert(0). Powers are not
        cached here: a LaurentSeries keeps its own.
        """
        out = None
        # any term order: the sums in V are exact
        for e, c in self.terms.items():
            val = convert(c)
            for v, k in zip(self.vars, e):
                if k:
                    val = val * assignment[v] ** k
            out = val if out is None else out + val
        if out is None:
            out = convert(self.domain.zero())
        return out

    def leading(self):
        """(exponent, coeff) maximal in graded lex order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def monic_in(self, name):
        """True when the coefficient of name^(deg_in name) is the constant 1."""
        d = self.deg_in(name)
        if d <= 0:
            return False
        lead = self.coeff_in(name, d)
        return lead == MultiPoly.constant(self.domain, self.vars, 1)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(
            self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True
        ):
            vs = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    vs.append(v)
                elif k > 1:
                    vs.append(f"{v}^{k}")
            cs = str(c)
            if vs and cs == "1":
                parts.append("*".join(vs))
            else:
                if any(ch in cs for ch in "+-/") :
                    cs = f"({cs})"
                parts.append("*".join([cs] + vs))
        return " + ".join(parts)

    def __repr__(self):
        return f"<poly {self} over {self.domain!r}>"


# ---------------------------------------------------------------------------
# univariate helpers (coefficients must form a field)


def uni_divmod(f, g):
    if len(f.vars) != 1 or f.vars != g.vars:
        raise ValueError("univariate division needs matching single-variable rings")
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    dg = g.degree()
    glead = g.terms[(dg,)]
    q = {}
    r = dict(f.terms)

    def rdeg():
        return max((k for (k,) in r), default=-1)

    d = rdeg()
    while d >= dg:
        c = r[(d,)] / glead
        q[(d - dg,)] = c
        _addmul(None, r, {(k + d - dg,): gc for (k,), gc in g.terms.items()}, -c)
        d = rdeg()
    return (
        MultiPoly(f.domain, f.vars, q),
        MultiPoly(f.domain, f.vars, r),
    )


def uni_gcd(f, g):
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        _, rem = uni_divmod(a, b)
        a, b = b, rem
    if a.is_zero():
        return a
    lead = a.terms[(a.degree(),)]
    return a.map_coeffs(lambda c: c / lead)


# ---------------------------------------------------------------------------


def _is_one(den):
    # den is monic, so a constant denominator is exactly 1
    return len(den.terms) == 1 and (0,) in den.terms


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1, over F_q in one variable.

    Sums and products of operands whose denominators are both 1 skip
    normalisation: the combined numerator over denominator 1 is already
    reduced, the zero numerator included. So are -num/den and num^n/den^n
    for any operand; an inverse only divides out its new lead coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MultiPoly.constant(num.domain, num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.domain, num.vars, 1)
        else:
            if den.degree() > 0:
                g = uni_gcd(num, den)
                if g.degree() > 0:
                    num, _ = uni_divmod(num, g)
                    den, _ = uni_divmod(den, g)
            lead = den.terms[(den.degree(),)]
            if lead != num.domain.one():
                num = num.map_coeffs(lambda c: c / lead)
                den = den.map_coeffs(lambda c: c / lead)
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.domain

    @property
    def var(self):
        return self.num.vars[0]

    @classmethod
    def _reduced(cls, num, den):
        """num/den as given, for a pair already in normal form."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field or other.var != self.var:
                raise TypeError("rational functions over different fields")
            return other
        if isinstance(other, int):
            return RatFunc(MultiPoly.constant(self.field, self.num.vars, other))
        if isinstance(other, gf.FieldElement):
            return RatFunc(MultiPoly.constant(self.field, self.num.vars, other))
        if isinstance(other, MultiPoly) and other.domain == self.field and other.vars == self.num.vars:
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if _is_one(self.den) and _is_one(other.den):
            return RatFunc._reduced(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if _is_one(self.den) and _is_one(other.den):
            return RatFunc._reduced(self.num * other.num, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # powers of a coprime pair stay coprime, and den^n is monic
        return RatFunc._reduced(self.num**n, self.den**n)

    def inverse(self):
        """den/num, a coprime pair: only num's lead coefficient is divided out."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        num, den = self.den, self.num
        lead = den.terms[(den.degree(),)]
        if lead != self.field.one():
            num = num.map_coeffs(lambda c: c / lead)
            den = den.map_coeffs(lambda c: c / lead)
        return RatFunc._reduced(num, den)

    def derivative(self):
        """d/dt via the quotient rule, reduced."""
        n, d = self.num, self.den
        v = self.var
        return RatFunc(n.partial(v) * d - n * d.partial(v), d * d)

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree() <= 0 and self.den.degree() == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.constant_value()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __str__(self):
        if self.den.degree() == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<ratfunc {self}>"


class FunField:
    """K = F_q(t) as a coefficient domain for MultiPoly."""

    __slots__ = ("field", "var")

    def __init__(self, field, var="t"):
        self.field = field
        self.var = var

    @property
    def p(self):
        return self.field.p

    def _const(self, c):
        return MultiPoly.constant(self.field, (self.var,), c)

    def zero(self):
        return RatFunc(self._const(0))

    def one(self):
        return RatFunc(self._const(1))

    def from_int(self, n):
        return RatFunc(self._const(n))

    def from_field(self, c):
        return RatFunc(self._const(c))

    def gen(self):
        return RatFunc(MultiPoly.variable(self.field, (self.var,), self.var))

    def random_element(self, rng, max_deg=2):
        num = {
            (k,): self.field.random_element(rng)
            for k in range(rng.randint(0, max_deg) + 1)
        }
        den = {(k,): self.field.random_element(rng) for k in range(rng.randint(0, max_deg))}
        den[(rng.randint(0, max_deg),)] = self.field.one()
        n = MultiPoly(self.field, (self.var,), num)
        d = MultiPoly(self.field, (self.var,), den)
        if d.is_zero():
            d = self._const(1)
        return RatFunc(n, d)

    def __eq__(self, other):
        return isinstance(other, FunField) and other.field == self.field and other.var == self.var

    def __hash__(self):
        return hash((self.field, self.var))

    def __repr__(self):
        return f"F_{self.field.q}({self.var})"


# ---------------------------------------------------------------------------
# parser


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text, vars, domain):
        self.toks = _tokenize(text)
        self.k = 0
        self.vars = tuple(vars)
        self.domain = domain

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        tok = self.toks[self.k]
        if kind is not None and tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def expr(self):
        poly = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self):
        poly = self.factor()
        while self.peek()[0] == "*":
            self.take()
            poly = poly * self.factor()
        return poly

    def factor(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            f = self.factor()
            return f if tok[0] == "+" else -f
        atom = self.atom()
        if self.peek()[0] == "^":
            self.take()
            etok = self.take("int")
            atom = atom ** etok[1]
        return atom

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.take()
            return MultiPoly.constant(self.domain, self.vars, val)
        if kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        if kind == "ident":
            self.take()
            return self.resolve(val, pos)
        raise PolySyntaxError(f"expected a value, found {val!r}", pos)

    def resolve(self, name, pos):
        if name in self.vars:
            return MultiPoly.variable(self.domain, self.vars, name)
        base = self.domain.field if isinstance(self.domain, FunField) else self.domain
        if isinstance(self.domain, FunField) and name == self.domain.var:
            return MultiPoly(
                self.domain, self.vars, {(0,) * len(self.vars): self.domain.gen()}
            )
        if name == "u" and base.e > 1:
            c = base.gen()
            if isinstance(self.domain, FunField):
                c = self.domain.from_field(c)
            return MultiPoly(self.domain, self.vars, {(0,) * len(self.vars): c})
        raise UnknownVariable(name, pos)


def parse_poly(text, vars, domain):
    """Parse text into a MultiPoly over domain in the given variables.

    Grammar: + - * ^ with nonnegative integer exponents, parentheses,
    integers, variable names, the generator symbol u (when q is not prime)
    and t (when the domain is F_q(t)). No implicit multiplication.
    """
    return _Parser(text, vars, domain).parse()


# ---------------------------------------------------------------------------


class Relation:
    """A chart relation, monic of some degree in its designated variable:
    poly = power - rewrite, power the monomial var^degree."""

    __slots__ = ("poly", "var", "index", "degree", "power", "rewrite")

    def __init__(self, poly, var):
        if var not in poly.vars:
            raise ValueError(f"designated variable {var!r} not in {poly.vars}")
        d = poly.deg_in(var)
        if d < 1 or not poly.monic_in(var):
            raise ValueError(f"relation {poly} is not monic in {var!r}")
        self.poly = poly
        self.var = var
        self.index = poly.vars.index(var)
        self.degree = d
        self.power = MultiPoly.variable(poly.domain, poly.vars, var) ** d
        self.rewrite = self.power - poly  # x^d is congruent to this, lower degree in var

    def __repr__(self):
        return f"<relation {self.poly} monic in {self.var}>"


def restrict_to_field(chart, polys):
    """The chart and polys over F_q, for a chart over K = F_q(t) whose
    relations and polys have only coefficients constant in t; else None.

    Results come back to K coefficient-wise, f.map_coeffs(K.from_field, K).
    """
    K = chart.domain
    if not isinstance(K, FunField) or not all(
        c.is_constant()
        for f in (*(rel.poly for rel in chart.relations), *polys)
        for c in f.terms.values()
    ):
        return None
    down = lambda f: f.map_coeffs(RatFunc.constant_value, K.field)
    rels = [(down(rel.poly), rel.var) for rel in chart.relations]
    return ChartAlgebra(K.field, chart.vars, rels), [down(f) for f in polys]


def _linear_unit_var(chart):
    """A variable some relation determines linearly with a constant unit
    coefficient and no other relation involves, together with that
    relation."""
    for rel in chart.relations:
        for v in chart.vars:
            if rel.poly.deg_in(v) == 1:
                c = rel.poly.coeff_in(v, 1)
                if c.is_constant() and not c.is_zero():
                    others = sum(r.poly.deg_in(v) for r in chart.relations if r is not rel)
                    if others == 0:
                        return v, rel
    return None, None


class SolvePlan:
    """How drawn values of the other coordinates complete to a point of a
    chart: solve_var = rest(the other coordinates) by its relation rel, or
    else Newton on newton_var, the first relation's designated variable.
    All are None on a chart without relations."""

    __slots__ = ("solve_var", "rel", "rest", "newton_var")

    def __init__(self, chart):
        self.solve_var, self.rel = _linear_unit_var(chart)
        self.rest = self.newton_var = None
        if self.rel is not None:
            # rel divided by -(the coefficient of solve_var), solve_var dropped
            poly = self.rel.poly
            i = chart.vars.index(self.solve_var)
            scale = -(poly.coeff_in(self.solve_var, 1).constant_value().inverse())
            self.rest = MultiPoly(chart.domain, chart.vars,
                                  {e: c * scale for e, c in poly.terms.items() if not e[i]})
        elif chart.relations:
            self.newton_var = chart.relations[0].var


class ChartAlgebra:
    """domain[vars] / (relations), relations triangular and monic."""

    # rules: (index, degree, rewrite terms) per relation, as _nf takes them;
    # elimination: differentials._elimination of the chart, read, not changed
    __slots__ = ("domain", "vars", "relations", "rules", "solve_plan", "elimination")

    def __init__(self, domain, vars, relations=()):
        self.domain = domain
        self.vars = tuple(vars)
        rels = []
        seen = set()
        for poly, var in relations:
            rel = Relation(poly, var)
            if rel.poly.vars != self.vars:
                raise ValueError("relation variables do not match the chart")
            if rel.var in seen:
                raise ValueError(f"two relations designate {rel.var!r}")
            seen.add(rel.var)
            rels.append(rel)
        self.relations = tuple(rels)
        self.rules = tuple((rel.index, rel.degree, rel.rewrite.terms) for rel in rels)

    def __getattr__(self, name):
        # only an unset slot lands here: the solve plan and the elimination
        # are built on first use
        if name == "solve_plan":
            self.solve_plan = SolvePlan(self)
            return self.solve_plan
        if name == "elimination":
            from .differentials import _elimination  # differentials imports this module
            self.elimination = _elimination(self)
            return self.elimination
        raise AttributeError(name)

    def var(self, name):
        return MultiPoly.variable(self.domain, self.vars, name)

    def zero(self):
        return MultiPoly.zero(self.domain, self.vars)

    def one(self):
        return MultiPoly.constant(self.domain, self.vars, 1)

    def constant(self, c):
        return MultiPoly.constant(self.domain, self.vars, c)

    def poly(self, text):
        return parse_poly(text, self.vars, self.domain)

    def normal_form(self, f):
        """Unique reduced representative modulo the relation ideal; f itself
        when it is reduced."""
        if f.vars != self.vars or f.domain != self.domain:
            raise ValueError("polynomial does not live on this chart")
        terms = _nf(None, f.terms, self.rules)
        return f if terms is f.terms else MultiPoly._of(self.domain, self.vars, terms)

    nf = normal_form

    def _caps(self, max_total):
        caps = [max_total] * len(self.vars)
        for rel in self.relations:
            caps[rel.index] = min(rel.degree - 1, max_total)
        return caps

    def count_reduced_monomials(self, max_total):
        """len(self.reduced_monomials(max_total)), without building them."""
        # by_total[s]: how many exponent tails have total s; a variable of
        # cap c makes it the sum of by_total[s-c .. s], a difference of two
        # running sums
        by_total = [1] + [0] * max_total
        for cap in self._caps(max_total):
            run = [0, *accumulate(by_total)]
            by_total = [run[s + 1] - run[s - cap if s > cap else 0]
                        for s in range(max_total + 1)]
        return sum(by_total)

    def reduced_monomials(self, max_total, index=None, step=1):
        """Exponent tuples of normal-form monomials with total degree <= max_total;
        given index, only those whose exponent of variable index is a
        multiple of step, in the same order."""
        # by_total[s]: the exponent tails over the variables from i on with
        # total s, lex ascending; built from the last variable backwards
        by_total = [[()]] + [[] for _ in range(max_total)]
        caps = self._caps(max_total)
        for i in reversed(range(len(caps))):
            stride = step if i == index else 1
            by_total = [
                [(k,) + tail for k in range(0, min(caps[i], s) + 1, stride)
                 for tail in by_total[s - k]]
                for s in range(max_total + 1)
            ]
        return [e for block in by_total for e in block]

    def to_json(self):
        return {
            "vars": list(self.vars),
            "relations": [
                {"poly": str(rel.poly), "monic_in": rel.var} for rel in self.relations
            ],
        }

    def __eq__(self, other):
        return (
            isinstance(other, ChartAlgebra)
            and other.domain == self.domain
            and other.vars == self.vars
            and [(r.poly, r.var) for r in other.relations]
            == [(r.poly, r.var) for r in self.relations]
        )

    def __repr__(self):
        ring = f"{self.domain!r}[{','.join(self.vars)}]"
        if not self.relations:
            return ring
        rels = ", ".join(str(r.poly) for r in self.relations)
        return f"{ring}/({rels})"
