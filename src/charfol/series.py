"""Truncated Laurent series over F_q with explicit precision.

A series knows its coefficients on [v0, prec) and nothing above; every
operation propagates the pessimistic precision. A product computes only the
coefficients below both its precision and its full degree, so short series
multiply in time set by their lengths, not by the precision. Over prime
fields it packs coefficients into one big integer (Kronecker substitution)
so a single native multiply does the convolution. A monomial c*t^v inverts
exactly; longer series invert by Newton iteration, and newton solves
polynomial equations the same way. evaluate is the one substitution of
series into a polynomial over F_q or F_q(t).
"""

from . import gf
from .algebra import FunField


class DivisionByZeroSeries(ZeroDivisionError):
    pass


class PrecisionExhausted(ArithmeticError):
    pass


class NotSimpleRoot(ValueError):
    pass


def _conv_prime(p, a, b, out_len):
    """The first out_len coefficients of the convolution of nonempty int
    lists mod p, via one big-int multiply; out_len <= len(a) + len(b) - 1."""
    maxval = (p - 1) * (p - 1) * min(len(a), len(b))
    slot = (maxval.bit_length() + 7) // 8
    ia = int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in a), "little")
    ib = int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in b), "little")
    prod = ia * ib
    raw = prod.to_bytes(slot * (len(a) + len(b)), "little")
    return [
        int.from_bytes(raw[i * slot : (i + 1) * slot], "little") % p
        for i in range(out_len)
    ]


def _conv_generic(field, a, b, out_len):
    """The same over F_q with e > 1, on discrete logs: a product is a sum of
    logs and a sum one Zech lookup (gf.Field tables), with -1 for zero. A
    log below 2(q-1) indexes exp unreduced."""
    q1 = field.q - 1
    log, zech = field.log, field.zech
    la = [log[c.n] for c in a]
    lb = [log[c.n] for c in b]
    out = [-1] * out_len
    for i, x in enumerate(la[:out_len]):
        if x < 0:
            continue
        for k, y in enumerate(lb[: out_len - i], i):
            if y < 0:
                continue
            s = out[k]
            if s < 0:
                out[k] = x + y
            else:
                # g^s + g^t = g^s (1 + g^(t-s))
                z = zech[(x + y - s) % q1]
                out[k] = (s + z) % q1 if z >= 0 else -1
    exp = field.exp
    return [gf.FieldElement(field, exp[s] if s >= 0 else 0) for s in out]


class LaurentSeries:
    __slots__ = ("field", "v0", "coeffs", "prec")

    def __init__(self, field, v0, coeffs, prec):
        # strip leading zeros, clip at prec, keep leading coefficient nonzero
        i = 0
        while i < len(coeffs) and not coeffs[i]:
            i += 1
        coeffs = coeffs[i:]
        v0 += i
        keep = max(0, min(len(coeffs), prec - v0))
        coeffs = list(coeffs[:keep])
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs
        self.v0 = v0 if coeffs else prec
        self.prec = prec

    # -- constructors --

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, [], prec)

    @classmethod
    def constant(cls, field, c, prec):
        if isinstance(c, int):
            c = field.from_int(c)
        return cls(field, 0, [c], prec)

    @classmethod
    def t_power(cls, field, k, prec, c=1):
        if isinstance(c, int):
            c = field.from_int(c)
        return cls(field, k, [c], prec)

    @classmethod
    def from_poly(cls, poly, prec):
        """Univariate MultiPoly over a gf.Field, exact up to prec."""
        if len(poly.vars) != 1:
            raise ValueError("from_poly needs a univariate polynomial")
        field = poly.domain
        if not poly.terms:
            return cls.zero(field, prec)
        deg = poly.degree()
        coeffs = [field.zero()] * (deg + 1)
        for (k,), c in poly.terms.items():
            coeffs[k] = c
        return cls(field, 0, coeffs, prec)

    @classmethod
    def from_ratfunc(cls, r, prec):
        dden = r.den.degree()
        if dden == 0:
            # RatFunc keeps den monic, so a constant den is 1
            return cls.from_poly(r.num, prec)
        pad = prec + 2 * dden + 4
        num = cls.from_poly(r.num, pad)
        den = cls.from_poly(r.den, pad)
        return (num / den).truncate(prec)

    # -- bookkeeping --

    def _val_bound(self):
        # lower bound for the valuation, exact when the series is nonzero
        return self.v0 if self.coeffs else self.prec

    def val(self):
        if not self.coeffs:
            raise PrecisionExhausted(f"series is zero to precision O(t^{self.prec})")
        return self.v0

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionExhausted(f"coefficient of t^{k} beyond O(t^{self.prec})")
        if k < self.v0 or k >= self.v0 + len(self.coeffs):
            return self.field.zero()
        return self.coeffs[k - self.v0]

    def truncate(self, n):
        return LaurentSeries(self.field, self.v0, self.coeffs, min(self.prec, n))

    def _with_prec(self, n):
        # asserts knowledge up to n (Newton-style external argument)
        return LaurentSeries(self.field, self.v0, self.coeffs, n)

    def nonzero_before(self, n):
        n = min(n, self.prec)
        return any(
            c for i, c in enumerate(self.coeffs) if self.v0 + i < n
        )

    # -- arithmetic --

    def _check(self, other):
        if isinstance(other, LaurentSeries):
            if other.field != self.field:
                raise TypeError("series over different fields")
            return other
        if isinstance(other, (int, gf.FieldElement)):
            return LaurentSeries.constant(self.field, other, self.prec)
        raise TypeError(f"cannot combine series with {other!r}")

    def __add__(self, other):
        other = self._check(other)
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return other.truncate(prec)
        if not other.coeffs:
            return self.truncate(prec)
        v0 = min(self.v0, other.v0)
        top = min(prec, max(self.v0 + len(self.coeffs), other.v0 + len(other.coeffs)))
        out = [self.field.zero()] * max(0, top - v0)
        for i, c in enumerate(self.coeffs):
            k = self.v0 + i
            if k < top:
                out[k - v0] = c
        for i, c in enumerate(other.coeffs):
            k = other.v0 + i
            if k < top:
                out[k - v0] = out[k - v0] + c
        return LaurentSeries(self.field, v0, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.field, self.v0, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        va, vb = self._val_bound(), other._val_bound()
        prec = min(self.prec + vb, other.prec + va)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(f, prec)
        # coefficients above the full product's degree are known zeros
        out_len = min(prec - (va + vb), len(self.coeffs) + len(other.coeffs) - 1)
        if out_len <= 0:
            return LaurentSeries.zero(f, prec)
        if f.e == 1:
            a = [c.n for c in self.coeffs]
            b = [c.n for c in other.coeffs]
            raw = _conv_prime(f.p, a, b, out_len)
            coeffs = [gf.FieldElement(f, v) for v in raw]
        else:
            coeffs = _conv_generic(f, self.coeffs, other.coeffs, out_len)
        return LaurentSeries(f, self.v0 + other.v0, coeffs, prec)

    __rmul__ = __mul__

    def reciprocal(self):
        if not self.coeffs:
            raise DivisionByZeroSeries(f"inverting a series that is O(t^{self.prec})")
        m = self.prec - self.v0
        if m <= 0:
            raise PrecisionExhausted("no known coefficients to invert")
        f = self.field
        if len(self.coeffs) == 1:
            # a monomial c*t^v inverts exactly; Newton converges to the same
            return LaurentSeries(
                f, -self.v0, [self.coeffs[0].inverse()], self.prec - 2 * self.v0
            )
        u = LaurentSeries(f, 0, self.coeffs, m)  # unit part, relative precision m
        r = LaurentSeries(f, 0, [self.coeffs[0].inverse()], 1)
        k = 1
        while k < m:
            k = min(2 * k, m)
            uk = u.truncate(k)
            rk = r._with_prec(k)
            r = (rk * (LaurentSeries.constant(f, 2, k) - uk * rk)).truncate(k)
        return LaurentSeries(f, -self.v0, r.coeffs, self.prec - 2 * self.v0)

    def __truediv__(self, other):
        other = self._check(other)
        if not other.coeffs:
            raise DivisionByZeroSeries(f"dividing by a series that is O(t^{other.prec})")
        out = self * other.reciprocal()
        if not out.coeffs and self.coeffs:
            # numerator has a known valuation but no quotient coefficient survives
            raise PrecisionExhausted(
                f"quotient valuation {self.v0 - other.v0} not below precision {out.prec}"
            )
        return out

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return LaurentSeries.constant(self.field, 1, self.prec)
        f = self.field
        p = f.p
        if n % p == 0:
            # s^p is a Frobenius, c_i t^i -> c_i^p t^(p*i), one pass; its
            # precision is the N + (p-1)v that repeated multiplication gives
            out = [f.zero()] * (p * len(self.coeffs))
            out[::p] = [gf.frobenius(c) for c in self.coeffs]
            prec = self.prec + (p - 1) * self._val_bound()
            return LaurentSeries(f, p * self.v0, out, prec) ** (n // p)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self):
        f = self.field
        out = []
        for i, c in enumerate(self.coeffs):
            k = self.v0 + i
            out.append(c * f.from_int(k))
        return LaurentSeries(f, self.v0 - 1, out, self.prec - 1)

    def pth_root(self):
        """The series s with s^p = self, or None when exponents obstruct it."""
        f = self.field
        p = f.p
        if not self.coeffs:
            return LaurentSeries.zero(f, -(-self.prec // p))
        if self.v0 % p:
            return None
        out = []
        for i, c in enumerate(self.coeffs):
            k = self.v0 + i
            if k % p:
                if c:
                    return None
                continue
            j = k // p
            while len(out) <= j - self.v0 // p:
                out.append(f.zero())
            out[j - self.v0 // p] = gf.pth_root(c)
        return LaurentSeries(f, self.v0 // p, out, -(-self.prec // p))

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            other.field == self.field
            and other.v0 == self.v0
            and other.coeffs == self.coeffs
            and other.prec == self.prec
        )

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.v0 + i
            cs = str(c)
            if any(ch in cs for ch in "+-/"):
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                tk = "t" if k == 1 else f"t^{k}"
                parts.append(tk if cs == "1" else f"{cs}*{tk}")
        parts.append(f"O(t^{self.prec})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<series {self}>"


def evaluate(poly, coords, prec):
    """poly, over F_q or F_q(t), at the series coords: each coefficient
    becomes a series to precision prec (from_ratfunc over F_q(t), a constant
    over F_q). The zero polynomial gives the zero series."""
    domain = poly.domain
    if isinstance(domain, FunField):
        return poly.evaluate(coords, lambda c: LaurentSeries.from_ratfunc(c, prec))
    return poly.evaluate(coords, lambda c: LaurentSeries.constant(domain, c, prec))


def newton(F, name, coords, w, N):
    """Refine w, a simple root of F in the variable name known to precision
    1, to precision N.

    coords gives the series of every other variable of F; each step
    substitutes them truncated to its precision. Each step doubles the
    precision (R. P. Brent and H. T. Kung, J. ACM 25, 1978); the result is
    verified by substitution before returning.
    """
    Fw = F.partial(name)

    def at(G, w, k):
        a = {v: s.truncate(k) for v, s in coords.items()}
        a[name] = w
        return evaluate(G, a, k)

    k = 1
    while k < N:
        k = min(2 * k, N)
        wk = w._with_prec(k)
        w = (wk - at(F, wk, k) / at(Fw, wk, k)).truncate(k)
    w = w._with_prec(N)
    if at(F, w, N).nonzero_before(N):
        raise RuntimeError("Newton solution failed the substitution check")
    return w


def implicit_series(F, N):
    """Solve F(v, w(v)) = 0 for w with w(0) = 0, to precision N.

    F is a MultiPoly in exactly two variables (v, w) over a gf.Field with
    F(0,0) = 0 and dF/dw(0,0) != 0; newton does the solving.
    """
    if len(F.vars) != 2:
        raise ValueError("implicit_series expects a polynomial in two variables")
    field = F.domain
    vname, wname = F.vars
    zero2 = (0, 0)
    if F.terms.get(zero2):
        raise NotSimpleRoot("F(0,0) != 0: no branch through the origin")
    if not F.partial(wname).terms.get(zero2):
        raise NotSimpleRoot("dF/dw vanishes at the origin: root is not simple")
    v = LaurentSeries.t_power(field, 1, N)
    return newton(F, wname, {vname: v}, LaurentSeries.zero(field, 1), N)


def ord_of_differential(x):
    """Valuation of dx = x'(t) dt; PrecisionExhausted when x' dies to precision."""
    return x.derivative().val()
