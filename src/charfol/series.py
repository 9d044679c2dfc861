"""Truncated Laurent series over F_q with explicit precision.

A series knows its coefficients on [v0, prec) and nothing above; every
operation propagates the pessimistic precision. Coefficients are stored as
gf codes (ints) and combined by the gf.Field's list kernels, one call per
list; FieldElements appear only at the constructor, coeffs and coeff. A sum
or difference is one aligned pass, a negation a scaling by -1, and a
Frobenius power or a p-th root one pass of the field's power map. A product
computes only the coefficients below both its precision and its full degree,
so short series multiply in time set by their lengths, not by the precision;
a one-term factor c*t^v is one scaling, and a factor 1*t^0 that leaves the
precision as it is returns the other factor itself. A result that is normal
by construction skips the rescan for leading and trailing zeros. A monomial
c*t^v inverts exactly; longer series invert by Newton iteration, and newton
solves polynomial equations the same way. A series never changes, so it
keeps the powers asked of it, its reciprocal (power -1) among them, and a
divisor used again is inverted once. evaluate is the one substitution of
series into a polynomial over F_q or F_q(t); a polynomial never changes
either, so it keeps its coefficient series per precision with the converter
that finds them, made once, and each coefficient is converted once (a
constant over F_q straight to its code, one over F_q(t) through
from_ratfunc). A constant polynomial, or zero, is served its kept series
without a substitution, and one term is a kept series power times its
coefficient. Over F_p, with two terms or more, every coefficient free of t
and every coordinate used of valuation >= 0, the substitution runs once over
the integers (a Kronecker substitution; D. Harvey, J. Symbolic Comput. 44,
2009): each coordinate packed into one int with the code of t^i in slot i,
a power p^a * j as a spread of the slots by p^a (the Frobenius) raised to
j, and one reduction mod p at the end. The precision is the one series
products and sums give: the least, over the terms, of sum(k * v0) plus the
least relative precision of the term's factors (prec for a coefficient, 0
for a zero coordinate, whose v0 is its precision). Slots are 1, 2, 4 or 8
bytes, as wide as the packed polynomial's value at t = 1; a wider slot, an
extension field, a negative valuation or a coefficient that depends on t
takes the series path. Whether two series agree below a window is read off
their codes by agrees_below, with no difference built: a certificate
compares, it does not subtract.
"""

from . import gf
from .algebra import FunField, _is_one


class DivisionByZeroSeries(ZeroDivisionError):
    pass


class PrecisionExhausted(ArithmeticError):
    pass


class NotSimpleRoot(ValueError):
    pass


def _normal(v0, codes, prec):
    """(v0, codes) for sum codes[i] t^(v0+i) + O(t^prec), with leading zeros
    moved into v0 and the rest from prec on and trailing zeros dropped."""
    n = len(codes)
    i = 0
    while i < n and not codes[i]:
        i += 1
    end = prec - v0 if prec - v0 < n else n
    while end > i and not codes[end - 1]:
        end -= 1
    if end <= i:
        return prec, []
    return v0 + i, codes if i == 0 and end == n else codes[i:end]


def _series(field, v0, codes, prec):
    """The series sum codes[i] t^(v0+i) + O(t^prec) for codes already in
    normal form: codes[0] and codes[-1] nonzero with v0 + len(codes) <= prec,
    or no codes and v0 = prec. Results that are normal by construction skip
    the rescan of _normal."""
    s = object.__new__(LaurentSeries)
    s.field = field
    s.v0 = v0
    s._c = codes
    s.prec = prec
    s._powers = None
    return s


def from_codes(field, v0, codes, prec):
    """The series sum codes[i] t^(v0+i) + O(t^prec), codes a list of gf
    codes of field that the series may keep."""
    v0, codes = _normal(v0, codes, prec)
    return _series(field, v0, codes, prec)


class LaurentSeries:
    """c_0 t^v0 + c_1 t^(v0+1) + ... + O(t^prec), the codes c_i in _c with
    c_0 nonzero; v0 is prec for the zero series."""

    __slots__ = ("field", "v0", "_c", "prec", "_powers")

    def __init__(self, field, v0, coeffs, prec):
        # coeffs: FieldElements of field
        self.field = field
        self.v0, self._c = _normal(v0, [c.n for c in coeffs], prec)
        self.prec = prec
        self._powers = None

    # -- constructors --

    @classmethod
    def zero(cls, field, prec):
        return from_codes(field, prec, [], prec)

    @classmethod
    def constant(cls, field, c, prec):
        return cls.t_power(field, 0, prec, c)

    @classmethod
    def t_power(cls, field, k, prec, c=1):
        return from_codes(field, k, [c % field.p if isinstance(c, int) else c.n], prec)

    @classmethod
    def from_poly(cls, poly, prec):
        """Univariate MultiPoly over a gf.Field, exact up to prec."""
        if len(poly.vars) != 1:
            raise ValueError("from_poly needs a univariate polynomial")
        codes = [0] * (poly.degree() + 1)
        for (k,), c in poly.terms.items():
            codes[k] = c.n
        return from_codes(poly.domain, 0, codes, prec)

    @classmethod
    def from_ratfunc(cls, r, prec):
        if _is_one(r.den):
            return cls.from_poly(r.num, prec)
        dden = r.den.degree()
        pad = prec + 2 * dden + 4
        num = cls.from_poly(r.num, pad)
        den = cls.from_poly(r.den, pad)
        return (num / den).truncate(prec)

    # -- bookkeeping --

    @property
    def coeffs(self):
        return [gf.FieldElement(self.field, n) for n in self._c]

    def val(self):
        if not self._c:
            raise PrecisionExhausted(f"series is zero to precision O(t^{self.prec})")
        return self.v0

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionExhausted(f"coefficient of t^{k} beyond O(t^{self.prec})")
        i = k - self.v0
        return gf.FieldElement(self.field, self._c[i] if 0 <= i < len(self._c) else 0)

    def truncate(self, n):
        if n >= self.prec:
            return self
        return from_codes(self.field, self.v0, self._c, n)

    def _with_prec(self, n):
        # asserts knowledge up to n (Newton-style external argument)
        return from_codes(self.field, self.v0, self._c, n)

    def nonzero_before(self, n):
        # the first coefficient is nonzero
        return bool(self._c) and self.v0 < min(n, self.prec)

    def agrees_below(self, other, n):
        """True when self and other have the same coefficients below n and
        both precisions: (self - other).nonzero_before(n) is False, with no
        difference built."""
        if other.__class__ is not LaurentSeries or other.field is not self.field:
            other = self._check(other)
        m = n if n < self.prec else self.prec
        if other.prec < m:
            m = other.prec
        a, b = self._c, other._c
        # each window's last nonzero code; a normal series' first is nonzero
        la = m - self.v0 if m - self.v0 < len(a) else len(a)
        while la > 0 and not a[la - 1]:
            la -= 1
        lb = m - other.v0 if m - other.v0 < len(b) else len(b)
        while lb > 0 and not b[lb - 1]:
            lb -= 1
        if la <= 0 or lb <= 0:
            return la <= 0 and lb <= 0
        return self.v0 == other.v0 and a[:la] == b[:lb]

    # -- arithmetic --

    def _check(self, other):
        if isinstance(other, LaurentSeries):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("series over different fields")
            return other
        if isinstance(other, int) or (
                isinstance(other, gf.FieldElement) and other.field == self.field):
            return LaurentSeries.constant(self.field, other, self.prec)
        raise TypeError(f"cannot combine series with {other!r}")

    def _add(self, other, sign):
        """self + sign*other, sign 1 or -1, in one aligned pass."""
        f = self.field
        if other.__class__ is not LaurentSeries or other.field is not f:
            other = self._check(other)
        a, b, va, vb = self._c, other._c, self.v0, other.v0
        # conditional expressions, not min and max: every sum runs this
        prec = self.prec if self.prec < other.prec else other.prec
        if not b or vb >= prec:
            return self.truncate(prec)
        if not a or va >= prec:
            return other.truncate(prec) if sign == 1 else -other.truncate(prec)
        v0 = va if va < vb else vb
        ea, eb = va + len(a), vb + len(b)
        top = ea if ea > eb else eb
        if top > prec:
            top = prec
            ea = ea if ea < top else top
            eb = eb if eb < top else top
        out = [0] * (top - v0)
        out[va - v0 : ea - v0] = a[: ea - va]
        j, m = vb - v0, eb - vb
        out[j : j + m] = (f.add_codes if sign == 1 else f.sub_codes)(out[j : j + m], b)
        return from_codes(f, v0, out, prec)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return _series(f, self.v0, f.scale_codes(f.p - 1, self._c), self.prec)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return self._check(other)._add(self, -1)

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not LaurentSeries or other.field is not f:
            other = self._check(other)
        a, b = self._c, other._c
        va, vb = self.v0, other.v0
        prec = self.prec + vb
        if other.prec + va < prec:
            prec = other.prec + va
        # coefficients above the full product's degree are known zeros
        out_len = prec - (va + vb)
        if out_len >= len(a) + len(b):
            out_len = len(a) + len(b) - 1
        if not a or not b or out_len <= 0:
            return _series(f, prec, [], prec)
        # a factor 1*t^0 that leaves the precision as it is: the other
        # factor is the product, and series never change
        if len(a) == 1 and a[0] == 1 and not va and prec == other.prec:
            return other
        if len(b) == 1 and b[0] == 1 and not vb and prec == self.prec:
            return self
        if len(a) == 1 or len(b) == 1:
            (c,), rest = (a, b) if len(a) == 1 else (b, a)
            codes = rest[:out_len] if c == 1 else f.scale_codes(c, rest[:out_len])
        else:
            codes = f.conv(a, b, out_len)
        # the leading code is a product of nonzero codes; only the cut at
        # out_len can leave trailing zeros, and _normal copies them away
        if codes[-1]:
            return _series(f, va + vb, codes, prec)
        return from_codes(f, va + vb, codes, prec)

    __rmul__ = __mul__

    def reciprocal(self):
        a = self._c
        if not a:
            raise DivisionByZeroSeries(f"inverting a series that is O(t^{self.prec})")
        m = self.prec - self.v0  # positive: a normal series has v0 < prec
        f = self.field
        inv0 = [f.inv(a[0])]
        if len(a) == 1:
            # a monomial c*t^v inverts exactly; Newton converges to the same
            return _series(f, -self.v0, inv0, self.prec - 2 * self.v0)
        u = from_codes(f, 0, a, m)  # unit part, relative precision m
        r = from_codes(f, 0, inv0, 1)
        k = 1
        while k < m:
            k = min(2 * k, m)
            uk = u.truncate(k)
            rk = r._with_prec(k)
            r = (rk * (LaurentSeries.constant(f, 2, k) - uk * rk)).truncate(k)
        return from_codes(f, -self.v0, r._c, self.prec - 2 * self.v0)

    def __truediv__(self, other):
        other = self._check(other)
        if not other._c:
            raise DivisionByZeroSeries(f"dividing by a series that is O(t^{other.prec})")
        # other keeps its reciprocal as its power -1: a divisor used again
        # is inverted once; a nonzero quotient keeps its leading term
        return self * other ** -1

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        # a series never changes, so it keeps every power asked of it. A
        # power that is s itself would make a cycle: s**1 stays out of the
        # memo, and a power of 1*t^0 (a product returns s) is kept as None
        if n == 1:
            return self
        memo = self._powers
        if memo is None:
            memo = self._powers = {}
        got = memo.get(n)
        if got is None:
            if n in memo:
                return self
            got = self._power(n)
            memo[n] = None if got is self else got
        return got

    def _power(self, n):
        if n < 0:
            return self.reciprocal() ** (-n)
        f = self.field
        if n == 0:
            return from_codes(f, 0, [1], self.prec)
        p = f.p
        if n % p == 0:
            # s^p is a Frobenius, c_i t^i -> c_i^p t^(p*i), one pass over the
            # terms that land below its precision, the N + (p-1)v that
            # repeated multiplication gives
            a = self._c[: -(-(self.prec - self.v0) // p)]
            # the cut can leave trailing zeros; c^p is nonzero for c nonzero
            while a and not a[-1]:
                a.pop()
            out = [0] * (p * (len(a) - 1) + 1)  # [] for the zero series
            out[::p] = f.pow_codes(a, p)
            prec = self.prec + (p - 1) * self.v0
            return _series(f, p * self.v0, out, prec) ** (n // p)
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
        return from_codes(f, self.v0 - 1, f.deriv_codes(self.v0, self._c), self.prec - 1)

    def pth_root(self):
        """The series s with s^p = self, or None when exponents obstruct it."""
        f, a, v0 = self.field, self._c, self.v0
        p = f.p
        prec = -(-self.prec // p)
        if not a:
            return _series(f, prec, [], prec)
        if v0 % p or any(any(a[r::p]) for r in range(1, p)):
            return None
        # a's last code is nonzero, so its exponent is a multiple of p and
        # a[::p] is normal; c^(1/p) = c^(q/p)
        return _series(f, v0 // p, f.pow_codes(a[::p], f.q // p), prec)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            (other.field is self.field or other.field == self.field)
            and other.v0 == self.v0
            and other._c == self._c
            and other.prec == self.prec
        )

    def __str__(self):
        parts = []
        for i, n in enumerate(self._c):
            if not n:
                continue
            k = self.v0 + i
            cs = str(gf.FieldElement(self.field, n))
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
    over F_q). A polynomial never changes, so per precision it keeps these
    series and the converter that finds them by the coefficient's identity
    (a RatFunc has no hash); each coefficient is converted once. A
    polynomial with no variable term, a constant or zero, is its kept
    series: nothing is substituted. Any other goes through
    MultiPoly.evaluate: over F_p, with two terms or more, coefficients free
    of t and the coordinates used of valuation >= 0, as one packed-integer
    substitution (_evaluate_packed) that gives the codes and precision of series
    products and sums; on series when the slot would pass 8 bytes or any
    of these fails."""
    try:
        kept = poly._series
    except AttributeError:
        kept = poly._series = {}
    got = kept.get(prec)
    if got is None:
        got = kept[prec] = _kept_series(poly, prec)
    convert, constant, packed = got
    if constant is not None:
        return constant
    if packed is not None:
        out = _evaluate_packed(poly, packed, coords, prec)
        if out is not None:
            return out
    return poly.evaluate(coords, convert)


def _kept_series(poly, prec):
    """(convert, constant, packed) for evaluate: convert maps each
    coefficient of poly to its series at prec; constant is the series poly
    evaluates to when it has no variable term, else None; packed is
    _evaluate_packed's plan, or None off F_p or with a coefficient that
    depends on t."""
    domain = poly.domain
    if isinstance(domain, FunField):
        def series(c):
            return LaurentSeries.from_ratfunc(c, prec)
    else:
        def series(c):
            return LaurentSeries.constant(domain, c, prec)
    terms = poly.terms
    if not terms:
        return None, series(domain.zero()), None
    table = {id(c): series(c) for c in terms.values()}
    if len(terms) == 1 and not any(next(iter(terms))):
        return None, next(iter(table.values())), None

    def convert(c):
        return table[id(c)]
    return convert, None, _packed_plan(poly)


def _packed_plan(poly):
    """(field, code, terms, used) for _evaluate_packed, or None unless the
    field is prime, every coefficient is free of t and poly has two terms
    or more (one term is a kept power of a series times its coefficient):
    code maps a coefficient to its code by identity; terms holds per term
    its code and (var, k, j) per variable of exponent k = p^a * j, p not
    dividing j; used names the variables of poly."""
    domain = poly.domain
    field = domain.field if isinstance(domain, FunField) else domain
    if field.e != 1 or len(poly.terms) == 1:
        return None
    if isinstance(domain, FunField):
        if not all(c.is_constant() for c in poly.terms.values()):
            return None
        codes = {id(c): c.constant_value().n for c in poly.terms.values()}
    else:
        codes = {id(c): c.n for c in poly.terms.values()}
    p = field.p
    terms = []
    used = set()
    for e, c in poly.terms.items():
        factors = []
        for v, k in zip(poly.vars, e):
            if k:
                j = k
                while not j % p:
                    j //= p
                factors.append((v, k, j))
                used.add(v)
        terms.append((codes[id(c)], factors))

    def code(c):
        return codes[id(c)]
    return field, code, terms, [v for v in poly.vars if v in used]


class _Slots:
    """A series of valuation v0 >= 0 packed for MultiPoly.evaluate over the
    integers: raw holds its codes in slots of size bytes, from t^v0 on. s ** k
    is the int whose slot i holds the unreduced coefficient of t^i in s^k,
    below top: for k = p^a * j the codes are spread by p^a, which is the
    Frobenius on F_p (c^p = c), and the int is raised to j. Codes whose
    least contribution lands at or past top are left out."""

    __slots__ = ("raw", "v0", "size", "p", "top")

    def __init__(self, raw, v0, size, p, top):
        self.raw, self.v0, self.size, self.p, self.top = raw, v0, size, p, top

    def __pow__(self, k):
        raw, size, p, v0 = self.raw, self.size, self.p, self.v0
        a = 1
        while not k % p:
            k //= p
            a *= p
        # code i contributes at a * (k * v0 + i) and above
        n = -(-self.top // a) - k * v0
        raw = raw[: n * size] if n > 0 else b""
        if not raw:
            return 0
        if a == 1:
            return (int.from_bytes(raw, "little") << 8 * size * v0) ** k
        step = size * a
        start = step * v0
        out = bytearray(start + a * len(raw) - step + size)
        for i in range(size):
            out[start + i :: step] = raw[i::size]
        return int.from_bytes(out, "little") ** k


def _evaluate_packed(poly, plan, coords, prec):
    """poly at coords as one substitution over the integers, or None when a
    coordinate it uses has a negative valuation or a slot would be wider
    than 8 bytes. Each coordinate is packed with the code of t^i in slot i,
    each coefficient is its code, and the sum is reduced mod p once.

    The precision is the one series products and sums give: a product's
    valuations add and its relative precision is its factors' least, a
    coefficient's being prec and a zero coordinate's 0 (its v0 is its
    precision), and a sum's precision is its terms' least. No coefficient
    below it depends on a code whose least contribution lands at or past
    it, so each power leaves such codes out. A slot holds the packed
    polynomial's value at t = 1, the sum over the terms of c * prod(s^j), s
    a coordinate's code sum: a sum or product of polynomials with
    coefficients >= 0 bounds every coefficient by its value at 1, and a
    spread by p^a leaves s as it is. A slot also holds each packed code,
    up to p - 1, which a term with a zero factor leaves out of that sum."""
    field, code, terms, used = plan
    top = None
    for _, factors in terms:
        lo = 0
        rel = prec
        for v, k, _ in factors:
            s = coords[v]
            v0 = s.v0
            if v0 < 0:
                return None
            lo += k * v0
            if s.prec - v0 < rel:
                rel = s.prec - v0
        if top is None or lo + rel < top:
            top = lo + rel
    p = field.p
    bound = 0
    for c, factors in terms:
        for v, _, j in factors:
            c *= sum(coords[v]._c) ** j
        bound += c
    size = gf.slot_size(max(bound, p - 1))
    if size > 8:
        return None
    total = poly.evaluate({v: _Slots(gf.to_slots(coords[v]._c, size), coords[v].v0, size, p, top)
                           for v in used}, code)
    # from the first nonzero slot to the last, cut at top
    bits = 8 * size
    low = ((total & -total).bit_length() - 1) // bits if total else top
    if low >= top:
        return _series(field, top, [], top)
    total >>= bits * low
    count = -(-total.bit_length() // bits)
    raw = total.to_bytes(size * count, "little")
    return from_codes(field, low, gf.from_slots(raw, size, min(count, top - low), p), top)


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
