"""Exact arithmetic in F_q, q = p^e, as F_p[u]/(m(u)).

Elements are immutable coefficient tuples over F_p. The characteristic is
exposed everywhere as .p; frobenius and pth_root are total maps (the field is
perfect). Supported bound: q <= 2^16.
"""

MAX_Q = 1 << 16


class NotPrime(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class NoModulusFound(RuntimeError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- dense univariate helpers over F_p (little-endian int lists, trimmed) --


def digits(n, p, count):
    """The first count base-p digits of n, least significant first."""
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_rem(a, b, p):
    """Remainder of a modulo b; b need not be monic (lead inverted mod p)."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = (a[-1] * inv_lead) % p
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        _trim(a)
    return a


def _irreducible(m, p):
    # trial division against all monic polynomials of degree <= deg(m)/2
    e = len(m) - 1
    for deg in range(1, e // 2 + 1):
        for idx in range(p**deg):
            if not _poly_rem(m, digits(idx, p, deg) + [1], p):
                return False
    return True


class Field:
    """F_p[u]/(m(u)); for e = 1 no modulus is stored."""

    __slots__ = ("p", "e", "q", "modulus", "_upow")

    def __init__(self, p, e=1, modulus=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise NotPrime(f"p = {p!r} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**e
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds supported bound {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to e > 1")
            self.modulus = None
        else:
            if modulus is None:
                modulus = self._search_modulus()
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _irreducible(list(modulus), p):
                raise ReducibleModulus(f"{self._fmt_mod(modulus)} is reducible over F_{p}")
            self.modulus = modulus
        # reduction table for u^k, k in [e, 2e-2]
        if e > 1:
            table = []
            cur = [(-c) % p for c in self.modulus[:-1]]  # u^e
            table.append(tuple(cur))
            for _ in range(e - 2):
                nxt = [0] + cur[:-1]
                lead = cur[-1]
                if lead:
                    for i in range(e):
                        nxt[i] = (nxt[i] + lead * table[0][i]) % p
                cur = nxt
                table.append(tuple(cur))
            self._upow = tuple(table)
        else:
            self._upow = ()

    def _search_modulus(self):
        # lexicographic over constant-first coefficient vectors
        p, e = self.p, self.e
        for idx in range(p**e):
            cs = digits(idx, p, e) + [1]
            if _irreducible(cs, p):
                return tuple(cs)
        raise NoModulusFound(f"no irreducible monic polynomial of degree {e} over F_{p}")

    @staticmethod
    def _fmt_mod(m):
        return " + ".join(f"{c}*u^{i}" for i, c in enumerate(m) if c) or "0"

    def zero(self):
        return FieldElement(self, (0,) * self.e)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return FieldElement(self, (n % self.p,) + (0,) * (self.e - 1))

    def gen(self):
        """The class of u; only defined for proper extensions."""
        if self.e == 1:
            raise ValueError("prime field has no generator symbol u")
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def element(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        cs = tuple(c % self.p for c in coeffs)
        if len(cs) > self.e:
            raise ValueError("too many coefficients")
        return FieldElement(self, cs + (0,) * (self.e - len(cs)))

    def elements(self):
        for idx in range(self.q):
            yield FieldElement(self, tuple(digits(idx, self.p, self.e)))

    def random_element(self, rng):
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.e)))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q}=F_{self.p}[u]/({self._fmt_mod(self.modulus)})"


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise TypeError(f"cannot combine {self!r} with {other!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self.field.from_int(other)

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        p, e = f.p, f.e
        if e == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = [0] * (2 * e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] = (prod[i + j] + a * b) % p
        out = prod[:e]
        for k in range(e, 2 * e - 1):
            c = prod[k]
            if c:
                red = f._upow[k - e]
                for i in range(e):
                    out[i] = (out[i] + c * red[i]) % p
        return FieldElement(f, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of 0 in " + repr(self.field))
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self.field.from_int(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        if self.field.e == 1:
            return str(self.coeffs[0])
        parts = []
        for k in range(self.field.e - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("u" if c == 1 else f"{c}*u")
            else:
                parts.append(f"u^{k}" if c == 1 else f"{c}*u^{k}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.field!r}>"


def frobenius(a):
    """a |-> a^p."""
    return a**a.field.p


def pth_root(a):
    """The unique b with b^p = a (perfectness): b = a^(p^(e-1))."""
    f = a.field
    if f.e == 1:
        return a
    return a ** (f.p ** (f.e - 1))
