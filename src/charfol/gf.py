"""Exact arithmetic in F_q, q = p^e, as F_p[u]/(m(u)).

An element is one int n = c_0 + c_1 p + ... + c_(e-1) p^(e-1) in [0, q), the
base-p code of its coefficients over F_p (FieldElement.n); the coefficients
are read back only to print. FieldElement's operators compute on the codes
themselves; series keep bare codes and work on them inline. Over F_p the
operations are int operations mod p. For e > 1 a Field builds, when it is
made, tables over a primitive element g (K. Huber, IEEE Trans. Inf. Theory
36(4), 1990): exp[k] = g^k for k in [0, 2(q-1)), log[n] with log[0] = -1,
and zech[k] = log(1 + g^k). A product or a power is then arithmetic on
logs, a sum one Zech lookup, and Field.inv one log subtraction. The
characteristic is exposed everywhere as .p; frobenius and pth_root are total
maps (the field is perfect). Supported bound: q <= 2^16.
"""

MAX_Q = 1 << 16


class DomainError(ValueError):
    """A parameter outside the documented domain."""


class NotPrime(DomainError):
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


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


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
    a = _trim([c % p for c in a])
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


def check_field(p, e=1):
    """Raise unless F_(p^e) is supported: NotPrime, or a DomainError for
    e < 1 or q above MAX_Q."""
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"p = {p!r} is not prime")
    if e < 1:
        raise DomainError("extension degree must be >= 1")
    if p**e > MAX_Q:
        raise DomainError(f"q = {p**e} exceeds supported bound {MAX_Q}")


class Field:
    """F_p[u]/(m(u)); for e = 1 no modulus is stored."""

    __slots__ = ("p", "e", "q", "modulus", "exp", "log", "zech")

    def __init__(self, p, e=1, modulus=None):
        check_field(p, e)
        q = p**e
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
            self._build_tables()

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

    # -- the tables of an extension field --

    def _mulmod(self, a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return _poly_rem(prod, self.modulus, self.p)

    def _is_primitive(self, g):
        for r in _prime_factors(self.q - 1):
            x, base, n = [1], g, (self.q - 1) // r
            while n:
                if n & 1:
                    x = self._mulmod(x, base)
                base = self._mulmod(base, base)
                n >>= 1
            if x == [1]:
                return False
        return True

    def _build_tables(self):
        """exp, log and zech over the primitive g of least code. exp holds
        its q-1 powers twice, so a sum of two logs indexes it unreduced; zech
        is -1 where g^k = -1."""
        p, e, q = self.p, self.e, self.q
        g = next(ds for ds in (digits(n, p, e) for n in range(p, q))
                 if self._is_primitive(ds))
        # Walk x -> g*x with the digits of x in w-bit slots of one int. The
        # map is F_p-linear, so g*x is the slot-wise sum of the images of
        # x's low k digits and of its high digits, read from two half-size
        # tables; then every slot at or above p loses p.
        w = (2 * p).bit_length() + 1
        k = e // 2
        low = (1 << w * k) - 1
        bias = sum(((1 << w - 1) - p) << w * i for i in range(e))
        high = sum(1 << w * i + w - 1 for i in range(e))

        def slots(ds):
            return sum(d << w * i for i, d in enumerate(ds))

        image, code = {}, {}
        for shift, count in ((0, k), (k, e - k)):
            for n in range(p**count):
                ds = [0] * shift + digits(n, p, count)
                image[slots(ds)] = slots(self._mulmod(ds, g))
                code[slots(ds)] = n * p**shift
        exp = [0] * (q - 1)
        x = 1
        for i in range(q - 1):
            lo = x & low
            exp[i] = code[lo] + code[x - lo]
            x = image[lo] + image[x - lo]
            x -= (((x + bias) & high) >> w - 1) * p
        log = [-1] * q
        for i, n in enumerate(exp):
            log[n] = i
        # adding 1 changes only digit 0
        self.zech = [log[n + 1 if n % p != p - 1 else n + 1 - p] for n in exp]
        self.exp = exp + exp
        self.log = log

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.exp[self.q - 1 - self.log[a]]

    # -- elements --

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def from_int(self, n):
        return FieldElement(self, n % self.p)

    def gen(self):
        """The class of u; only defined for proper extensions."""
        if self.e == 1:
            raise ValueError("prime field has no generator symbol u")
        return FieldElement(self, self.p)

    def element(self, coeffs):
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        p = self.p
        return FieldElement(self, sum(c % p * p**i for i, c in enumerate(coeffs)))

    def elements(self):
        for n in range(self.q):
            yield FieldElement(self, n)

    def random_element(self, rng):
        # one draw per coefficient, constant first
        p = self.p
        return FieldElement(self, sum(rng.randrange(p) * p**i for i in range(self.e)))

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
    """The element of field with base-p code n: mod p arithmetic for e = 1,
    the field's log, exp and Zech tables for e > 1."""

    __slots__ = ("field", "n")

    def __init__(self, field, n):
        self.field = field
        self.n = n

    def _check(self, other):
        """other as an element of this field; NotImplemented for an operand
        that is neither an int nor a FieldElement, so that its reflected
        operator (a series', say) runs."""
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field != self.field:
            raise TypeError(f"cannot combine {self!r} with {other!r}")
        return other

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return other
        a, b = self.n, other.n
        if f.e == 1:
            return FieldElement(f, (a + b) % f.p)
        if not a or not b:
            return FieldElement(f, a or b)
        # g^i + g^j = g^i (1 + g^(j-i)); a negative j-i indexes from the end
        i = f.log[a]
        z = f.zech[f.log[b] - i]
        return FieldElement(f, f.exp[i + z] if z >= 0 else 0)

    __radd__ = __add__

    def __neg__(self):
        f, a = self.field, self.n
        if f.e == 1:
            return FieldElement(f, -a % f.p)
        # -1 = g^((q-1)/2); -a = a for a = 0 or p = 2
        return FieldElement(f, f.exp[f.log[a] + (f.q - 1) // 2] if a and f.p != 2 else a)

    def __sub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._check(other)
            if other is NotImplemented:
                return other
        a, b = self.n, other.n
        if f.e == 1:
            return FieldElement(f, a * b % f.p)
        return FieldElement(f, f.exp[f.log[a] + f.log[b]] if a and b else 0)

    __rmul__ = __mul__

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.n))

    def __truediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, n):
        f, a = self.field, self.n
        if n < 0:
            a, n = f.inv(a), -n
        if f.e == 1:
            return FieldElement(f, pow(a, n, f.p))
        if not a:
            return FieldElement(f, 0 if n else 1)
        return FieldElement(f, f.exp[f.log[a] * n % (f.q - 1)])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, FieldElement)
            and other.n == self.n
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.n))

    def __bool__(self):
        return self.n != 0

    def __str__(self):
        if self.field.e == 1:
            return str(self.n)
        parts = []
        for k, c in reversed(list(enumerate(digits(self.n, self.field.p, self.field.e)))):
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
    return a ** (a.field.p ** (a.field.e - 1))
