"""Exact arithmetic in F_q, q = p^e, as F_p[u]/(m(u)).

An element is one int n = c_0 + c_1 p + ... + c_(e-1) p^(e-1) in [0, q), the
base-p code of its coefficients over F_p (FieldElement.n); the coefficients
are read back only to print. Over F_p the operations are int operations mod
p. For e > 1 a Field builds, when it is made, tables over a primitive element
g (K. Huber, IEEE Trans. Inf. Theory 36(4), 1990): exp[k] = g^k for k in
[0, 2(q-1)), log[n] with log[0] = -1, and zech[k] = log(1 + g^k). A product
or a power is then arithmetic on logs, a sum one Zech lookup, and Field.inv
one log subtraction. This module owns code arithmetic: FieldElement's
operators work on one code, and Field's kernels on a list or term dict of
codes per call (series and _linalg read no table). The characteristic is
exposed everywhere as .p; frobenius and pth_root are total maps (the field
is perfect). Supported bound: q <= 2^16.
"""

import struct
from operator import add

MAX_Q = 1 << 16

# the residues mod m of 0..255, for every m with (m-1)^2 < 256: one
# bytes.translate reduces a product's one-byte slots
_BYTE_MOD = [None, None] + [(bytes(range(m)) * (256 // m + 1))[:256] for m in range(2, 17)]


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
    e < 1 or q above MAX_Q. The bound is tested first: trial division
    would not end for a p far above it. The test builds no power of p past
    MAX_Q * p, so an e far above the bound ends at once too."""
    if isinstance(p, int) and p > 1 and e >= 1 and _above_bound(p, e):
        raise DomainError(f"q = {_q_text(p, e)} exceeds supported bound {MAX_Q}")
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"p = {p!r} is not prime")
    if e < 1:
        raise DomainError("extension degree must be >= 1")


def _above_bound(p, e):
    """p^e > MAX_Q, multiplying one factor at a time."""
    q, k = 1, 0
    while k < e:
        q *= p
        k += 1
        if q > MAX_Q:
            return True
    return False


# 4300 digits, the most int() reads by default: every q a command line gives
_DECIMAL_CAP = 10**4300 - 1


def _q_text(p, e):
    """q = p^e in decimal when it has at most 4300 digits, else as p^e (p
    by its bit length when p itself has more)."""
    if e * (p.bit_length() - 1) < _DECIMAL_CAP.bit_length():
        q = p**e
        if q <= _DECIMAL_CAP:
            return str(q)
    if p <= _DECIMAL_CAP:
        return f"{p}^{e}"
    return f"p^{e} for a p of {p.bit_length()} bits"


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

    # -- kernels on lists of codes (series coefficients): one call per list --

    def add_codes(self, a, b):
        """The codes a[i] + b[i], as many as the shorter list has."""
        if self.e == 1:
            p = self.p
            return [(x + y) % p for x, y in zip(a, b)]
        log, exp, zech = self.log, self.exp, self.zech
        # g^i + g^j = g^i (1 + g^(j-i)); a negative j-i indexes from the end
        return [y if not x else x if not y
                else exp[lx + z] if (z := zech[log[y] - (lx := log[x])]) >= 0 else 0
                for x, y in zip(a, b)]

    def sub_codes(self, a, b):
        """The codes a[i] - b[i], as many as the shorter list has."""
        if self.e == 1:
            p = self.p
            return [(x - y) % p for x, y in zip(a, b)]
        return self.add_codes(a, self.scale_codes(self.p - 1, b[: len(a)]))

    def scale_codes(self, c, a):
        """The codes c*x for x in a, c nonzero; c = p - 1 (-1) negates."""
        if self.e == 1:
            p = self.p
            return [c * x % p for x in a]
        log, exp, lc = self.log, self.exp, self.log[c]
        return [exp[lc + log[x]] if x else 0 for x in a]

    def deriv_codes(self, k, a):
        """The codes (k+i)*a[i], k+i mod p: d/dt of sum a[i] t^(k+i)."""
        p = self.p
        if self.e == 1:
            return [x * (k + i) % p for i, x in enumerate(a)]
        # the code of (k+i) mod p in F_p is the residue itself; log[0] = -1
        log, exp = self.log, self.exp
        return [exp[log[x] + lk] if x and (lk := log[(k + i) % p]) >= 0 else 0
                for i, x in enumerate(a)]

    def pow_codes(self, a, n):
        """The codes x^n for x in a, n a power of p (p: Frobenius, q/p: p-th
        root); on F_p x^n = x, and a itself is returned."""
        if self.e == 1:
            return a
        log, exp, q1 = self.log, self.exp, self.q - 1
        return [exp[log[x] * n % q1] if x else 0 for x in a]

    def conv(self, a, b, out_len):
        """The first out_len <= len(a) + len(b) - 1 codes of the convolution
        of nonempty code lists. Over F_p one big-int multiply (Kronecker
        substitution) in slots of 1, 2, 4 or 8 bytes, as wide as a coefficient's
        integer value: bytes and one translate for one byte, struct for more.
        For e > 1 on logs, -1 for zero; a log below 2(q-1) indexes exp."""
        if self.e == 1:
            p = self.p
            maxval = (p - 1) * (p - 1) * min(len(a), len(b))
            if maxval < 256:
                raw = (int.from_bytes(bytes(a), "little")
                       * int.from_bytes(bytes(b), "little")).to_bytes(len(a) + len(b), "little")
                return list(raw[:out_len].translate(_BYTE_MOD[p]))
            size = 1 << ((maxval.bit_length() + 7) // 8 - 1).bit_length()
            fmt = "<%d" + "HIQ"[size.bit_length() - 2]
            ia = int.from_bytes(struct.pack(fmt % len(a), *a), "little")
            ib = int.from_bytes(struct.pack(fmt % len(b), *b), "little")
            raw = (ia * ib).to_bytes(size * (len(a) + len(b)), "little")
            return [x % p for x in struct.unpack_from(fmt % out_len, raw)]
        log, exp, zech, q1 = self.log, self.exp, self.zech, self.q - 1
        la = [log[c] for c in a]
        lb = [log[c] for c in b]
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
        return [exp[s] if s >= 0 else 0 for s in out]

    # -- kernels on term dicts of codes (exponent tuple -> nonzero code) --

    def addmul(self, dst, src, c):
        """dst += c * src in place, c nonzero; returns dst, so that
        addmul({}, src, c) is c * src."""
        if self.e == 1:
            p = self.p
            for k, val in src.items():
                s = (dst.get(k, 0) + val * c) % p
                if s:
                    dst[k] = s
                else:
                    del dst[k]  # val * c is nonzero, so k was there
            return dst
        log, exp, zech, q1 = self.log, self.exp, self.zech, self.q - 1
        lc = log[c]
        for k, val in src.items():
            x = (lc + log[val]) % q1
            s = dst.get(k)
            # g^s + g^x = g^s (1 + g^(x-s)); a negative x-s indexes from the end
            if s is None:
                dst[k] = exp[x]
            elif (z := zech[x - log[s]]) >= 0:
                dst[k] = exp[log[s] + z]
            else:
                del dst[k]
        return dst

    def submul(self, dst, src, c):
        """dst -= c * src in place, c nonzero: addmul by -c; -1 has code p-1."""
        if self.e == 1:
            return self.addmul(dst, src, self.p - c)
        return self.addmul(dst, src, self.exp[self.log[c] + self.log[self.p - 1]])

    def termmul(self, a, b):
        """The product of term dicts, summed term by term of a, then of b."""
        out = {}
        right = b.items()
        if self.e == 1:
            p = self.p
            for e1, c1 in a.items():
                for e2, c2 in right:
                    e = tuple(map(add, e1, e2))
                    s = (out.get(e, 0) + c1 * c2) % p
                    if s:
                        out[e] = s
                    else:
                        del out[e]  # c1 * c2 is nonzero, so e was there
            return out
        log, exp, zech, q1 = self.log, self.exp, self.zech, self.q - 1
        for e1, c1 in a.items():
            l1 = log[c1]
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                x = (l1 + log[c2]) % q1
                s = out.get(e)
                if s is None:
                    out[e] = exp[x]
                elif (z := zech[x - log[s]]) >= 0:
                    out[e] = exp[log[s] + z]
                else:
                    del out[e]
        return out

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
