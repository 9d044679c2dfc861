import random
from fractions import Fraction

import pytest

from charfol import gf


def test_prime_field_arithmetic():
    F = gf.Field(7)
    a, b = F.from_int(3), F.from_int(5)
    assert str(a + b) == "1"
    assert str(a * b) == "1"
    assert str(a - b) == "5"
    assert (a / b) * b == a
    assert str(-a) == "4"


def test_extension_field_tables():
    F9 = gf.Field(3, 2)
    u = F9.gen()
    # u^2 reduces through the stored modulus; the order of u divides q-1
    seen = set()
    x = F9.one()
    for _ in range(8):
        x = x * u
        seen.add(str(x))
    assert x == F9.one()
    assert 8 % len(seen) == 0


def test_elements_enumeration():
    for field in (gf.Field(5), gf.Field(2, 4), gf.Field(3, 3)):
        elems = list(field.elements())
        assert len(elems) == field.q
        assert len({str(e) for e in elems}) == field.q


def test_frobenius_pth_root_roundtrip():
    for field in (gf.Field(3, 2), gf.Field(5), gf.Field(2, 3)):
        for x in field.elements():
            assert gf.pth_root(gf.frobenius(x)) == x
            assert gf.frobenius(gf.pth_root(x)) == x


def test_inverse_random():
    rng = random.Random(1)
    F = gf.Field(3, 4)
    for _ in range(50):
        x = F.random_element(rng)
        if not x:
            continue
        assert x * x.inverse() == F.one()


def test_distributivity_random():
    rng = random.Random(2)
    F = gf.Field(2, 8)
    for _ in range(50):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def test_not_prime():
    with pytest.raises(gf.NotPrime):
        gf.Field(6)


def test_reducible_modulus():
    with pytest.raises(gf.ReducibleModulus):
        gf.Field(2, 2, modulus=(0, 0, 1))  # u^2 factors as u*u


def test_q_bound():
    with pytest.raises(ValueError):
        gf.Field(2, 17)
    gf.Field(2, 16)  # exactly 2^16 is allowed


def test_q_bound_is_tested_before_primality(monkeypatch):
    # trial division of a p near 10^18 would run for minutes
    def no_trial_division(n):
        raise AssertionError(f"primality of {n} tested before the bound")

    monkeypatch.setattr(gf, "_is_prime", no_trial_division)
    with pytest.raises(gf.DomainError, match="q = 1000000000000000003 exceeds supported bound"):
        gf.check_field(1000000000000000003)
    with pytest.raises(gf.DomainError, match="q = 70001 exceeds supported bound"):
        gf.Field(70001)


@pytest.mark.parametrize("e, q", [(10**5, "3^100000"), (10**9, "3^1000000000")])
def test_q_far_above_the_bound_by_its_degree_fails_at_once(e, q):
    # 3^e has about 0.2 e digits: printing it, or at e = 10^9 building it,
    # would fail or run for minutes
    with pytest.raises(gf.DomainError) as info:
        gf.check_field(3, e)
    assert str(info.value) == f"q = {q} exceeds supported bound 65536"


def test_q_bound_message_prints_q_while_it_has_at_most_4300_digits():
    big = 10**4300 - 1
    for p, e, q in [(3, 20, "3486784401"), (2, 14000, str(2**14000)), (big, 1, str(big)),
                    (3, 10**4, "3^10000"), (big + 2, 1, "p^1 for a p of 14285 bits")]:
        with pytest.raises(gf.DomainError) as info:
            gf.check_field(p, e)
        assert str(info.value) == f"q = {q} exceeds supported bound 65536"


def test_reflected_operators_take_only_ints():
    F = gf.Field(5)
    c = F.from_int(2)
    assert 3 - c == F.from_int(1) and 3 / c == F.from_int(4)
    for other in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            other - c
        with pytest.raises(TypeError):
            other / c


def test_from_int_wraps():
    F = gf.Field(5)
    assert F.from_int(12) == F.from_int(2)
    assert F.from_int(-1) == F.from_int(4)


# -- the log tables against a schoolbook polynomial reference --
#
# An element is read as its digit list (constant first); the reference
# multiplies digit lists and reduces modulo the field's stored modulus.


def _digits(x):
    return gf.digits(x.n, x.field.p, x.field.e)


def _ref_mul(F, a, b):
    p, e, m = F.p, F.e, F.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    # u^k = -u^(k-e) * (m_0 + ... + m_(e-1) u^(e-1)), from the top down
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k] % p
        for i in range(e):
            prod[k - e + i] -= c * m[i]
    return [c % p for c in prod[:e]]


def _ref_pow(F, a, n):
    out = [1] + [0] * (F.e - 1)
    for bit in bin(n)[2:]:
        out = _ref_mul(F, out, out)
        if bit == "1":
            out = _ref_mul(F, out, a)
    return out


def _mismatches(F, pairs, powers=(0, 1, 2, 3, 7, -1, -2)):
    """The operations whose results differ from the reference on pairs of
    digit lists (unary operations on the first of each pair). A negative
    power of a nonzero element is checked against the reference power of its
    inverse, with -(q+1) added to powers."""
    p, e = F.p, F.e
    powers = (*powers, -(F.q + 1))
    one = [1] + [0] * (e - 1)
    bad = set()
    for x, y in pairs:
        a, b = F.element(x), F.element(y)
        if _digits(a * b) != _ref_mul(F, x, y):
            bad.add("mul")
        if _digits(a + b) != [(s + t) % p for s, t in zip(x, y)]:
            bad.add("add")
        if _digits(a - b) != [(s - t) % p for s, t in zip(x, y)]:
            bad.add("sub")
    for x in sorted({tuple(x) for x, _ in pairs}):
        x = list(x)
        a = F.element(x)
        if _digits(-a) != [-s % p for s in x]:
            bad.add("neg")
        if any(_digits(a**n) != _ref_pow(F, x, n) for n in powers if n >= 0):
            bad.add("pow")
        if a and any(_digits(a**n) != _ref_pow(F, _digits(a.inverse()), -n)
                     for n in powers if n < 0):
            bad.add("pow")
        if _digits(gf.frobenius(a)) != _ref_pow(F, x, p):
            bad.add("frobenius")
        if _ref_pow(F, _digits(gf.pth_root(a)), p) != x:
            bad.add("pth_root")
        if a and _ref_mul(F, _digits(a.inverse()), x) != one:
            bad.add("inverse")
    return bad


def _all_pairs(F):
    elems = [gf.digits(n, F.p, F.e) for n in range(F.q)]
    return [(x, y) for x in elems for y in elems]


def _sampled_pairs(F, count=300, seed=0):
    rng = random.Random(seed)
    return [tuple(gf.digits(rng.randrange(F.q), F.p, F.e) for _ in range(2))
            for _ in range(count)]


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_tables_match_reference_on_all_pairs(p, e):
    F = gf.Field(p, e)
    assert _mismatches(F, _all_pairs(F)) == set()


@pytest.mark.parametrize("p,e", [(5, 3), (2, 10), (3, 10)])
def test_tables_match_reference_on_sampled_pairs(p, e):
    F = gf.Field(p, e)
    # large exponents reach the far end of the antilog table
    powers = (0, 1, 2, F.q - 2, F.q - 1, F.q, 3 * F.q + 5, -1, -2)
    assert _mismatches(F, _sampled_pairs(F), powers) == set()


def _zech_off_by_one(F):
    k = next(k for k, z in enumerate(F.zech) if z >= 0)
    F.zech[k] = (F.zech[k] + 1) % (F.q - 1)


def _wrong_log_of_minus_one(F):
    F.log[F.p - 1] = (F.log[F.p - 1] + 1) % (F.q - 1)


def _minus_one_missing_from_exp(F):
    # exp[(q-1)/2] is -1; make it 1 in both copies
    half = (F.q - 1) // 2
    F.exp[half] = F.exp[half + F.q - 1] = 1


def _exp_entries_swapped(F):
    for k in (1, F.q):
        F.exp[k], F.exp[k + 1] = F.exp[k + 1], F.exp[k]


MUTATIONS = [
    (_zech_off_by_one, {"add", "sub"}),
    (_wrong_log_of_minus_one, {"mul", "inverse", "pow"}),
    (_minus_one_missing_from_exp, {"neg", "sub"}),
    (_exp_entries_swapped, {"mul", "pow", "frobenius", "pth_root"}),
]


@pytest.mark.parametrize("mutate,caught", MUTATIONS, ids=[m.__name__ for m, _ in MUTATIONS])
def test_reference_check_catches_a_corrupted_table(mutate, caught):
    F = gf.Field(5, 2)
    mutate(F)
    assert caught <= _mismatches(F, _all_pairs(F))


def test_every_checked_operation_has_a_mutation_it_catches():
    ops = {"mul", "add", "sub", "neg", "pow", "frobenius", "pth_root", "inverse"}
    assert set().union(*(c for _, c in MUTATIONS)) == ops


def _ref_str(ds):
    parts = []
    for k in range(len(ds) - 1, -1, -1):
        c = ds[k]
        if c:
            mono = "" if k == 0 else "u" if k == 1 else f"u^{k}"
            parts.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts) or "0"


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2)])
def test_str_is_the_digit_format(p, e):
    F = gf.Field(p, e)
    assert [str(x) for x in F.elements()] == [
        _ref_str(gf.digits(n, p, e)) for n in range(F.q)]
    assert str(F.element([2, 0])) == "2" and str(F.element([1, 2])) == "2*u+1"


@pytest.mark.parametrize("p,e", [(5, 1), (5, 2), (3, 4)])
def test_random_element_draws_one_digit_per_coefficient(p, e):
    F = gf.Field(p, e)
    rng, ref = random.Random(9), random.Random(9)
    for _ in range(20):
        assert _digits(F.random_element(rng)) == [ref.randrange(p) for _ in range(e)]
    assert rng.getstate() == ref.getstate()
