"""Field-spec parsing, exact arithmetic, and the field axioms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_neg, gf_pow_mod, gf_rem, gf_strip, gf_sub

from commdist.commute import PcCertificate
from commdist.errors import (
    CapExceeded,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    ParseError,
    ReducibleModulus,
    UnsupportedDegree,
)
from commdist.field import FieldSpec, _ext_tables, _is_prime, _np_tables

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF4 = FieldSpec.parse("gf(2^2):1,1,1")
GF9 = FieldSpec.parse("gf(9)")
GF27 = FieldSpec.parse("gf(3^3):1,2,0,1")


def test_grammar_terminals():
    assert FieldSpec.parse("qq").kind == "rationals"
    assert FieldSpec.parse("QQ") == QQ
    g3 = FieldSpec.parse("gf(3)")
    assert g3.kind == "prime" and g3.p == 3 and g3.order == 3


def test_gf9_sugar_expands_to_x_squared_plus_one():
    # oracle: x^2 + 1 has no root in GF(3), so the default modulus is irreducible
    assert all((x * x + 1) % 3 != 0 for x in range(3))
    assert GF9.kind == "extension" and (GF9.p, GF9.k) == (3, 2)
    assert GF9.modulus == (1, 0, 1)
    assert GF9 == FieldSpec.parse("gf(3^2):1,0,1")
    assert GF9.order == 9
    assert GF9.to_string() == "gf(3^2):1,0,1"


def test_gf49_sugar_also_works_for_p_3_mod_4():
    g49 = FieldSpec.parse("gf(49)")
    assert (g49.p, g49.k, g49.modulus) == (7, 2, (1, 0, 1))


@pytest.mark.parametrize(
    "text,exc",
    [
        ("gf(6)", NotPrime),
        ("gf(1)", NotPrime),
        ("gf(4)", ParseError),  # 2 != 3 mod 4: modulus mandatory
        ("gf(25):1,0,1", ReducibleModulus),  # 2^2 = -1 mod 5
        ("gf(2^2):1,0,1", ReducibleModulus),  # (x+1)^2 over GF(2)
        ("gf(2^5):1,0,0,0,0,1", UnsupportedDegree),
        ("gf(3^2):1,0,2", ParseError),  # not monic
        ("gf(3^2):1,1", ParseError),  # wrong length
        ("gf(3", ParseError),
        ("hello", ParseError),
        ("gf(37^2):1,0,1", ParseError),  # extension characteristic cap
        ("gf(4294967311)", ParseError),  # a prime past the 2^31 cap
        ("gf(5^1)", ParseError),  # prime fields are written gf(p)
        ("gf(5):1,2", ParseError),  # prime fields take no modulus
    ],
)
def test_bad_specs(text, exc):
    with pytest.raises(exc):
        FieldSpec.parse(text)


def test_prime_cap():
    with pytest.raises(ParseError):
        FieldSpec.prime(2**31 + 11)
    big = FieldSpec.prime(2147483647)  # largest prime below 2^31
    assert big.order == 2147483647


def test_miller_rabin_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(-3, 100_000))
    rng = random.Random(31)
    large = [rng.randrange(2**30, 2**31) for _ in range(300)] + [2**31 - 1, 2**31 - 19, 2**31 - 21]
    assert [_is_prime(n) for n in large] == [by_trial_division(n) for n in large]
    assert _is_prime(2**31 - 1) and not _is_prime(46337 * 46349)


def test_rational_strings_parse_as_fraction_does_below_the_exponent_limit():
    for text in ("1e5", "2.5", "-7/3", "1_000", " 3E+2 ", "1.5e-3", "1e4299", "-1e-4299"):
        assert QQ.raw_from(text) == Fraction(text)
    # Fraction(str) would build 10^|exponent|: past 4300, the interpreter's
    # int-string digit limit, the exponent is an input error, and so is a
    # numerator or denominator of more than 4300 digits, which could not print
    for text in (
        "1e4300", "1e-4300", "12.5e4299",
        "1e4301", "-2.5E-4301", "1e" + "9" * 5000, "1e-99999999", "1e99999999",
    ):
        with pytest.raises(ParseError):
            QQ.raw_from(text)


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF9], ids=str)
def test_booleans_are_not_field_elements(spec):
    # bool is an int, so over QQ `true` used to read as 1
    for value in (True, False):
        with pytest.raises(ParseError, match="booleans"):
            spec.raw_from(value)


def test_arith_examples():
    assert (GF3.elem(2) * GF3.elem(2)).to_json() == 1
    assert (QQ.elem("1/3") + QQ.elem("1/6")).to_json() == "1/2"
    x = GF9.elem([0, 1])
    assert (x * x).to_json() == [2, 0]  # the quotient relation forces x^2 = -1


def test_arith_dispatch():
    # each operation the removed string dispatcher named, through its operator
    a, b = GF3.elem(2), GF3.elem(2)
    assert (a + b).to_json() == 1
    assert (a - b).to_json() == 0
    assert (a * b).to_json() == 1
    assert (a / b).to_json() == 1
    assert (-a).to_json() == 1
    assert a.inv().to_json() == 2
    assert (a == b) is True
    assert (a == GF3.elem(1)) is False


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF3.elem(1) / GF3.elem(0)
    with pytest.raises(DivisionByZero):
        QQ.elem(0).inv()
    with pytest.raises(DivisionByZero):
        GF9.elem_from_code(0).inv()


@pytest.mark.parametrize(
    "spec", [QQ, GF2, FieldSpec.prime(2**31 - 1), GF9, FieldSpec.parse("gf(5^4):1,0,1,1,1"),
             FieldSpec.parse("gf(17^2):14,0,1")], ids=str,
)
def test_every_scalar_kit_refuses_the_inverse_of_zero(spec):
    # the rationals, a table prime, the cap prime, a table extension and two
    # extensions past the 256-entry tables: one record of seven operations
    ops = spec.ops()
    assert ops._fields == ("zero", "one", "add", "sub", "mul", "neg", "inv")
    assert not hasattr(ops, "spec") and not hasattr(ops, "div")
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        ops.inv(ops.zero)
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        spec.one() / spec.zero()
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        -spec.one() / 0
    minus = -spec.one()
    assert minus / minus == spec.one() == minus.inv() * minus


def test_inverses_at_the_prime_cap():
    # oracle: a * a^-1 reduces to 1 in plain integers, and zero has no inverse
    p = 2**31 - 1
    spec = FieldSpec.prime(p)
    rng = random.Random(0)
    for a in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(200)]:
        inv = spec.elem(a).inv()
        assert inv * spec.elem(a) == spec.one()
        assert a * inv.to_json() % p == 1
    with pytest.raises(DivisionByZero):
        spec.zero().inv()


def test_constructors_check_their_arguments():
    with pytest.raises(NotPrime):
        FieldSpec.prime(9)
    with pytest.raises(NotPrime):
        FieldSpec.extension(4, 2, (1, 1, 1))
    with pytest.raises(ParseError):
        FieldSpec.extension(5, 1, (1, 1))


def test_entries_of_the_wrong_kind_are_refused():
    with pytest.raises(FieldMismatch):
        GF3.raw_from(GF2.elem(1))
    for value in (None, 1.5, [1, 0]):
        with pytest.raises(ParseError):
            GF3.raw_from(value)
    with pytest.raises(FieldMismatch):
        QQ.elem_from_code(0)
    for code in (-1, 4):
        with pytest.raises(ParseError):
            GF4.elem_from_code(code)


def test_error_messages_echo_short_values_whole_and_long_ones_cut():
    cases = [
        (lambda: GF3.raw_from(None), "cannot interpret None as an element of gf(3)"),
        (lambda: QQ.raw_from("1/x"), "bad rational '1/x'"),
        (lambda: QQ.raw_from([1, 2, 3, 4, 5, 6, 7]), "cannot interpret [1, 2, 3, 4, 5, 6, 7] as a rational"),
        (lambda: GF3.raw_from("7/x"), "bad field entry '7/x'"),
        (lambda: GF4.raw_from([1, "a"]), "coefficient vector [1, 'a'] has a coefficient that is not an integer"),
        (lambda: FieldSpec.parse("gf[2]"), "bad field spec 'gf[2]'"),
    ]
    for call, message in cases:
        with pytest.raises(ParseError) as info:
            call()
        assert str(info.value) == message
    for call in (lambda: QQ.raw_from("y" * 10**5), lambda: FieldSpec.parse("z" * 10**5),
                 lambda: GF3.raw_from({"k": list(range(10**4))})):
        with pytest.raises(ParseError) as info:
            call()
        assert len(str(info.value)) < 300 and "..." in str(info.value)
    # the cut bounds the whole echo, however many pieces reprlib kept
    row = ["x" * 80] * 40
    for value, start, end in ((row, "['xxx", "xxx']"), ([row] * 40, "[['xxx", "xxx']]")):
        with pytest.raises(ParseError) as info:
            QQ.raw_from(value)
        echo = str(info.value).removeprefix("cannot interpret ").removesuffix(" as a rational")
        assert len(echo) == 80 and echo.startswith(start) and echo.endswith(end) and "..." in echo


def test_field_elements_are_immutable_and_equal_only_to_elements():
    x = GF9.elem([1, 2])
    with pytest.raises(AttributeError):
        x.raw = 0
    assert (GF3.elem(0) == 0) is False and (GF3.elem(1) == 1) is False
    assert repr(x) == "FieldElem(gf(3^2):1,0,1, [1, 2])"


def test_uint8_tables_stop_at_256_elements():
    with pytest.raises(CapExceeded):
        _np_tables(FieldSpec.prime(257))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF3.elem(1) + GF2.elem(1)
    assert GF3.elem(1) != QQ.elem(1)  # equality compares, it never raises


@pytest.mark.parametrize("spec", [QQ, GF2, GF3, GF4, GF9, GF27])
def test_field_axioms(spec):
    rng = random.Random(hash(spec.to_string()) & 0xFFFF)

    def rand():
        if spec.is_finite:
            return spec.elem_from_code(rng.randrange(spec.order))
        return spec.elem(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))

    one = spec.one()
    for _ in range(120):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inv() == one
        assert a + (-a) == spec.zero()


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9, GF27])
def test_multiplicative_group_order(spec):
    q = spec.order
    elems = [spec.elem_from_code(c) for c in range(q)]
    assert len(set(elems)) == q
    one = spec.one()
    for e in elems[1:]:
        acc = one
        for _ in range(q - 1):
            acc = acc * e
        assert acc == one


@pytest.mark.parametrize(
    "text",
    ["gf(2^2):1,1,1", "gf(2^3):1,1,0,1", "gf(9)", "gf(49)", "gf(3^4):2,1,0,0,1", "gf(5^4):1,0,1,1,1"],
)
def test_extension_arithmetic_matches_sympy_polynomials(text):
    # gf(5^4) has q = 625 > 256, so its ops are the untabulated methods
    spec = FieldSpec.parse(text)
    p, k, q, ops = spec.p, spec.k, spec.order, spec.ops()
    mod = list(reversed(spec.modulus))  # sympy lists coefficients high to low

    def poly(code):
        return gf_strip([code // p**i % p for i in reversed(range(k))])

    def code(f):
        return sum(int(c) * p**i for i, c in enumerate(reversed(f)))

    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        f, g = poly(a), poly(b)
        assert ops.add(a, b) == code(gf_add(f, g, p, ZZ))
        assert ops.sub(a, b) == code(gf_sub(f, g, p, ZZ))
        assert ops.mul(a, b) == code(gf_rem(gf_mul(f, g, p, ZZ), mod, p, ZZ))
        assert ops.neg(a) == code(gf_neg(f, p, ZZ))
        if a:
            inverse, _, gcd = gf_gcdex(f, mod, p, ZZ)
            assert gcd == [1] and ops.inv(a) == code(inverse)

    def primitive(c):
        return all(gf_pow_mod(poly(c), (q - 1) // r, mod, p, ZZ) != [1] for r in factorint(q - 1))

    gen = _ext_tables(spec).exp[1]  # the generator behind the exp/log tables
    assert primitive(gen) and not any(primitive(c) for c in range(2, gen))


def _sympy_tables(spec):
    """add, neg, mul and inv (0 at 0) of GF(p^k) on every code, from sympy
    polynomial arithmetic over GF(p) reduced by the modulus (x for GF(p))."""
    p, k, q = spec.p, spec.k, spec.order
    mod = list(reversed(spec.modulus)) or [1, 0]
    polys = [gf_strip([code // p**i % p for i in reversed(range(k))]) for code in range(q)]

    def code(f):
        return sum(int(c) * p**i for i, c in enumerate(reversed(f)))

    add = np.array([[code(gf_add(f, g, p, ZZ)) for g in polys] for f in polys])
    mul = np.zeros((q, q), np.int64)
    for a in range(q):
        for b in range(a, q):  # products commute in sympy too: half the table
            mul[a, b] = mul[b, a] = code(gf_rem(gf_mul(polys[a], polys[b], p, ZZ), mod, p, ZZ))
    neg = [code(gf_neg(f, p, ZZ)) for f in polys]
    inv = [0] + [code(gf_gcdex(f, mod, p, ZZ)[0]) for f in polys[1:]]
    return add, np.array(neg), mul, np.array(inv)


@pytest.mark.parametrize(
    "text",
    ["gf(2^2):1,1,1", "gf(2^3):1,1,0,1", "gf(9)", "gf(3^4):2,1,0,0,1", "gf(13^2):11,0,1", "gf(251)",
     "gf(17^2):14,0,1", "gf(7^3):1,1,0,1"],
)
def test_field_tables_match_sympy_on_every_pair(text):
    # q <= 256 tabulates once in _np_tables, which the scalar extension ops
    # read; above 256, gf(17^2) and gf(7^3) compute with the codec and exp/log
    spec = FieldSpec.parse(text)
    q, ops = spec.order, spec.ops()
    want = _sympy_tables(spec)
    r = range(q)
    got = (
        np.array([[ops.add(a, b) for b in r] for a in r]),
        np.array([ops.neg(a) for a in r]),
        np.array([[ops.mul(a, b) for b in r] for a in r]),
        np.array([0] + [ops.inv(a) for a in r[1:]]),
    )
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    if q <= 256:
        add, neg, mul, inv, neg_mul = _np_tables(spec)
        assert all(np.array_equal(g, w) for g, w in zip((add, neg, mul, inv), want))
        assert np.array_equal(neg_mul, want[1][want[2]])


def test_rational_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        a = QQ.elem(Fraction(rng.getrandbits(64), rng.getrandbits(32) + 1))
        b = QQ.elem(Fraction(rng.getrandbits(64), rng.getrandbits(32) + 1))
        assert (a + b) - b == a


def test_lowest_terms_and_reduction_invariants():
    e = QQ.elem("-6/4")
    assert e.raw == Fraction(-3, 2) and e.raw.denominator == 2
    assert GF3.elem(-1).to_json() == 2
    assert GF9.elem([4, 5]).to_json() == [1, 2]  # coefficients reduce mod p


@pytest.mark.parametrize("value", [[[1]], ["a"], [1.5, True], ["2", 1], [0, False], [None]], ids=repr)
def test_extension_coefficients_are_integers_only(value):
    # each coefficient went through int(): [[1]] raised TypeError, ["a"] a bare
    # ValueError, and [1.5, true] read as 1 + x, ["2", 1] as 2 + x
    with pytest.raises(ParseError, match="is not an integer"):
        GF9.elem(value)
    with pytest.raises(ParseError, match="is not an integer"):
        PcCertificate.from_json(GF9, {"cs": [value], "ds": [1]})


def test_numpy_integer_coefficients_are_accepted():
    assert GF9.elem([np.int64(4), np.uint8(5)]).to_json() == [1, 2]


def test_entry_json_round_trip():
    for spec, values in [
        (QQ, [0, 5, "-7/3"]),
        (GF3, [0, 1, 2]),
        (GF9, [[0, 0], [2, 1]]),
    ]:
        for v in values:
            e = spec.elem(v)
            assert spec.elem(e.to_json()) == e


def test_string_entries_over_a_prime_field():
    gf5 = FieldSpec.prime(5)
    assert gf5.raw_from("3/2") == 4 and gf5.raw_from("-7") == 3
    with pytest.raises(DivisionByZero):
        gf5.raw_from("1/5")
    with pytest.raises(ParseError):
        gf5.raw_from("x")


def test_fraction_embedding_into_prime_fields():
    # 1/2 = 2 in GF(3); denominators divisible by p are rejected
    assert GF3.elem(Fraction(1, 2)).to_json() == 2
    with pytest.raises(DivisionByZero):
        GF3.elem(Fraction(1, 3))
