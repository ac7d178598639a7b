"""Exact field arithmetic: prime fields GF(p), small extensions GF(p^k), and rationals.

Field elements are stored in canonical raw form: `fractions.Fraction` for the
rationals, and integer codes for finite fields.  A finite-field code encodes
the coefficient vector of the residue low-to-high in base p, so for GF(p) the
code is the residue itself and for GF(p^k) the element c_0 + c_1 x + ... has
code sum(c_i * p**i).  Codes double as the enumeration order used everywhere
else in the library.
"""

from __future__ import annotations

import collections
import functools
import operator
import re
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceeded,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
    ParseError,
    ReducibleModulus,
    UnsupportedDegree,
)

_MAX_PRIME = 2**31
_MAX_EXT_CHAR = 31  # exhaustive irreducibility checks stay feasible
_MAX_EXT_DEGREE = 4

_EXPONENT_RE = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)  # a decimal exponent, as Fraction(str) reads it
_MAX_EXPONENT = sys.int_info.default_max_str_digits  # 4300, the interpreter's int-string digit limit
_MAX_RATIONAL_PART = 10**_MAX_EXPONENT  # the least integer that no longer prints
_SPEC_RE = re.compile(r"^gf\((\d+)(?:\^(\d+))?\)(?::(-?\d+(?:\s*,\s*-?\d+)*))?$")
_ECHO = reprlib.Repr()  # caps the depth, element counts and pieces of a repr; `_echo` caps its length
_ECHO.maxlevel = _ECHO.maxtuple = _ECHO.maxlist = _ECHO.maxdict = _ECHO.maxset = 40
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 80


def _echo(value) -> str:
    """An input value as error messages echo it: its repr, cut in the middle to at most 80 characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= 80 else f"{text[:38]}...{text[-39:]}"


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61, exact for every n < 2^32."""
    if n < 2 or n in (2, 7, 61):
        return n >= 2
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in {pow(a, d << k, n) for k in range(s)} for a in (2, 7, 61))


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low-to-high as tuples


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num modulo den over GF(p); den must be nonzero."""
    num_l = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    while len(num_l) - 1 >= dd and num_l:
        if num_l[-1] == 0:
            num_l.pop()
            continue
        shift = len(num_l) - 1 - dd
        factor = num_l[-1] * inv_lead % p
        for i, c in enumerate(den):
            num_l[shift + i] = (num_l[shift + i] - factor * c) % p
        while num_l and num_l[-1] == 0:
            num_l.pop()
    return tuple(num_l)


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustively test that no monic divisor of degree <= k/2 exists."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        # all monic polynomials of degree d: p**d candidates
        for code in range(p**d):
            cand = tuple(code // p**i % p for i in range(d)) + (1,)
            if not _poly_mod(modulus, cand, p):
                return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """An exact field: the rationals, GF(p), or GF(p^k) as a polynomial quotient.

    Instances are immutable values; use the classmethod constructors, such as
    `FieldSpec.parse`, which validate primality and irreducibility.
    """

    kind: str  # "rationals" | "prime" | "extension"
    p: int = 0
    k: int = 1
    modulus: tuple[int, ...] = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        if p >= _MAX_PRIME:
            raise ParseError(f"prime {p} exceeds the 2^31 cap")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return cls("prime", p=p)

    @classmethod
    def extension(cls, p: int, k: int, modulus: tuple[int, ...] | None, *, named: str = "") -> "FieldSpec":
        """GF(p^k) modulo `modulus`, low coefficient first; None takes x^2 + 1 when it is irreducible,
        and otherwise names the field `named`, gf(p^k) by default, as needing an explicit modulus."""
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k > _MAX_EXT_DEGREE:
            raise UnsupportedDegree(f"extension degree {_echo(k)} > {_MAX_EXT_DEGREE}")
        if k < 2:
            raise ParseError("extension degree must be at least 2; use gf(p) for prime fields")
        if p > _MAX_EXT_CHAR:
            raise ParseError(
                f"extension characteristic {p} > {_MAX_EXT_CHAR}: "
                "irreducibility is only checked exhaustively"
            )
        if modulus is None and not (k == 2 and p % 4 == 3):  # else x^2 + 1: -1 is a non-square mod p
            raise ParseError(f"{named or f'gf({p}^{k})'} needs an explicit modulus")
        modulus = tuple(c % p for c in ((1, 0, 1) if modulus is None else modulus))
        if len(modulus) != k + 1:
            raise ParseError(f"modulus needs {k + 1} coefficients, got {len(modulus)}")
        if modulus[-1] != 1:
            raise ParseError("modulus must be monic (leading coefficient 1)")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over GF({p})")
        return cls("extension", p=p, k=k, modulus=modulus)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        s = text.strip().lower().replace(" ", "")
        if s == "qq":
            return cls.rationals()
        m = _SPEC_RE.match(s)
        if m is None:
            raise ParseError(f"bad field spec {_echo(text)}")
        if max(map(len, re.findall(r"\d+", s))) > _MAX_EXPONENT:  # int() refuses longer digit strings
            raise ParseError(f"field spec {_echo(text)}: a number past {_MAX_EXPONENT} digits")
        base, caret, coeffs = int(m.group(1)), m.group(2), m.group(3)
        if base >= _MAX_PRIME:  # no supported field is this large
            raise ParseError(f"gf({_echo(base)}) exceeds the 2^31 cap")
        if caret is not None:
            p, k = base, int(caret)
        else:  # base = p^k for at most one prime p, an integer root base^(1/k)
            roots = ((round(base ** (1 / k)), k) for k in range(1, base.bit_length()))
            p, k = next(((r, k) for r, k in roots if r**k == base and _is_prime(r)), (0, 0))
            if not p:
                raise NotPrime(f"{base} is not a prime power")
            if k == 1:
                if coeffs is not None:
                    raise ParseError("prime fields take no modulus")
                return cls("prime", p=p)  # _is_prime proved p prime, and it is below the cap
        modulus = None if coeffs is None else tuple(int(c) for c in coeffs.split(","))
        return cls.extension(p, k, modulus, named="" if caret else f"gf({base})")

    # -- basics --------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "rationals"

    @property
    def order(self) -> int | None:
        """Number of elements, or None for the rationals."""
        if self.kind == "prime":
            return self.p
        if self.kind == "extension":
            return self.p**self.k
        return None

    def to_string(self) -> str:
        if self.kind == "rationals":
            return "qq"
        if self.kind == "prime":
            return f"gf({self.p})"
        return f"gf({self.p}^{self.k}):" + ",".join(str(c) for c in self.modulus)

    def __str__(self) -> str:
        return self.to_string()

    def ops(self) -> "_Ops":
        return _ops_for(self)

    # -- element construction -------------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, self.ops().zero)

    def one(self) -> "FieldElem":
        return FieldElem(self, self.ops().one)

    def elem(self, value) -> "FieldElem":
        """Build an element from an int, Fraction, "a/b" string, coefficient list, or code."""
        return FieldElem(self, self.raw_from(value))

    def raw_from(self, value):
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"element of {value.spec} used in {self}")
            return value.raw
        if isinstance(value, bool):
            raise ParseError("booleans are not field elements")
        if self.kind == "rationals":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            if isinstance(value, str):
                exp = _EXPONENT_RE.search(value)  # "1e-99999999" would build a 10^99999999 denominator
                try:
                    if exp and abs(int(exp[1])) > _MAX_EXPONENT:
                        raise ValueError
                    out = Fraction(value)
                    if max(abs(out.numerator), out.denominator) >= _MAX_RATIONAL_PART:  # the echo would fail
                        raise ValueError
                    return out
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad rational {_echo(value)}") from exc
            raise ParseError(f"cannot interpret {_echo(value)} as a rational")
        if isinstance(value, (int, np.integer)):
            return int(value) % self.p  # embedded as a constant
        if isinstance(value, (list, tuple)):
            if self.kind != "extension":
                raise ParseError("coefficient vectors only make sense for extension fields")
            if len(value) > self.k:
                raise ParseError(f"coefficient vector longer than degree {self.k}")
            if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in value):
                raise ParseError(f"coefficient vector {_echo(value)} has a coefficient that is not an integer")
            return sum(int(c) % self.p * self.p**i for i, c in enumerate(value))
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
        elif isinstance(value, str):
            top, _, bottom = value.partition("/")
            try:
                num, den = int(top), int(bottom) if bottom else 1
            except ValueError as exc:
                raise ParseError(f"bad field entry {_echo(value)}") from exc
        else:
            raise ParseError(f"cannot interpret {_echo(value)} as an element of {self}")
        # the denominator as written, not reduced: "2/6" over GF(3) names 6
        if den % self.p == 0:
            raise DivisionByZero(f"denominator {den} vanishes in GF({self.p})")
        return num * pow(den, -1, self.p) % self.p

    def elem_from_code(self, code: int) -> "FieldElem":
        """Element with the given enumeration code (finite fields only)."""
        q = self.order
        if q is None:
            raise FieldMismatch("the rationals have no element codes")
        if not 0 <= code < q:
            raise ParseError(f"code {code} out of range for {self}")
        return FieldElem(self, code)

    def entry_to_json(self, raw):
        if self.kind == "rationals":
            return int(raw) if raw.denominator == 1 else f"{raw.numerator}/{raw.denominator}"
        if self.kind == "prime":
            return int(raw)
        return [raw // self.p**i % self.p for i in range(self.k)]


# ---------------------------------------------------------------------------
# raw arithmetic kits: `_ops_for` builds one record of scalar operations on raw
# values per field, and every kit's inverse goes through the one zero check

_Ops = collections.namedtuple("_Ops", "zero one add sub mul neg inv")


def _nonzero(inv):
    """`inv` behind the zero test: the inverse of zero raises in every field."""

    def checked(a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return inv(a)

    return checked


class _ExtTables:
    """Arithmetic of one extension field GF(p^k) on codes.

    One digit codec serves addition, subtraction and negation; exp/log tables
    of the least primitive element serve multiplication and inversion.
    """

    def __init__(self, spec: FieldSpec):
        p, k = spec.p, spec.k
        q = p**k
        self.p, self.k, self.q, self.modulus = p, k, q, spec.modulus
        self.weights = [p**i for i in range(k)]
        # exp runs through the powers of the least primitive element
        exp = next(w for w in map(self._powers, range(2, q)) if len(w) == q - 1)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.exp = exp.tolist()
        self.log = log.tolist()

    def digits(self, code: int) -> list[int]:
        return [code // w % self.p for w in self.weights]

    def code(self, digits) -> int:
        """Code of a coefficient list (low to high, at most k long), reduced mod p."""
        return sum(c % self.p * w for c, w in zip(digits, self.weights))

    def add(self, a: int, b: int) -> int:
        return self.code(map(operator.add, self.digits(a), self.digits(b)))

    def sub(self, a: int, b: int) -> int:
        return self.code(map(operator.sub, self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        return self.code(map(operator.neg, self.digits(a)))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def _times(self, digits) -> np.ndarray:
        """Matrix of multiplication by one element: row i is x^i times it."""
        rows = (_poly_mod((0,) * i + tuple(digits), self.modulus, self.p) for i in range(self.k))
        return np.array([list(r) + [0] * (self.k - len(r)) for r in rows], dtype=np.int32)

    def _powers(self, g: int) -> np.ndarray:
        """Codes of g^0, g^1, ... up to the order of g (at most q - 1).

        Each round multiplies the digits of every power found so far by the
        next power of g, doubling the walk, until it returns to 1.
        """
        p, q, step = self.p, self.q, self._times(self.digits(g))
        weights = np.array(self.weights, dtype=np.int32)
        # one dtype throughout, so no product casts a whole slice: p <= 31 and
        # k <= 4 keep digits, their products and codes below 2^31
        walk, codes = np.empty((q, self.k), dtype=np.int32), np.empty(q, dtype=np.int32)
        walk[0], codes[0], n = self.digits(1), 1, 1
        while True:
            end = min(2 * n, q)
            # in place: the rows written never overlap the rows read
            np.matmul(walk[: end - n], self._times(walk[n - 1] @ step % p), out=walk[n:end])
            np.remainder(walk[n:end], p, out=walk[n:end])
            np.matmul(walk[n:end], weights, out=codes[n:end])
            ones = np.flatnonzero(codes[n:end] == 1)
            if len(ones):
                return codes[: n + ones[0]]
            n = end


@functools.lru_cache(maxsize=None)
def _np_tables(spec: FieldSpec):
    """(add, neg, mul, inv, -mul) uint8 lookup tables of a finite field, with
    inv[0] = 0; CapExceeded above q = 256, where the numpy kernels compute in
    int64 instead.  Sums add digits mod p, products add exp/log indices."""
    q = spec.order
    if q > 256:
        raise CapExceeded(f"table arithmetic needs q <= 256, got {q}")
    r = np.arange(q)
    if spec.kind == "prime":
        add, mul = np.add.outer(r, r) % q, np.multiply.outer(r, r) % q
    else:
        t = _ext_tables(spec)
        d = r[:, None] // t.weights % t.p
        add = (d[:, None] + d) % t.p @ t.weights
        log = np.array(t.log)
        mul = np.array(t.exp)[np.add.outer(log, log) % (q - 1)]
        mul[0] = mul[:, 0] = 0
    add, mul = add.astype(np.uint8), mul.astype(np.uint8)
    # row a of add holds one 0, at -a; row a > 0 of mul holds one 1, at 1/a
    neg, inv = (add == 0).argmax(1).astype(np.uint8), (mul == 1).argmax(1).astype(np.uint8)
    return add, neg, mul, inv, neg[mul]


@functools.lru_cache(maxsize=None)
def _ext_tables(spec: FieldSpec) -> _ExtTables:
    return _ExtTables(spec)


@functools.lru_cache(maxsize=None)
def _ops_for(spec: FieldSpec) -> _Ops:
    """The scalar kit of one field: Fractions over QQ, residues over GF(p), and codes
    over GF(p^k), looked up in the `_np_tables` lists up to q = 256 and computed
    through the digit codec and exp/log tables of `_ExtTables` above."""
    if spec.kind == "rationals":
        return _Ops(
            Fraction(0), Fraction(1), operator.add, operator.sub, operator.mul, operator.neg, _nonzero(lambda a: 1 / a)
        )
    if spec.kind == "prime":
        p = spec.p
        return _Ops(
            0, 1, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a, b: a * b % p, lambda a: -a % p,
            _nonzero(lambda a: pow(a, -1, p)),
        )
    t = _ext_tables(spec)
    if t.q > 256:
        return _Ops(0, 1, t.add, t.sub, t.mul, t.neg, _nonzero(lambda a: t.exp[-t.log[a] % (t.q - 1)]))
    add_t, neg_t, mul_t, inv_t = (table.tolist() for table in _np_tables(spec)[:4])
    return _Ops(
        0, 1, lambda a, b: add_t[a][b], lambda a, b: add_t[a][neg_t[b]], lambda a, b: mul_t[a][b], neg_t.__getitem__,
        _nonzero(inv_t.__getitem__),
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FieldElem:
    """One field element: an immutable (spec, raw value) pair with operators,
    equal to and hashed as its (spec, raw) tuple."""

    spec: FieldSpec
    raw: object

    def _peer(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            return other
        return self.spec.elem(other)

    def __add__(self, other):
        o = self._peer(other)
        return FieldElem(self.spec, self.spec.ops().add(self.raw, o.raw))

    def __sub__(self, other):
        o = self._peer(other)
        return FieldElem(self.spec, self.spec.ops().sub(self.raw, o.raw))

    def __mul__(self, other):
        o = self._peer(other)
        return FieldElem(self.spec, self.spec.ops().mul(self.raw, o.raw))

    def __truediv__(self, other):
        o = self._peer(other)
        ops = self.spec.ops()
        return FieldElem(self.spec, ops.mul(self.raw, ops.inv(o.raw)))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.ops().neg(self.raw))

    def inv(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.ops().inv(self.raw))

    @property
    def is_zero(self) -> bool:
        return self.raw == self.spec.ops().zero

    def to_json(self):
        return self.spec.entry_to_json(self.raw)

    def __repr__(self):
        return f"FieldElem({self.spec}, {self.to_json()!r})"

