"""Exact arithmetic in the cyclotomic field Q(zeta^2) = Q(zeta_12) = Q(i, sqrt3),
with zeta = exp(pi*i/12).

zeta^2 = exp(pi*i/6) is a primitive 12th root of unity with minimal
polynomial Phi_12(x) = x^4 - x^2 + 1, so every field element is uniquely a
rational combination of {1, zeta^2, zeta^4, zeta^6} and exact equality is
coefficient-wise equality.  The field contains i = zeta^6 and
sqrt(3) = zeta^2 + zeta^-2, hence every value of the E6 lens space
invariant, every entry of w*rho(S) and rho(T), the odd quantum integers
[n] = zeta^(n-1) + zeta^(n-3) + ... + zeta^(1-n) and the global index
2 + [3]^2 = 6 + 2*sqrt(3).  It does not contain zeta itself, sqrt(2) or
the even quantum integers.

Serialization keeps the power basis {1, zeta, ..., zeta^7} of the larger
field Q(zeta_24): the constructor, `coeffs`, `to_text` and `to_json_coeffs`
use 8 slots, and the odd slots are always zero.

Coefficients are arbitrary-precision rationals (stdlib Fraction, always
reduced, positive denominator).  Cyclotomic._raw builds every value and
keeps its integer coefficients as plain ints, so that denominator-free
chains of products never pay for rational normalization.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

DEGREE = 4  # [Q(zeta_12) : Q]
SLOTS = 8  # serialized coefficients: the power basis of Q(zeta_24)

# approx() accepts precisions in this range (bits)
MIN_PRECISION_BITS = 53
MAX_PRECISION_BITS = 1 << 16


def _mul_coeffs(a, b):
    """Product of two coefficient vectors, reduced modulo x^4 - x^2 + 1."""
    prod = [0] * 7
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    for k in range(6, 3, -1):
        c = prod[k]
        if c:
            prod[k - 2] += c
            prod[k - 4] -= c
    return prod[:4]


def _mul_block(a):
    """The rows of the 4x4 matrix of b -> a*b on the basis: column j is
    a*zeta^(2j), each column shifted by zeta^2 with zeta^8 = zeta^4 - 1."""
    cols = [tuple(a)]
    for _ in range(DEGREE - 1):
        c0, c1, c2, c3 = cols[-1]
        cols.append((-c3, c0, c1 + c3, c2))
    return tuple(zip(*cols))


def _power_table():
    # zeta^(2j) for j = 0..11 in the basis
    rows = [(1, 0, 0, 0)]
    for _ in range(11):
        rows.append(tuple(_mul_coeffs(rows[-1], (0, 1, 0, 0))))
    return tuple(rows)


_Z2POW = _power_table()


def _require_int(**values):
    """Raise ValueError unless every value is an int (a bool is not)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, not {value!r}")


def _value_type(name, fields):
    """A namedtuple base whose subclass validates in __new__: `_make`, `_replace`,
    copy and pickle build through the subclass, and tuple `+` and `*` are gone."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    base.__add__ = base.__mul__ = base.__rmul__ = lambda self, other: NotImplemented
    return base


def _norm_coeff(c):
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Cyclotomic:
    """An element of Q(zeta_12), immutable, compared coefficient-wise."""

    __slots__ = ("_c",)

    def __new__(cls, coeffs):
        """From the 8 coefficients of zeta^0..zeta^7; the odd ones must be 0."""
        c = tuple(_norm_coeff(x) for x in coeffs)
        if len(c) != SLOTS:
            raise ValueError(f"need {SLOTS} coefficients, got {len(c)}")
        if any(c[1::2]):
            raise ValueError("odd powers of zeta: the value is outside Q(zeta_12)")
        return cls._raw(c[::2])

    @classmethod
    def _raw(cls, coeffs):
        """The one constructor: the value with these 4 coefficients (int or
        Fraction) of zeta^0, zeta^2, zeta^4 and zeta^6, each stored as an
        int or as a Fraction whose denominator is above 1."""
        c = tuple(coeffs)
        if not type(c[0]) is type(c[1]) is type(c[2]) is type(c[3]) is int:
            c = tuple(map(_norm_coeff, c))
        self = object.__new__(cls)
        object.__setattr__(self, "_c", c)
        return self

    @property
    def coeffs(self):
        """The 8 coefficients of zeta^0..zeta^7 as Fractions (odd ones 0)."""
        return tuple(Fraction(x) for c in self._c for x in (c, 0))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def __reduce__(self):
        return Cyclotomic._raw, (self._c,)

    # -- ring / field operations -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Cyclotomic._raw((other, 0, 0, 0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(tuple(x + y for x, y in zip(self._c, o._c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(tuple(x - y for x, y in zip(self._c, o._c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclotomic._raw(tuple(-x for x in self._c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(_mul_coeffs(self._c, o._c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, n):
        """self**n for an int n, by square-and-multiply (none after the top bit)."""
        _require_int(n=n)
        base, acc, n = self if n >= 0 else self.inv(), ONE, abs(n)
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            base = base * base if n else base
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        # a rational value hashes as that rational, since it compares equal to it
        c = self._c
        return hash(c if c[1] or c[2] or c[3] else c[0])

    def __bool__(self):
        return any(self._c)

    def inv(self):
        """Multiplicative inverse: the product of the three other Galois
        conjugates, divided by the norm (their product with self, rational)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_12)")
        others = self._galois(5) * self._galois(7) * self._galois(11)
        norm = Fraction((self * others)._c[0])
        return Cyclotomic._raw(c / norm for c in others._c)

    def conjugate(self):
        """Complex conjugation, the field automorphism zeta^2 -> zeta^-2."""
        return self._galois(11)

    def _galois(self, k):
        """The field automorphism zeta^2 -> zeta^(2k), for k coprime to 12."""
        out = [0] * DEGREE
        for j, c in enumerate(self._c):
            if c:
                for i, z in enumerate(_Z2POW[(j * k) % 12]):
                    if z:
                        out[i] += c * z
        return Cyclotomic._raw(out)

    # -- numeric embedding ---------------------------------------------------

    def _surd_ints(self):
        """((ra, rb, ia, ib), d) with re = (ra + rb*sqrt3)/d, im = (ia + ib*sqrt3)/d
        and d = 2*lcm(coefficient denominators); an int is its own numerator."""
        c = self._c
        m = math.lcm(*(x.denominator for x in c))
        n0, n1, n2, n3 = (x.numerator * (m // x.denominator) for x in c)
        # zeta^2 = (sqrt3 + i)/2, zeta^4 = (1 + i*sqrt3)/2, zeta^6 = i
        return (2 * n0 + n2, n1, n1 + 2 * n3, n2), 2 * m

    def surd_parts(self):
        """Exact (real, imag) decomposition, each a pair (a, b) for a + b*sqrt3."""
        (ra, rb, ia, ib), d = self._surd_ints()
        return (Fraction(ra, d), Fraction(rb, d)), (Fraction(ia, d), Fraction(ib, d))

    def approx(self, precision_bits=64):
        """Rational (re, im) approximation, each within 2^-precision_bits."""
        _require_int(precision_bits=precision_bits)
        if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(
                f"precision must be between {MIN_PRECISION_BITS} and {MAX_PRECISION_BITS} bits"
            )
        (ra, rb, ia, ib), d = self._surd_ints()
        return _eval_surd(ra, rb, d, precision_bits), _eval_surd(ia, ib, d, precision_bits)

    def to_complex(self):
        return complex(*map(float, self.approx()))

    # -- serialization -------------------------------------------------------

    def to_text(self):
        """Canonical text form: `c0 + c1*z + c2*z^2 + ... + c7*z^7`, ci as num/den."""
        c0, c2, c4, c6 = self._c
        return (f"{c0.numerator}/{c0.denominator} + 0/1*z + {c2.numerator}/{c2.denominator}*z^2"
                f" + 0/1*z^3 + {c4.numerator}/{c4.denominator}*z^4 + 0/1*z^5"
                f" + {c6.numerator}/{c6.denominator}*z^6 + 0/1*z^7")

    @classmethod
    def from_text(cls, text):
        """The inverse of to_text, by round trip: read each `num/den*z^k` term
        as two ints, then reject the text unless to_text writes it back."""
        try:
            # two ints around each `/`; never Fraction(str), which reads exponents
            pairs = (term.split("*")[0].split("/") for term in text.split(" + "))
            value = cls(Fraction(int(num), int(den)) for num, den in pairs)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed field text {text!r}: {exc}") from exc
        if value.to_text() != text:
            raise ValueError(f"not canonical: {text!r}, expected {value.to_text()!r}")
        return value

    def to_json_coeffs(self):
        """JSON-ready form: list of 8 [numerator, denominator] pairs."""
        return [pair for x in self._c for pair in ([x.numerator, x.denominator], [0, 1])]

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic<{self.surd_str()}>"

    def surd_str(self):
        """Human form over {1, sqrt3} and i, e.g. `2 + sqrt3`."""
        (ra, rb, ia, ib), d = self._surd_ints()
        re_s, im_s = _surd_text(ra, rb, d), _surd_text(ia, ib, d)
        if im_s == "0":
            return re_s
        if im_s == "1":
            im_wrapped = "i"
        elif im_s == "-1":
            im_wrapped = "-i"
        elif " " in im_s or "/" in im_s:
            im_wrapped = f"i*({im_s})"
        else:
            im_wrapped = f"{im_s}*i"
        if re_s == "0":
            return im_wrapped
        return f"{re_s} + {im_wrapped}"


def _eval_surd(a, b, d, bits):
    """(a + b*sqrt3)/d within 2^-bits: sqrt3 rounded down to g fraction bits."""
    if not b:
        return Fraction(a, d)
    g = bits + 8 + (abs(b) // d + 2).bit_length()
    return Fraction((a << g) + b * math.isqrt(3 << (2 * g)), d << g)


def _ratio_str(n, d):
    """str(Fraction(n, d)) for d > 0: `n` when d divides n, else reduced `n/d`."""
    g = math.gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def _surd_text(a, b, d):
    """`a/d + b/d*sqrt3` with zero terms dropped, `0` if both are 0."""
    a, b = _ratio_str(a, d), _ratio_str(b, d)
    terms = [] if a == "0" else [a]
    if b != "0":
        terms.append({"1": "sqrt3", "-1": "-sqrt3"}.get(b, f"{b}*sqrt3"))
    return " + ".join(terms).replace(" + -", " - ") or "0"


def zeta_pow(k):
    """zeta^k for even k (any sign); odd powers lie outside Q(zeta_12)."""
    _require_int(k=k)
    if k % 2:
        raise ValueError(f"zeta^{k} is outside Q(zeta_12): the power must be even")
    return Cyclotomic._raw(_Z2POW[(k // 2) % 12])


ZERO = Cyclotomic._raw((0, 0, 0, 0))
ONE = Cyclotomic._raw((1, 0, 0, 0))
IMAG = zeta_pow(6)
SQRT3 = zeta_pow(2) + zeta_pow(-2)

# [n] = zeta^(n-1) + zeta^(n-3) + ... + zeta^(1-n) for odd n = 1..23
_QINT = {n: sum((zeta_pow(n - 1 - 2 * j) for j in range(n)), ZERO) for n in range(1, 24, 2)}


def quantum_integer(n):
    """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) for odd n; satisfies
    [12-n] = [n], [n+12] = -[n].  Even n give values outside Q(zeta_12)."""
    _require_int(n=n)
    if n % 2 == 0:
        raise ValueError(f"[{n}] is outside Q(zeta_12): n must be odd")
    return _QINT[n % 24]


# global index of the E6 subfactor, 2 + [3]^2 = 6 + 2*sqrt(3); it normalizes
# both the representation image of S and the invariant itself.
GLOBAL_INDEX = 2 + quantum_integer(3) ** 2
