"""Exact arithmetic in the cyclotomic field Q(zeta) with zeta = exp(pi*i/12).

zeta is a primitive 24th root of unity with minimal polynomial
Phi_24(x) = x^8 - x^4 + 1, so every field element is uniquely a rational
combination of the power basis {1, zeta, ..., zeta^7} and exact equality
is coefficient-wise equality.  The field contains i = zeta^6,
sqrt(2) = zeta^3 + zeta^-3 and sqrt(3) = zeta^2 + zeta^-2, hence all the
quantum integers [n] = (zeta^n - zeta^-n)/(zeta - zeta^-1) and the global
index 2 + [3]^2 = 6 + 2*sqrt(3).

Coefficients are arbitrary-precision rationals (stdlib Fraction, always
reduced, positive denominator).  Internally integer coefficients are kept
as plain ints so that denominator-free chains of products never pay for
rational normalization.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

DEGREE = 8  # [Q(zeta_24) : Q]


def _power_table():
    # zeta^k for k = 0..23 in the power basis, via zeta^8 = zeta^4 - 1.
    rows = [(1, 0, 0, 0, 0, 0, 0, 0)]
    row = list(rows[0])
    for _ in range(23):
        top = row[7]
        row = [0] + row[:7]
        row[4] += top
        row[0] -= top
        rows.append(tuple(row))
    return tuple(rows)


_ZPOW = _power_table()


def _mul_coeffs(a, b):
    """Product of two coefficient vectors, reduced modulo x^8 - x^4 + 1."""
    prod = [0] * 15
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    for k in range(14, 7, -1):
        c = prod[k]
        if c:
            prod[k - 4] += c
            prod[k - 8] -= c
    return prod[:8]


def _fraction(num, den):
    # parsers reject a zero denominator as malformed input
    if den == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def _norm_coeff(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Cyclotomic:
    """An element of Q(zeta_24), immutable, compared coefficient-wise."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = tuple(_norm_coeff(x) for x in coeffs)
        if len(c) != DEGREE:
            raise ValueError(f"need {DEGREE} coefficients, got {len(c)}")
        object.__setattr__(self, "_c", c)

    @classmethod
    def _raw(cls, coeffs):
        # trusted fast path: coeffs already a length-8 sequence of int/Fraction
        self = object.__new__(cls)
        object.__setattr__(self, "_c", tuple(coeffs))
        return self

    @classmethod
    def from_rational(cls, r):
        return cls._raw((_norm_coeff(r), 0, 0, 0, 0, 0, 0, 0))

    @property
    def coeffs(self):
        """The 8 basis coefficients as Fractions (coefficient of zeta^k at k)."""
        return tuple(Fraction(x) for x in self._c)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- ring / field operations -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        n = abs(n)
        acc = ONE
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(x == y for x, y in zip(self._c, o._c))

    def __hash__(self):
        return hash(tuple(Fraction(x) for x in self._c))

    def __bool__(self):
        return any(self._c)

    def is_zero(self):
        return not any(self._c)

    def inv(self):
        """Multiplicative inverse: the product of the seven other Galois
        conjugates, divided by the norm (their product with self, rational)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_24)")
        others = ONE
        for k in (5, 7, 11, 13, 17, 19, 23):
            others = others * self._galois(k)
        norm = Fraction((self * others)._c[0])
        return Cyclotomic(c / norm for c in others._c)

    def conjugate(self):
        """Complex conjugation, the field automorphism zeta -> zeta^-1."""
        return self._galois(23)

    def _galois(self, k):
        """The field automorphism zeta -> zeta^k, for k coprime to 24."""
        out = [0] * DEGREE
        for j, c in enumerate(self._c):
            if c:
                for i, z in enumerate(_ZPOW[(j * k) % 24]):
                    if z:
                        out[i] += c * z
        return Cyclotomic._raw(out)

    def is_real(self):
        return self == self.conjugate()

    def abs_real(self):
        """|x| for real x; raises on non-real input (misuse, not roundoff)."""
        if not self.is_real():
            raise ValueError("abs_real requires a real value (conjugate-fixed)")
        if self.is_zero():
            return self
        return self if self._sign_of_real() > 0 else -self

    def _sign_of_real(self):
        # The value is a fixed nonzero algebraic number, so doubling the
        # evaluation precision must eventually separate it from zero.
        re, _ = self._surd_parts()
        bits = 128
        while True:
            val = _eval_surd(re, bits)
            if abs(val) > Fraction(1, 1 << (bits // 2)):
                return 1 if val > 0 else -1
            bits *= 2

    # -- numeric embedding ---------------------------------------------------

    def _surd_parts(self):
        """(real, imag) parts as coefficient 4-tuples over {1, v2, v3, v6}."""
        re = [Fraction(0)] * 4
        im = [Fraction(0)] * 4
        for k, c in enumerate(self._c):
            if c:
                for i in range(4):
                    if _RE_SURD[k][i]:
                        re[i] += c * _RE_SURD[k][i]
                    if _IM_SURD[k][i]:
                        im[i] += c * _IM_SURD[k][i]
        return tuple(re), tuple(im)

    def surd_parts(self):
        """Exact (real, imag) decomposition over the basis {1, sqrt2, sqrt3, sqrt6}."""
        return self._surd_parts()

    def approx(self, precision_bits=64):
        """Rational (re, im) approximation, each within 2^-precision_bits."""
        if precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        re, im = self._surd_parts()
        return _eval_surd(re, precision_bits), _eval_surd(im, precision_bits)

    def to_complex(self, precision_bits=64):
        re, im = self.approx(precision_bits)
        return complex(float(re), float(im))

    # -- serialization -------------------------------------------------------

    def to_text(self):
        """Canonical text form: `c0 + c1*z + c2*z^2 + ... + c7*z^7`, ci as num/den."""
        terms = []
        for k, c in enumerate(self._c):
            f = Fraction(c)
            base = f"{f.numerator}/{f.denominator}"
            if k == 0:
                terms.append(base)
            elif k == 1:
                terms.append(base + "*z")
            else:
                terms.append(f"{base}*z^{k}")
        return " + ".join(terms)

    @classmethod
    def from_text(cls, text):
        parts = text.split(" + ")
        if len(parts) != DEGREE:
            raise ValueError(f"expected {DEGREE} terms, got {len(parts)}")
        coeffs = []
        for k, part in enumerate(parts):
            suffix = "" if k == 0 else ("*z" if k == 1 else f"*z^{k}")
            if suffix and not part.endswith(suffix):
                raise ValueError(f"term {k} must end with {suffix!r}: {part!r}")
            frac = part[: len(part) - len(suffix)] if suffix else part
            m = re.fullmatch(r"(-?\d+)/(\d+)", frac)
            if not m:
                raise ValueError(f"malformed coefficient {frac!r}")
            coeffs.append(_fraction(int(m.group(1)), int(m.group(2))))
        return cls(coeffs)

    def to_json_coeffs(self):
        """JSON-ready form: list of 8 [numerator, denominator] pairs."""
        return [[Fraction(c).numerator, Fraction(c).denominator] for c in self._c]

    @classmethod
    def from_json_coeffs(cls, data):
        if len(data) != DEGREE:
            raise ValueError(f"expected {DEGREE} pairs, got {len(data)}")
        return cls(_fraction(int(n), int(d)) for n, d in data)

    # -- display -------------------------------------------------------------

    def __str__(self):
        return _join_terms(zip(self._c, _POWER_LABELS))

    def __repr__(self):
        return f"Cyclotomic<{self}>"

    def surd_str(self):
        """Human form over {1, sqrt2, sqrt3, sqrt6} and i, e.g. `2 + sqrt3`."""
        re, im = self._surd_parts()
        re_s = _join_terms(zip(re, _SURD_LABELS))
        im_s = _join_terms(zip(im, _SURD_LABELS))
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


# cos/sin(k*pi/12) for k = 0..7 over {1, sqrt2, sqrt3, sqrt6}:
# cos(pi/12) = (sqrt6 + sqrt2)/4, sin(pi/12) = (sqrt6 - sqrt2)/4, etc.
_Q = Fraction(1, 4)
_H = Fraction(1, 2)
_RE_SURD = (
    (1, 0, 0, 0),
    (0, _Q, 0, _Q),
    (0, 0, _H, 0),
    (0, _H, 0, 0),
    (_H, 0, 0, 0),
    (0, -_Q, 0, _Q),
    (0, 0, 0, 0),
    (0, _Q, 0, -_Q),
)
_IM_SURD = (
    (0, 0, 0, 0),
    (0, -_Q, 0, _Q),
    (_H, 0, 0, 0),
    (0, _H, 0, 0),
    (0, 0, _H, 0),
    (0, _Q, 0, _Q),
    (1, 0, 0, 0),
    (0, _Q, 0, _Q),
)
_SURD_LABELS = ("", "sqrt2", "sqrt3", "sqrt6")


def _sqrt_lower(m, bits):
    # rational lower bound of sqrt(m) within 2^-bits
    return Fraction(math.isqrt(m << (2 * bits)), 1 << bits)


def _eval_surd(parts, bits):
    """Evaluate a + b*sqrt2 + c*sqrt3 + d*sqrt6 within 2^-bits."""
    growth = sum(abs(x) for x in parts[1:])
    guard = bits + 8 + (int(growth) + 2).bit_length()
    val = parts[0]
    for coeff, m in zip(parts[1:], (2, 3, 6)):
        if coeff:
            val += coeff * _sqrt_lower(m, guard)
    return val


_POWER_LABELS = ("", "z") + tuple(f"z^{k}" for k in range(2, DEGREE))


def _join_terms(pairs):
    """`a + b*x - c*y` from (coefficient, label) pairs; label "" is the constant."""
    terms = []
    for coeff, label in pairs:
        if not coeff:
            continue
        if not label:
            terms.append(str(coeff))
        elif coeff == 1:
            terms.append(label)
        elif coeff == -1:
            terms.append(f"-{label}")
        else:
            terms.append(f"{coeff}*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def zeta_pow(k):
    """zeta^k reduced to the power basis (any integer k)."""
    return Cyclotomic._raw(_ZPOW[k % 24])


ZERO = Cyclotomic._raw((0,) * 8)
ONE = Cyclotomic._raw((1, 0, 0, 0, 0, 0, 0, 0))
ZETA = zeta_pow(1)
IMAG = zeta_pow(6)
SQRT2 = zeta_pow(3) + zeta_pow(-3)
SQRT3 = zeta_pow(2) + zeta_pow(-2)

_DELTA_INV = (ZETA - zeta_pow(-1)).inv()  # 1/(zeta - zeta^-1)
_QINT = tuple((zeta_pow(n) - zeta_pow(-n)) * _DELTA_INV for n in range(24))


def quantum_integer(n):
    """[n] = (zeta^n - zeta^-n)/(zeta - zeta^-1); satisfies [12-n] = [n],
    [n+12] = -[n]."""
    return _QINT[n % 24]


# global index of the E6 subfactor, 2 + [3]^2 = 6 + 2*sqrt(3); it normalizes
# both the representation image of S and the invariant itself.
GLOBAL_INDEX = 2 + quantum_integer(3) ** 2
