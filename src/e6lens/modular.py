"""SL(2,Z) arithmetic: matrices, S/T generator words, Euclidean word
decomposition, Bezout cofactors, the principal congruence subgroup of
level 12 and its published generating set.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import _require_int, _value_type


class SL2Z(_value_type("SL2Z", "a b c d")):
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant 1."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        _require_int(a=a, b=b, c=c, d=d)
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1: {(a, b, c, d)}")
        return super().__new__(cls, a, b, c, d)

    def entries(self):
        return tuple(self)

    def __mul__(self, other):
        if not isinstance(other, SL2Z):
            return NotImplemented
        (a, b, c, d), (e, f, g, h) = self, other
        return SL2Z(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = SL2Z(1, 0, 0, 1)
S = SL2Z(0, -1, 1, 0)
T = SL2Z(1, 1, 0, 1)


_WORD_TOKEN = re.compile(r"S|T(-?\d+)")


class Word(_value_type("Word", "tokens")):
    """A word in the generators S and T, stored as a token sequence.

    Tokens are the literal string "S" or a nonzero int k meaning T^k.
    Adjacent T tokens are merged on construction (and dropped when they
    cancel); S may repeat, since S^2 = -I is meaningful in SL(2,Z).
    """

    __slots__ = ()

    def __new__(cls, tokens=()):
        merged = []
        for tok in tokens:
            if tok == "S":
                merged.append("S")
            elif isinstance(tok, int) and not isinstance(tok, bool):
                if merged and merged[-1] != "S":
                    merged[-1] += tok
                    if merged[-1] == 0:
                        merged.pop()
                elif tok != 0:
                    merged.append(tok)
            else:
                raise ValueError(f"bad token {tok!r}: expected 'S' or nonzero int")
        return super().__new__(cls, tuple(merged))

    def __len__(self):
        return len(self.tokens)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.tokens + other.tokens)

    def s_count(self):
        return sum(1 for t in self.tokens if t == "S")

    def to_matrix(self):
        """Left-to-right product of the token matrices; empty word -> I."""
        a, b, c, d = IDENTITY
        for tok in self.tokens:
            if tok == "S":  # right multiplication by (0, -1; 1, 0)
                a, b, c, d = b, -a, d, -c
            else:  # right multiplication by (1, tok; 0, 1)
                b, d = a * tok + b, c * tok + d
        return SL2Z(a, b, c, d)

    def compact(self):
        """The text form: one token at a time, `S` or `T<k>`, e.g. `SST12ST12S`."""
        return "".join("S" if tok == "S" else f"T{tok}" for tok in self.tokens)

    @classmethod
    def parse(cls, text):
        """The inverse of compact, by round trip: read every `S` and `T<k>`
        token, then reject the text unless compact writes it back."""
        word = cls(int(k) if k else "S" for k in _WORD_TOKEN.findall(text))
        if word.compact() != text:
            raise ValueError(f"not a compact word: {text!r}, expected {word.compact()!r}")
        return word

    def __repr__(self):
        return f"Word({self.compact()!r})"


def _nearest_div(n, d):
    # floor(n/d + 1/2); d normalized positive
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


def decompose(m):
    """Write m as a word in S and T, by Euclidean descent on the first column.

    Repeatedly peels m = T^k * S * m' (driving the lower-left entry down by
    nearest-integer division), then clears the remaining +-(1, n; 0, 1) with
    a T power and S^2 = -I for the sign.  The result evaluates back to m
    exactly; its length is O(log max|entry|).
    """
    tokens = []
    a, b, c, d = m
    while c:
        k = _nearest_div(a, c)
        a -= k * c
        b -= k * d
        tokens += [k, "S"]  # Word drops a T token k = 0
        # apply S^-1 on the left: rows (r1, r2) -> (r2, -r1)
        a, b, c, d = c, d, -a, -b
    if a != 1:  # a = -1: what is left is S^2 (1, -b; 0, 1)
        tokens += ["S", "S"]
        b = -b
    tokens.append(b)
    return Word(tokens)


def cofactors(p, q):
    """The canonical (a, b) with a*q - b*p = 1.

    For p != 0 this is the unique pair with 0 <= a < |p| (so (0, -p) at
    |p| = 1); for p = 0 it is (q, 0).  Raises if gcd(p, q) != 1.
    """
    _require_int(p=p, q=q)
    g = math.gcd(p, q)
    if g != 1:
        raise ValueError(f"gcd({p},{q})={g}; p and q must be coprime")
    if p == 0:
        return q, 0  # q = +-1, a*q = q^2 = 1
    a = pow(q, -1, abs(p))
    b = (a * q - 1) // p
    return a, b


def lens_matrix(p, q, a, b):
    """The gluing matrix (-q, b; p, -a) of L(p, q); SL2Z checks a*q - b*p = 1."""
    return SL2Z(-q, b, p, -a)


def in_gamma12(m):
    """Membership in Gamma(12) = {P in SL(2,Z) : P = I mod 12}."""
    return tuple(x % 12 for x in m) == (1, 0, 0, 1)


class GammaGenerator(NamedTuple):
    name: str
    matrix: SL2Z
    word: Word


# Generating set of Gamma(12) as a normal subgroup (19 elements, computed
# externally with the GAP package Congruence), each with an S/T word in the
# compact form.  Taken as given; everything checkable about it is checked in
# gamma12_generators.
_GENERATOR_DATA = (
    ("P1+", (1, 12, 0, 1), "T12"),
    ("P1-", (1, -12, 0, 1), "T-12"),
    ("P2", (-143, 12, -12, 1), "SST12ST12S"),
    ("P3", (-155, 84, -24, 13), "SST7ST2ST7ST2S"),
    ("P4", (-191, 156, -60, 49), "SST3ST-5ST2ST-4ST1S"),
    ("P5", (-443, 120, -48, 13), "T9ST-4ST3ST4S"),
    ("P6", (-467, 360, -48, 37), "T10ST4ST3ST-3ST1S"),
    ("P7", (-299, 108, -36, 13), "T8ST-3ST4ST3S"),
    ("P8", (-311, 216, -36, 25), "T9ST3ST4ST-2ST1S"),
    ("P9", (937, -396, 168, -71), "T5ST-2ST-4ST-4ST-3ST2S"),
    ("P10", (157, -36, 48, -11), "T3ST-4ST-3ST4S"),
    ("P11", (157, -48, 36, -11), "T4ST-3ST-4ST3S"),
    ("P12", (205, -84, 144, -59), "T1ST-2ST3ST4ST-2ST2S"),
    ("P13", (157, -72, 24, -11), "T6ST-2ST-6ST2S"),
    ("P14", (229, -132, 144, -83), "T1ST-2ST-3ST4ST4ST2S"),
    ("P15", (169, -108, 36, -23), "SST5ST3ST-3ST2ST2S"),
    ("P16", (181, -132, 48, -35), "T4ST4ST-3ST-3ST1S"),
    ("P17", (589, -108, 60, -11), "SST10ST5ST-2ST5S"),
    ("P18", (649, -384, 120, -71), "T5ST-2ST2ST-4ST3ST2S"),
)


@lru_cache(maxsize=1)
def gamma12_generators():
    """The 19 (name, matrix, word) entries, self-checked on first use."""
    table = []
    for name, entries, word_text in _GENERATOR_DATA:
        matrix = SL2Z(*entries)
        word = Word.parse(word_text)
        if word.to_matrix() != matrix:
            raise RuntimeError(
                f"generator table bug: word for {name} evaluates to "
                f"{word.to_matrix()}, expected {matrix}"
            )
        if not in_gamma12(matrix):
            raise RuntimeError(f"generator table bug: {name} not in Gamma(12)")
        table.append(GammaGenerator(name, matrix, word))
    return tuple(table)
