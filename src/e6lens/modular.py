"""SL(2,Z) arithmetic: matrices, S/T generator words, Euclidean word
decomposition, Bezout cofactors, and Gamma(12) with two normal
generators and the coset enumeration that shows they generate it.
"""

from __future__ import annotations

import math
import re

from .cyclotomic import _require_int, _value_type


class SL2Z(_value_type("SL2Z", "a b c d")):
    """Integer 2x2 matrix [[a, b], [c, d]] with determinant 1."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if not type(a) is type(b) is type(c) is type(d) is int:
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

    @classmethod
    def _raw(cls, tokens):  # the one constructor, of a tuple of tokens already canonical
        return tuple.__new__(cls, (tokens,))

    def __new__(cls, tokens=()):
        merged = []
        for tok in tokens:
            if tok == "S":
                merged.append("S")
            elif type(tok) is not int:
                raise ValueError(f"bad token {tok!r}: expected 'S' or nonzero int")
            elif merged and merged[-1] != "S":
                merged[-1] += tok
                if merged[-1] == 0:
                    merged.pop()
            elif tok != 0:
                merged.append(tok)
        return cls._raw(tuple(merged))

    def __len__(self):
        return len(self.tokens)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.tokens + other.tokens)

    def s_count(self):
        return self.tokens.count("S")

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


def decompose(m):
    """Write m as a word in S and T, by Euclidean descent on the first column.

    Repeatedly peels m = T^k * S * m' (driving the lower-left entry down by
    nearest-integer division), then clears the remaining +-(1, n; 0, 1) with
    a T power and S^2 = -I for the sign.  The result evaluates back to m
    exactly in O(log max|entry|) tokens, canonical as built: no T token is
    0 and no two T tokens are adjacent.
    """
    tokens = []
    a, b, c, d = m
    while c:
        k = (2 * a + c) // (2 * c)  # floor(a/c + 1/2), for either sign of c
        if k:
            tokens.append(k)
        tokens.append("S")
        # apply T^-k, then S^-1, on the left: rows (r1, r2) -> (r2, k r2 - r1)
        a, b, c, d = c, d, k * c - a, k * d - b
    if a != 1:  # a = -1: what is left is S^2 (1, -b; 0, 1)
        tokens += ["S", "S"]
        b = -b
    if b:
        tokens.append(b)
    return Word._raw(tuple(tokens))


def cofactors(p, q):
    """The canonical (a, b) with a*q - b*p = 1.

    For p != 0 this is the unique pair with 0 <= a < |p| (so (0, -p) at
    |p| = 1); for p = 0 it is (q, 0).  Raises if gcd(p, q) != 1.
    """
    if not type(p) is type(q) is int:
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


# SL(2,Z) = <S, T | (ST)^3 S^-2, S^4> (Serre, A Course in Arithmetic, ch. VII); S^-2 = S^2
# given S^4.  In this order verify kernel's enumeration defines 582 cosets, not 737.
SL2Z_RELATORS = (Word.parse("ST1ST1ST1SS"), Word.parse("SSSS"))


def gamma12_generators():
    """The words T^12 and P6 (GAP's Congruence list), whose normal closure in
    SL(2,Z) verify kernel proves is Gamma(12): it checks each is I mod 12."""
    return Word.parse("T12"), Word.parse("T10ST4ST3ST-3ST1S")


# coset_count gives up past this many cosets; verify kernel's enumeration defines 582, then closes.
MAX_COSETS = 1024


def coset_count(relators):
    """The index of <T> in <S, T | relators> by HLT coset enumeration (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, ch. 5), or None if it
    needs more than MAX_COSETS cosets.  table[c][x] is coset c times letter x of S,
    S^-1, T, T^-1 (x ^ 1 inverts x); find reads the forest of coincident cosets."""
    words = [[x for tok in word.tokens for x in ([0] if tok == "S" else [2 + (tok < 0)] * abs(tok))]
             for word in relators] + [[x, x ^ 1] for x in range(4)]  # x x^-1 fills a row
    table, parent = [[None, None, 0, 0]], [0]  # coset 0 is <T>, which T fixes

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]  # not c = parent[c] = ..., which assigns c first
            c = parent[c]
        return c

    def coincidence(a, b):  # join a and b, then each pair of cosets that this forces
        pending = [(a, b)]
        while pending:
            a, b = sorted(map(find, pending.pop()))
            if a != b:
                parent[b] = a
                for x, y in enumerate(table[b]):  # move each edge b x = y to a
                    if y is not None:
                        table[y][x ^ 1] = None  # the same edge, read from y
                        y = find(y)
                        if table[a][x] is not None:
                            pending.append((y, table[a][x]))
                        elif table[y][x ^ 1] is not None:
                            pending.append((a, table[y][x ^ 1]))
                        else:
                            table[a][x], table[y][x ^ 1] = y, a

    def scan_and_fill(c, word):  # the rows hold live cosets only, so the scans need no find
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            while j >= i and table[b][word[j] ^ 1] is not None:
                b, j = table[b][word[j] ^ 1], j - 1
            if j < i:  # the scans meet, so f and b are one coset
                return coincidence(f, b)
            if j == i:  # one letter is missing: a deduction
                table[f][word[i]], table[b][word[i] ^ 1] = b, f
                return
            table[f][word[i]] = len(table)  # else f word[i] is a new coset
            table.append([f if y == word[i] ^ 1 else None for y in range(4)])
            parent.append(len(parent))

    c = 0
    while c < len(table) <= MAX_COSETS:  # scan every word at each live coset, in order
        for word in words:
            if parent[c] != c:
                break
            scan_and_fill(c, word)
        c += 1
    return sum(c == p for c, p in enumerate(parent)) if c == len(table) else None
