"""The 10-dimensional unitary representation of SL(2,Z) behind the E6
state sum, as exact matrices over Q(zeta_12) = Q(i, sqrt3).

The image of S is (1/w) times a matrix with entries in Z[i, sqrt3], with
w = 6 + 2*sqrt(3) the global index; the image of T is diagonal with 12th
roots of unity (even powers of zeta = exp(pi*i/12)), as the level-12
congruence property of rho requires.  The matrices are hand-entered data,
so construction is self-verifying: it runs the checks that verify_relations
and verify_unitary report.  The presentation relations S^4 = 1,
(ST)^3 = S^2, T^12 = 1 must hold exactly, and so must unitarity; the
diagonal of (w rho(S))(w rho(S))* = w^2 I says that every row of w*rho(S)
has squared conjugate norm w^2, which pins down the two composite entries
(3+sqrt3) and i*(3+sqrt3).

Every evaluation, from one matrix entry to the construction checks, runs
through one kernel on integer coefficients: multiplying by a field element
is a 4x4 integer block on the coefficient basis, so a matrix compiles once
into 40 flat rows of (index, factor) pairs that act on a flat column of 40
coefficients.  w*rho(S) and each rho(T^k) are compiled once, and a word
runs token by token through them; the power of w that the S tokens
accumulate is divided out once, at the end.  One evaluator, _apply, walks
every word, and _s_table is the one place where w*rho(S) is built and
compiled; the checks run each column of a product through that same table
and _t_table(1), whose image rho_t() never reads _s_table.  Inside a
verification suite, and only there, the evaluator shares the work of common
word suffixes through a bounded memo (_suffix_memo).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    DEGREE,
    GLOBAL_INDEX,
    IMAG,
    ONE,
    SQRT3,
    ZERO,
    Cyclotomic,
    _mul_block,
    _mul_coeffs,
    _norm_coeff,
    quantum_integer,
    zeta_pow,
)
from .modular import Word, decompose, gamma12_generators
from .report import Check, Report

DIM = 10


@dataclass(frozen=True)
class CycloMatrix:
    """Immutable square matrix over Q(zeta_12), as a tuple of rows."""

    rows: tuple[tuple[Cyclotomic, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            if not all(isinstance(e, Cyclotomic) for e in row):
                raise TypeError("entries must be Cyclotomic")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @property
    def n(self):
        return len(self.rows)


# diagonal of rho(T) as exponents of zeta^2 (mod 12):
# (1, -zeta^2, -1, 1, i, -zeta^2, 1, zeta^8, zeta^-4, -1)
_T_EXP = (0, 7, 6, 0, 3, 7, 0, 4, 10, 6)


def _s_numerator():
    """w * rho(S) as entered, with integer coefficients; _s_table checks it."""
    o = ONE
    z = ZERO
    t = quantum_integer(3)  # 1 + sqrt3
    b = 2 + SQRT3           # [2]^2
    x = 3 + SQRT3           # [4][3]/[2]
    ix = IMAG * x
    t2 = 2 * t
    rows = (
        (o, t, o, b, t, t, x, t, t, b),
        (t, ix, -t, -t, z, -ix, z, t, -t, t),
        (o, -t, o, b, -t, -t, -x, t, t, b),
        (b, -t, b, o, -t, -t, x, -t, -t, o),
        (t, z, -t, -t, z, z, z, -t2, t2, t),
        (t, -ix, -t, -t, z, ix, z, t, -t, t),
        (x, z, -x, x, z, z, z, z, z, -x),
        (t, t, t, -t, -t2, t, z, t, t, -t),
        (t, -t, t, -t, t2, -t, z, t, t, -t),
        (b, t, b, o, t, t, -x, -t, -t, o),
    )
    return CycloMatrix(rows)


def _self_check(ns):
    """w*rho(S) compiled from ns; abort unless that table passes its oracles."""
    table = _compile(ns.rows)
    for check in _relation_checks(table) + _unitary_checks(ns, table):
        if not check.passed:
            raise RuntimeError(f"self-check of w*rho(S) failed: {check.name} [{check.witness}]")
    return table


def _relation_checks(table):
    """The SL(2,Z) presentation relations, for w*rho(S) compiled as table.

    S^4 = I and (S T)^3 = S^2 become (wS)^4 = w^4 I and (wS T)^3 = w (wS)^2,
    which stay in integer coefficients.  T^12 = I is read off the entries:
    rho(T) must be diagonal with 12th roots of unity.
    """
    s2 = [_run(table, _run(table, _unit(j))) for j in range(DIM)]
    s4 = [_entries(_run(table, _run(table, v))) for v in s2]
    st3 = [_unit(j) for j in range(DIM)]
    for _ in range(3):
        st3 = [_run(table, _run(_t_table(1), v)) for v in st3]
    t12 = [[e**12 if i == j else e for j, e in enumerate(row)]
           for i, row in enumerate(rho_t().rows)]
    return [
        Check("rho(S)^4 = I", _difference(CycloMatrix(zip(*s4)), _scalar(GLOBAL_INDEX**4))),
        Check("(rho(S) rho(T))^3 = rho(S)^2",
              _difference(CycloMatrix(zip(*map(_entries, st3))),
                          CycloMatrix(zip(*(_over_w_power(v, -1) for v in s2))))),
        Check("rho(T)^12 = I", _difference(CycloMatrix(t12), _scalar(ONE))),
    ]


def _unitary_checks(ns, table):
    """Unitarity of rho(S) and rho(T); for S on the w-scaled level, where
    rho(S) rho(S)* = I becomes (wS)(wS)* = w^2 I (w is real)."""
    w2, t = _scalar(GLOBAL_INDEX**2), rho_t()
    return [
        Check("rho(S) rho(S)* = I", _difference(_times_adjoint(table, ns), w2)),
        Check("rho(T) rho(T)* = I", _difference(_times_adjoint(_t_table(1), t), _scalar(ONE))),
    ]


def _times_adjoint(table, a):
    """A A* for the matrix a compiled as table: column j of A* is row j of A, conjugated."""
    return CycloMatrix(zip(*(_entries(_run(table, [c for e in row for c in e.conjugate()._c]))
                             for row in a.rows)))


def _compile(rows):
    """The flat rows of a matrix with integer coefficients: flat row
    DEGREE*i + r holds (DEGREE*k + j, f) for each nonzero
    f = _mul_block(rows[i][k])[r][j]."""
    flat = []
    for row in rows:
        block_rows = [[] for _ in range(DEGREE)]
        for k, a in enumerate(row):
            if a:
                for out, factors in zip(block_rows, _mul_block(a._c)):
                    out.extend((DEGREE * k + j, f) for j, f in enumerate(factors) if f)
        flat.extend(tuple(out) for out in block_rows)
    return tuple(flat)


def _run(table, v):
    """The kernel: a compiled matrix times the flat column v."""
    return [sum([f * v[j] for j, f in row]) for row in table]


def _unit(j, x=ONE):
    """x e_(j+1) as a flat column."""
    return [0] * (DEGREE * j) + list(x._c) + [0] * (DEGREE * (DIM - 1 - j))


def _scalar(x):
    """x times the identity matrix."""
    return CycloMatrix([[x if i == j else ZERO for j in range(DIM)] for i in range(DIM)])


def _entries(v, den=1):
    """The entries of a flat column divided by den, as Cyclotomic values."""
    if den != 1:
        v = [_norm_coeff(Fraction(c, den)) for c in v]
    return [Cyclotomic._raw(v[i:i + DEGREE]) for i in range(0, len(v), DEGREE)]


@lru_cache(maxsize=1)
def _s_table():
    """w*rho(S), built, compiled once and self-checked: the table that every
    S token of every word runs through."""
    return _self_check(_s_numerator())


@lru_cache(maxsize=12)
def _t_table(k):
    """rho(T^k) compiled, for 0 <= k < 12."""
    return _compile([[zeta_pow(2 * k * e) if i == j else ZERO for j in range(DIM)]
                     for i, e in enumerate(_T_EXP)])


# The suffix memo of the running verification suite (None outside one): the
# w-scaled flat column of each token suffix that starts at an S, keyed with
# the column j it was applied to, least recently used first.
_SUFFIX_MEMO = 256
_suffixes = ContextVar("_suffixes", default=None)


@contextmanager
def _suffix_memo():
    """Share word suffixes between the evaluations inside the block (or the
    decorated suite) through a fresh memo of at most _SUFFIX_MEMO columns."""
    token = _suffixes.set({})
    try:
        yield
    finally:
        _suffixes.reset(token)


def _apply(tokens, j, out=DEGREE * DIM):
    """w^m rho(tokens) e_(j+1), m the number of S tokens, as a flat integral
    column or its first out coordinates.  The tokens act right to left, each
    through its own compiled table: _s_table() for S, _t_table(k % 12) for
    T^k.  The leftmost S step runs only the first out rows, and so does a T
    token left of it (rho(T^k) is diagonal as _t_table builds it).  Inside a
    suite (_suffix_memo) the word starts after its longest memoized suffix,
    and the column of every suffix that starts at an S but the leftmost is
    stored."""
    starts = [i for i, token in enumerate(tokens) if token == "S"]
    head = starts[0] if starts else len(tokens)
    memo = _suffixes.get()
    v, end = _unit(j), len(tokens)
    if memo is not None:
        end = next((i for i in starts[1:] if (tokens[i:], j) in memo), end)
        if end < len(tokens):  # a hit, now the most recently used
            v = memo[tokens[end:], j] = memo.pop((tokens[end:], j))
    for i in range(end - 1, -1, -1):
        table = _s_table() if tokens[i] == "S" else _t_table(tokens[i] % 12)
        v = _run(table if i > head else table[:out], v)
        if memo is not None and i > head and tokens[i] == "S":
            memo[tokens[i:], j] = tuple(v)
            if len(memo) > _SUFFIX_MEMO:
                del memo[next(iter(memo))]
    return v[:out]


# w * (6 - 2*sqrt3) = 24, so 1/w^n = (6 - 2*sqrt3)^n / 24^n: integer products,
# then one Fraction per coefficient.
_W_COFACTOR = 6 - 2 * SQRT3


def _over_w_power(v, n):
    """The flat column v divided by w^n for n >= -1 (n = -1 multiplies by
    w), as Cyclotomic values: one rescale, integral until its one division."""
    num, den = (GLOBAL_INDEX._c, 1) if n < 0 else ((_W_COFACTOR**n)._c, 24**n)
    return _entries([c for i in range(0, len(v), DEGREE)
                     for c in _mul_coeffs(v[i:i + DEGREE], num)], den)


@lru_cache(maxsize=1)
def rho_s():
    """rho(S), exact; aborts if the transcription self-checks fail."""
    return rho_word(Word(["S"]))


@lru_cache(maxsize=1)
def rho_t():
    """rho(T), the image of its compiled table _t_table(1): the word T1 never
    reads the S table, so construction's checks can read it."""
    return rho_word(Word([1]))


def rho_word(word):
    """Image of a generator word: the evaluator on each basis column."""
    m = word.s_count()
    return CycloMatrix(zip(*(_over_w_power(_apply(word.tokens, j), m) for j in range(DIM))))


def rho_entry_11(word):
    """First matrix entry of rho(word): the evaluator on e_1, which runs only
    the 4 rows of that entry in the leftmost S step and in the T token left
    of it; every other token runs all 40 rows of its table."""
    return _over_w_power(_apply(word.tokens, 0, DEGREE), word.s_count())[0]


def w_rho_entry_11(word):
    """w times the first entry of rho(word), the state sum of a gluing word:
    the same evaluation, divided once by w^(m-1)."""
    return _over_w_power(_apply(word.tokens, 0, DEGREE), word.s_count() - 1)[0]


def verify_relations():
    """Report on the three presentation relations."""
    return Report("relations", tuple(_relation_checks(_compile(_s_numerator().rows))))


def verify_unitary():
    """Report that rho(S) and rho(T) are exactly unitary."""
    ns = _s_numerator()
    return Report("unitarity", tuple(_unitary_checks(ns, _compile(ns.rows))))


@_suffix_memo()
def verify_kernel_generators():
    """Report that rho kills all 19 published generators of Gamma(12).

    Each generator is evaluated along two routes: its published word and a
    fresh decomposition of its matrix; both must give the identity exactly.
    A route whose word the first route already evaluated is not run again.
    A route passes when each integral column w^m rho(word) e_(j+1) is
    w^m e_(j+1); only a failing route is divided by w^m, for its witness.
    """
    ident = CycloMatrix.identity(DIM)
    checks = []
    for gen in gamma12_generators():
        routes = {gen.word: "via word"}
        routes.setdefault(decompose(gen.matrix), "via matrix")  # a repeated word runs once
        bad = next((f"{route} {_difference(rho_word(word), ident)}"
                    for word, route in routes.items() if not _fixes_basis(word)), None)
        checks.append(Check(gen.name, bad))
    return Report("kernel", tuple(checks))


def _fixes_basis(word):
    """Whether rho(word) is the identity: each w-scaled column is w^m e_(j+1)."""
    scale = GLOBAL_INDEX ** word.s_count()
    return all(_apply(word.tokens, j) == _unit(j, scale) for j in range(DIM))


def _difference(got, want):
    """The first entry where got differs from want, as text; None if equal."""
    return next((f"({i + 1},{j + 1}): expected {b.to_text()}, got {a.to_text()}"
                 for i, (row, want_row) in enumerate(zip(got.rows, want.rows))
                 for j, (a, b) in enumerate(zip(row, want_row)) if a != b), None)
