"""The 10-dimensional unitary representation of SL(2,Z) behind the E6
state sum, as exact matrices over Q(zeta_12) = Q(i, sqrt3).

The image of S is (1/w) times a matrix with entries in Z[i, sqrt3], with
w = 6 + 2*sqrt(3) the global index; the image of T is diagonal with 12th
roots of unity (even powers of zeta = exp(pi*i/12)), as the level-12
congruence property of rho requires.  The matrices are hand-entered data,
so construction is self-verifying: verify_relations and verify_unitary
report the checks it runs.  T^12 = 1 and the unitarity of rho(T) hold by
construction; the presentation relations S^4 = 1 and (ST)^3 = S^2, which
reads the twists, must hold exactly, and so must unitarity of rho(S); the
diagonal of (w rho(S))(w rho(S))* = w^2 I says that every row of w*rho(S)
has squared conjugate norm w^2, which pins down the two composite entries
(3+sqrt3) and i*(3+sqrt3).

Evaluation works at scale 12: 12 = (3 - sqrt3) w, so 12*rho(S) is integral
too, with fewer nonzero coefficients, and a word with m S tokens is divided
once, by 12^m.  Every evaluation runs through one kernel on integer
coefficients: multiplying by a field element is a 4x4 integer block on the
coefficient basis, so a matrix compiles once into flat columns of
(row, factor) pairs that act on a flat column, at a cost per factor on a
nonzero coordinate: a column that lives in a few blocks pays only for them.
_construction builds the standard basis once, its 12*rho(S) and twelve
rho(T^k) compiled, and checks it; verify_relations and verify_unitary
report those checks, and _standard aborts on the first that fails.  A
witness is scaled back to w*rho(S), the matrix as entered.

Words run on one eigenbasis of rho(T) (_BASIS), which _eigenbasis derives
from the checked basis once, and checks exactly.  There 12*rho(S) compiles
to 282 factors and each rho(T^k) is diagonal, so _fold multiplies them into
twelve S steps 12*rho(S) rho(T^k) of at most 282 factors each, and each S
token runs as one step together with the T^k to its right; only a leading
T^k runs its own table.  The state sum runs one column there,
6 e0 = 2v + u + 3b, and the v, u and b coordinates of its image give the
first entry; its leftmost S step runs only the v, u and b rows (the head
of that step).  verify kernel runs each basis vector.  rho_word and the
relation and unitarity checks stay on the standard basis: the reference,
one step per token.  One evaluator, _apply, walks every word through the
tables of one basis; inside a verification suite, and only there, it runs
each eigenbasis step once per input column through a bounded memo
(_step_memo) of the columns met and the step images between them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations

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
    _value_type,
    quantum_integer,
    zeta_pow,
)
from .modular import Word, decompose, gamma12_generators
from .report import Check, Report

DIM = 10


class CycloMatrix(_value_type("CycloMatrix", "rows")):
    """Immutable square matrix over Q(zeta_12), as a tuple of rows."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            if not all(isinstance(e, Cyclotomic) for e in row):
                raise TypeError("entries must be Cyclotomic")
        return super().__new__(cls, rows)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))


# diagonal of rho(T) as exponents of zeta^2 (mod 12):
# (1, -zeta^2, -1, 1, i, -zeta^2, 1, zeta^8, zeta^-4, -1)
_T_EXP = (0, 7, 6, 0, 3, 7, 0, 4, 10, 6)


def _s_numerator():
    """w * rho(S) as entered, with integer coefficients; _construction checks it."""
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


@lru_cache(maxsize=1)
def _construction():
    """The standard basis, built once: (12*rho(S) from w*rho(S), each entry
    times 12/w = 3 - sqrt3, and its twelve rho(T^k)), compiled, with the
    relations and unitarity reports on those tables.

    The checks stay in integer coefficients at scale 12: S^4 = I,
    (S T)^3 = S^2 and rho(S) rho(S)* = I become (12S)^4 = 12^4 I,
    (12S T)^3 = 12 (12S)^2 and (12S)(12S)* = 144 I, where column j of
    (12S)* is row j of 12S, conjugated (12 is real).  T^12 = I and the
    unitarity of rho(T) hold by construction: rho(T) is entered as powers
    of zeta^2.
    """
    s12 = [[(3 - SQRT3) * e for e in row] for row in _s_numerator().rows]
    table, t = _compile(s12), _t_tables(_T_EXP)
    s2 = [_run(table, _run(table, v)) for v in _identity()]
    s4 = [_run(table, _run(table, v)) for v in s2]
    st3 = _identity()
    for _ in range(3):
        st3 = [_run(table, _run(t[1], v)) for v in st3]
    adjoint = [_run(table, [c for e in row for c in e.conjugate()._c]) for row in s12]
    return ((table, t),
            Report("relations", (
                _check("rho(S)^4 = I", s4, _identity(12**4), 4),
                _check("(rho(S) rho(T))^3 = rho(S)^2", st3, [[12 * c for c in v] for v in s2], 3))),
            Report("unitarity", (_check("rho(S) rho(S)* = I", adjoint, _identity(144), 2),)))


def _check(name, got, want, k):
    """Check that the flat columns got equal want.  A failure's witness is
    on the level of w*rho(S): both sides times (w/12)^k, k the S factors."""
    if got == want:
        return Check(name)
    scale = (GLOBAL_INDEX / 12) ** k
    got, want = (zip(*([scale * e for e in _entries(v)] for v in columns))
                 for columns in (got, want))
    return Check(name, _difference(got, want))


def _compile(rows):
    """A square matrix with integer coefficients as (flat rows, flat
    columns): flat column DEGREE*k + j holds (DEGREE*i + r, f), by
    increasing row, for each nonzero f = _mul_block(rows[i][k])[r][j]."""
    columns = [[] for _ in range(DEGREE * len(rows))]
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            if a:
                for r, factors in enumerate(_mul_block(a._c)):
                    for j, f in enumerate(factors):
                        if f:
                            columns[DEGREE * k + j].append((DEGREE * i + r, f))
    return DEGREE * len(rows), tuple(map(tuple, columns))


def _run(table, v):
    """The kernel: a compiled matrix times the flat column v, one coordinate
    per column.  A plain loop over the factors of each nonzero coordinate:
    a step costs per factor on a nonzero coordinate, a zero costs nothing."""
    rows, columns = table
    out = [0] * rows
    for x, column in zip(v, columns, strict=True):
        if x:
            for i, f in column:
                out[i] += f * x
    return out


def _unit(j, x=1):
    """x times basis vector j, as integer coordinates."""
    return tuple(x if i == j else 0 for i in range(DIM))


def _flat(column):
    """Integer coordinates as a flat column of coefficients."""
    return [x if r == 0 else 0 for x in column for r in range(DEGREE)]


def _identity(x=1):
    """x times the 10x10 identity matrix, as flat columns."""
    return [_flat(_unit(j, x)) for j in range(DIM)]


def _entries(v, den=1):
    """The entries of a flat column divided by den, as Cyclotomic values."""
    if den != 1:
        v = [c // den if c % den == 0 else Fraction(c, den) for c in v]
    return [Cyclotomic._raw(v[i:i + DEGREE]) for i in range(0, len(v), DEGREE)]


def _standard():
    """The standard basis, (12*rho(S), its twelve rho(T^k)), as
    _construction built it once: the tables behind rho_word and the
    eigenbasis.  Aborts on the first of construction's checks that fails."""
    basis, relations, unitarity = _construction()
    for check in relations.checks + unitarity.checks:
        if not check.passed:
            raise RuntimeError(f"self-check of w*rho(S) failed: {check.name} [{check.witness}]")
    return basis


def _t_tables(twists):
    """rho(T^k) compiled on a basis with these twists (exponents of zeta^2),
    the table of T^k at index k, for 0 <= k < 12."""
    return tuple(_compile([[zeta_pow(2 * k * e) if i == j else ZERO for j in range(len(twists))]
                           for i, e in enumerate(twists)]) for k in range(12))


# An integral basis of rho(T) eigenvectors on the standard basis (0-based,
# {index: coordinate}), where 12*rho(S) is sparse: v = e0+e3+e6,
# u = e0+e3-2e6, b = e0-e3, e2+e9, e1+e5, e2-e9, e4, e7, e8 and e1-e5.
_BASIS = ({0: 1, 3: 1, 6: 1}, {0: 1, 3: 1, 6: -2}, {0: 1, 3: -1}, {2: 1, 9: 1},
          {1: 1, 5: 1}, {2: 1, 9: -1}, {4: 1}, {7: 1}, {8: 1}, {1: 1, 5: -1})
# 6 e0 = 2v + u + 3b: the state sum's one column, on that basis
_SIX_E0 = (2, 1, 3, 0, 0, 0, 0, 0, 0, 0)


def _abort(what):
    raise RuntimeError(f"eigenbasis check failed: {what}")


@lru_cache(maxsize=1)
def _eigenbasis():
    """The eigenbasis _BASIS, derived once from the checked standard basis:
    (its twelve S steps 12*rho(S) rho(T^k), its twelve rho(T^k) and the
    heads of those S steps), which _fold builds from 12*rho(S) compiled on
    it and the rho(T^k).  Aborts unless each basis vector has a single
    twist (so it is nonzero), the vectors are pairwise orthogonal and ten
    (so they span, and each image is the sum of its projections), and
    6 e0 = 2v + u + 3b."""
    basis = [[b.get(i, 0) for i in range(DIM)] for b in _BASIS]
    twists = []
    for k, b in enumerate(basis):
        found = sorted({_T_EXP[i] for i, x in enumerate(b) if x})
        if len(found) != 1:
            _abort(f"vector {k}: twists {found}, not one")
        twists += found
    for (j, a), (k, b) in combinations(enumerate(basis), 2):
        if sum(x * y for x, y in zip(a, b)):
            _abort(f"vectors {j} and {k}: not orthogonal")
    if len(basis) != DIM:
        _abort(f"{len(basis)} vectors, not {DIM}")
    if tuple(sum(c * b[i] for c, b in zip(_SIX_E0, basis)) for i in range(DIM)) != _unit(0, 6):
        _abort("2v + u + 3b is not 6 e0")
    images = []
    for b in basis:  # 12*rho(S) b, as its coordinates on the orthogonal basis
        y = _run(_standard()[0], _flat(b))
        images.append([_entries([sum(x * y[DEGREE * i + r] for i, x in enumerate(c) if x)
                                 for r in range(DEGREE)], sum(x * x for x in c))[0]
                       for c in basis])
    s, t = _compile(list(zip(*images))), _t_tables(twists)
    steps, heads = _fold(s, t)
    return steps, t, heads


def _fold(s, t):
    """The eigenbasis S steps, from its 12*rho(S) table s and rho(T^k)
    tables t: for each k, 12*rho(S) rho(T^k) (entry 0 equals s), whose
    column j sums f times column m of s over the pairs (m, f) of column j
    of t[k]; and its head, that table with only the rows of v, u and b, so
    the other coordinates of its image are zero."""
    rows, columns = s

    @cache  # a column of t[k] recurs in other k: summed once, then shared
    def column(pairs):
        sums = {}
        for m, f in pairs:
            for i, g in columns[m]:
                sums[i] = sums.get(i, 0) + g * f
        return tuple(sorted((i, x) for i, x in sums.items() if x))
    steps = tuple((rows, tuple(map(column, t_k[1]))) for t_k in t)
    return steps, tuple((rows, tuple(tuple(p for p in c if p[0] < 3 * DEGREE) for c in step[1]))
                        for step in steps)


# The step memo of the running verification suite (None outside one):
# (ids, columns, transitions, firsts).  columns holds each flat eigenbasis
# column met at its int id, which ids gives for it and for each start
# column; transitions maps (code, id) to the id of a kernel step's image,
# code k < 12 the S step of T^k, 12 + k its head and 24 + k a leading T^k;
# firsts maps (id, m, x) to what _first_entry reads there.
_MEMO_COLUMNS = 1024
_memo = ContextVar("_memo", default=None)


@contextmanager
def _step_memo():
    """Run each eigenbasis step and read each first entry once per input in
    the block (or the decorated suite), in a fresh memo, cleared before an
    evaluation once it holds _MEMO_COLUMNS columns."""
    token = _memo.set(({}, [], {}, {}))
    try:
        yield
    finally:
        _memo.reset(token)


def _intern(memo, v):
    """The id of the flat column v in memo, a new one if v is new."""
    ids, columns = memo[:2]
    v = tuple(v)
    if v not in ids:
        ids[v] = len(columns)
        columns.append(v)
    return ids[v]


def _apply(tokens, column, eigen=False, head=False):
    """12^m rho(tokens) x, m the number of S tokens and x the vector with
    integer coordinates column on the eigenbasis (the standard basis if not
    eigen), as a flat integral column on that basis; with head (eigenbasis
    only) exact on v, u and b alone.  The tokens act right to left through
    the compiled tables of the basis: on the standard basis one step per
    token, 12*rho(S) or rho(T^(k % 12)); on the eigenbasis one S step per
    S, taking the T^k to its right unless that is already applied, and a
    step of its own for a leading T^k.  With head the leftmost S runs the
    head of its S step; the zeros it leaves cost a leading T nothing.
    Inside a suite (_step_memo) an eigenbasis step already run on the same
    column is looked up."""
    memo = _memo.get() if eigen else None
    v = _walk(tokens, column, eigen, head, memo)
    return v if memo is None else list(memo[1][v])


def _walk(tokens, column, eigen, head, memo):
    """_apply's walk; with a memo, on column ids: the id of the image."""
    if eigen:
        steps, t, heads = _eigenbasis()
        tables = steps + heads + t
    else:
        s, t = _standard()
        tables = (s,) * 24 + t
    if memo is None:
        v = _flat(column)
    else:
        if len(memo[1]) >= _MEMO_COLUMNS:
            for part in memo:
                part.clear()
        ids, columns, transitions = memo[:3]
        if column not in ids:
            ids[column] = _intern(memo, _flat(column))
        v = ids[column]
    first = tokens.index("S") if "S" in tokens else None
    i = len(tokens)
    while i:
        i, token, code = i - 1, tokens[i - 1], 0
        if eigen and token != "S" and i and tokens[i - 1] == "S":
            i, token, code = i - 1, "S", token % 12  # T^k folds into the S to its left
        if token != "S":
            code = 24 + token % 12
        elif head and i == first:
            code += 12
        if memo is None:
            v = _run(tables[code], v)
        else:
            step = code, v
            if step not in transitions:
                transitions[step] = _intern(memo, _run(tables[code], columns[v]))
            v = transitions[step]
    return v


def rho_s():
    """rho(S), exact: a one-token word image; aborts if construction's checks fail."""
    return rho_word(Word(["S"]))


def rho_t():
    """rho(T), exact: a one-token word image; aborts if construction's checks fail."""
    return rho_word(Word([1]))


def rho_word(word):
    """Image of a generator word: the evaluator on each standard basis
    column, divided once by 12^m."""
    den = 12 ** word.s_count()
    return CycloMatrix(zip(*(_entries(_apply(word.tokens, _unit(j)), den) for j in range(DIM))))


def _first_entry(word, x):
    """x times the first entry of rho(word).  6*12^m rho(word) e0 runs
    on the eigenbasis, only the v, u and b rows in its leftmost S step;
    <e0, .> reads x_v + x_u + x_b, as v, u and b each hold e0 once.  Then
    one product with x and one division.  Inside a suite (_step_memo) the
    result is kept by the id of that column, m and x."""
    m, memo = word.s_count(), _memo.get()
    if memo is None:  # outside a suite: a memo for this call alone
        key, firsts, v = None, {}, _apply(word.tokens, _SIX_E0, eigen=True, head=True)
    else:
        key = _walk(word.tokens, _SIX_E0, True, True, memo), m, x
        firsts, v = memo[3], memo[1][key[0]]
    if key not in firsts:
        total = [sum(v[r:3 * DEGREE:DEGREE]) for r in range(DEGREE)]
        firsts[key] = _entries(_mul_coeffs(total, x._c), 6 * 12 ** m)[0]
    return firsts[key]


def rho_entry_11(word):
    """First matrix entry of rho(word), exact."""
    return _first_entry(word, ONE)


def w_rho_entry_11(word):
    """w times the first entry of rho(word), the state sum of a gluing word."""
    return _first_entry(word, GLOBAL_INDEX)


def verify_relations():
    """Report on the two presentation relations, from construction."""
    return _construction()[1]


def verify_unitary():
    """Report that rho(S) is exactly unitary, from construction."""
    return _construction()[2]


@_step_memo()
def verify_kernel_generators():
    """Report that rho kills all 19 published generators of Gamma(12).

    Each generator is evaluated along two routes: its published word and a
    fresh decomposition of its matrix; both must give the identity exactly.
    A route whose word the first route already evaluated is not run again.
    """
    checks = []
    for gen in gamma12_generators():
        routes = {gen.word: "via word"}
        routes.setdefault(decompose(gen.matrix), "via matrix")  # a repeated word runs once
        bad = next((f"{route} {witness}" for word, route in routes.items()
                    if (witness := _kernel_witness(word))), None)
        checks.append(Check(gen.name, bad))
    return Report("kernel", tuple(checks))


def _kernel_witness(word):
    """None if each eigenbasis vector b comes back as 12^m b, which makes
    rho(word) = I.  Else the first entry of rho(word) that differs from I;
    or, when none does (the eigenbasis table is wrong), b and the first flat
    coordinate of 12^m rho(word) b that differs."""
    scale = 12 ** word.s_count()
    for j in range(DIM):
        got, want = _apply(word.tokens, _unit(j), True), _flat(_unit(j, scale))
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            return (_difference(rho_word(word).rows, CycloMatrix.identity(DIM).rows)
                    or f"basis vector {j}, flat coordinate {i}: "
                       f"expected {want[i]}, got {got[i]}")
    return None


def _difference(got, want):
    """The first entry where the rows got differ from the rows want, as
    text; None if equal."""
    return next((f"({i + 1},{j + 1}): expected {b.to_text()}, got {a.to_text()}"
                 for i, (row, want_row) in enumerate(zip(got, want))
                 for j, (a, b) in enumerate(zip(row, want_row)) if a != b), None)
