"""The 10-dimensional representation: exact construction, self-checks,
presentation relations, unitarity and the Gamma(12) kernel."""

import copy
import math
import pickle
import random
import re
from functools import lru_cache, reduce

import pytest

from e6lens import cli, invariant, rep
from e6lens.cyclotomic import (GLOBAL_INDEX, IMAG, ONE, SQRT3, ZERO, Cyclotomic, _mul_coeffs,
                               zeta_pow)
from e6lens.invariant import (MAX_PMAX, LensSpace, closed_form, verify_closed_form,
                              verify_periodicity, verify_well_defined)
from e6lens.modular import (IDENTITY, SL2Z, GammaGenerator, T, Word, cofactors, decompose,
                            gamma12_generators, lens_matrix)
from e6lens.rep import (
    DIM,
    CycloMatrix,
    _s_numerator,
    rho_entry_11,
    rho_s,
    rho_t,
    rho_word,
    verify_kernel_generators,
    verify_relations,
    verify_unitary,
)
from e6lens.report import Check, Report

I10 = CycloMatrix.identity(DIM)


def naive(a, b):
    """The product a b by entrywise Cyclotomic arithmetic, no rep helpers:
    the reference for every matrix product in these tests."""
    columns = list(zip(*b.rows))
    return CycloMatrix([[sum((x * y for x, y in zip(row, col) if x and y), start=ZERO)
                         for col in columns] for row in a.rows])


def naive_power(a, k):
    return reduce(naive, [a] * k, I10)


def rand_word(rng, max_tokens=8):
    tokens = []
    for _ in range(rng.randint(0, max_tokens)):
        tokens.append("S" if rng.random() < 0.5 else rng.randint(-12, 12))
    return Word(tokens)


# -- construction -----------------------------------------------------------------


def test_rho_s_corner_entry():
    assert rho_s().rows[0][0] == GLOBAL_INDEX.inv()


def test_rho_s_composite_entry():
    # the (1,7) entry is (3+sqrt3)/w, pinned by the unit row norm oracle
    assert rho_s().rows[0][6] == (3 + SQRT3) * GLOBAL_INDEX.inv()


def test_rho_s_is_symmetric():
    s = rho_s()
    for i in range(DIM):
        for j in range(DIM):
            assert s.rows[i][j] == s.rows[j][i]


def test_rho_t_diagonal():
    # rho_t() is the image of the word T, as rho_s() is of S; this pins
    # every entry from literals, independent of rep._T_EXP
    t = rho_t()
    assert t == rho_word(Word([1]))
    z2 = zeta_pow(2)
    expected = (ONE, -z2, -ONE, ONE, IMAG, -z2, ONE, z2 ** 4, z2 ** -2, -ONE)
    assert [t.rows[i][i] for i in range(DIM)] == list(expected)
    for i in range(DIM):
        for j in range(DIM):
            if i != j:
                assert not t.rows[i][j]


def test_rho_t_twelfth_power_is_identity():
    assert naive_power(rho_t(), 12) == I10


def test_row_norm_oracle():
    w2 = GLOBAL_INDEX * GLOBAL_INDEX
    for row in _s_numerator().rows:
        norm = sum((e * e.conjugate() for e in row), start=Cyclotomic([0] * 8))
        assert norm == w2


def _text(c0, c2, c6):
    """to_text of c0 + c2*zeta^2 + c6*zeta^6, written out by hand."""
    return f"{c0}/1 + 0/1*z + {c2}/1*z^2 + 0/1*z^3 + 0/1*z^4 + 0/1*z^5 + {c6}/1*z^6 + 0/1*z^7"


def _witness(entry, want, got):
    return f"{entry}: expected {_text(*want)}, got {_text(*got)}"


def _corrupt(kind):
    rows = [list(r) for r in _s_numerator().rows]
    if kind == "sign flip":
        rows[0][6] = -rows[0][6]
    elif kind == "plus one":
        rows[0][6] = rows[0][6] + ONE  # perturb a composite entry
    else:  # D ns D^-1 with D = diag(2, 1, ..., 1)
        for j in range(1, DIM):
            rows[0][j] = 2 * rows[0][j]
            rows[j][0] = rows[j][0] / 2
    return CycloMatrix(rows)


# the checks of verify relations, and each one's witness on the three
# corruptions of w*rho(S): entries of the products, computed over the field
NAMES = ("rho(S)^4 = I", "(rho(S) rho(T))^3 = rho(S)^2", "rho(S) rho(S)* = I")
_W4, _W2 = (4032, 4608, -2304), (48, 48, -24)
PINNED = {
    "sign flip": (_witness("(1,1)", _W4, (1008, 1152, -576)),
                  _witness("(1,1)", (216, 240, -120), (192, 216, -108)),
                  _witness("(1,3)", (0, 0, 0), (24, 24, -12))),
    "plus one": (_witness("(1,1)", _W4, (4476, 5100, -2550)),
                 _witness("(1,1)", (456, 504, -252), (459, 506, -253)),
                 _witness("(1,1)", _W2, (55, 52, -26))),
    "similarity": (None, None, _witness("(1,1)", _W2, (189, 192, -96))),
}


def _fresh_construction(monkeypatch, kind=None):
    """Build 12*rho(S) anew on the next call, from the corrupted w*rho(S)
    if kind is given."""
    if kind:
        monkeypatch.setattr(rep, "_s_numerator", lambda: _corrupt(kind))
    monkeypatch.setattr(rep, "_construction", lru_cache(maxsize=1)(rep._construction.__wrapped__))


def _aborts_with_first_failure(monkeypatch, kind):
    # construction raises on the first failing check, with its witness
    name, witness = next((n, w) for n, w in zip(NAMES, PINNED[kind]) if w)
    _fresh_construction(monkeypatch, kind)
    with pytest.raises(RuntimeError) as info:
        rep._standard()
    assert str(info.value) == f"self-check of w*rho(S) failed: {name} [{witness}]"


def test_construction_aborts_on_corrupt_entry(monkeypatch):
    _aborts_with_first_failure(monkeypatch, "plus one")


def test_s_table_checks_the_matrix_it_compiles(monkeypatch):
    # _standard, the basis that evaluation reads, runs the self-check
    _fresh_construction(monkeypatch, "plus one")
    with pytest.raises(RuntimeError, match=r"self-check of w\*rho\(S\) failed"):
        rep._standard()


def test_construction_aborts_on_sign_flip_that_keeps_row_norms(monkeypatch):
    w2 = GLOBAL_INDEX * GLOBAL_INDEX
    assert all(sum((e * e.conjugate() for e in row), start=ZERO) == w2
               for row in _corrupt("sign flip").rows)
    _aborts_with_first_failure(monkeypatch, "sign flip")


def _twelve_s():
    """12*rho(S) = (3 - sqrt3) w*rho(S), entry by entry."""
    return [[(3 - SQRT3) * e for e in row] for row in _s_numerator().rows]


def _basis_matrix():
    """12*rho(S) on the eigenbasis, by Cyclotomic arithmetic alone: entry
    (k, i) is <12 rho(S) b_i, b_k> / <b_k, b_k> (the basis is real)."""
    basis = [[b.get(i, 0) for i in range(DIM)] for b in rep._BASIS]
    images = [[sum((x * e for x, e in zip(b, row) if x), start=ZERO) for row in _twelve_s()]
              for b in basis]
    return [[sum((x * e for x, e in zip(c, image) if x), start=ZERO) / sum(x * x for x in c)
             for image in images] for c in basis]


def _t_diagonals():
    """The diagonal of rho(T) on the standard basis and on the eigenbasis,
    read from rho_t(): a basis vector takes the twist of its support."""
    diagonal = [rho_t().rows[i][i] for i in range(DIM)]
    return diagonal, [diagonal[min(b)] for b in rep._BASIS]


def _t_powers(diagonal):
    """rho(T^k) for k = 0..11, entry by entry, where rho(T) is this diagonal."""
    return [[[e ** k if i == j else ZERO for j in range(len(diagonal))]
             for i, e in enumerate(diagonal)] for k in range(12)]


def test_cold_construction_compiles_w_rho_s_once(monkeypatch):
    # construction compiles 12*rho(S) once, then its twelve rho(T^k), and
    # self-checks those tables, which every _standard() call returns: the
    # checks run each column of a product through the kernel and compile no
    # product.
    # The eigenbasis comes from that checked table: one compile, of
    # 12*rho(S) on the eigenbasis, and none of the entered matrix, then its
    # twelve rho(T^k); its head is a part of that table, not a compile
    eigenbasis, (standard, eigen) = rep._eigenbasis(), _t_diagonals()
    _fresh_construction(monkeypatch)
    calls, real = [], rep._compile
    monkeypatch.setattr(rep, "_compile", lambda rows: calls.append(rows) or real(rows))
    assert rep._standard() is rep._standard()
    assert [[list(row) for row in rows] for rows in calls] == [_twelve_s()] + _t_powers(standard)
    del calls[:]
    assert rep._eigenbasis.__wrapped__() == eigenbasis
    assert [[list(row) for row in rows] for rows in calls] == [_basis_matrix()] + _t_powers(eigen)


@pytest.mark.parametrize("kind", PINNED)
def test_suites_report_a_corrupt_s_numerator(monkeypatch, capsys, kind):
    # the suites report each check's witness, and the CLI prints them and
    # exits 1; only construction raises
    rho_s()
    _fresh_construction(monkeypatch, kind)
    assert verify_relations().checks + verify_unitary().checks == tuple(
        map(Check, NAMES, PINNED[kind]))
    assert cli.main(["verify", "relations"]) == 1
    suites = ["relations"] * 2 + ["unitarity"]
    lines = [f"PASS  {suite}: {name}" if w is None else f"FAIL  {suite}: {name}  [{w}]"
             for suite, name, w in zip(suites, NAMES, PINNED[kind])]
    lines.append(f"relations: {PINNED[kind].count(None)}/3 checks passed")
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


# -- relations and unitarity ---------------------------------------------------------


def test_verify_relations_all_pass():
    report = verify_relations()
    assert len(report.checks) == 2
    assert report.passed, report.to_json()


def _checks_with_twists(monkeypatch, twists):
    """The three construction checks, built anew with these twists."""
    monkeypatch.setattr(rep, "_T_EXP", twists)
    _fresh_construction(monkeypatch)
    return verify_relations().checks + verify_unitary().checks


def _fails_with_witness(check):
    return (check.name == "(rho(S) rho(T))^3 = rho(S)^2" and not check.passed
            and re.fullmatch(r"\(\d+,\d+\): expected .+, got .+", check.witness))


def test_a_wrong_entered_twist_fails_only_the_st_relation(monkeypatch):
    # rho(T) is built from powers of zeta^2, so only the ST relation reads
    # the twists: with the twists 0, 1, ..., 9 it fails, with a witness,
    # while rho(S)^4 = I and rho(S) rho(S)* = I pass
    s4, st3, unitary = _checks_with_twists(monkeypatch, tuple(range(DIM)))
    assert _fails_with_witness(st3)
    assert (s4, unitary) == (Check(NAMES[0]), Check(NAMES[2]))


def test_each_moved_twist_fails_the_st_relation(monkeypatch):
    # each entry of _T_EXP moved by +1 and by +6 fails (rho(S) rho(T))^3 =
    # rho(S)^2, the one construction check that reads the twists
    twists = rep._T_EXP
    for i in range(DIM):
        for step in (1, 6):
            moved = twists[:i] + ((twists[i] + step) % 12,) + twists[i + 1:]
            assert _fails_with_witness(_checks_with_twists(monkeypatch, moved)[1]), (i, step)


def test_relations_directly():
    s, t = rho_s(), rho_t()
    s2, st = naive(s, s), naive(s, t)
    assert naive(s2, s2) == I10
    assert naive(naive(st, st), st) == s2
    assert s2 != I10  # -I is not in the kernel


def test_verify_unitary():
    report = verify_unitary()
    assert report.passed, report.to_json()
    s = rho_s()
    assert naive(s, CycloMatrix(zip(*([e.conjugate() for e in row] for row in s.rows)))) == I10


def test_construction_aborts_on_similarity_that_keeps_relations(monkeypatch):
    # D ns D^-1 with D = diag(2, 1, ..., 1) commutes past rho(T), so every
    # presentation relation still holds; only unitarity catches it
    _fresh_construction(monkeypatch, "similarity")
    assert verify_relations().passed
    _aborts_with_first_failure(monkeypatch, "similarity")


def test_suites_report_construction_checks_without_running_them_again(monkeypatch):
    # construction runs the relation and unitarity checks once; after it the
    # suites compile nothing and run no kernel step, and report what a fresh
    # build reports
    rho_s()
    calls = []
    for name in ("_compile", "_run"):
        real = getattr(rep, name)
        monkeypatch.setattr(rep, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    reports = verify_relations(), verify_unitary()
    assert calls == []
    assert rep._construction.__wrapped__()[1:] == reports
    assert {"_compile", "_run"} <= set(calls)
    assert all(report.passed for report in reports)


# -- kernel -----------------------------------------------------------------------------


@pytest.mark.parametrize("word, route", [(Word([1]), "via word"), (Word(), "via matrix")])
def test_kernel_failure_names_route_and_entry(monkeypatch, word, route):
    # a fake generator T: its word is T1 (fails via word) or empty (passes
    # via word, fails via matrix); rho(T) has -zeta^2 at (2,2)
    fake = GammaGenerator("fake", T, word)
    monkeypatch.setattr(rep, "gamma12_generators", lambda: (fake,))
    report = verify_kernel_generators()
    witness = f"{route} (2,2): expected {ONE.to_text()}, got {zeta_pow(14).to_text()}"
    assert report.checks == (Check("fake", witness),)


def test_kernel_evaluates_each_distinct_word_once(monkeypatch):
    # 8 of the 19 generators decompose to their published word: 30 words, not
    # 38, each on its ten columns; a passing word is never divided by w^m
    rho_s()  # construction evaluates rho(T) before the spies are in place
    calls, divided = [], []
    real_apply, real_word = rep._apply, rep.rho_word
    monkeypatch.setattr(rep, "_apply",
                        lambda tokens, *args: calls.append(tokens) or real_apply(tokens, *args))
    monkeypatch.setattr(rep, "rho_word", lambda word: divided.append(word) or real_word(word))
    assert verify_kernel_generators().passed
    assert len(calls) == 300 and divided == []
    assert len(set(calls)) == 30
    assert len(set(calls)) == sum(len({g.word, decompose(g.matrix)}) for g in gamma12_generators())


# -- word evaluation ------------------------------------------------------------------


def test_empty_word_maps_to_identity():
    assert rho_word(Word()) == I10


def test_s_fourth_power_maps_to_identity():
    assert rho_word(Word(["S", "S", "S", "S"])) == I10


def test_published_word_in_kernel():
    assert rho_word(Word.parse("SST12ST12S")) == I10


def test_rho_matrix_identity_and_generators():
    assert rho_word(decompose(IDENTITY)) == I10
    assert rho_word(decompose(SL2Z(0, -1, 1, 0))) == rho_s()


def test_rho_of_minus_identity_has_unit_corner():
    m = rho_word(decompose(SL2Z(-1, 0, 0, -1)))
    assert m == naive(rho_s(), rho_s())
    assert m.rows[0][0] == ONE


def test_values_are_frozen_and_compare_by_content():
    word, matrix = Word(["S", 3, 4]), CycloMatrix.identity(2)
    assert word == Word(["S", 7]) and hash(word) == hash(Word(["S", 7]))
    same = CycloMatrix([[ONE, ZERO], [ZERO, ONE]])
    assert matrix == same and hash(matrix) == hash(same)
    space, sl2z = LensSpace(5, 1), SL2Z(1, 1, 0, 1)
    values = [word, matrix, space, sl2z, Check("x", "why"), Report("r", (Check("x"),)),
              GammaGenerator("P1+", SL2Z(1, 12, 0, 1), Word([12]))]
    for value in values:
        twin = type(value)(*copy.deepcopy(tuple(value)))
        assert twin == value and hash(twin) == hash(value)
        for field in (*value._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        copies = [copy.copy(value), copy.deepcopy(value),
                  *(pickle.loads(pickle.dumps(value, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        for other in copies:
            assert type(other) is type(value) and other == value and hash(other) == hash(value)
    # every other way to build a value runs its constructor's checks
    unchecked = [
        (lambda: space._replace(p=4, q=2), ValueError, r"gcd\(4,2\)=2"),
        (lambda: LensSpace._make((4, 2)), ValueError, r"gcd\(4,2\)=2"),
        (lambda: sl2z._replace(a=2), ValueError, "determinant must be 1"),
        (lambda: SL2Z._make((2, 1, 0, 1)), ValueError, "determinant must be 1"),
        (lambda: SL2Z._make((1.0, 0, 0, 1)), ValueError, "a must be an int"),
        (lambda: matrix._replace(rows=[[ONE, ZERO]]), ValueError, "matrix must be square"),
        (lambda: CycloMatrix._make([[[ONE, ZERO]]]), ValueError, "matrix must be square"),
        (lambda: CycloMatrix._make([[[1]]]), TypeError, "entries must be Cyclotomic"),
        (lambda: word._replace(tokens=[1.5]), ValueError, "bad token 1.5"),
        (lambda: Word._make([["T"]]), ValueError, "bad token 'T'"),
    ]
    for build, error, message in unchecked:
        with pytest.raises(error, match=message):
            build()
    forged = tuple.__new__(LensSpace, (4, 2))  # skips LensSpace.__new__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match=r"gcd\(4,2\)=2"):
            pickle.loads(pickle.dumps(forged, protocol))
    for copier in (copy.copy, copy.deepcopy):
        with pytest.raises(ValueError, match=r"gcd\(4,2\)=2"):
            copier(forged)
    # the tuple operators are not inherited: + and int * stay undefined
    for value in (word, sl2z, space, matrix):
        for operation in (lambda: value + value, lambda: 2 * value, lambda: value * 2):
            with pytest.raises(TypeError):
                operation()
    # a check fails exactly when it carries a witness
    assert Check("x").passed and not Check("x", "why").passed


def test_homomorphism_on_random_word_pairs():
    rng = random.Random(17)
    for _ in range(50):
        u, v = rand_word(rng, 4), rand_word(rng, 4)
        assert rho_word(u * v) == naive(rho_word(u), rho_word(v))


def test_word_independence_of_rho_matrix():
    rng = random.Random(23)
    s4 = Word(["S", "S", "S", "S"])
    for _ in range(20):
        word = rand_word(rng, 6)
        m = word.to_matrix()
        alt = decompose(m) * s4
        assert alt.to_matrix() == m
        assert rho_word(alt) == rho_word(decompose(m))


def test_rho_t_power_matches_repeated_product():
    # T^k through the kernel, negative k included, against rho(T)^(k mod 12)
    rng = random.Random(29)
    for _ in range(10):
        k = rng.randint(-30, 30)
        assert rho_word(Word([k])) == naive_power(rho_t(), k % 12)


def test_entry_11_fast_path_matches_full_matrix():
    # the fast path runs every token through its table; it skips only the
    # rows of the leftmost S step that the first entry does not read.
    # The reference is the naive product of w*rho(S) as entered and powers
    # of rho(T), divided by w^m at the end (integer products stay fast)
    ns, t_powers = _s_numerator(), [naive_power(rho_t(), k) for k in range(12)]
    rng = random.Random(41)
    edge = [Word.parse(text) for text in ("", "S", "SS", "T5", "T-7", "T12", "T3S", "ST3",
                                           "T3ST-2", "T1ST4ST-5", "T2SST7SSST11")]
    for word in edge + [rand_word(rng, 6) for _ in range(200)]:
        product = I10
        for tok in word.tokens:
            product = naive(product, ns if tok == "S" else t_powers[tok % 12])
        w_power = GLOBAL_INDEX.inv() ** word.s_count()
        assert rho_entry_11(word) == product.rows[0][0] * w_power, word


def _with_eigenbasis(monkeypatch, table=None, t=None):
    """Evaluation on the eigenbasis with this 12*rho(S) table or these
    rho(T^k) tables, and with the S steps 12*rho(S) rho(T^k) and their
    heads that the derivation's own fold builds from them."""
    real_steps, real_t, _ = rep._eigenbasis()
    t = t or real_t
    steps, heads = rep._fold(table or real_steps[0], t)
    monkeypatch.setattr(rep, "_eigenbasis", lambda: (steps, t, heads))


def _corrupt_factor(table, row):
    """A copy of a compiled table whose first factor that lands in output
    row `row` is one more."""
    rows, columns = table
    j = next(j for j, column in enumerate(columns) if any(i == row for i, _ in column))
    column = tuple((i, f + (i == row)) for i, f in columns[j])
    return rows, columns[:j] + (column,) + columns[j + 1:]


@pytest.mark.parametrize("text", ["T5", "T5S", "ST5", "T5ST3S", "T5ST3ST5", "ST5S"])
def test_entry_11_runs_end_t_tokens_through_their_tables(monkeypatch, text):
    # a wrong first block row of the eigenbasis T^5 table must show in the
    # first entry, whether T^5 comes before the first S, after the last S,
    # between two S or without any S; and the leftmost S step, which runs
    # only the v, u and b rows, must agree with a run of every row
    word = Word.parse(text)
    before = rho_entry_11(word)
    t = rep._eigenbasis()[1]
    _with_eigenbasis(monkeypatch, t=t[:5] + (_corrupt_factor(t[5], 0),) + t[6:])
    after = rho_entry_11(word)
    assert after != before
    column = rep._apply(word.tokens, rep._SIX_E0, True)
    assert len(column) == 4 * DIM
    assert after == sum(rep._entries(column[:12]), start=ZERO) / (6 * 12 ** word.s_count())


def test_well_defined_fails_on_wrong_t_exponent(monkeypatch):
    # rho(T) with -1 on v = e0 + e3 + e6 in the eigenbasis table: the
    # derivation has already checked the true twists, so only the suites can
    # see it.  A cofactor shift changes the gluing word only after its last
    # S, so the shifted words must disagree
    twists = tuple(rep._T_EXP[min(b)] for b in rep._BASIS)
    assert twists[0] == 0 and rep._t_tables(twists) == rep._eigenbasis()[1]
    _with_eigenbasis(monkeypatch, t=rep._t_tables((6,) + twists[1:]))
    # a fresh cache, so that the shared one keeps the true values
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lru_cache(maxsize=None)(invariant._literal_state_sum.__wrapped__))
    report = verify_well_defined(12)
    assert not report.passed
    assert all(re.fullmatch(r"expected .+, got .+", check.witness)
               for check in report.failures())


def test_compiled_blocks_multiply_the_basis_vectors():
    # every 4x4 block of every compiled table is the product with e_0..e_3;
    # a column holds its (row, factor) pairs in increasing row, zeros
    # dropped.  Each basis holds twelve T tables, the one of rho(T^k) at
    # index k.  The eigenbasis S step at index k is 12*rho(S) rho(T^k), the
    # entrywise product of 12*rho(S) there with the k-th twist diagonal;
    # step 0 is the S table itself.  Each head is its step's v, u and b rows
    # on every column, and zero below them
    (s, standard_t), (steps, eigen_t, heads) = rep._standard(), rep._eigenbasis()
    assert len(standard_t) == len(eigen_t) == len(steps) == len(heads) == 12
    assert steps[0] == rep._compile(_basis_matrix())
    tables = [(s, _twelve_s())]
    for step, head, powers in zip(steps, heads, _t_powers(_t_diagonals()[1])):
        assert [column[:len(h)] for h, column in zip(head[1], step[1])] == list(head[1])
        product = [[e * powers[j][j] for j, e in enumerate(row)] for row in _basis_matrix()]
        tables += [(step, product), (head, product[:3] + [[ZERO] * DIM] * (DIM - 3))]
    for t, diagonal in zip((standard_t, eigen_t), _t_diagonals()):
        tables += zip(t, _t_powers(diagonal))
    basis = [tuple(int(r == j) for r in range(4)) for j in range(4)]
    for (n_rows, columns), rows in tables:
        assert n_rows == 4 * len(rows) and len(columns) == 4 * len(rows[0])
        for column in columns:
            indices = [i for i, _ in column]
            assert indices == sorted(set(indices)) and all(f for _, f in column)
            assert all(i < n_rows for i in indices)
        flat = [dict(column) for column in columns]
        for i, row in enumerate(rows):
            for k, a in enumerate(row):
                for j, e in enumerate(basis):
                    column = [flat[4 * k + j].get(4 * i + r, 0) for r in range(4)]
                    assert column == _mul_coeffs(a._c, e), (i, k, j)


def test_each_basis_is_compiled_whole_once(monkeypatch, capsys):
    # from cold caches, construction compiles the standard basis whole, its
    # 12*rho(S) and twelve rho(T^k), and the eigenbasis derivation its own
    # thirteen tables; after that verify all, a table sweep and one compute
    # compile nothing
    for module, name in ((rep, "_construction"), (rep, "_eigenbasis"),
                         (invariant, "_literal_state_sum")):
        cached = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lru_cache(cached.cache_info().maxsize)(cached.__wrapped__))
    compiled, real = [], rep._compile
    monkeypatch.setattr(rep, "_compile", lambda rows: compiled.append(rows) or real(rows))
    rho_s()
    assert len(compiled) == 13
    rep._eigenbasis()
    assert len(compiled) == 2 * 13
    for argv in (["verify", "all"], ["table", "--pmax", "120", "--format", "csv"],
                 ["compute", "5", "1"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(compiled) == 2 * 13


@pytest.mark.parametrize("row", [0, 21])
def test_corrupt_kernel_factor_fails_closed_form(monkeypatch, row):
    # the suites evaluate the literal words through the kernel, so one wrong
    # factor in the eigenbasis 12*rho(S) shows as a failure that names p
    # (row 0 reads v, row 21 a coefficient of e2 - e9 in the 6-block)
    _with_eigenbasis(monkeypatch, table=_corrupt_factor(rep._eigenbasis()[0][0], row))
    invariant._literal_state_sum.cache_clear()
    try:
        report = verify_closed_form(12)
    finally:
        invariant._literal_state_sum.cache_clear()
    assert not report.passed
    assert all(re.fullmatch(r"state sum = closed form, p=\d+ \(\d+ pairs\)", check.name)
               for check in report.failures())


def test_corrupt_folded_s_step_fails_closed_form(monkeypatch):
    # one wrong factor in the eigenbasis S step 12*rho(S) rho(T^5) alone,
    # with the S table, the T tables, the other steps and every head sound:
    # a word that runs T^5 (mod 12) right of an S other than its leftmost
    # reads that step, so the sweep fails and names p
    steps, t, heads = rep._eigenbasis()
    steps = steps[:5] + (_corrupt_factor(steps[5], 0),) + steps[6:]
    monkeypatch.setattr(rep, "_eigenbasis", lambda: (steps, t, heads))
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lru_cache(maxsize=None)(invariant._literal_state_sum.__wrapped__))
    report = verify_closed_form(12)
    assert [check.name for check in report.failures()] == [
        "state sum = closed form, p=11 (10 pairs)"]


# -- step memo -----------------------------------------------------------------------


def _gluing_words(p_max):
    return {(p, q): decompose(lens_matrix(p, q, *cofactors(p, q)))
            for p in range(1, p_max + 1) for q in range(p) if math.gcd(p, q) == 1}


def _fresh_state_sums(monkeypatch):
    """An empty state-sum cache, so that a suite evaluates its words."""
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lru_cache(maxsize=None)(invariant._literal_state_sum.__wrapped__))


def _memos_seen(monkeypatch):
    """[memo, most columns it held at a kernel step], one per memo in the
    order the kernel steps met them, from a spy on rep._run."""
    seen, real = [], rep._run

    def spy(table, v):
        memo = rep._memo.get()
        if not seen or seen[-1][0] is not memo:
            seen.append([memo, 0])
        seen[-1][1] = max(seen[-1][1], len(memo[1]))
        return real(table, v)

    rep._eigenbasis()  # derived once, outside the suites
    monkeypatch.setattr(rep, "_run", spy)
    return seen


_SUITES = (verify_kernel_generators, verify_well_defined, verify_periodicity, verify_closed_form)


def test_step_memo_is_bounded_and_scoped_to_one_suite(monkeypatch):
    # each suite that evaluates words gets a fresh memo, and none outlives
    # it.  With the cap at 8, an evaluation starts with fewer than 8 columns
    # and adds its start column and one per kernel step, so the memo is
    # cleared again and again and holds no more than that
    cap, steps, real_walk = 8, [], rep._walk
    seen = _memos_seen(monkeypatch)
    spy = rep._run

    def walk(*args):
        steps.append(0)  # kernel steps of this evaluation so far
        return real_walk(*args)

    def run(table, v):
        steps[-1] += 1
        assert len(rep._memo.get()[1]) <= cap + steps[-1] - 1
        return spy(table, v)

    monkeypatch.setattr(rep, "_MEMO_COLUMNS", cap)
    monkeypatch.setattr(rep, "_walk", walk)
    monkeypatch.setattr(rep, "_run", run)
    for suite in _SUITES:
        _fresh_state_sums(monkeypatch)
        assert suite().passed
    memos = [memo for memo, _ in seen]
    assert len(memos) == 4 and None not in memos
    assert len(set(map(id, memos))) == 4  # each alive in this list, so each a new one
    assert max(steps) > cap  # one evaluation alone passes the cap
    # a step is keyed with a table code and the id of a column
    assert all(0 <= code < 36 and 0 <= c < len(memo[1]) for memo in memos for code, c in memo[2])
    assert rep._memo.get() is None


def test_memo_cap_holds_every_suite_and_a_small_cap_keeps_every_report(monkeypatch):
    # at MAX_PMAX no suite fills its memo, so none clears it; the kernel
    # suite holds the most columns.  Clearing costs only work: with a cap of
    # 8, each report is the uncapped one
    seen = _memos_seen(monkeypatch)
    for suite in _SUITES:
        _fresh_state_sums(monkeypatch)
        assert (suite() if suite is verify_kernel_generators else suite(MAX_PMAX)).passed
    sizes = [size for _, size in seen]
    assert len(sizes) == 4 and max(sizes) == sizes[0] < rep._MEMO_COLUMNS <= 3 * sizes[0]

    def reports():
        for suite in _SUITES[:3]:
            _fresh_state_sums(monkeypatch)
            yield suite() if suite is verify_kernel_generators else suite(48)

    uncapped = list(reports())
    monkeypatch.setattr(rep, "_MEMO_COLUMNS", 8)
    assert list(reports()) == uncapped


def test_no_kernel_step_runs_twice_in_a_suite(monkeypatch, capsys):
    # inside each suite of verify all a (table, input column) pair reaches
    # the kernel once: rho(T^k) fixes e0, and rho has level 12, so the words
    # of a suite meet the same columns again and again.  closedform finds
    # every value in the cache that periodicity filled, and runs no step
    rep.rho_s()
    suites, real = [], rep._run  # [(memo, [(table, column) run])], in order

    def spy(table, v):
        memo = rep._memo.get()
        if not suites or suites[-1][0] is not memo:
            suites.append((memo, []))
        suites[-1][1].append((id(table), tuple(v)))
        return real(table, v)

    monkeypatch.setattr(rep, "_run", spy)
    _fresh_state_sums(monkeypatch)
    assert cli.main(["verify", "all"]) == 0
    capsys.readouterr()
    assert len(suites) == 3 and all(memo is not None for memo, _ in suites)
    assert all(len(set(runs)) == len(runs) for _, runs in suites)


def test_first_entry_memo_is_keyed_with_the_factor():
    # w_rho_entry_11 and rho_entry_11 read one column of each word; inside
    # one memo, in either order, each keeps its own factor
    words = list(_gluing_words(24).values())
    for order in ((rep.w_rho_entry_11, rho_entry_11), (rho_entry_11, rep.w_rho_entry_11)):
        with rep._step_memo():
            for word in words:
                value = {entry: entry(word) for entry in order}
                assert value[rep.w_rho_entry_11] == GLOBAL_INDEX * value[rho_entry_11], word


def test_outside_a_suite_every_s_step_runs(monkeypatch):
    # with no memo, a word evaluated again runs all its steps again: one
    # kernel step per S token, which runs the T token to its right with it,
    # and one T table step for a leading T token, the only T token that no
    # S step takes; inside _step_memo the repeat runs no kernel step
    words = list(_gluing_words(24).values())
    t_steps = sum(word.tokens[0] != "S" for word in words if word.tokens)
    steps = sum(word.s_count() for word in words) + t_steps
    assert (steps, t_steps) == (812, 89)
    memos, t_memos = [], []
    real_run = rep._run
    t_tables = rep._standard()[1] + rep._eigenbasis()[1]  # built before the spy counts steps

    def spy(table, v):
        memos.append(rep._memo.get())
        if any(table is t for t in t_tables):
            t_memos.append(memos[-1])
        return real_run(table, v)

    monkeypatch.setattr(rep, "_run", spy)
    values = [rho_entry_11(word) for word in words]
    assert [rho_entry_11(word) for word in words] == values
    assert len(memos) == 2 * steps and memos == [None] * len(memos)
    assert len(t_memos) == 2 * t_steps and t_memos == [None] * len(t_memos)
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lru_cache(maxsize=None)(invariant._literal_state_sum.__wrapped__))
    invariant.sweep_table(24)
    rho_word(words[-1])
    assert memos == [None] * len(memos) and t_memos == [None] * len(t_memos)
    del memos[:]
    with rep._step_memo():
        assert [rho_entry_11(word) for word in words] == values
        first = len(memos)
        assert [rho_entry_11(word) for word in words] == values
    assert 0 < first < steps and len(memos) == first


def test_the_standard_basis_reference_takes_no_shortcut(monkeypatch):
    # rho_word is the reference that the eigenbasis is compared with: inside
    # a suite it still runs every token of all ten columns, every time, and
    # stores nothing in the memo
    word = Word.parse("T2ST3ST-1S")
    want = rho_word(word)  # construction, before the spy counts steps
    steps, real = [], rep._run
    monkeypatch.setattr(rep, "_run", lambda table, v: steps.append(table) or real(table, v))
    with rep._step_memo():
        for _ in range(2):
            del steps[:]
            assert rho_word(word) == want
            assert len(steps) == DIM * len(word)
        assert rep._memo.get() == ({}, [], {}, {})


def test_corrupt_memo_step_fails_exactly_the_words_that_cross_it():
    # a memoized step is shared, not assumed: one wrong image makes exactly
    # the pairs whose walk crosses that step disagree with the closed form.
    # The step is S T2 after a first S; the head, not the step, runs at the
    # leftmost S, and a T^k right of the last S leaves 6 e0 as it is
    words = _gluing_words(24)
    ends = {pair for pair, word in words.items()
            if word.tokens[:len(word) - (word.tokens[-1] != "S")][-3:] == ("S", 2, "S")
            and word.s_count() > 2}
    assert len(ends) == 18 and (2, 1) not in ends  # L(2,1) is the word S T2 S itself
    with rep._step_memo():
        memo = rep._memo.get()
        ids, columns, transitions, _ = memo
        after_s = ids[tuple(rep._apply(("S",), rep._SIX_E0, True))]
        column = rep._apply(("S", 2, "S"), rep._SIX_E0, True)
        assert transitions[2, after_s] == ids[tuple(column)]
        column[0] += 1
        transitions[2, after_s] = rep._intern(memo, column)
        wrong = {(p, q) for p, q in words
                 if invariant._literal_state_sum.__wrapped__(p, q) != closed_form(LensSpace(p, q))}
        assert len(columns) < rep._MEMO_COLUMNS  # nothing was cleared
    assert wrong == ends


class _Untouchable:
    """A factor that must never be multiplied."""

    def __mul__(self, other):
        raise AssertionError("a factor of a zero coordinate was multiplied")

    __rmul__ = __mul__


def test_run_matches_a_dense_product():
    # the kernel against a dense reference on seeded random compiled tables:
    # columns v that are mostly zero, empty columns (which add nothing) and
    # rows that no column reaches (which give 0), negative factors, 2,000-bit
    # coefficients.  A factor on a zero coordinate is never multiplied, so
    # one that raises on * changes nothing; the head of a table, the pairs
    # of its first n rows, gives the first n entries of the full run
    rng = random.Random(21)
    empty = mostly_zero = 0
    for _ in range(60):
        n_rows, n_cols, bits = rng.randint(1, 36), rng.randint(1, 36), rng.choice([4, 2000])
        sizes = [rng.randint(0, min(n_rows, 8)) for _ in range(n_cols)]
        columns = tuple(tuple((i, rng.choice([-1, 1]) * rng.randint(1, 2**bits))
                              for i in sorted(rng.sample(range(n_rows), size)))
                        for size in sizes)
        share = rng.choice([0.1, 1])
        v = [rng.randint(-2**bits, 2**bits) if rng.random() < share else 0 for _ in range(n_cols)]
        dense = [[dict(column).get(i, 0) for column in columns] for i in range(n_rows)]
        want = [sum(a * x for a, x in zip(row, v)) for row in dense]
        got = rep._run((n_rows, columns), v)
        assert got == want and all(type(x) is int for x in got)
        guarded = tuple(column if x else tuple((i, _Untouchable()) for i, _ in column)
                        for x, column in zip(v, columns))
        assert rep._run((n_rows, guarded), v) == want
        n = rng.randint(0, n_rows)
        head = tuple(tuple((i, f) for i, f in column if i < n) for column in columns)
        assert rep._run((n, head), v) == want[:n]
        empty += sum(not column for column in columns)
        mostly_zero += 2 * v.count(0) > n_cols
    assert empty > 0 and mostly_zero > 10
    assert rep._run((3, ((), ((0, -3),))), [5, 7]) == [-21, 0, 0]


def test_run_never_multiplies_a_zero_coordinate():
    # column 1 feeds rows 0 and 1 through factors that raise on *; v is 0
    # there, so the step runs without them and gives the dense product
    table = (3, (((0, 2), (2, 5)), ((0, _Untouchable()), (1, _Untouchable())), ((1, -1),)))
    assert rep._run(table, [3, 0, 4]) == [6, -4, 15]


@pytest.mark.parametrize("size", [4 * DIM - 1, 4 * DIM + 1], ids=["short", "long"])
def test_run_rejects_a_column_of_the_wrong_length(size):
    # a column with one coordinate too few or too many is an error, not a
    # truncated product
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (longer|shorter)"):
        rep._run(rep._eigenbasis()[0][0], [1] * size)


def test_kernel_matches_naive_cyclotomic_products():
    # reference: entrywise Cyclotomic arithmetic only, no rep helpers
    w_inv = GLOBAL_INDEX.inv()
    s = CycloMatrix([[e * w_inv for e in row] for row in _s_numerator().rows])
    assert rho_s() == s

    def t_power(k):
        # rho(T)^k entrywise: the diagonal entries to the power k mod 12
        return CycloMatrix([[e ** (k % 12) if i == j else ZERO for j, e in enumerate(row)]
                            for i, row in enumerate(rho_t().rows)])

    assert rho_word(Word([5])) == t_power(5)
    rng = random.Random(53)
    for _ in range(8):
        word = rand_word(rng, 5)
        expect = I10
        for tok in word.tokens:
            expect = naive(expect, s if tok == "S" else t_power(tok))
        assert rho_word(word) == expect


def test_rho_word_matches_public_matrix_products():
    t3, t5 = naive_power(rho_t(), 3), naive_power(rho_t(), 5)
    assert rho_word(Word(["S", 5])) == naive(rho_s(), t5)
    assert rho_word(Word([-7, "S", 3])) == naive(naive(t5, rho_s()), t3)


# -- kernel ---------------------------------------------------------------------------


def test_verify_kernel_generators_all_pass():
    report = verify_kernel_generators()
    assert len(report.checks) == 19
    assert report.passed, report.to_json()


def test_kernel_spot_checks():
    by_name = {g.name: g for g in gamma12_generators()}
    assert rho_word(by_name["P1+"].word) == I10
    assert rho_word(by_name["P12"].word) == I10
    assert rho_word(by_name["P17"].word) == I10


# -- blocks ----------------------------------------------------------------------------


def _generator_words():
    return {word for g in gamma12_generators() for word in (g.word, decompose(g.matrix))}


def test_block_state_sum_equals_the_full_first_entry():
    # the state sum runs on the eigenbasis; the standard basis gives the
    # same value on every gluing word up to p = 24 and on both routes of
    # each generator
    words = set(_gluing_words(24).values()) | _generator_words()
    assert len(words) > 180
    for word in words:
        assert rep.w_rho_entry_11(word) == GLOBAL_INDEX * rho_word(word).rows[0][0], word


def test_block_kernel_check_agrees_with_the_full_matrix():
    words = _generator_words() | {Word.parse(text) for text in ("ST5S", "SS", "T1", "ST1ST1ST1")}
    verdicts = {word: rep._kernel_witness(word) is None for word in words}
    assert verdicts == {word: rho_word(word) == I10 for word in words}
    assert sum(verdicts.values()) == len(words) - 4


def test_eigenbasis_table_splits_into_blocks():
    # 12*rho(S) on the eigenbasis is sparse: its factors link the ten basis
    # vectors only within v, {u, e2+e9}, the 6-block and the line e1 - e5,
    # where S acts as i (columns 36-39 multiply by 12i).  rho(T^k) is
    # diagonal there, so each S step 12*rho(S) rho(T^k) links the same
    # blocks and holds no more factors
    steps = rep._eigenbasis()[0]
    columns = steps[0][1]
    assert [sum(map(len, step[1])) for step in steps] == [282, 282, 281, 280, 281, 282] * 2
    links = {(i // 4, j // 4) for step in steps for j, column in enumerate(step[1])
             for i, _ in column}
    blocks = []  # the connected components of the links
    for k in range(DIM):
        linked = [block for block in blocks if any({(k, i), (i, k)} & links for i in block)]
        blocks = [block for block in blocks if block not in linked] + [set().union({k}, *linked)]
    assert sorted(map(sorted, blocks)) == [[0], [1, 3], [2, 4, 5, 6, 7, 8], [9]]
    line = [_mul_coeffs((12 * IMAG)._c, [int(r == j) for r in range(4)]) for j in range(4)]
    assert [dict((i - 36, f) for i, f in column) for column in columns[36:]] == [
        {r: f for r, f in enumerate(column) if f} for column in line]


_B = rep._BASIS


@pytest.mark.parametrize("basis, six_e0, message", [
    (_B[:4] + ({1: 1, 4: 1},) + _B[5:], rep._SIX_E0, "vector 4: twists [3, 7], not one"),
    (_B[:8] + _B[9:], rep._SIX_E0, "9 vectors, not 10"),
    (_B[:5] + ({2: 1},) + _B[6:], rep._SIX_E0, "vectors 3 and 5: not orthogonal"),
    (_B, (2, 1, 2, 0, 0, 0, 0, 0, 0, 0), "2v + u + 3b is not 6 e0"),
], ids=["two twists", "missing vector", "not orthogonal", "not 6 e0"])
def test_block_derivation_aborts_on_a_bad_basis(monkeypatch, basis, six_e0, message):
    # each check of the eigenbasis fails on its own mutation: e1 + e5 made
    # e1 + e4; e8 dropped; e2 - e9 made e2; a wrong column for 6 e0
    monkeypatch.setattr(rep, "_BASIS", basis)
    monkeypatch.setattr(rep, "_SIX_E0", six_e0)
    with pytest.raises(RuntimeError) as info:
        rep._eigenbasis.__wrapped__()
    assert str(info.value) == f"eigenbasis check failed: {message}"


def test_corrupt_line_factor_fails_kernel(monkeypatch):
    # verify kernel runs e1 - e5, the last basis vector, through the
    # eigenbasis table: one wrong factor in its rows fails the suite, though
    # the standard basis is sound; each witness names the vector and the
    # first flat coordinate that is not 12^m times its own
    _with_eigenbasis(monkeypatch, table=_corrupt_factor(rep._eigenbasis()[0][0], 36))
    report = verify_kernel_generators()
    assert not report.passed
    for check in report.failures():
        assert "None" not in check.witness
        match = re.fullmatch(r"via (word|matrix) basis vector 9, flat coordinate 3[6-9]: "
                             r"expected (\d+), got (-?\d+)", check.witness)
        assert match, check.witness
        want, got = int(match[2]), int(match[3])
        assert want != got and want in [0] + [12**m for m in range(40)]
