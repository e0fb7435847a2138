"""SL(2,Z) arithmetic, generator words, Euclidean decomposition, cofactors,
level-12 congruence membership, the two normal generators of Gamma(12) and
the coset enumeration that shows they suffice."""

import math
import random

import pytest

from e6lens import modular, rep
from e6lens.invariant import LensSpace
from e6lens.modular import (
    IDENTITY,
    MAX_COSETS,
    S,
    SL2Z,
    SL2Z_RELATORS,
    T,
    Word,
    cofactors,
    coset_count,
    decompose,
    gamma12_generators,
    in_gamma12,
    lens_matrix,
)

from gap_gamma12 import GAP_GAMMA12


def mod12(m):
    return tuple(x % 12 for x in m.entries())


def rand_word(rng, max_tokens=12):
    tokens = []
    for _ in range(rng.randint(0, max_tokens)):
        if rng.random() < 0.5:
            tokens.append("S")
        else:
            tokens.append(rng.randint(-12, 12))
    return Word(tokens)


# -- matrices ------------------------------------------------------------------


def test_determinant_enforced():
    with pytest.raises(ValueError):
        SL2Z(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2Z(0, 1, 1, 0)


def test_generator_relations():
    assert S * S == SL2Z(-1, 0, 0, -1)
    assert S * S * S * S == IDENTITY
    st = S * T
    assert st * st * st * st * st * st == IDENTITY
    assert T * T * T * T * T == SL2Z(1, 5, 0, 1)
    t_inverse = SL2Z(1, -1, 0, 1)
    assert T * t_inverse == t_inverse * T == IDENTITY
    assert t_inverse * t_inverse * t_inverse == SL2Z(1, -3, 0, 1)


# -- cofactors and the gluing matrix ---------------------------------------------


def test_cofactors_forced_cases():
    assert cofactors(1, 0) == (0, -1)
    assert cofactors(-1, 0) == (0, 1)
    assert cofactors(0, 1) == (1, 0)
    assert cofactors(0, -1) == (-1, 0)


def test_cofactors_example():
    assert cofactors(5, 2) == (3, 1)


def test_cofactors_rejects_common_factor():
    with pytest.raises(ValueError, match="gcd"):
        cofactors(2, 4)
    with pytest.raises(ValueError):
        cofactors(0, 0)


@pytest.mark.parametrize("p, q", [(4, 2), (0, 0)])
def test_cofactors_and_lens_space_share_the_coprime_message(p, q):
    with pytest.raises(ValueError) as lens:
        LensSpace(p, q)
    with pytest.raises(ValueError) as cof:
        cofactors(p, q)
    message = f"gcd({p},{q})={math.gcd(p, q)}; p and q must be coprime"
    assert str(cof.value) == str(lens.value) == message


def test_cofactors_canonical_and_valid():
    rng = random.Random(99)
    seen = 0
    while seen < 200:
        p = rng.randint(-60, 60)
        q = rng.randint(-60, 60)
        if math.gcd(p, q) != 1:
            continue
        seen += 1
        a, b = cofactors(p, q)
        assert a * q - b * p == 1
        if abs(p) > 1:
            assert 0 <= a < abs(p)


def test_lens_matrix_examples():
    assert lens_matrix(1, 0, 0, -1) == S
    assert lens_matrix(0, 1, 1, 0) == SL2Z(-1, 0, 0, -1)
    assert lens_matrix(5, 2, 3, 1) == SL2Z(-2, 1, 5, -3)


def test_lens_matrix_rejects_bad_cofactors():
    with pytest.raises(ValueError):
        lens_matrix(5, 2, 1, 1)


# -- words -----------------------------------------------------------------------


def test_empty_word_is_identity():
    assert Word().to_matrix() == IDENTITY


def test_single_t_power():
    assert Word([12]).to_matrix() == SL2Z(1, 12, 0, 1)


def test_word_merges_adjacent_t_tokens():
    assert Word([3, 4]) == Word([7])
    assert Word([3, -3]) == Word([])
    assert Word(["S", 2, -2, "S"]) == Word(["S", "S"])
    assert Word([0, "S", 0]) == Word(["S"])


def test_word_rejects_garbage_tokens():
    with pytest.raises(ValueError):
        Word([True])
    with pytest.raises(ValueError):
        Word(["T"])


def test_word_concatenation_matches_matrix_product():
    rng = random.Random(4)
    for _ in range(50):
        u, v = rand_word(rng, 6), rand_word(rng, 6)
        assert (u * v).to_matrix() == u.to_matrix() * v.to_matrix()


def test_compact_and_pretty_formats():
    word = Word(["S", "S", 12, "S", 12, "S"])
    assert word.compact() == "SST12ST12S"
    assert Word.parse("SST12ST12S") == word


def test_negative_exponent_format_round_trip():
    word = Word([9, "S", -4, "S", 3, "S", 4, "S"])
    assert word.compact() == "T9ST-4ST3ST4S"
    assert Word.parse(word.compact()) == word


def test_format_round_trip_random():
    rng = random.Random(12)
    for _ in range(100):
        word = rand_word(rng)
        assert Word.parse(word.compact()) == word


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        Word.parse("S T^2 X")
    with pytest.raises(ValueError):
        Word.parse("T")


def test_parse_is_strict_and_bounded():
    # only what compact writes: no run counts, no zero, padded or adjacent
    # T exponents, no separators, signs or non-ASCII digits
    for bad in ("S2", "S0", "S1", "T0", "T07", "T3T4", "S^2", "S T2", "T+3", "T\u0661",
                "S" + "1" * 30, "T1_0", "ST 2", "T-0", "SxS", "T1.5", "T1e3"):
        with pytest.raises(ValueError):
            Word.parse(bad)
    # the parser hands the constructor at most one token per character
    sizes = []

    class Counted(Word):
        __slots__ = ()

        def __new__(cls, tokens=()):
            tokens = list(tokens)
            sizes.append((len(tokens), len(text)))
            return super().__new__(cls, tokens)

    rng = random.Random(13)
    for text in ["S" * 50, "ST-1" * 20] + [rand_word(rng).compact() for _ in range(50)]:
        Counted.parse(text)
    assert sizes and all(n <= chars for n, chars in sizes)


# -- decomposition -----------------------------------------------------------------


def test_decompose_generator():
    assert decompose(S) == Word(["S"])


def test_decompose_minus_identity():
    assert decompose(SL2Z(-1, 0, 0, -1)) == Word(["S", "S"])


def test_decompose_identity_is_empty():
    assert decompose(IDENTITY) == Word()


def test_decompose_published_generator():
    m = SL2Z(-299, 108, -36, 13)
    assert decompose(m).to_matrix() == m


def test_decompose_round_trip_500_random_words():
    rng = random.Random(2718)
    for _ in range(500):
        m = rand_word(rng).to_matrix()
        assert decompose(m).to_matrix() == m


def test_decompose_word_length_logarithmic():
    m = SL2Z(1, 10**9, 0, 1) * S * SL2Z(1, -(10**8 + 7), 0, 1) * S * SL2Z(1, 12345, 0, 1)
    word = decompose(m)
    assert word.to_matrix() == m
    bits = max(abs(e) for e in m.entries()).bit_length()
    assert len(word) <= 3 * bits + 5


def _gluing_matrices(rng, count):
    """+-I, -T^n, and gluing matrices (-q, b + kq; p, -a - kp) of L(p, q) with
    the canonical cofactors (a, b) and the welldefined shifts k = -3..3, for
    p and q of either sign, up to 64 bits."""
    yield IDENTITY
    yield SL2Z(-1, 0, 0, -1)
    for n in range(-24, 25):
        yield SL2Z(-1, -n, 0, -1)
    while count:
        bound = 2 ** rng.choice((4, 8, 64))
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if math.gcd(p, q) == 1:
            a, b = cofactors(p, q)
            k, count = rng.randint(-3, 3), count - 1
            yield lens_matrix(p, q, a + k * p, b + k * q)


def test_decompose_builds_canonical_words():
    # decompose makes its Word without Word's merge: its tokens must be the
    # ones the merge would keep, with no T token 0 and no two T tokens adjacent
    for m in _gluing_matrices(random.Random(37), 2000):
        word = decompose(m)
        tokens = word.tokens
        assert type(word) is Word and Word(tokens) == word, m
        assert 0 not in tokens, m
        assert all("S" in pair for pair in zip(tokens, tokens[1:])), m
        assert word.to_matrix() == m


# -- congruence subgroup --------------------------------------------------------------


def test_in_gamma12_basics():
    assert in_gamma12(IDENTITY)
    assert not in_gamma12(T)
    assert not in_gamma12(SL2Z(-1, 0, 0, -1))


def test_in_gamma12_reduces_published_entries():
    assert in_gamma12(SL2Z(-155, 84, -24, 13))


def test_generator_table_has_19_self_checked_entries():
    # the GAP list: each word evaluates to its matrix, which is I mod 12,
    # and rho sends it to I on every eigenbasis vector.  The library's two
    # words are those of P1+ and P6
    assert len(GAP_GAMMA12) == 19
    with rep._step_memo():
        for name, entries, text in GAP_GAMMA12:
            word = Word.parse(text)
            assert word.to_matrix() == SL2Z(*entries), name
            assert in_gamma12(word.to_matrix()), name
            assert rep._kernel_witness(word) is None, name
    gap = {text: name for name, _, text in GAP_GAMMA12}
    assert [gap.get(word.compact()) for word in gamma12_generators()] == ["P1+", "P6"]


def test_generator_table_spot_entries():
    assert gamma12_generators() == (Word([12]), Word.parse("T10ST4ST3ST-3ST1S"))
    assert [word.to_matrix() for word in gamma12_generators()] == [
        SL2Z(1, 12, 0, 1), SL2Z(-467, 360, -48, 37)]


# -- coset enumeration -------------------------------------------------------------------

KERNEL_RELATORS = (*SL2Z_RELATORS, Word([12]), Word.parse("T10ST4ST3ST-3ST1S"))


def _order_mod(n):
    """The order of the group that S and T generate mod n, by BFS over residues."""
    gens = [tuple(x % n for x in m) for m in (S, T)]
    seen, frontier = {(1 % n, 0, 0, 1 % n)}, [(1 % n, 0, 0, 1 % n)]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                m = ((a * e + b * g) % n, (a * f + b * h) % n,
                     (c * e + d * g) % n, (c * f + d * h) % n)
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return len(seen)


def test_s_and_t_generate_sl2_mod_12_of_order_1152():
    # every determinant-one residue matrix mod 12 is reached: 1152 of them
    det_one = sum((a * d - b * c) % 12 == 1 for a in range(12) for b in range(12)
                  for c in range(12) for d in range(12))
    assert _order_mod(12) == det_one == 1152


def test_relators_hold_in_sl2z_and_mod_12():
    assert all(word.to_matrix() == IDENTITY for word in SL2Z_RELATORS)
    assert all(in_gamma12(word.to_matrix()) for word in KERNEL_RELATORS)


def test_coset_count_closes_at_96_on_the_kernel_relators():
    # 96 cosets of <T>, of order 12 in the quotient: 1152 elements at most,
    # which SL(2, Z/12) needs
    assert coset_count(KERNEL_RELATORS) == 96 == _order_mod(12) // 12


@pytest.mark.parametrize("n, index", [(2, 3), (3, 8), (4, 12), (5, 24)])
def test_coset_count_of_t_n_is_the_order_of_sl2_mod_n_over_n(n, index):
    # Gamma(n) is the normal closure of T^n for n <= 5
    assert coset_count((*SL2Z_RELATORS, Word([n]))) == index == _order_mod(n) // n


def test_coset_count_is_one_when_a_relator_puts_s_in_t():
    # given T^3 and S^4, S^2 T^6 S T^2 S^2 = 1 reads S^-1 = T^2, so <T> is the
    # whole group.  Its coincidences chain deep enough that a find which
    # cuts a link counts two
    words = ("SSSS", "ST1ST1ST1SS", "T3", "SST6ST2SS")
    assert coset_count(tuple(map(Word.parse, words))) == 1


def test_coset_count_falls_to_24_with_t6_which_is_not_i_mod_12():
    assert coset_count((*KERNEL_RELATORS, Word([6]))) == 24
    assert not in_gamma12(Word([6]).to_matrix())


def test_coset_count_without_p6_gives_up_at_the_bound(monkeypatch):
    # <S, T | S^4, (ST)^3 S^2, T^12> is infinite: the enumeration stops
    assert coset_count(KERNEL_RELATORS[:3]) is None
    monkeypatch.setattr(modular, "MAX_COSETS", 50)
    assert coset_count(KERNEL_RELATORS[:3]) is None


def test_max_cosets_is_bounded_by_the_kernel_enumeration(monkeypatch):
    # the enumeration for verify kernel defines exactly 582 cosets before it
    # closes; the bound leaves it room, but less than twice that
    assert 582 <= MAX_COSETS < 2 * 582
    monkeypatch.setattr(modular, "MAX_COSETS", 582)
    assert coset_count(KERNEL_RELATORS) == 96
    monkeypatch.setattr(modular, "MAX_COSETS", 581)
    assert coset_count(KERNEL_RELATORS) is None


def test_normal_closure_smoke():
    # conjugates of the GAP list's entries by random short words stay in
    # Gamma(12): u g u^-1 = I mod 12 exactly when u g = u mod 12
    rng = random.Random(31)
    for _ in range(40):
        _, entries, _ = rng.choice(GAP_GAMMA12)
        u = rand_word(rng, 6).to_matrix()
        assert mod12(u * SL2Z(*entries)) == mod12(u)


# -- congruent gluing matrices ---------------------------------------------------------


def test_congruent_lift_exhaustive_small_sweep():
    # for (p, q) and (p2, q2) = (p, q) mod 12, exactly one T^k (0 <= k < 12)
    # makes glue2 * T^k = glue mod 12, that is glue^-1 * glue2 * T^k lie in
    # Gamma(12): the two canonical cofactor pairs solve x*q - y*p = 1 mod 12,
    # whose solutions differ by multiples of (p, q) mod 12
    for p in range(-30, 31):
        for q in range(-30, 31):
            if math.gcd(p, q) != 1:
                continue
            glue = mod12(lens_matrix(p, q, *cofactors(p, q)))
            for dp, dq in ((12, 0), (0, 12), (12, 12), (24, 0), (0, 24), (24, 24)):
                p2, q2 = p + dp, q + dq
                if math.gcd(p2, q2) != 1:
                    continue
                glue2 = lens_matrix(p2, q2, *cofactors(p2, q2))
                ks = [k for k in range(12) if mod12(glue2 * SL2Z(1, k, 0, 1)) == glue]
                assert len(ks) == 1, (p, q, p2, q2, ks)
