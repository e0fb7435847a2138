"""SL(2,Z) arithmetic, generator words, Euclidean decomposition, cofactors,
level-12 congruence membership and the published generating set."""

import math
import random

import pytest

from e6lens.invariant import LensSpace
from e6lens.modular import (
    IDENTITY,
    S,
    SL2Z,
    T,
    Word,
    cofactors,
    decompose,
    gamma12_generators,
    in_gamma12,
    lens_matrix,
)


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


# -- congruence subgroup --------------------------------------------------------------


def test_in_gamma12_basics():
    assert in_gamma12(IDENTITY)
    assert not in_gamma12(T)
    assert not in_gamma12(SL2Z(-1, 0, 0, -1))


def test_in_gamma12_reduces_published_entries():
    assert in_gamma12(SL2Z(-155, 84, -24, 13))


def test_generator_table_has_19_self_checked_entries():
    table = gamma12_generators()
    assert len(table) == 19
    names = [g.name for g in table]
    assert names[0] == "P1+" and names[1] == "P1-" and names[-1] == "P18"
    for gen in table:
        assert gen.word.to_matrix() == gen.matrix
        assert in_gamma12(gen.matrix)


def test_generator_table_spot_entries():
    by_name = {g.name: g for g in gamma12_generators()}
    p2 = by_name["P2"]
    assert p2.matrix == SL2Z(-143, 12, -12, 1)
    assert p2.word == Word.parse("SST12ST12S")
    assert by_name["P9"].matrix == SL2Z(937, -396, 168, -71)
    assert by_name["P9"].word == Word.parse("T5ST-2ST-4ST-4ST-3ST2S")
    assert by_name["P18"].matrix == SL2Z(649, -384, 120, -71)
    assert by_name["P18"].word == Word.parse("T5ST-2ST2ST-4ST3ST2S")


def test_normal_closure_smoke():
    # conjugates of table entries by random short words stay in Gamma(12):
    # u g u^-1 = I mod 12 exactly when u g = u mod 12
    rng = random.Random(31)
    table = gamma12_generators()
    for _ in range(40):
        gen = rng.choice(table)
        u = rand_word(rng, 6).to_matrix()
        assert mod12(u * gen.matrix) == mod12(u)


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
