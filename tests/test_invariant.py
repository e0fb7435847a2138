"""Z(L(p,q)) by state sum and closed form: spot values, agreement sweep,
well-definedness, periodicity, homotopy invariance and the table driver."""

import inspect
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from e6lens import invariant, modular
from e6lens.cyclotomic import (
    GLOBAL_INDEX,
    IMAG,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    ONE,
    SQRT3,
    ZERO,
    Cyclotomic,
    quantum_integer,
    zeta_pow,
)
from e6lens.invariant import (
    MAX_PMAX,
    MAX_TRIAL_DIVISOR,
    LensSpace,
    TableRow,
    closed_form,
    homotopy_equivalent,
    state_sum,
    sweep_table,
    table_csv,
    table_json,
    table_text,
    verify_closed_form,
    verify_corollary,
    verify_periodicity,
    verify_well_defined,
)
from e6lens.modular import Word, cofactors
from e6lens.report import Check

X = 3 + SQRT3  # [4][3]/[2]


def test_lens_space_requires_coprime():
    with pytest.raises(ValueError, match="gcd"):
        LensSpace(4, 2)
    with pytest.raises(ValueError):
        LensSpace(0, 0)
    assert LensSpace(0, 1).p == 0
    assert LensSpace(-5, 3).q == 3


@pytest.mark.parametrize("p, q, bad", [(1.0, 2, "p must be an int, not 1.0"),
                                       (True, 1, "p must be an int, not True"),
                                       (5, False, "q must be an int, not False"),
                                       (5, "2", "q must be an int, not '2'"),
                                       (Fraction(5), 2, "p must be an int, not Fraction")])
def test_lens_space_rejects_non_int_parameters(p, q, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        LensSpace(p, q)


# -- state sum spot values --------------------------------------------------------


def test_three_sphere_normalization():
    assert state_sum(LensSpace(1, 0)) == ONE


def test_s2_times_s1():
    assert state_sum(LensSpace(0, 1)) == GLOBAL_INDEX


def test_lens_2_1():
    assert state_sum(LensSpace(2, 1)) == X


def test_lens_12_5_vanishes_exactly():
    assert state_sum(LensSpace(12, 5)) == ZERO


# -- closed form spot values --------------------------------------------------------


def test_closed_form_coprime_to_12():
    assert closed_form(LensSpace(5, 1)) == 2 + SQRT3
    assert closed_form(LensSpace(1, 0)) == ONE
    assert closed_form(LensSpace(13, 1)) == ONE  # |[13]| = |-[1]|


def test_closed_form_gcd_two_and_six():
    assert closed_form(LensSpace(2, 1)) == X
    assert closed_form(LensSpace(6, 1)) == X
    assert closed_form(LensSpace(18, 5)) == X


def test_closed_form_gcd_three_signs():
    # sign of the zeta^3 factor flips between p = 3 and p = 9 mod 12;
    # zeta^(+-3) [4] = (1 +- i)(3 + sqrt3)/2
    plus = (1 + IMAG) * X / 2
    minus = (1 - IMAG) * X / 2
    assert closed_form(LensSpace(3, 1)) == minus
    assert closed_form(LensSpace(3, 2)) == plus
    assert closed_form(LensSpace(9, 1)) == plus
    assert closed_form(LensSpace(9, 2)) == minus


def test_closed_form_gcd_four_signs():
    q3 = quantum_integer(3)
    assert closed_form(LensSpace(4, 1)) == 2 * zeta_pow(2) * q3
    assert closed_form(LensSpace(4, 3)) == 2 * zeta_pow(-2) * q3
    assert closed_form(LensSpace(8, 1)) == 2 * zeta_pow(-2) * q3
    assert closed_form(LensSpace(8, 3)) == 2 * zeta_pow(2) * q3


def test_closed_form_divisible_by_12():
    assert closed_form(LensSpace(12, 1)) == 2 * X
    assert closed_form(LensSpace(12, 11)) == 2 * X
    assert closed_form(LensSpace(12, 5)) == ZERO
    assert closed_form(LensSpace(12, 7)) == ZERO
    assert closed_form(LensSpace(0, 1)) == 2 * X  # = 6 + 2 sqrt3 = w


def test_closed_form_mod12_determinism():
    # every sign of p and q, p = 0 included: the value is fixed by p mod 12
    # and q mod g, g = gcd(p, 12), however far p and q are shifted
    for p in range(-24, 25):
        g = math.gcd(p, 12)
        for q in range(-24, 25):
            if math.gcd(p, q) != 1:
                continue
            value = closed_form(LensSpace(p, q))
            for k in (-10**6, -7, -1, 1, 7, 10**6):
                for p2, q2 in ((p + 12 * k, q), (p, q + g * k), (p + 12 * k, q + g * k)):
                    if math.gcd(p2, q2) == 1:
                        assert closed_form(LensSpace(p2, q2)) == value, (p, q, p2, q2)


def test_closed_form_takes_nine_values_far_from_rounding_midpoints():
    # the values over every liftable residue pair (r, s) of (Z/12)^2
    liftable = [(r, s) for r in range(12) for s in range(12) if math.gcd(r, s, 12) == 1]
    assert len(liftable) == 96
    returned = [closed_form(LensSpace(*invariant._residue_lift(r, s))) for r, s in liftable]
    values = set(returned)
    q3, q5 = quantum_integer(3), quantum_integer(5)
    expected = {
        quantum_integer(1), q5, SQRT3 * q3, 2 * SQRT3 * q3, ZERO,
        (1 + IMAG) * SQRT3 * q3 / 2, (1 - IMAG) * SQRT3 * q3 / 2,
        2 * zeta_pow(2) * q3, 2 * zeta_pow(-2) * q3,
    }
    assert len(expected) == 9
    assert values == expected
    # each is one of nine module constants: no branch builds its value afresh
    constants = (ONE, ZERO, invariant._QUANTUM_5, invariant._BINOMIAL_42,
                 invariant._TWICE_BINOMIAL_42, invariant._ZETA3_Q4, invariant._ZETA3_Q4_BAR,
                 invariant._ZETA2_Q3, invariant._ZETA2_Q3_BAR)
    assert {id(value) for value in returned} == {id(constant) for constant in constants}
    # approx(bits) is within 2^-(bits+8), so a part more than 2^-60 from every
    # rounding midpoint rounds to the same double at every accepted precision
    for value in values:
        for (_, surd), part in zip(value.surd_parts(), value.approx(200)):
            if not surd:
                continue
            nearest = float(part)
            midpoints = [(Fraction(nearest) + Fraction(math.nextafter(nearest, side))) / 2
                         for side in (-math.inf, math.inf)]
            assert min(abs(part - m) for m in midpoints) > Fraction(1, 2**60), value
        floats = {tuple(map(float, value.approx(bits)))
                  for bits in (MIN_PRECISION_BITS, 64, MAX_PRECISION_BITS)}
        assert len(floats) == 1, value


# -- both routes agree ------------------------------------------------------------


def test_routes_agree_small_sweep():
    for p in range(1, 17):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            assert state_sum(space) == closed_form(space), space


def test_routes_agree_negative_and_zero_p():
    # the literal words of L(0,-1), L(1,0) and L(0,1) are the empty word, S
    # and SS: the state sum rescales by w^(m-1) with m = 0, 1 and 2
    for p, q in [(0, 1), (0, -1), (1, 0), (-1, 0), (-5, 2), (-12, 7), (3, -2), (-3, 1),
                 (7, 9), (7, -2), (-9, 5), (-4, 3), (16, -3)]:
        space = LensSpace(p, q)
        assert state_sum(space) == closed_form(space), space
        assert invariant._literal_state_sum(p, q) == closed_form(space), space


def test_orientation_reversal_conjugates_both_routes():
    # L(p, -q) is L(p, q) with the orientation reversed; the literal words
    # are evaluated with q < 0, which no sweep does
    pairs = [(p, q) for p in range(1, 25) for q in range(p) if math.gcd(p, q) == 1]
    assert len(pairs) == 180
    literal = invariant._literal_state_sum
    for p, q in pairs:
        assert literal(p, -q) == literal(p, q).conjugate(), (p, q)
        assert closed_form(LensSpace(p, -q)) == closed_form(LensSpace(p, q)).conjugate(), (p, q)


def test_float_embeddings_agree():
    for p in range(1, 13):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            s = state_sum(LensSpace(p, q)).to_complex()
            c = closed_form(LensSpace(p, q)).to_complex()
            assert abs(s - c) < 1e-9


def test_verify_closed_form_report():
    report = verify_closed_form(p_max=14)
    assert len(report.checks) == 14
    assert report.passed, report.to_json()


def test_verify_closed_form_names_first_mismatch(monkeypatch):
    real = invariant._closed_form
    monkeypatch.setattr(invariant, "_closed_form", lambda p, q: (
        ZERO if (p, q) in {(5, 2), (5, 3)} else real(p, q)))
    report = verify_closed_form(p_max=6)
    assert report.failures() == [
        Check("state sum = closed form, p=5 (4 pairs)", "first mismatch at q=2")
    ]


# -- the served route ---------------------------------------------------------------------


def _coprime_big_pairs(seed, bits, count):
    # p with exactly `bits` bits, alternating in sign; q coprime in (-|p|, |p|)
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p = rng.getrandbits(bits) | 1 << (bits - 1)
        q = rng.randrange(-p + 1, p)
        if math.gcd(p, q) == 1:
            pairs.append((-p if len(pairs) % 2 else p, q))
    return pairs


def test_served_route_equals_literal_route_on_small_pairs():
    # every sign and size of q against p, p = 0 and p = +-1 included
    for p in range(-24, 49):
        for q in range(-24, 61):
            if math.gcd(p, q) == 1:
                literal = invariant._state_sum_with_cofactors(p, q, *cofactors(p, q))
                assert state_sum(LensSpace(p, q)) == literal, (p, q)


def test_served_route_equals_literal_route_at_256_bits():
    for p, q in _coprime_big_pairs(256, 256, 20):
        assert state_sum(LensSpace(p, q)) == invariant._literal_state_sum(p, q), (p, q)


def test_served_route_equals_closed_form_at_1000_bits():
    for p, q in _coprime_big_pairs(1000, 1000, 200):
        space = LensSpace(p, q)
        assert state_sum(space) == closed_form(space), (p, q)


def test_residue_lift_is_least_coprime_and_inside_the_closedform_sweep():
    # every residue pair (r, s) of (Z/12)^2 with a coprime lift; the lift's
    # literal word is evaluated by verify_closed_form at its default bound
    default_pmax = inspect.signature(verify_closed_form).parameters["p_max"].default
    liftable = [(r, s) for r in range(12) for s in range(12) if math.gcd(r, s, 12) == 1]
    assert len(liftable) == 96
    for r, s in liftable:
        p, q = invariant._residue_lift(r, s)
        assert math.gcd(p, q) == 1 and 0 <= q < p <= default_pmax, (r, s)
        assert (p % 12, q % 12) == (r, s)
        assert not any(math.gcd(p2, q2) == 1
                       for p2 in range(r or 12, p + 1, 12) for q2 in range(s, p2, 12)
                       if (p2, q2) < (p, q)), (r, s)


def test_verify_suites_never_reach_the_served_route(monkeypatch):
    def refuse(p, q):
        raise RuntimeError(f"served route lifted L({p},{q})")

    monkeypatch.setattr(invariant, "_residue_lift", refuse)
    assert verify_well_defined(24).passed
    assert verify_periodicity(26).passed
    assert verify_closed_form(24).passed
    with pytest.raises(RuntimeError, match="served route"):
        state_sum(LensSpace(5, 2))


def test_corrupt_served_entry_shows_in_the_table_only(monkeypatch):
    # the residue of (2, 1) lifted to L(1, 0), whose value differs
    real = invariant._residue_lift
    monkeypatch.setattr(invariant, "_residue_lift", lambda p, q: (
        (1, 0) if (p % 12, q % 12) == (2, 1) else real(p, q)))
    wrong = {(row.p, row.q) for row in sweep_table(24) if not row.agrees}
    assert wrong == {(2, 1), (14, 1), (14, 13)}
    assert verify_closed_form(24).passed


def test_sweep_table_lifts_each_residue_class_once_per_call(monkeypatch):
    # the rows of one call share the value of each (p, q) mod 12: the lift
    # runs once per residue class, and again in the next call, whose rows
    # share nothing with the last call's
    lifts, real = [], invariant._residue_lift
    monkeypatch.setattr(invariant, "_residue_lift",
                        lambda p, q: lifts.append((p % 12, q % 12)) or real(p, q))
    classes = {(row.p % 12, row.q % 12) for row in sweep_table(120)}
    assert sorted(lifts) == sorted(classes) and len(classes) == 96
    sweep_table(120)
    assert sorted(lifts) == sorted([*classes] * 2)


def test_sweep_table_rows_share_one_object_per_value():
    # the 96 residue classes of a call hold 9 values, and equal values are
    # one object, so a formatter's cache finds each row's value by identity
    rows = sweep_table(120)
    assert len({id(row.state) for row in rows}) == len({row.state for row in rows}) == 9


def test_corrupt_closed_form_shows_in_its_row_only(monkeypatch):
    # every row reads its own closed form: (97, 5) shares its residues mod 12
    # with (13, 5), (25, 5), ..., (109, 5), and none of them may follow it
    real = invariant._closed_form
    monkeypatch.setattr(invariant, "_closed_form", lambda p, q: (
        ZERO if (p, q) == (97, 5) else real(p, q)))
    assert {(r.p, r.q) for r in sweep_table(120) if not r.agrees} == {(97, 5)}


def test_every_table_row_matches_the_public_api():
    # the sweep inlines state_sum and closed_form; each row equals them
    for row in sweep_table(120):
        space = LensSpace(row.p, row.q)
        assert row.state == state_sum(space)
        assert row.agrees == (row.state == closed_form(space))


def test_served_memo_is_bounded_by_the_group_order():
    # state_sum caches only lifts: one per first column of SL(2,Z/12), 96 of
    # its 1,152 elements
    invariant._literal_state_sum.cache_clear()
    sweep_table(MAX_PMAX)
    for p, q in _coprime_big_pairs(300, 1000, 300):
        state_sum(LensSpace(p, q))
    assert invariant._literal_state_sum.cache_info().currsize <= 96


# -- well-definedness -------------------------------------------------------------------


def test_well_defined_examples():
    # p <= 12 has 46 coprime pairs, fewer than the sample: all are checked
    report = verify_well_defined(12)
    assert len(report.checks) == 46
    assert report.passed, report.to_json()
    for name in ("L(5,2) shifts -3..3", "L(7,3) shifts -3..3", "L(12,7) shifts -3..3"):
        assert Check(name) in report.checks


def test_well_defined_default_shifts_skip_zero():
    # k = 0 compares the canonical cofactors' value with itself
    shifts = invariant._SHIFTS
    assert 0 not in shifts and (min(shifts), max(shifts)) == (-3, 3)


def test_verify_well_defined_sample():
    # p <= 20 has 128 coprime pairs, of which 100 distinct ones are checked
    report = verify_well_defined(p_max=20)
    names = [check.name for check in report.checks]
    assert len(set(names)) == 100
    assert report.passed, report.to_json()


def test_verify_well_defined_names_first_bad_shift(monkeypatch):
    # a wrong value for every cofactor shift k >= 1 of L(3,2)
    real = invariant._state_sum_with_cofactors
    canonical_a = cofactors(3, 2)[0]
    monkeypatch.setattr(invariant, "_state_sum_with_cofactors", lambda p, q, a, b: (
        ZERO if (p, q) == (3, 2) and a > canonical_a else real(p, q, a, b)))
    report = verify_well_defined(p_max=5)
    value = closed_form(LensSpace(3, 2))
    assert report.failures() == [
        Check("L(3,2) shifts -3..3", f"expected {value.to_text()}, got {ZERO.to_text()}")
    ]


# -- periodicity --------------------------------------------------------------------------


def test_periodicity_examples():
    assert state_sum(LensSpace(13, 12)) == state_sum(LensSpace(1, 0))
    assert state_sum(LensSpace(17, 14)) == state_sum(LensSpace(5, 2))
    assert state_sum(LensSpace(19, 15)) == state_sum(LensSpace(7, 3))


def test_verify_periodicity_small():
    report = verify_periodicity(p_max=26)
    assert report.passed, report.to_json()


def test_verify_periodicity_names_first_shift_in_order(monkeypatch):
    # shifts of L(2,1) run (s, t) = (0, 1), (1, 0), (1, 1): L(2,13) comes
    # before L(14,1)
    real = invariant._literal_state_sum
    monkeypatch.setattr(invariant, "_literal_state_sum", lambda p, q: (
        ZERO if (p, q) in {(14, 1), (2, 13)} else real(p, q)))
    report = verify_periodicity(p_max=14)
    assert report.checks == (
        Check("L(1,0) mod-12 shifts"),
        Check("L(2,1) mod-12 shifts", "differs at L(2,13)"),
    )


def _periodicity_scan(p_max, value):
    """The report of the quadratic scan that verify_periodicity replaced:
    each swept pair compared with each of its in-range shifts, in order."""
    checks = []
    for p in range(1, p_max - 11):
        for q in range(p):
            if math.gcd(p, q) != 1:
                continue
            shifted = ((p + 12 * s, q + 12 * t) for s in range((p_max - p) // 12 + 1)
                       for t in range((p_max - 1 - q) // 12 + 1) if s or t)
            bad = next((f"differs at L({p2},{q2})" for p2, q2 in shifted
                        if math.gcd(p2, q2) == 1 and value(p2, q2) != value(p, q)), None)
            checks.append(Check(f"L({p},{q}) mod-12 shifts", bad))
    return tuple(checks)


def test_verify_periodicity_evaluates_the_same_pairs_in_linear_comparisons(monkeypatch):
    # the suite evaluates the literal word of every swept pair and of every
    # in-range shift, and no other pair; with one value per class it
    # compares each pair once, where the scan compared each pair with each
    # of its shifts (113,250 comparisons at MAX_PMAX)
    reach = {(p + 12 * s, q + 12 * t)
             for p in range(1, MAX_PMAX - 11) for q in range(p) if math.gcd(p, q) == 1
             for s in range((MAX_PMAX - p) // 12 + 1)
             for t in range((MAX_PMAX - 1 - q) // 12 + 1)
             if math.gcd(p + 12 * s, q + 12 * t) == 1}
    assert len(reach) == 8239
    verify_periodicity(MAX_PMAX)  # every value in the cache, so no evaluation compares
    seen, comparisons, real, eq = [], [], invariant._literal_state_sum, Cyclotomic.__eq__
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lambda p, q: seen.append((p, q)) or real(p, q))
    monkeypatch.setattr(Cyclotomic, "__eq__", lambda a, b: comparisons.append(a) or eq(a, b))
    assert verify_periodicity(MAX_PMAX).passed
    assert set(seen) == reach
    assert len(comparisons) <= len(reach)


@pytest.mark.parametrize("pair", [(5, 2), (17, 14), (41, 26), (47, 46)])
def test_verify_periodicity_reports_what_the_scan_reports(monkeypatch, pair):
    # one wrong value, at a swept pair or at a shift only: the suite names
    # the same checks and witnesses as the quadratic scan on the same values
    real = invariant._literal_state_sum

    def value(p, q):
        return ZERO if (p, q) == pair else real(p, q)

    monkeypatch.setattr(invariant, "_literal_state_sum", value)
    report = verify_periodicity(48)
    assert not report.passed
    assert report.checks == _periodicity_scan(48, value)


def test_literal_words_skip_the_merge_and_the_int_checks(monkeypatch):
    # on the value path decompose builds its canonical Word directly, and
    # cofactors and SL2Z accept ints by one chained type test: while the two
    # suites that evaluate new literal words run, Word's merging constructor
    # never runs and modular calls _require_int only to raise, so never
    merges, int_checks = [], []
    new, require_int = Word.__new__, modular._require_int
    monkeypatch.setattr(Word, "__new__", lambda cls, tokens=(): merges.append(cls) or new(cls, tokens))
    monkeypatch.setattr(modular, "_require_int",
                        lambda **values: int_checks.append(values) or require_int(**values))
    monkeypatch.setattr(invariant, "_literal_state_sum",
                        lru_cache(maxsize=None)(invariant._literal_state_sum.__wrapped__))
    assert verify_well_defined(48).passed and verify_periodicity(48).passed
    assert invariant._literal_state_sum.cache_info().currsize == 1211
    assert merges == [] and int_checks == []
    with pytest.raises(ValueError, match="q must be an int, not True"):
        modular.cofactors(5, True)
    Word(["S"])
    assert int_checks == [{"p": 5, "q": True}] and merges == [Word]  # the spies see calls


def test_state_sum_cache_is_bounded_and_holds_the_largest_sweeps():
    # the pairs that verify_periodicity(MAX_PMAX) and then
    # verify_closed_form(MAX_PMAX) evaluate: none is evicted while they run
    top = MAX_PMAX
    touched = {
        (p + 12 * s, q + 12 * t)
        for p in range(1, top - 11) for q in range(p)
        for s in range((top - p) // 12 + 1) for t in range((top - 1 - q) // 12 + 1)
        if math.gcd(p, q) == 1 and math.gcd(p + 12 * s, q + 12 * t) == 1
    }
    touched |= {(p, q) for p in range(1, top + 1) for q in range(p) if math.gcd(p, q) == 1}
    maxsize = invariant._literal_state_sum.cache_parameters()["maxsize"]
    assert maxsize is not None
    assert len(touched) <= maxsize


def test_verify_periodicity_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_periodicity(p_max=12)


def test_periodicity_mechanism_through_congruence_kernel():
    # for (p2, q2) = (p, q) mod 12 the two gluing matrices agree mod 12, up
    # to a power of T on the right, so rho, of level 12, maps them alike;
    # rho(T) fixes e_1, so equal invariants follow
    from e6lens.modular import SL2Z, Word, decompose, lens_matrix
    from e6lens.rep import rho_word

    def mod12(m):
        return tuple(x % 12 for x in m.entries())

    for p, q, p2, q2 in [(1, 0, 13, 12), (5, 2, 17, 14), (7, 3, 19, 15)]:
        glue = lens_matrix(p, q, *cofactors(p, q))
        glue2 = lens_matrix(p2, q2, *cofactors(p2, q2))
        k = next(k for k in range(12) if mod12(glue2 * SL2Z(1, k, 0, 1)) == mod12(glue))
        assert rho_word(decompose(glue2) * Word([k])) == rho_word(decompose(glue))
        assert state_sum(LensSpace(p, q)) == state_sum(LensSpace(p2, q2))


# -- homotopy equivalence -------------------------------------------------------------------


def test_homotopy_equivalent_examples():
    assert homotopy_equivalent(LensSpace(7, 1), LensSpace(7, 2))
    assert not homotopy_equivalent(LensSpace(5, 1), LensSpace(7, 1))
    assert homotopy_equivalent(LensSpace(9, 4), LensSpace(9, 4))


def test_homotopy_zero_p():
    # L(0,1) and L(0,-1) are both S^2 x S^1: the gluing matrices are -I and I
    assert homotopy_equivalent(LensSpace(0, 1), LensSpace(0, 1))
    assert homotopy_equivalent(LensSpace(0, 1), LensSpace(0, -1))
    assert state_sum(LensSpace(0, 1)) == state_sum(LensSpace(0, -1)) == 2 * (3 + SQRT3)
    assert not homotopy_equivalent(LensSpace(0, 1), LensSpace(1, 0))


def test_homotopy_reads_negative_p_as_minus_p_minus_q():
    # L(-p,-q) = L(p,q): the gluing matrices agree up to -I and a power of T
    assert homotopy_equivalent(LensSpace(-7, -1), LensSpace(7, 1))
    assert homotopy_equivalent(LensSpace(-7, 1), LensSpace(7, -1))
    assert not homotopy_equivalent(LensSpace(-7, 1), LensSpace(7, 1))  # -1 is no square mod 7
    spaces = [LensSpace(p, q) for p in range(-12, 13) if p
              for q in range(-abs(p), abs(p) + 1) if math.gcd(p, q) == 1]
    pairs = [(one, two) for one in spaces for two in spaces if homotopy_equivalent(one, two)]
    assert sum(one.p < 0 < two.p for one, two in pairs) > 100
    for one, two in pairs:
        assert homotopy_equivalent(two, one)
        assert closed_form(one) == closed_form(two), (one, two)
        assert state_sum(one) == state_sum(two), (one, two)


def test_homotopy_brute_force_against_known_case():
    # L(7,1) ~ L(7,q) iff q is a nonzero square times 1 mod 7: squares {1,2,4}
    equivalent = [q for q in range(1, 7) if homotopy_equivalent(LensSpace(7, 1), LensSpace(7, q))]
    assert equivalent == [1, 2, 4]


def test_homotopy_matches_brute_force_over_squares():
    # q ~ q' iff q/q' mod |p| lies in the set of squares: every pair with
    # 0 <= q, q' < |p| <= 60 (and q in [-|p|, 0) against q' = 1), and every
    # 0 <= q < p against q' = 1 for p <= 500
    for p in [*range(-60, 0), *range(1, 501)]:
        n = abs(p)
        squares = {k * k % n for k in range(n)}
        units = [q for q in range(n) if math.gcd(n, q) == 1]
        pairs = [(q, 1) for q in units]
        if n <= 60:
            pairs += [(q, q2) for q in units for q2 in units]
            pairs += [(q - n, 1) for q in units]
        for q, q2 in pairs:
            expected = q * pow(q2, -1, n) % n in squares
            assert homotopy_equivalent(LensSpace(p, q), LensSpace(p, q2)) == expected, (p, q, q2)


def test_homotopy_decides_large_p_by_trial_division():
    prime = 999_999_999_989  # the largest prime below 10^12
    assert prime < MAX_TRIAL_DIVISOR**2
    assert homotopy_equivalent(LensSpace(prime, 3), LensSpace(prime, 12))
    # -1 is a square mod a prime p iff p = 1 mod 4
    assert prime % 4 == 1
    assert homotopy_equivalent(LensSpace(prime, 1), LensSpace(prime, -1))
    nonsquare = next(q for q in range(2, 100) if pow(q, prime // 2, prime) != 1)
    assert not homotopy_equivalent(LensSpace(prime, 1), LensSpace(prime, nonsquare))
    # 2^40 * 3^20 is past 10^12 but has only small factors
    big = 2**40 * 3**20
    assert homotopy_equivalent(LensSpace(big, 1), LensSpace(big, 25))
    assert not homotopy_equivalent(LensSpace(big, 1), LensSpace(big, 5))


def test_homotopy_rejects_p_past_trial_division():
    mersenne = 2**127 - 1
    with pytest.raises(ValueError, match="trial division"):
        homotopy_equivalent(LensSpace(mersenne, 1), LensSpace(mersenne, 2))


def test_homotopy_decides_at_the_first_differing_symbol():
    # 3M and 4M have a small factor on which q = 1 and q' differ, so the
    # answer comes before trial division reaches M; at 3M with q' = 4 the
    # symbols mod 3 agree, and the search for M's factors gives up
    mersenne = 2**127 - 1
    assert not homotopy_equivalent(LensSpace(3 * mersenne, 1), LensSpace(3 * mersenne, 2))
    assert not homotopy_equivalent(LensSpace(4 * mersenne, 1), LensSpace(4 * mersenne, 3))
    with pytest.raises(ValueError, match="trial division"):
        homotopy_equivalent(LensSpace(3 * mersenne, 1), LensSpace(3 * mersenne, 4))


def test_verify_corollary_small():
    report = verify_corollary(p_max=12)
    assert report.passed, report.to_json()


def test_verify_corollary_names_first_unequal_pair(monkeypatch):
    # at p = 7 the classes are {1, 2, 4} and {3, 5, 6}
    real = invariant._closed_form
    monkeypatch.setattr(invariant, "_closed_form", lambda p, q: (
        ZERO if (p, q) == (7, 4) else real(p, q)))
    report = verify_corollary(p_max=7)
    assert report.failures() == [
        Check("p=7 (12 equivalent pairs)", "L(7,1) vs L(7,4)")
    ]


def test_verify_corollary_witness_is_first_in_pair_order(monkeypatch):
    # at p = 13 the classes are the squares {1, 3, 4, 9, 10, 12} and the
    # rest {2, 5, 6, 7, 8, 11}; with L(13,12) and L(13,5) changed, scanning
    # q upward meets (2, 5) first, but (1, 12) comes first in (q, q') order
    real = invariant._closed_form
    monkeypatch.setattr(invariant, "_closed_form", lambda p, q: (
        ZERO if (p, q) in {(13, 12), (13, 5)} else real(p, q)))
    report = verify_corollary(p_max=13)
    assert report.failures() == [
        Check("p=13 (42 equivalent pairs)", "L(13,1) vs L(13,12)")
    ]


def test_verify_corollary_calls_closed_form_once_per_space(monkeypatch):
    calls = []
    real = invariant._closed_form
    monkeypatch.setattr(invariant, "_closed_form", lambda p, q: calls.append((p, q)) or real(p, q))
    assert verify_corollary(p_max=60).passed
    assert calls == list(invariant._coprime_pairs(60))


# -- table driver ------------------------------------------------------------------------------


def test_sweep_table_single_row():
    rows = sweep_table(1)
    assert len(rows) == 1
    row = rows[0]
    assert (row.p, row.q) == (1, 0)
    assert row.state == ONE and row.agrees
    re, im = row.state.approx(64)
    assert float(re) == 1.0 and float(im) == 0.0


def test_sweep_table_contains_expected_rows():
    rows = {(r.p, r.q): r for r in sweep_table(12)}
    assert rows[(3, 1)].state == (1 - IMAG) * (3 + SQRT3) / 2  # zeta^-3 [4]
    assert rows[(12, 5)].state == ZERO
    assert all(r.agrees for r in rows.values())


def test_sweep_table_rows_are_immutable_tuples():
    rows = sweep_table(12)
    for row in rows:
        p, q, state, agrees = row
        assert (p, q, state, agrees) == (row.p, row.q, row.state, row.agrees)
        with pytest.raises(AttributeError):
            row.agrees = not agrees
    assert rows[0] == (1, 0, ONE, True)


def test_sweep_table_rejects_bad_bound():
    with pytest.raises(ValueError):
        sweep_table(0)


def test_sweeps_reject_pmax_past_cap():
    over = MAX_PMAX + 1
    for sweep in (sweep_table, verify_closed_form, verify_well_defined,
                  verify_periodicity, verify_corollary):
        for bad in (over, 13.0, True):
            with pytest.raises(ValueError, match="p_max"):
                sweep(bad)


def test_table_formats_deterministic():
    rows = sweep_table(8)
    assert table_csv(rows) == table_csv(rows)
    assert table_text(rows) == table_text(rows)
    first = table_csv(rows).splitlines()
    assert first[0] == "p,q,exact,float_re,float_im,agrees"
    assert first[1].startswith("1,0,1/1 + 0/1*z")
    assert table_json(rows) == table_json(rows)
    data = json.loads(table_json(rows))
    assert data[0]["p"] == 1 and data[0]["agrees"] is True


def _json_reference(rows):
    """table_json as json.dumps lays out the whole list of row dicts."""
    return json.dumps([{"p": row.p, "q": row.q, "exact": row.state.to_text(),
                        "exact_coeffs": row.state.to_json_coeffs(),
                        "float_re": float(row.state.approx()[0]),
                        "float_im": float(row.state.approx()[1]), "agrees": row.agrees}
                       for row in rows], indent=1) + "\n"


_ODD_ROWS = [TableRow(5, 2, Cyclotomic._raw((Fraction(1, 3), -2, 0, Fraction(-5, 7))), True),
             TableRow(7, 3, Cyclotomic._raw((-4, 0, -1, 3)), False),
             TableRow(2**70 + 1, 2, -ONE, False), TableRow(1, 0, ZERO, True)]


@pytest.mark.parametrize("p_max", [48, None])
def test_table_json_is_the_dumps_layout(p_max):
    # byte for byte the layout of json.dumps(indent=1) on the row dicts: on
    # a sweep, and on Fraction and negative coefficients, a p past 64 bits
    # and both agrees values
    rows = sweep_table(p_max) if p_max else _ODD_ROWS
    assert table_json(rows) == _json_reference(rows)


def test_table_json_dumps_each_value_not_the_rows(monkeypatch):
    # one json.dumps call per distinct value, each on that value's keys;
    # no call lays out the list of rows
    rows, calls, real = sweep_table(48), [], json.dumps
    monkeypatch.setattr(invariant.json, "dumps",
                        lambda obj, **kw: calls.append(obj) or real(obj, **kw))
    table_json(rows)
    assert len(calls) == len({row.state for row in rows}) == 9
    assert all(sorted(obj) == ["exact", "exact_coeffs", "float_im", "float_re"] for obj in calls)


def test_empty_tables():
    assert table_csv([]) == "p,q,exact,float_re,float_im,agrees\n"
    assert table_json([]) == json.dumps([], indent=1) + "\n" == "[]\n"
    header = "   p    q  value                        float                        agrees\n"
    assert table_text([]) == header


def _spy_formatting(monkeypatch):
    """Count, per method, the calls of each formatting method on each value."""
    calls = Counter()
    for name in ("approx", "to_text", "surd_str", "to_json_coeffs"):
        real = getattr(Cyclotomic, name)

        def spy(self, *args, _name=name, _real=real):
            calls[_name, self] += 1
            return _real(self, *args)

        monkeypatch.setattr(Cyclotomic, name, spy)
    return calls


@pytest.mark.parametrize("fmt", [table_csv, table_json, table_text])
def test_table_formats_each_distinct_value_once(monkeypatch, fmt):
    rows = sweep_table(48)
    reference = fmt(rows)
    calls = _spy_formatting(monkeypatch)
    assert fmt(rows) == reference
    distinct = {row.state for row in rows}
    assert len(distinct) == 9 and len(rows) == 712
    assert calls and max(calls.values()) == 1
    assert {value for _, value in calls} == distinct
    # equal values built differently format alike; only `agrees` tells the rows apart
    two = Cyclotomic._raw((Fraction(2), 0, 0, 0))
    calls.clear()
    out = fmt([TableRow(5, 2, two, True), TableRow(5, 2, 2 * ONE, False)])
    assert max(calls.values()) == 1
    if fmt is table_json:
        first, second = json.loads(out)
        assert (first.pop("agrees"), second.pop("agrees")) == (True, False)
        assert first == second
    else:
        sep = "," if fmt is table_csv else " "
        lines = out.splitlines()[1:]
        (first, agrees), (second, disagrees) = (line.rsplit(sep, 1) for line in lines)
        assert first == second
        assert (agrees, disagrees) in (("true", "false"), ("yes", "NO"))
