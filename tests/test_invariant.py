"""Z(L(p,q)) by state sum and closed form: spot values, agreement sweep,
well-definedness, periodicity, homotopy invariance and the table driver."""

import json
import math

import pytest

from e6lens.cyclotomic import GLOBAL_INDEX, IMAG, ONE, SQRT3, ZERO, quantum_integer, zeta_pow
from e6lens.invariant import (
    MAX_PMAX,
    LensSpace,
    check_well_defined,
    closed_form,
    homotopy_equivalent,
    state_sum,
    sweep_table,
    table_csv,
    table_json_obj,
    table_text,
    verify_closed_form,
    verify_corollary,
    verify_periodicity,
    verify_well_defined,
)

X = 3 + SQRT3  # [4][3]/[2]


def test_lens_space_requires_coprime():
    with pytest.raises(ValueError, match="gcd"):
        LensSpace(4, 2)
    with pytest.raises(ValueError):
        LensSpace(0, 0)
    assert LensSpace(0, 1).p == 0
    assert LensSpace(-5, 3).q == 3


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
    for p in range(1, 25):
        g = math.gcd(p, 12)
        for q in range(p):
            if math.gcd(p, q) != 1:
                continue
            value = closed_form(LensSpace(p, q))
            if math.gcd(p + 12, q) == 1:
                assert closed_form(LensSpace(p + 12, q)) == value
            if math.gcd(p, q + g) == 1:
                assert closed_form(LensSpace(p, q + g)) == value
            if math.gcd(p, q + 12) == 1:
                assert closed_form(LensSpace(p, q + 12)) == value


# -- both routes agree ------------------------------------------------------------


def test_routes_agree_small_sweep():
    for p in range(1, 17):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            assert state_sum(space) == closed_form(space), space


def test_routes_agree_negative_and_zero_p():
    for p, q in [(0, 1), (0, -1), (-1, 0), (-5, 2), (-12, 7), (3, -2), (-3, 1),
                 (7, 9), (7, -2), (-9, 5), (-4, 3), (16, -3)]:
        space = LensSpace(p, q)
        assert state_sum(space) == closed_form(space), space


def test_float_embeddings_agree():
    for p in range(1, 13):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            s = state_sum(LensSpace(p, q)).to_complex(64)
            c = closed_form(LensSpace(p, q)).to_complex(64)
            assert abs(s - c) < 1e-9


def test_verify_closed_form_report():
    report = verify_closed_form(p_max=14)
    assert len(report.checks) == 14
    assert report.passed, report.to_json()


# -- well-definedness -------------------------------------------------------------------


def test_well_defined_examples():
    assert check_well_defined(LensSpace(5, 2), [-2, -1, 1, 2]).passed
    assert check_well_defined(LensSpace(7, 3), [0]).passed
    assert check_well_defined(LensSpace(12, 7), range(-3, 4)).passed


def test_verify_well_defined_sample():
    report = verify_well_defined(p_max=20, sample=25, seed=3)
    assert len(report.checks) == 25
    assert report.passed, report.to_json()


# -- periodicity --------------------------------------------------------------------------


def test_periodicity_examples():
    assert state_sum(LensSpace(13, 12)) == state_sum(LensSpace(1, 0))
    assert state_sum(LensSpace(17, 14)) == state_sum(LensSpace(5, 2))
    assert state_sum(LensSpace(19, 15)) == state_sum(LensSpace(7, 3))


def test_verify_periodicity_small():
    report = verify_periodicity(p_max=26)
    assert report.passed, report.to_json()


def test_verify_periodicity_rejects_small_bound():
    with pytest.raises(ValueError):
        verify_periodicity(p_max=12)


def test_periodicity_mechanism_through_congruence_kernel():
    # congruent cofactor lifts make the two gluing matrices differ by an
    # element of Gamma(12), which rho kills; equal invariants follow
    from e6lens.modular import congruent_lift, in_gamma12, lens_matrix
    from e6lens.rep import DIM, CycloMatrix, rho_matrix

    for p, q, p2, q2 in [(1, 0, 13, 12), (5, 2, 17, 14), (7, 3, 19, 15)]:
        a, b, a2, b2 = congruent_lift(p, q, p2, q2)
        glue = lens_matrix(p, q, a, b)
        glue2 = lens_matrix(p2, q2, a2, b2)
        corrector = glue.inverse() * glue2
        assert in_gamma12(corrector)
        assert rho_matrix(corrector) == CycloMatrix.identity(DIM)


# -- homotopy equivalence -------------------------------------------------------------------


def test_homotopy_equivalent_examples():
    assert homotopy_equivalent(LensSpace(7, 1), LensSpace(7, 2))
    assert not homotopy_equivalent(LensSpace(5, 1), LensSpace(7, 1))
    assert homotopy_equivalent(LensSpace(9, 4), LensSpace(9, 4))


def test_homotopy_zero_p():
    assert homotopy_equivalent(LensSpace(0, 1), LensSpace(0, 1))
    assert not homotopy_equivalent(LensSpace(0, 1), LensSpace(0, -1))


def test_homotopy_brute_force_against_known_case():
    # L(7,1) ~ L(7,q) iff q is a nonzero square times 1 mod 7: squares {1,2,4}
    equivalent = [q for q in range(1, 7) if homotopy_equivalent(LensSpace(7, 1), LensSpace(7, q))]
    assert equivalent == [1, 2, 4]


def test_verify_corollary_small():
    report = verify_corollary(p_max=12)
    assert report.passed, report.to_json()


# -- table driver ------------------------------------------------------------------------------


def test_sweep_table_single_row():
    rows = sweep_table(1)
    assert len(rows) == 1
    row = rows[0]
    assert (row.p, row.q) == (1, 0)
    assert row.state == ONE and row.agrees
    re, im = row.float_parts()
    assert float(re) == 1.0 and float(im) == 0.0


def test_sweep_table_contains_expected_rows():
    rows = {(r.p, r.q): r for r in sweep_table(12)}
    assert rows[(3, 1)].state == (1 - IMAG) * (3 + SQRT3) / 2  # zeta^-3 [4]
    assert rows[(12, 5)].state == ZERO
    assert all(r.agrees for r in rows.values())


def test_sweep_table_rejects_bad_bound():
    with pytest.raises(ValueError):
        sweep_table(0)


def test_sweeps_reject_pmax_past_cap():
    over = MAX_PMAX + 1
    for sweep in (sweep_table, verify_closed_form, verify_well_defined,
                  verify_periodicity, verify_corollary):
        with pytest.raises(ValueError, match="p_max"):
            sweep(over)


def test_table_formats_deterministic():
    rows = sweep_table(8)
    assert table_csv(rows) == table_csv(rows)
    assert table_text(rows) == table_text(rows)
    first = table_csv(rows).splitlines()
    assert first[0] == "p,q,exact,float_re,float_im,agrees"
    assert first[1].startswith("1,0,1/1 + 0/1*z")
    data = table_json_obj(rows)
    json.dumps(data)  # must be serializable
    assert data[0]["p"] == 1 and data[0]["agrees"] is True
