"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  All equalities are exact (coefficient-wise in
Q(zeta_12)) unless a float tolerance is stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

from e6lens.cyclotomic import GLOBAL_INDEX, ONE, SQRT3, ZERO, Cyclotomic
from e6lens.invariant import (
    LensSpace,
    closed_form,
    state_sum,
    verify_corollary,
    verify_periodicity,
    verify_well_defined,
)
from e6lens.modular import decompose, gamma12_generators
from e6lens.report import Check
from e6lens.rep import (
    DIM,
    CycloMatrix,
    _s_numerator,
    rho_word,
    verify_kernel_generators,
    verify_relations,
    verify_unitary,
)

I10 = CycloMatrix.identity(DIM)


def _report(number, label, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: PASS - {label}{timing}")


def test_criterion_1_representation_sanity():
    start = time.perf_counter()
    relations = verify_relations()
    unitary = verify_unitary()
    elapsed = time.perf_counter() - start
    assert relations.passed, relations.to_json()
    assert unitary.passed, unitary.to_json()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(1, "S^4 = I, (ST)^3 = S^2, S unitary (T^12 = I and T unitary by construction)",
            elapsed)


def test_criterion_2_kernel_generators():
    start = time.perf_counter()
    assert [word.compact() for word in gamma12_generators()] == ["T12", "T10ST4ST3ST-3ST1S"]
    kernel = verify_kernel_generators()
    elapsed = time.perf_counter() - start
    assert kernel.passed, kernel.to_json()
    assert len(kernel.checks) == 5
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report(2, "96 cosets of <T> prove level 12; rho sends the SL(2,Z) relators, "
               "T^12 and P6 to I", elapsed)


def test_criterion_3_agreement_sweep():
    start = time.perf_counter()
    pairs = 0
    for p in range(1, 49):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            pairs += 1
            space = LensSpace(p, q)
            assert state_sum(space) == closed_form(space), space
    elapsed = time.perf_counter() - start
    assert pairs >= 700
    assert state_sum(LensSpace(12, 5)) == ZERO
    assert state_sum(LensSpace(1, 0)) == ONE
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    _report(3, f"state sum = closed form on all {pairs} pairs with p <= 48", elapsed)


def test_criterion_4_periodicity():
    report = verify_periodicity(p_max=48)
    assert report.passed, report.to_json()
    # the two single shifts named by the criterion, spot-checked directly
    for p in range(1, 37):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            value = state_sum(LensSpace(p, q))
            if math.gcd(p + 12, q) == 1:
                assert state_sum(LensSpace(p + 12, q)) == value, (p, q)
            if math.gcd(p, q + 12) == 1:
                assert state_sum(LensSpace(p, q + 12)) == value, (p, q)
    _report(4, "Z(L(p,q)) = Z(L(p+12,q)) = Z(L(p,q+12)) on the sweep")


def test_criterion_5_homotopy_invariance():
    report = verify_corollary(p_max=60)
    assert report.passed, report.to_json()
    _report(5, "equal values on all homotopy-equivalent pairs up to p = 60")


def test_criterion_6_well_definedness():
    report = verify_well_defined(p_max=48)
    assert len(report.checks) == 100
    assert report.passed, report.to_json()
    assert Check("L(5,2) shifts -3..3") in verify_well_defined(12).checks
    _report(6, "cofactor shifts (a,b) -> (a+kp, b+kq), k in -3..3, 100 pairs")


def test_criterion_7_numeric_spot_values():
    cases = [
        (LensSpace(2, 1), 3 + math.sqrt(3)),
        (LensSpace(5, 1), 2 + math.sqrt(3)),
        (LensSpace(0, 1), 6 + 2 * math.sqrt(3)),
    ]
    for space, expected in cases:
        value = state_sum(space).to_complex()
        assert abs(value.real - expected) < 1e-9, space
        assert abs(value.imag) < 1e-9, space
    _report(7, "Z(L(2,1)), Z(L(5,1)), Z(L(0,1)) floats within 1e-9")


def test_criterion_8_row_norm_oracle():
    w2 = GLOBAL_INDEX * GLOBAL_INDEX
    numerator = _s_numerator()  # as entered; _standard runs the self-checks on it
    for i, row in enumerate(numerator.rows):
        norm = sum((e * e.conjugate() for e in row), start=Cyclotomic([0] * 8))
        assert norm == w2, f"row {i + 1}"
    # and rho evaluated through that matrix is consistent with the kernel
    assert rho_word(decompose(gamma12_generators()[0].to_matrix())) == I10
    _report(8, "every row of w*rho(S) has squared conjugate norm exactly w^2")
