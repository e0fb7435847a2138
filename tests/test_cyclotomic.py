"""Exact arithmetic in Q(zeta_24): basis reduction, field ops, quantum
integers, conjugation, sign determination and serialization."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from e6lens.cyclotomic import (
    GLOBAL_INDEX,
    IMAG,
    ONE,
    SQRT2,
    SQRT3,
    ZERO,
    Cyclotomic,
    quantum_integer,
    zeta_pow,
)


def c(*coeffs):
    return Cyclotomic(coeffs)


def rand_cyc(rng, small=9):
    return Cyclotomic(
        [Fraction(rng.randint(-small, small), rng.randint(1, small)) for _ in range(8)]
    )


# -- power reduction ---------------------------------------------------------


def test_zeta_pow_identity():
    assert zeta_pow(0) == c(1, 0, 0, 0, 0, 0, 0, 0)
    assert zeta_pow(24) == ONE
    assert zeta_pow(-24) == ONE


def test_zeta_pow_10_reduces_by_minimal_polynomial():
    # zeta^10 = zeta^2 * (zeta^4 - 1) = zeta^6 - zeta^2
    assert zeta_pow(10) == c(0, 0, -1, 0, 0, 0, 1, 0)
    val = zeta_pow(10).to_complex(64)
    expect = cmath.exp(10j * math.pi / 12)
    assert abs(val - expect) < 1e-14


def test_zeta_pow_12_is_minus_one():
    assert zeta_pow(12) == c(-1, 0, 0, 0, 0, 0, 0, 0)


def test_minimal_polynomial_annihilates():
    assert zeta_pow(8) - zeta_pow(4) + 1 == ZERO


def test_all_powers_match_float_embedding():
    for k in range(24):
        val = zeta_pow(k).to_complex(64)
        expect = cmath.exp(1j * k * math.pi / 12)
        assert abs(val - expect) < 1e-14, k


# -- ring and field operations -----------------------------------------------


def test_root_of_unity_inverse_pair():
    assert zeta_pow(1) * zeta_pow(23) == ONE


def test_sqrt3_squares_to_three():
    # sqrt3 = zeta^2 + zeta^-2 = 2 zeta^2 - zeta^6 in the basis
    assert SQRT3 == c(0, 0, 2, 0, 0, 0, -1, 0)
    assert SQRT3 * SQRT3 == c(3, 0, 0, 0, 0, 0, 0, 0)


def test_sqrt2_squares_to_two():
    # sqrt2 = zeta^3 + zeta^-3 = zeta + zeta^3 - zeta^5
    assert SQRT2 == c(0, 1, 0, 1, 0, -1, 0, 0)
    assert SQRT2 * SQRT2 == c(2, 0, 0, 0, 0, 0, 0, 0)


def test_imag_unit_squares_to_minus_one():
    assert IMAG * IMAG == -ONE


def test_inverse_of_one():
    assert ONE.inv() == ONE


def test_inverse_of_global_index_by_hand():
    # (6 + 2 sqrt3)^-1 = (3 - sqrt3)/12, rationalized by hand
    expected = (3 - SQRT3) * Fraction(1, 12)
    assert GLOBAL_INDEX.inv() == expected
    assert GLOBAL_INDEX * expected == ONE


def test_inverse_of_zeta_is_reduced_power():
    assert zeta_pow(1).inv() == zeta_pow(23)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_random_inverses_multiply_to_one():
    rng = random.Random(2024)
    count = 0
    while count < 100:
        x = rand_cyc(rng)
        if x.is_zero():
            continue
        count += 1
        assert x * x.inv() == ONE


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(30):
        x, y, z = rand_cyc(rng, 5), rand_cyc(rng, 5), rand_cyc(rng, 5)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x - x == ZERO


def test_division_and_powers():
    x = 2 + SQRT3
    assert x / x == ONE
    assert x**0 == ONE
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inv()


# -- quantum integers ---------------------------------------------------------


def test_quantum_integer_base_cases():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE


def test_quantum_integer_surd_values():
    # [2] = (1+sqrt3)/sqrt2, [3] = 1+sqrt3, [4] = (3+sqrt3)/sqrt2
    assert quantum_integer(2) * SQRT2 == 1 + SQRT3
    assert quantum_integer(3) == 1 + SQRT3
    assert quantum_integer(4) * SQRT2 == 3 + SQRT3


def test_quantum_integer_five():
    assert quantum_integer(5) == 2 + SQRT3
    val = quantum_integer(5).to_complex(64)
    expect = math.sin(5 * math.pi / 12) / math.sin(math.pi / 12)
    assert abs(val - expect) < 1e-12


def test_quantum_binomial_is_three_plus_sqrt3():
    x = quantum_integer(4) * quantum_integer(3) / quantum_integer(2)
    assert x == 3 + SQRT3


def test_global_index_value():
    assert GLOBAL_INDEX == 2 + quantum_integer(3) ** 2
    assert GLOBAL_INDEX == 6 + 2 * SQRT3


def test_quantum_integer_identities_exact():
    for n in range(-48, 49):
        assert quantum_integer(12 - n) == quantum_integer(n)
        assert quantum_integer(n + 12) == -quantum_integer(n)


def test_quantum_integer_float_embedding():
    s1 = math.sin(math.pi / 12)
    for n in range(1, 12):
        val = quantum_integer(n).to_complex(64)
        expect = math.sin(n * math.pi / 12) / s1
        assert abs(val.real - expect) < 1e-12
        assert abs(val.imag) < 1e-12


# -- conjugation ---------------------------------------------------------------


def test_conjugate_fixes_one():
    assert ONE.conjugate() == ONE


def test_conjugate_negates_imag_unit():
    # zeta^-6 = zeta^18 = -zeta^6
    assert IMAG.conjugate() == -IMAG


def test_conjugate_fixes_quantum_integers():
    for n in range(-12, 13):
        qi = quantum_integer(n)
        assert qi.conjugate() == qi
        assert qi.is_real()


def test_conjugate_is_ring_homomorphism_and_involution():
    rng = random.Random(11)
    for _ in range(30):
        x, y = rand_cyc(rng, 5), rand_cyc(rng, 5)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert x.conjugate().conjugate() == x


# -- realness and absolute value -----------------------------------------------


def test_abs_real_of_zero():
    assert ZERO.abs_real() == ZERO


def test_abs_real_positive_value():
    q7 = quantum_integer(7)
    assert q7 == 2 + SQRT3  # [7] = [12-5] = [5]
    assert q7.abs_real() == q7


def test_abs_real_negative_value():
    q13 = quantum_integer(13)
    assert q13 == -ONE  # [13] = -[1]
    assert q13.abs_real() == ONE


def test_abs_real_rejects_non_real():
    with pytest.raises(ValueError):
        IMAG.abs_real()
    with pytest.raises(ValueError):
        zeta_pow(1).abs_real()


def test_abs_real_tiny_value_forces_precision_escalation():
    # sqrt3 minus its floor at 80 bits: positive but below the 2^-64
    # first-round threshold, so the sign search must double its precision
    floor80 = Fraction(math.isqrt(3 << 160), 1 << 80)
    tiny = SQRT3 - floor80
    assert not tiny.is_zero()
    assert tiny.abs_real() == tiny
    assert (-tiny).abs_real() == tiny


# -- numeric embedding ----------------------------------------------------------


def test_to_complex_imag_unit():
    val = IMAG.to_complex(64)
    assert abs(val - 1j) < 1e-15


def test_to_complex_quantum_two():
    val = quantum_integer(2).to_complex(64)
    assert abs(val - 1.9318516525781366) < 1e-12


def test_to_complex_global_index():
    val = GLOBAL_INDEX.to_complex(64)
    assert abs(val - 9.464101615137754) < 1e-12


def test_to_complex_precision_floor():
    with pytest.raises(ValueError):
        ONE.approx(52)


def test_approx_is_high_precision():
    re, im = SQRT2.approx(128)
    assert im == 0
    assert abs(re * re - 2) < Fraction(1, 2**120)


# -- serialization ---------------------------------------------------------------


def test_text_round_trip_exact():
    rng = random.Random(3)
    for _ in range(25):
        x = rand_cyc(rng)
        assert Cyclotomic.from_text(x.to_text()) == x


def test_text_canonical_form():
    assert ONE.to_text() == (
        "1/1 + 0/1*z + 0/1*z^2 + 0/1*z^3 + 0/1*z^4 + 0/1*z^5 + 0/1*z^6 + 0/1*z^7"
    )


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        Cyclotomic.from_text("1/1 + 2/1")
    with pytest.raises(ValueError):
        Cyclotomic.from_text(ONE.to_text().replace("z^7", "z^6"))
    with pytest.raises(ValueError):
        Cyclotomic.from_text(ONE.to_text().replace("1/1", "1/0"))
    with pytest.raises(ValueError):
        Cyclotomic.from_json_coeffs([[1, 0]] + [[0, 1]] * 7)


def test_json_round_trip_exact():
    rng = random.Random(5)
    for _ in range(25):
        x = rand_cyc(rng)
        data = x.to_json_coeffs()
        assert all(isinstance(n, int) and isinstance(d, int) for n, d in data)
        assert Cyclotomic.from_json_coeffs(data) == x


def test_equality_across_coefficient_kinds():
    a = Cyclotomic([1, 0, 0, 0, 0, 0, 0, 0])
    b = Cyclotomic([Fraction(1), Fraction(0)] + [Fraction(0)] * 6)
    assert a == b
    assert hash(a) == hash(b)


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Cyclotomic([0.5] + [0] * 7)


def test_surd_display():
    assert (2 + SQRT3).surd_str() == "2 + sqrt3"
    assert GLOBAL_INDEX.surd_str() == "6 + 2*sqrt3"
    assert ZERO.surd_str() == "0"
    assert IMAG.surd_str() == "i"
    assert (-IMAG).surd_str() == "-i"
