"""Exact arithmetic in Q(zeta_12) = Q(zeta^2): basis reduction, field ops,
quantum integers, conjugation, numeric embedding and serialization."""

import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from e6lens import cyclotomic
from e6lens.cyclotomic import (
    GLOBAL_INDEX,
    IMAG,
    MAX_PRECISION_BITS,
    ONE,
    SQRT3,
    ZERO,
    Cyclotomic,
    quantum_integer,
    zeta_pow,
)
from e6lens.invariant import _closed_form
from e6lens.rep import rho_s


def c(*coeffs):
    return Cyclotomic(coeffs)


def rand_cyc(rng, small=9):
    # a random element of the field: random even slots, zero odd slots
    coeffs = [0] * 8
    for k in range(0, 8, 2):
        coeffs[k] = Fraction(rng.randint(-small, small), rng.randint(1, small))
    return Cyclotomic(coeffs)


# -- power reduction ---------------------------------------------------------


def test_zeta_pow_identity():
    assert zeta_pow(0) == c(1, 0, 0, 0, 0, 0, 0, 0)
    assert zeta_pow(24) == ONE
    assert zeta_pow(-24) == ONE


def test_zeta_pow_10_reduces_by_minimal_polynomial():
    # zeta^10 = zeta^2 * (zeta^4 - 1) = zeta^6 - zeta^2
    assert zeta_pow(10) == c(0, 0, -1, 0, 0, 0, 1, 0)
    val = zeta_pow(10).to_complex()
    expect = cmath.exp(10j * math.pi / 12)
    assert abs(val - expect) < 1e-14


def test_zeta_pow_12_is_minus_one():
    assert zeta_pow(12) == c(-1, 0, 0, 0, 0, 0, 0, 0)


def test_minimal_polynomial_annihilates():
    assert zeta_pow(8) - zeta_pow(4) + 1 == ZERO


def test_all_powers_match_float_embedding():
    for k in range(0, 24, 2):
        val = zeta_pow(k).to_complex()
        expect = cmath.exp(1j * k * math.pi / 12)
        assert abs(val - expect) < 1e-14, k
    for k in range(-23, 24, 2):
        with pytest.raises(ValueError):
            zeta_pow(k)


# -- ring and field operations -----------------------------------------------


def test_root_of_unity_inverse_pair():
    assert zeta_pow(2) * zeta_pow(22) == ONE
    with pytest.raises(ValueError):
        zeta_pow(1)


def test_sqrt3_squares_to_three():
    # sqrt3 = zeta^2 + zeta^-2 = 2 zeta^2 - zeta^6 in the basis
    assert SQRT3 == c(0, 0, 2, 0, 0, 0, -1, 0)
    assert SQRT3 * SQRT3 == c(3, 0, 0, 0, 0, 0, 0, 0)


def test_sqrt2_is_outside_the_field():
    # sqrt2 = zeta^3 + zeta^-3 = zeta + zeta^3 - zeta^5 needs odd slots
    with pytest.raises(ValueError, match="outside"):
        c(0, 1, 0, 1, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        zeta_pow(3)


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
    assert zeta_pow(2).inv() == zeta_pow(22)
    assert zeta_pow(6).inv() == zeta_pow(18)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_random_inverses_multiply_to_one():
    rng = random.Random(2024)
    count = 0
    while count < 100:
        x = rand_cyc(rng)
        if not x:
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


def test_division_keeps_integral_coefficients_as_ints():
    # an integral quotient coefficient is an int, never Fraction(n, 1): in
    # the nine closed-form values (two built with `/`), in x / x and at random
    values = {_closed_form(p, q) for p in range(1, 25) for q in range(p) if math.gcd(p, q) == 1}
    assert len(values) == 9
    rng = random.Random(47)
    pairs = [(rand_cyc(rng), rand_cyc(rng)) for _ in range(50)]
    quotients = [SQRT3 / SQRT3, GLOBAL_INDEX / GLOBAL_INDEX, (2 * SQRT3) / 2,
                 *(x / y for x, y in pairs if y)]
    for value in [*values, *quotients]:
        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
                   for x in value._c), value._c


def test_values_copy_and_pickle_by_coefficients():
    rng = random.Random(53)
    for x in [ZERO, ONE, SQRT3, GLOBAL_INDEX.inv(), *(rand_cyc(rng) for _ in range(20))]:
        copies = [copy.copy(x), copy.deepcopy(x),
                  *(pickle.loads(pickle.dumps(x, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
        for y in copies:
            assert type(y) is Cyclotomic and y == x and hash(y) == hash(x)
            assert list(map(type, y._c)) == list(map(type, x._c))


def test_power_squares_only_up_to_the_top_bit(monkeypatch):
    # x ** n multiplies n.bit_length() - 1 times to square and once per set
    # bit, counted at the coefficient product that every field product runs
    x = 2 + SQRT3
    powers = [ONE]
    for _ in range(64):
        powers.append(powers[-1] * x)
    products = []
    real = cyclotomic._mul_coeffs
    monkeypatch.setattr(cyclotomic, "_mul_coeffs", lambda a, b: products.append(1) or real(a, b))
    for n in range(65):
        del products[:]
        assert x ** n == powers[n]
        assert len(products) == max(n.bit_length() - 1, 0) + bin(n).count("1"), n


# -- quantum integers ---------------------------------------------------------


def test_quantum_integer_base_cases():
    assert quantum_integer(1) == ONE
    assert quantum_integer(-1) == -ONE
    with pytest.raises(ValueError):
        quantum_integer(0)


def test_quantum_integer_surd_values():
    # [3] = 1+sqrt3; [2] = (1+sqrt3)/sqrt2 and [4] = (3+sqrt3)/sqrt2 are
    # outside the field, but [2]^2 = zeta^2 + 2 + zeta^-2 is inside
    assert quantum_integer(3) == 1 + SQRT3
    assert zeta_pow(2) + 2 + zeta_pow(-2) == 2 + SQRT3
    for n in (2, 4):
        with pytest.raises(ValueError):
            quantum_integer(n)


def test_quantum_integer_five():
    assert quantum_integer(5) == 2 + SQRT3
    val = quantum_integer(5).to_complex()
    expect = math.sin(5 * math.pi / 12) / math.sin(math.pi / 12)
    assert abs(val - expect) < 1e-12


def test_quantum_binomial_is_three_plus_sqrt3():
    # [4]/[2] = zeta^2 + zeta^-2, so [4][3]/[2] = (zeta^2 + zeta^-2)[3]
    x = (zeta_pow(2) + zeta_pow(-2)) * quantum_integer(3)
    assert x == 3 + SQRT3


def test_global_index_value():
    assert GLOBAL_INDEX == 2 + quantum_integer(3) ** 2
    assert GLOBAL_INDEX == 6 + 2 * SQRT3


def test_quantum_integer_identities_exact():
    for n in range(-47, 49, 2):
        assert quantum_integer(12 - n) == quantum_integer(n)
        assert quantum_integer(n + 12) == -quantum_integer(n)
    for n in range(-48, 49, 2):
        with pytest.raises(ValueError):
            quantum_integer(n)


def test_quantum_integer_float_embedding():
    s1 = math.sin(math.pi / 12)
    for n in range(1, 12, 2):
        val = quantum_integer(n).to_complex()
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
    for n in range(-11, 13, 2):
        qi = quantum_integer(n)
        assert qi.conjugate() == qi


def test_conjugate_is_ring_homomorphism_and_involution():
    rng = random.Random(11)
    for _ in range(30):
        x, y = rand_cyc(rng, 5), rand_cyc(rng, 5)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert x.conjugate().conjugate() == x


# -- numeric embedding ----------------------------------------------------------


def test_to_complex_imag_unit():
    val = IMAG.to_complex()
    assert abs(val - 1j) < 1e-15


def test_to_complex_quantum_two():
    # [2] is outside the field; its square [2]^2 = 2 + sqrt3 is inside
    val = (2 + SQRT3).to_complex()
    assert abs(val - 1.9318516525781366**2) < 1e-12


def test_to_complex_global_index():
    val = GLOBAL_INDEX.to_complex()
    assert abs(val - 9.464101615137754) < 1e-12


def test_to_complex_precision_floor():
    with pytest.raises(ValueError):
        ONE.approx(52)


def test_approx_precision_cap():
    re, _ = SQRT3.approx(MAX_PRECISION_BITS)
    assert abs(re * re - 3) < Fraction(1, 2**MAX_PRECISION_BITS)
    with pytest.raises(ValueError):
        ONE.approx(MAX_PRECISION_BITS + 1)


def test_approx_is_high_precision():
    re, im = SQRT3.approx(128)
    assert im == 0
    assert abs(re * re - 3) < Fraction(1, 2**120)


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
    # only what to_text writes: reduced, no signed zero or leading zeros,
    # no stray spaces or signs, zero odd slots
    one = ONE.to_text()
    for bad in (
        one.replace("1/1", "2/2", 1),
        one.replace("1/1", "-0/1", 1),
        one.replace("0/1*z^2", "0/3*z^2"),
        one.replace("1/1", "01/1", 1),
        one.replace("1/1", "1/01", 1),
        one.replace("1/1", "+1/1", 1),
        one.replace("1/1", "1/-1", 1),
        " " + one,
        one + " ",
        one.replace("0/1*z^3", "1/1*z^3"),
        one.replace("1/1", "\u0661/1", 1),  # a non-ASCII digit
        # what a lenient int() or Fraction() reader would take
        *(one.replace("1/1", coeff, 1) for coeff in (
            "1e5/1", "1e999999999/1", "1.5/1", "1/1/1", "1", "0x1/1", "1_0/1", "1/ 1")),
    ):
        with pytest.raises(ValueError):
            Cyclotomic.from_text(bad)


def test_text_round_trip_is_canonical():
    # random strings in the serialized form parse and print back unchanged
    rng = random.Random(31)
    suffixes = [""] + ["*z"] + [f"*z^{k}" for k in range(2, 8)]
    for _ in range(200):
        terms = []
        for k, suffix in enumerate(suffixes):
            num, den = rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)
            if k % 2 or rng.random() < 0.3:
                num = 0
            g = math.gcd(num, den)
            terms.append(f"{num // g}/{den // g}{suffix}")
        text = " + ".join(terms)
        assert Cyclotomic.from_text(text).to_text() == text


def test_json_round_trip_exact():
    rng = random.Random(5)
    for _ in range(25):
        x = rand_cyc(rng)
        data = x.to_json_coeffs()
        assert all(isinstance(n, int) and isinstance(d, int) for n, d in data)
        assert data == [[f.numerator, f.denominator] for f in x.coeffs]


def test_equality_across_coefficient_kinds():
    a = Cyclotomic([1, 0, 0, 0, 0, 0, 0, 0])
    b = Cyclotomic([Fraction(1), Fraction(0)] + [Fraction(0)] * 6)
    assert a == b
    assert hash(a) == hash(b)
    # _raw stores Fraction(n, 1) as n, in any slot, of a rational and of an
    # irrational value, so it compares and hashes as n
    raw = []
    for ints in ((5, 0, 0, 0), (2, -3, 0, 7)):
        for slot in range(4):
            fracs = list(ints)
            fracs[slot] = Fraction(ints[slot], 1)
            x, y = Cyclotomic._raw(ints), Cyclotomic._raw(fracs)
            assert x == y and y == x and not x != y
            assert hash(x) == hash(y)
            raw.append(y)
    # every value holds each coefficient as an int, or as a Fraction whose
    # denominator is above 1, whatever operation built it
    for value in (ONE / 2 * 2, ONE / 2 + ONE / 2, SQRT3 / 2 - SQRT3 / 2,
                  (GLOBAL_INDEX / 12) * 12, rho_s().rows[0][0] * GLOBAL_INDEX, *raw):
        assert all(type(x) is int or type(x) is Fraction and x.denominator > 1
                   for x in value._c), value._c
    # a float, a bool or a string is no field value: unequal, and no error
    for other in (1.0, True, "1"):
        assert (ONE == other) is False and (other == ONE) is False


def test_rational_values_hash_as_their_rationals():
    # equal values must hash equally, also across types
    half = Fraction(1, 2)
    assert ONE == 1 and hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1
    value = ONE * half  # a rational enters the field through the operators
    assert value == half and hash(value) == hash(half)
    assert len({value, half}) == 1


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Cyclotomic([0.5] + [0] * 7)


def test_rejects_bool_coefficients():
    with pytest.raises(TypeError):
        Cyclotomic([True] + [0] * 7)
    with pytest.raises(TypeError):
        ONE * False


def test_surd_display():
    assert (2 + SQRT3).surd_str() == "2 + sqrt3"
    assert GLOBAL_INDEX.surd_str() == "6 + 2*sqrt3"
    assert ZERO.surd_str() == "0"
    assert IMAG.surd_str() == "i"
    assert (-IMAG).surd_str() == "-i"


# -- rendering from integer numerators ----------------------------------------
#
# The references below are the Fraction formulas the renderers replaced:
# every part and string must come out the same, byte for byte.


def rendering_values():
    """Seeded values of every coefficient kind the field holds: zero, small
    ints, 2,000-bit ints, Fractions with denominators 1..60, and _raw values
    built from Fraction(n, 1), which _raw stores as n."""
    rng = random.Random(29)
    values = [ZERO, ONE, IMAG, SQRT3, GLOBAL_INDEX, -IMAG, GLOBAL_INDEX.inv()]
    for _ in range(8):
        values.append(Cyclotomic._raw([rng.choice((0, rng.randint(-9, 9))) for _ in range(4)]))
        values.append(Cyclotomic._raw(
            [rng.choice((0, 1, -1)) * rng.getrandbits(2000) for _ in range(4)]))
        values.append(Cyclotomic([Fraction(rng.choice((rng.randint(-99, 99), rng.getrandbits(2000))),
                                           rng.randint(1, 60)) if k % 2 == 0 else 0
                                  for k in range(8)]))
        values.append(Cyclotomic._raw([Fraction(rng.randint(-9, 9), 1) for _ in range(4)]))
    return values


def ref_surd_parts(x):
    c0, c1, c2, c3 = (Fraction(v) for v in x._c)
    return (c0 + c2 / 2, c1 / 2), (c1 / 2 + c3, c2 / 2)


def ref_approx(x, bits):
    def evaluate(a, b):
        guard = bits + 8 + (int(abs(b)) + 2).bit_length()
        return a + b * Fraction(math.isqrt(3 << (2 * guard)), 1 << guard) if b else a

    return tuple(evaluate(a, b) for a, b in ref_surd_parts(x))


def ref_surd_str(x):
    def join(a, b):
        terms = [str(a)] if a else []
        if b:
            terms.append("sqrt3" if b == 1 else "-sqrt3" if b == -1 else f"{b}*sqrt3")
        return " + ".join(terms).replace(" + -", " - ") or "0"

    re_s, im_s = (join(a, b) for a, b in ref_surd_parts(x))
    if im_s == "0":
        return re_s
    if im_s == "1":
        im_wrapped = "i"
    elif im_s == "-1":
        im_wrapped = "-i"
    elif " " in im_s or "/" in im_s:
        im_wrapped = f"i*({im_s})"
    else:
        im_wrapped = f"{im_s}*i"
    return im_wrapped if re_s == "0" else f"{re_s} + {im_wrapped}"


def ref_slots(x):
    return [Fraction(v) for c in x._c for v in (c, 0)]


def ref_to_text(x):
    suffixes = ["", "*z"] + [f"*z^{k}" for k in range(2, 8)]
    return " + ".join(f"{f.numerator}/{f.denominator}{s}" for f, s in zip(ref_slots(x), suffixes))


@pytest.mark.parametrize("bits", [53, 64, 200, MAX_PRECISION_BITS])
def test_approx_equals_the_fraction_formula(bits):
    for x in rendering_values():
        parts = x.approx(bits)
        assert all(type(part) is Fraction for part in parts), x
        assert parts == ref_approx(x, bits), x


def test_renderers_equal_the_fraction_formulas():
    for x in rendering_values():
        assert x.surd_parts() == ref_surd_parts(x), x
        assert all(type(v) is Fraction for part in x.surd_parts() for v in part), x
        assert x.surd_str() == ref_surd_str(x), x
        assert x.to_text() == ref_to_text(x), x
        assert Cyclotomic.from_text(x.to_text()) == x
        json_pairs = x.to_json_coeffs()
        assert json_pairs == [[f.numerator, f.denominator] for f in ref_slots(x)], x
        assert all(type(v) is int for pair in json_pairs for v in pair), x


def test_rendering_builds_fractions_only_for_approx_parts(monkeypatch):
    values = rendering_values()
    made = []
    monkeypatch.setattr(cyclotomic, "Fraction", lambda *args: made.append(args) or Fraction(*args))
    for x in values:
        del made[:]
        assert x.approx(64) == ref_approx(x, 64)
        assert len(made) <= 2, (x, made)
        del made[:]
        x.to_text(), x.to_json_coeffs(), x.surd_str()
        assert made == [], (x, made)
