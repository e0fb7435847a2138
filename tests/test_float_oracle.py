"""Independent numeric oracle: rebuild the 10-dimensional representation in
plain complex floats and re-derive the state sum, then compare against the
exact route's float embedding.  Shares no arithmetic with the package's
cyclotomic layer, so a systematic defect there cannot hide."""

import cmath
import math
import random

from e6lens.invariant import LensSpace, state_sum
from e6lens.modular import cofactors, decompose, lens_matrix

ZETA = cmath.exp(1j * math.pi / 12)


def _qint(n):
    return (ZETA**n - ZETA**-n) / (ZETA - ZETA**-1)


def _float_matrices():
    t = _qint(3)
    b = _qint(2) ** 2
    x = _qint(4) * _qint(3) / _qint(2)
    ix = 1j * x
    w = 2 + _qint(3) ** 2
    s_rows = [
        [1, t, 1, b, t, t, x, t, t, b],
        [t, ix, -t, -t, 0, -ix, 0, t, -t, t],
        [1, -t, 1, b, -t, -t, -x, t, t, b],
        [b, -t, b, 1, -t, -t, x, -t, -t, 1],
        [t, 0, -t, -t, 0, 0, 0, -2 * t, 2 * t, t],
        [t, -ix, -t, -t, 0, ix, 0, t, -t, t],
        [x, 0, -x, x, 0, 0, 0, 0, 0, -x],
        [t, t, t, -t, -2 * t, t, 0, t, t, -t],
        [t, -t, t, -t, 2 * t, -t, 0, t, t, -t],
        [b, t, b, 1, t, t, -x, -t, -t, 1],
    ]
    s = [[e / w for e in row] for row in s_rows]
    t_diag = [1, -ZETA**2, -1, 1, 1j, -ZETA**2, 1, ZETA**8, ZETA**-4, -1]
    return s, t_diag, w


S_NUM, T_DIAG, W_NUM = _float_matrices()


def _apply_word_to_e(word):
    v = [0j] * 10
    v[0] = 1 + 0j
    for tok in reversed(word.tokens):
        if tok == "S":
            v = [sum(S_NUM[i][j] * v[j] for j in range(10)) for i in range(10)]
        else:
            v = [T_DIAG[i] ** (tok % 24) * v[i] for i in range(10)]
    return v[0]


def _state_sum_float(p, q):
    a, b = cofactors(p, q)
    word = decompose(lens_matrix(p, q, a, b))
    return W_NUM * _apply_word_to_e(word)


def test_exact_state_sum_matches_float_oracle_sweep():
    for p in range(1, 15):
        for q in range(max(p, 1)):
            if math.gcd(p, q) != 1:
                continue
            exact = state_sum(LensSpace(p, q)).to_complex()
            numeric = _state_sum_float(p, q)
            assert abs(exact - numeric) < 1e-8, (p, q)


def test_exact_state_sum_matches_float_oracle_edges():
    for p, q in [(0, 1), (-1, 0), (-5, 2), (3, -2), (-12, 7), (25, 18), (7, 100)]:
        exact = state_sum(LensSpace(p, q)).to_complex()
        numeric = _state_sum_float(p, q)
        assert abs(exact - numeric) < 1e-8, (p, q)


def test_exact_state_sum_matches_float_oracle_wide_sample():
    # |p|, |q| up to 10^6 with both signs, and one pair with a 64-bit p
    rng = random.Random(97)
    pairs = [(18446744073709551557, 1234567890123)]
    while len(pairs) < 200:
        p, q = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    assert any(p < 0 for p, _ in pairs) and any(q < 0 for _, q in pairs)
    for p, q in pairs:
        exact = state_sum(LensSpace(p, q)).to_complex()
        numeric = _state_sum_float(p, q)
        assert abs(exact - numeric) < 1e-8, (p, q)
