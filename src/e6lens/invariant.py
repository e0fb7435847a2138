"""The E6 state sum invariant Z(L(p, q)) of lens spaces, two independent ways.

Route one (state_sum): Z = w * (rho(-q, b; p, -a))_{1,1} with a*q - b*p = 1,
from the literal S/T word (modular.decompose) of the gluing matrix of the
least coprime lift (p', q') = (p, q) mod 12 with 0 <= q' < p'.  The lift
bounds the time and keeps the value: the two gluing matrices have first
columns equal mod 12, so they differ by some T^k on the right modulo
Gamma(12); rho kills Gamma(12) (verify kernel proves it), and rho(T) is
diagonal with first entry 1, so rho(T^k) fixes e_1.  Every lift has p' <= 34,
inside the default closedform sweep (p <= 48), so verify all evaluates the
word behind every value of state_sum; the sweeps themselves never take the lift.
Route two (closed_form): an exact case table keyed on p mod 12 and
q mod gcd(p, 12).  Both are normalized so that Z(S^3) = Z(L(1, 0)) = 1.

The case table, with r = p mod 12 and g = gcd(r, 12) (so g = 12 at r = 0);
it takes nine values, two of the pairs below being complex conjugates:

    g = 1        1 if r = 1, 11;  [5] = 2 + sqrt3 if r = 5, 7
    g = 2, 6     [4][3]/[2] = 3 + sqrt3
    g = 3        zeta^(+-3) [4] = (1 +- i)(3 + sqrt3)/2
                                      sign + iff (r, q mod 3) in {(9,1), (3,2)}
    g = 4        2 zeta^(+-2) [3]     sign + iff (r, q mod 4) in {(4,1), (8,3)}
    g = 12       2 [4][3]/[2] if q = +-1 mod 12, else 0 (q = +-5 mod 12)

Every entry lies in Q(zeta_12) = Q(i, sqrt3), although zeta^3 and [4] do not.

The complex cases carry opposite signs on the two residues r of p sharing a
gcd; this is forced by the state sum (the gluing matrix of L(p, 1) is
S T^p S, whose first entry works out to zeta^{-3}[4] at p = 3 but
zeta^{+3}[4] at p = 9), and is exactly the "determined by p mod 12 and
q mod (p, 12)" shape.  Every branch is pinned against the literal route by
the exhaustive agreement sweep below.

Both routes accept any coprime integer pair, including q >= p, q < 0 and
p <= 0; the literal route applies the gluing formula as it stands, and
mod-12 periodicity makes the extension forced.
"""

from __future__ import annotations

import json
import math
import random
from functools import cache, lru_cache
from itertools import count, groupby, product
from operator import itemgetter
from typing import NamedTuple

from .cyclotomic import (IMAG, ONE, SQRT3, ZERO, Cyclotomic, _require_int, _value_type,
                         quantum_integer, zeta_pow)
from .modular import cofactors, decompose, lens_matrix
from .rep import _step_memo, w_rho_entry_11
from .report import Check, Report

# Largest sweep bound that sweep_table and the verification sweeps accept.
# At 120 on a shared 2-core host (Python 3.11.7), verify_periodicity takes 0.08-0.15 s
# and verify_closed_form 0.05-0.08 s from a cold cache; every other sweep <= 0.02 s.
MAX_PMAX = 120

# The least bound of each verification sweep, by suite name: periodicity
# compares p with p + 12, so it needs p_max >= 13.
MIN_PMAX = {"welldefined": 1, "periodicity": 13, "closedform": 1, "corollary": 1}


class LensSpace(_value_type("LensSpace", "p q")):
    """L(p, q) for coprime integers p, q (any signs, q not reduced mod p)."""

    __slots__ = ()

    def __new__(cls, p, q):
        _require_int(p=p, q=q)
        g = math.gcd(p, q)
        if g != 1:
            raise ValueError(f"gcd({p},{q})={g}; p and q must be coprime")
        return super().__new__(cls, p, q)

    def __str__(self):
        return f"L({self.p},{self.q})"


def state_sum(space):
    """Z via the representation: w times the first entry of rho of the
    gluing matrix (-q, b; p, -a), canonical cofactors (a, b), taken at the
    least coprime lift of (p, q) mod 12 (same value: module docstring)."""
    return _literal_state_sum(*_residue_lift(space.p, space.q))


def _residue_lift(p, q):
    """The least coprime (p', q') = (p, q) mod 12 with 0 <= q' < p'; it
    exists iff gcd(p, q, 12) = 1, and then p' <= 34."""
    for lift_p in count(p % 12 or 12, 12):
        for lift_q in range(q % 12, lift_p, 12):
            if math.gcd(lift_p, lift_q) == 1:
                return lift_p, lift_q


# The one state-sum cache.  One entry per pair of a MAX_PMAX box:
# periodicity and then closedform evict nothing and share their words, the
# 96 lifts of state_sum lie inside the box, and large p hold bounded memory.
@lru_cache(maxsize=MAX_PMAX**2)
def _literal_state_sum(p, q):
    """Z from the literal gluing word of (p, q), canonical cofactors."""
    a, b = cofactors(p, q)
    return _state_sum_with_cofactors(p, q, a, b)


def _state_sum_with_cofactors(p, q, a, b):
    word = decompose(lens_matrix(p, q, a, b))
    return w_rho_entry_11(word)


# closed_form returns one of nine constants: ONE, ZERO and the seven below.
_QUANTUM_5 = quantum_integer(5)  # 2 + sqrt3
_BINOMIAL_42 = 3 + SQRT3  # [4][3]/[2]
_TWICE_BINOMIAL_42 = 2 * _BINOMIAL_42
_ZETA3_Q4 = (1 + IMAG) * _BINOMIAL_42 / 2  # zeta^3 [4]; [4] is real
_ZETA2_Q3 = 2 * zeta_pow(2) * quantum_integer(3)  # [3] is real
_ZETA3_Q4_BAR, _ZETA2_Q3_BAR = _ZETA3_Q4.conjugate(), _ZETA2_Q3.conjugate()


def closed_form(space):
    """Z via the exact case table (see module docstring)."""
    return _closed_form(space.p, space.q)


def _closed_form(p, q):
    """closed_form read from the ints p, q, which the sweeps pass unchecked."""
    r, g = p % 12, math.gcd(p, 12)
    if g == 1:
        return ONE if r in (1, 11) else _QUANTUM_5
    if g in (2, 6):
        return _BINOMIAL_42
    if g == 3:
        return _ZETA3_Q4 if (q % 3 == 1) == (r == 9) else _ZETA3_Q4_BAR
    if g == 4:
        return _ZETA2_Q3 if (q % 4 == 1) == (r == 4) else _ZETA2_Q3_BAR
    return _TWICE_BINOMIAL_42 if q % 12 in (1, 11) else ZERO


# homotopy_equivalent factors |p| by trial division up to this bound, which
# decides every |p| < MAX_TRIAL_DIVISOR**2.
MAX_TRIAL_DIVISOR = 10**6


def homotopy_equivalent(one, two):
    """Orientation-preserving homotopy equivalence of L(p,q) and L(p',q')
    once L(p,q) = L(-p,-q) makes p, p' >= 0: p = p' and q = n^2 q' mod p
    for some n.  Two spaces with p = 0 (q = +-1) are both S^2 x S^1.

    The unit q/q' must be a square mod each prime power of p, so q and q'
    must have the same square class; its symbols are compared one by one,
    and the first that differs decides."""
    one, two = (LensSpace(-s.p, -s.q) if s.p < 0 else s for s in (one, two))
    if one.p != two.p:
        return False
    return one.p == 0 or all(x == y for x, y in zip(_square_class(one.p, one.q),
                                                    _square_class(one.p, two.q)))


def _square_class(p, q):
    """The symbols of the unit q mod p > 0 that fix it up to squares:
    q mod 4 if 4 || p, q mod 8 if 8 | p, then q^((l-1)/2) mod l for each odd
    prime l | p (Cohen, A Course in Computational Algebraic Number Theory,
    1.5).  The odd primes come from trial division up to MAX_TRIAL_DIVISOR."""
    twos = (p & -p).bit_length() - 1
    if twos >= 2:
        yield q % (4 if twos == 2 else 8)
    m, d = p >> twos, 3
    while d * d <= m:
        if d > MAX_TRIAL_DIVISOR:
            raise ValueError(f"trial division up to {MAX_TRIAL_DIVISOR} does not factor |p| = {p}")
        if m % d == 0:
            yield pow(q, d // 2, d)
            while m % d == 0:
                m //= d
        d += 2
    if m > 1:
        yield pow(q, m // 2, m)


# ---------------------------------------------------------------------------
# verification sweeps


def check_pmax(p_max, *sweeps):
    """Raise ValueError unless p_max is an int that every named verification
    sweep (keys of MIN_PMAX) accepts; with no name, the bound of sweep_table."""
    _require_int(p_max=p_max)
    least = max((MIN_PMAX[sweep] for sweep in sweeps), default=1)
    if not least <= p_max <= MAX_PMAX:
        raise ValueError(f"p_max must be between {least} and {MAX_PMAX}")


def _coprime_pairs(p_max):
    for p in range(1, p_max + 1):
        for q in range(p):
            if math.gcd(p, q) == 1:
                yield p, q


@_step_memo()
def verify_closed_form(p_max=48):
    """Exact agreement of the literal state sum with the closed form on all
    coprime pairs up to p_max, one check per p."""
    check_pmax(p_max, "closedform")
    checks = []
    for p, coprime in groupby(_coprime_pairs(p_max), key=itemgetter(0)):
        qs = [q for _, q in coprime]
        bad = next((f"first mismatch at q={q}" for q in qs
                    if _literal_state_sum(p, q) != _closed_form(p, q)), None)
        name = f"state sum = closed form, p={p} ({len(qs)} pairs)"
        checks.append(Check(name, bad))
    return Report("closedform", tuple(checks))


# verify_well_defined shifts the cofactors by each k in _SHIFTS (k = 0 would
# compare a value with itself) on a fixed sample of _SAMPLE pairs.
_SHIFTS = (-3, -2, -1, 1, 2, 3)
_SAMPLE = 100
_SEED = 7


@_step_memo()
def verify_well_defined(p_max=48):
    """The state sum is unchanged when (a, b) is replaced by (a+kp, b+kq),
    on a deterministic sample of the coprime pairs up to p_max, one check
    per pair."""
    check_pmax(p_max, "welldefined")
    pairs = list(_coprime_pairs(p_max))
    if len(pairs) > _SAMPLE:
        pairs = sorted(random.Random(_SEED).sample(pairs, _SAMPLE))
    checks = []
    for p, q in pairs:
        a, b = cofactors(p, q)
        reference = _literal_state_sum(p, q)
        values = (_state_sum_with_cofactors(p, q, a + k * p, b + k * q) for k in _SHIFTS)
        bad = next((f"expected {reference.to_text()}, got {value.to_text()}"
                    for value in values if value != reference), None)
        checks.append(Check(f"L({p},{q}) shifts {_SHIFTS[0]}..{_SHIFTS[-1]}", bad))
    return Report("welldefined", tuple(checks))


@_step_memo()
def verify_periodicity(p_max=48):
    """Z(L(p,q)) = Z(L(p+12s, q+12t)) for every swept coprime pair and every
    nonnegative shift in range (p+12s <= p_max, q+12t < p_max); a class (p, q)
    mod 12 compares its pairs with their shifts only if they hold two values."""
    check_pmax(p_max, "periodicity")
    first, split = {}, set()  # the first value in reach of each class; the classes with two
    for r, c in product(range(12), repeat=2):
        low = p_max + 1  # the least swept p of the class at any q' <= q: a staircase
        for q in range(c, p_max, 12):  # in reach at q: the coprime p >= low
            low = min(low, next((p for p in range(r or 12, p_max - 11, 12)
                                 if p > q and math.gcd(p, q) == 1), low))
            values = (_literal_state_sum(p, q) for p in range(low, p_max + 1, 12)
                      if math.gcd(p, q) == 1)
            split.update((r, c) for value in values if first.setdefault((r, c), value) != value)
    checks = []
    for p, q in _coprime_pairs(p_max - 12):
        value = _literal_state_sum(p, q)
        shifted = () if (p % 12, q % 12) not in split else (
            (p + 12 * s, q + 12 * t) for s in range((p_max - p) // 12 + 1)
            for t in range((p_max - 1 - q) // 12 + 1) if s or t)
        bad = next((f"differs at L({p2},{q2})" for p2, q2 in shifted
                    if math.gcd(p2, q2) == 1 and _literal_state_sum(p2, q2) != value), None)
        checks.append(Check(f"L({p},{q}) mod-12 shifts", bad))
    return Report("periodicity", tuple(checks))


def verify_corollary(p_max=60):
    """Equal closed-form values on every homotopy-equivalent pair q, q' < p.

    The spaces of each p are grouped by the square class of q, which is
    their homotopy class; closed_form runs once per space, and a class of k
    spaces holds k(k+1)/2 pairs q <= q'."""
    check_pmax(p_max, "corollary")
    checks = []
    for p, coprime in groupby(_coprime_pairs(p_max), key=itemgetter(0)):
        classes = {}  # square class -> [(q, value)], q ascending
        for _, q in coprime:
            classes.setdefault(tuple(_square_class(p, q)), []).append((q, _closed_form(p, q)))
        pairs = sum(len(members) * (len(members) + 1) // 2 for members in classes.values())
        # classes come in order of their least q, so the least unequal pair joins
        # the least q of the first class with two values to its first differing q2
        bad = next((f"L({p},{members[0][0]}) vs L({p},{q2})" for members in classes.values()
                    for q2, value in members if value != members[0][1]), None)
        checks.append(Check(f"p={p} ({pairs} equivalent pairs)", bad))
    return Report("corollary", tuple(checks))


# ---------------------------------------------------------------------------
# sweep table


class TableRow(NamedTuple):
    p: int
    q: int
    state: Cyclotomic
    agrees: bool


@_step_memo()
def sweep_table(p_max):
    """Rows (p, q, state-sum value, agreement with the closed form) for
    all coprime pairs 1 <= p <= p_max, 0 <= q < p, in (p, q) order."""
    check_pmax(p_max)
    rows, by_residue, by_value = [], {}, {}  # this call's values by (p, q) mod 12 and by value
    for p, q in _coprime_pairs(p_max):  # coprime, so no LensSpace checks them again
        state = by_residue.get(residues := (p % 12, q % 12))
        if state is None:
            state = _literal_state_sum(*_residue_lift(p, q))
            state = by_residue[residues] = by_value.setdefault(state, state)
        rows.append(TableRow(p, q, state, state == _closed_form(p, q)))
    return rows


def _format_float(x):
    return f"{float(x):.10g}"


def format_complex(re, im):
    """`a`, `a + bi` or `a - bi` from exact real and imaginary parts."""
    fr = _format_float(re)
    fi = _format_float(im)
    return fr if im == 0 else (f"{fr} + {fi}i" if im > 0 else f"{fr} - {fi[1:]}i")


# Each formatter renders each distinct value once, through a cache local to
# the call: equal values format alike, and the cache dies with the call.
def table_csv(rows):
    @cache
    def render(value):
        return ",".join([value.to_text(), *map(_format_float, value.approx())])
    lines = [f"{p},{q},{render(state)},{'true' if agrees else 'false'}"
             for p, q, state, agrees in rows]
    return "\n".join(["p,q,exact,float_re,float_im,agrees", *lines]) + "\n"


def table_json(rows):
    """json.dumps(list of row dicts, indent=1), with each value's keys dumped once."""
    @cache
    def render(value):
        re, im = map(float, value.approx())
        return json.dumps({"exact": value.to_text(), "exact_coeffs": value.to_json_coeffs(),
                           "float_re": re, "float_im": im}, indent=1)[2:-2].replace("\n", "\n ")
    body = ",\n".join(f' {{\n  "p": {p},\n  "q": {q},\n {render(state)},\n  "agrees": '
                      f'{"true" if agrees else "false"}\n }}' for p, q, state, agrees in rows)
    return f"[\n{body}\n]\n" if body else "[]\n"


def table_text(rows):
    @cache
    def render(value):
        return f"{value.surd_str():<28} {format_complex(*value.approx()):<28}"
    lines = [f"{p:>4} {q:>4}  {render(state)} {'yes' if agrees else 'NO'}"
             for p, q, state, agrees in rows]
    return "\n".join([f"{'p':>4} {'q':>4}  {'value':<28} {'float':<28} agrees", *lines]) + "\n"
