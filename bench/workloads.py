"""Workload inputs, output checks and input properties for the benchmark.

Inputs come only from the workload name, its size and the seed, so the
same seed gives the same inputs.  The checks compare the program's text
output with the closed form (the route that never calls the
representation), parse back with `Cyclotomic.from_text`, and count a bad
item instead of raising.  Nothing here is timed.
"""

from __future__ import annotations

import itertools
import json
import math
import random

WORKLOADS = ("sweep", "bigp", "verify")

# Sizes for a benchmark run; the self-test passes smaller ones.
FULL_SIZE = {
    "sweep": {"pmax": 120},
    # ops per run, at least: 10 samples beyond p90; wall_s sums these
    "bigp": {"bits": 1000, "ops": 100},
    "verify": {"pmax": None},
}

# `verify all` sweeps the closed-form agreement up to this p by default.
VERIFY_CLOSEDFORM_PMAX = 48


def coprime_pairs(pmax):
    """(p, q) in the order of `e6lens table`: 1 <= p <= pmax, 0 <= q < p."""
    return [
        (p, q) for p in range(1, pmax + 1) for q in range(p) if math.gcd(p, q) == 1
    ]


def bigp_stream(seed, bits):
    """The seeded stream of distinct (p, q): p a uniform `bits`-bit integer
    with the top bit set, q uniform in [1, p) and coprime to p."""
    rng = random.Random(f"bigp:{seed}:{bits}")
    seen = set()
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1))
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1 and (p, q) not in seen:
            seen.add((p, q))
            yield p, q


def bigp_pairs(seed, bits, count):
    """The first `count` ops of bigp_stream."""
    return list(itertools.islice(bigp_stream(seed, bits), count))


def argv_for(workload, size):
    """The `e6lens` arguments of one sweep or verify call."""
    if workload == "sweep":
        return ["table", "--pmax", str(size["pmax"]), "--format", "csv"]
    argv = ["verify", "all", "--format", "json"]
    if size["pmax"] is not None:
        argv += ["--pmax", str(size["pmax"])]
    return argv


def input_pairs(workload, size, ops=0, seed=0):
    """The (p, q) whose state sum the workload evaluates, in order.  For
    verify these are the pairs of its closed-form agreement sweep."""
    if workload == "sweep":
        return coprime_pairs(size["pmax"])
    if workload == "bigp":
        return bigp_pairs(seed, size["bits"], ops)
    return coprime_pairs(size["pmax"] or VERIFY_CLOSEDFORM_PMAX)


def input_properties(pairs):
    """Counts a cache claim can cite: how often (p, q) and the gluing
    matrix mod 12 repeat an earlier op of the run."""
    from e6lens.modular import cofactors, lens_matrix

    seen_pq, seen_res = set(), set()
    rep_pq = rep_res = 0
    for p, q in pairs:
        rep_pq += (p, q) in seen_pq
        seen_pq.add((p, q))
        a, b = cofactors(p, q)
        key = tuple(x % 12 for x in lens_matrix(p, q, a, b).entries())
        rep_res += key in seen_res
        seen_res.add(key)
    n = len(pairs)
    return {
        "workload.pairs": n,
        "workload.repeat_pq_share": rep_pq / n,
        "workload.repeat_residue_share": rep_res / n,
        "workload.distinct_residues": len(seen_res),
    }


# ---------------------------------------------------------------------------
# output checks: each returns (attempted, failed, first failure or None)


def _value_matches(p, q, text):
    from e6lens import Cyclotomic, LensSpace, closed_form

    try:
        return Cyclotomic.from_text(text) == closed_form(LensSpace(p, q))
    except ValueError:
        return False


def check_table_csv(pairs, out):
    """One item per expected row: the row is present, in order, agrees, and
    its exact field parses back to the closed form."""
    lines = out.splitlines()
    failed = 0
    first = None
    if not lines or lines[0] != "p,q,exact,float_re,float_im,agrees":
        failed, first = 1, "bad csv header"
    rows = lines[1:]
    for i, (p, q) in enumerate(pairs):
        fields = rows[i].split(",") if i < len(rows) else []
        ok = (
            len(fields) == 6
            and fields[:2] == [str(p), str(q)]
            and fields[5] == "true"
            and _value_matches(p, q, fields[2])
        )
        if not ok:
            failed += 1
            first = first or f"row for L({p},{q}): {fields!r}"
    extra = max(0, len(rows) - len(pairs))
    if extra:
        failed += extra
        first = first or f"{extra} unexpected rows"
    return len(pairs) + extra, failed, first


def check_compute(p, q, out, code):
    """One item: exit code 0 and an exact line equal to the closed form."""
    prefix = f"Z(L({p},{q})) exact: "
    lines = out.splitlines()
    ok = (
        code == 0
        and len(lines) == 3
        and lines[0].startswith(prefix)
        and _value_matches(p, q, lines[0][len(prefix):])
    )
    return 1, 0 if ok else 1, None if ok else f"compute L({p},{q}): {out[:200]!r}"


def check_computes(items):
    """check_compute summed over (p, q, out, exit code) items."""
    attempted = failed = 0
    first = None
    for p, q, out, code in items:
        a, f, msg = check_compute(p, q, out, code)
        attempted, failed, first = attempted + a, failed + f, first or msg
    return attempted, failed, first


def check_verify_json(out, code):
    """One item for the exit code, one per check in the JSON output."""
    try:
        checks = json.loads(out)
    except ValueError:
        checks = None
    if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
        return 2, 2, "output is not a JSON list of checks"
    bad = [c for c in checks if c.get("pass") is not True]
    failed = len(bad) + (code != 0)
    first = None
    if code != 0:
        first = f"exit code {code}"
    elif bad:
        first = f"failed check {bad[0].get('check_name')!r}"
    return 1 + len(checks), failed, first
