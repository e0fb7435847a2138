"""The package surface: every exported name resolves, and every int
parameter rejects what is not an int, and the two parsers read exactly
what their writers write."""

import math
import os
import random
import re
import subprocess
import sys

import pytest

import e6lens


def test_star_import_binds_every_name_in_all():
    assert len(set(e6lens.__all__)) == len(e6lens.__all__)
    namespace = {}
    exec("from e6lens import *", namespace)  # AttributeError on a stale name
    assert set(e6lens.__all__) <= set(namespace)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the modules that `import e6lens.cli` adds in a fresh interpreter, taken
    # against what was loaded before it, since site may preload some
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import e6lens.cli; print(*sorted(set(sys.modules) - before))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert {"e6lens.cli", "e6lens.rep"} <= added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("call, bad", [
    pytest.param(lambda: e6lens.SL2Z(True, 0, 0, True), "a must be an int, not True",
                 id="SL2Z(True, 0, 0, True)"),
    pytest.param(lambda: e6lens.decompose(e6lens.SL2Z(1.5, 0, 0, 2 / 3)),
                 "a must be an int, not 1.5", id="decompose(SL2Z(1.5, 0, 0, 2/3))"),
    pytest.param(lambda: e6lens.SQRT3.approx(64.0), "precision_bits must be an int, not 64.0",
                 id="SQRT3.approx(64.0)"),
    pytest.param(lambda: e6lens.ONE.approx(64.0), "precision_bits must be an int, not 64.0",
                 id="ONE.approx(64.0)"),
    pytest.param(lambda: e6lens.zeta_pow(2.0), "k must be an int, not 2.0", id="zeta_pow(2.0)"),
    pytest.param(lambda: e6lens.quantum_integer(3.0), "n must be an int, not 3.0",
                 id="quantum_integer(3.0)"),
    pytest.param(lambda: e6lens.quantum_integer(True), "n must be an int, not True",
                 id="quantum_integer(True)"),
    pytest.param(lambda: e6lens.cofactors(5.0, 2), "p must be an int, not 5.0",
                 id="cofactors(5.0, 2)"),
    pytest.param(lambda: e6lens.cofactors(True, 0), "p must be an int, not True",
                 id="cofactors(True, 0)"),
    pytest.param(lambda: e6lens.cofactors(5, False), "q must be an int, not False",
                 id="cofactors(5, False)"),
    pytest.param(lambda: e6lens.cofactors(5, True), "q must be an int, not True",
                 id="cofactors(5, True)"),
    pytest.param(lambda: e6lens.SL2Z(1, 0, 0, True), "d must be an int, not True",
                 id="SL2Z(1, 0, 0, True)"),
    pytest.param(lambda: e6lens.lens_matrix(5, 1, 1, 0.0), "b must be an int, not 0.0",
                 id="lens_matrix(5, 1, 1, 0.0)"),
    pytest.param(lambda: e6lens.SQRT3 ** True, "n must be an int, not True", id="SQRT3 ** True"),
    pytest.param(lambda: e6lens.SQRT3 ** 2.0, "n must be an int, not 2.0", id="SQRT3 ** 2.0"),
])
def test_int_parameters_reject_floats_and_bools(call, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        call()


def test_parsers_raise_only_value_error_on_near_misses():
    # one-character edits of writer output: each string is rejected with
    # ValueError or parses to a value whose writer gives back that string
    texts = [e6lens.closed_form(e6lens.LensSpace(p, q)).to_text()
             for p in range(1, 13) for q in range(p) if math.gcd(p, q) == 1]
    words = ["SST12ST12S", "T5ST-2ST2ST-4ST3ST2S", "T-12", "ST1S", ""]
    rng = random.Random(17)
    alphabet = "/*+e._-09\u0661 zST^1"
    for _ in range(2000):
        parse, write, text = rng.choice([
            (e6lens.Cyclotomic.from_text, e6lens.Cyclotomic.to_text, rng.choice(texts)),
            (e6lens.Word.parse, e6lens.Word.compact, rng.choice(words)),
        ])
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(["insert", "delete", "replace"] if i < len(text) else ["insert"])
        tail = text[i + 1:] if edit != "insert" else text[i:]
        near = text[:i] + (rng.choice(alphabet) if edit != "delete" else "") + tail
        try:
            value = parse(near)
        except ValueError:
            continue
        assert write(value) == near, near
