"""Command line surface: exit codes, formats, determinism."""

import hashlib
import json
import subprocess
import sys
from functools import lru_cache

import pytest

from e6lens import cli, invariant, rep
from e6lens.cyclotomic import ONE
from e6lens.report import Check, Report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_compute_real_value(capsys):
    code, out = run_cli(capsys, "compute", "5", "1")
    assert code == 0
    assert "3.732050808" in out
    assert "2 + sqrt3" in out
    assert "2/1 + 0/1*z + 2/1*z^2" in out


def test_compute_complex_value(capsys):
    code, out = run_cli(capsys, "compute", "3", "1")
    assert code == 0
    assert "2.366025404 - 2.366025404i" in out


def test_compute_non_coprime_is_usage_error(capsys):
    code, out = run_cli(capsys, "compute", "4", "2")
    assert code == 2
    assert "gcd(4,2)=2" in out


def test_compute_huge_parameters(capsys):
    code, out = run_cli(capsys, "compute", "100000000019", "7")
    assert code == 0
    assert "Z(L(100000000019,7))" in out


def test_table_csv_deterministic(capsys):
    code1, out1 = run_cli(capsys, "table", "--pmax", "9", "--format", "csv")
    code2, out2 = run_cli(capsys, "table", "--pmax", "9", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "p,q,exact,float_re,float_im,agrees"
    assert all(line.endswith("true") for line in out1.splitlines()[1:])


def test_table_json_parses(capsys):
    code, out = run_cli(capsys, "table", "--pmax", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["p"] == 1
    assert all(row["agrees"] for row in data)


def test_table_text(capsys):
    code, out = run_cli(capsys, "table", "--pmax", "4")
    assert code == 0
    assert "agrees" in out.splitlines()[0]


def test_table_bad_pmax(capsys):
    code, _ = run_cli(capsys, "table", "--pmax", "0")
    assert code == 2


def test_pmax_cap_is_usage_error(capsys):
    over = str(invariant.MAX_PMAX + 1)
    for argv in (["table", "--pmax", over], ["verify", "closedform", "--pmax", over]):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out.startswith("error: ") and "p_max" in out


# sha256 of `e6lens table --pmax 48 --format <fmt>`: the reference output,
# first measured when values were computed in Q(zeta_24); a change to the
# arithmetic must reproduce it byte for byte
TABLE_48_SHA256 = {
    "csv": "7424e30957b63df6b11755d786b7cc9062542c323d16f863e90fd92166742b7d",
    "json": "1a71dd06c7f6affb539e85b5670d781290cf1f9c17c8c0cbe4a8ea0c15f6b61e",
    "text": "ce63cb7a69a0d3361ca8e003ebf7171a988618d2ad7e9dc0dadde6215c22864f",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_48_SHA256))
def test_table_output_is_pinned(capsys, fmt):
    code, out = run_cli(capsys, "table", "--pmax", "48", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_48_SHA256[fmt]


# sha256 of `e6lens table --pmax 120 --format csv`, the benchmark's sweep,
# first measured when state_sum read a table of shortest words mod 12
TABLE_120_CSV_SHA256 = "e4a911c624661a9c36423ddddc6dc382dfd17a6214847e486652a2abcbd4022c"


def test_table_120_csv_is_pinned(capsys):
    code, out = run_cli(capsys, "table", "--pmax", "120", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_120_CSV_SHA256


# sha256 of `e6lens table --pmax 120 --format <fmt>`, first measured when
# every row formatted its own value
TABLE_120_SHA256 = {
    "json": "f5467b980d55282a5023b721fcd99197a494f18f3d50c1f2fec9b3cb2fa4aab7",
    "text": "7b42766c17adfe082c9cc7e4c104bf335464b6c97bd6e0935f77f8f8cf45df5c",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_120_SHA256))
def test_table_120_json_and_text_are_pinned(capsys, fmt):
    code, out = run_cli(capsys, "table", "--pmax", "120", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_120_SHA256[fmt]


# sha256 of `e6lens compute p q`, first measured when state_sum read a table
# of shortest words mod 12: every sign of p, p = 0, and a 13,288-bit q
_BIG = 10**4000 + 1
COMPUTE_SHA256 = {
    (5, 1): "4a2df9ab36ea797e35a7c42dd70a536225e3a870fdbfb04f4a9b11731805d2a6",
    (-12, 7): "21ebf56c595213abe1635451092b12bd7d28040153a312377b3781448f5a0a2f",
    (0, 1): "e4915f5aa5125b248cf57a9d5582c1d9b0053be5c78b1722da51e4a52d6802c4",
    (-1, 0): "de195f733899e134ded585d0bbef04001b29fb9698cae320b1535b60504066bc",
    (_BIG, pow(3, 8387, _BIG)): "deab00cc995fd0ec8217b2c2bc4257eb5f8433197fa314ef95572f8926a0424c",
    # the values no pin above covers, and a complex 1000-bit one (p = 3 mod 12),
    # first measured when values rendered through Fraction arithmetic
    (2, 1): "16d74b53cf3f0eda4c9a4613aa53b36ce20da4f329e5b209fe225858c1c18c87",
    (3, 1): "0b87d5a194554f9102dc9705bf8f020ce974e4f99ef5d27fd7302d7b4aef5217",
    (3, 2): "159d0573158746253c2a3f6f4efea4d8b702b12dd1b602f5aa290a9b637f091a",
    (4, 1): "b969fd6d14f611b8fc33f753d2720739d5d2bdb6be6313bb3af144b811bbe910",
    (4, 3): "16b2a7d90ffbab2926959566f9c301c670a468c5ad6865955d412c9fd8de913c",
    (2**999 + 7, 2): "eb01f203a91cc425737860931482cb79e6c85903e1f796ec6ee0985262ed5b47",
}


@pytest.mark.parametrize("pq", list(COMPUTE_SHA256), ids=[
    "5,1", "-12,7", "0,1", "-1,0", "big", "2,1", "3,1", "3,2", "4,1", "4,3", "2**999+7,2"])
def test_compute_output_is_pinned(capsys, pq):
    code, out = run_cli(capsys, "compute", *map(str, pq))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_SHA256[pq]


# sha256 of `e6lens verify all [--pmax 24] --format json`: with --pmax 24
# first measured when the CLI restated the sweep defaults and bounds itself;
# at the default bounds (the benchmark's verify workload) first measured when
# the S steps ran through fused S*T tables, and unchanged without them
VERIFY_ALL_JSON_SHA256 = {
    "pmax24": "1befdf8e92af62c66ad64522657135a396934a560a10b1c33ee9d63394d35f5a",
    "default": "b0bf80b09494f3099300480586de388386d18267606603ad99aa35e18ea24f8c",
}


@pytest.mark.parametrize("bounds, args", [("pmax24", ("--pmax", "24")), ("default", ())],
                         ids=list(VERIFY_ALL_JSON_SHA256))
def test_verify_all_output_is_pinned(capsys, bounds, args):
    code, out = run_cli(capsys, "verify", "all", *args, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256[bounds]


def test_verify_relations_passes(capsys):
    code, out = run_cli(capsys, "verify", "relations")
    assert code == 0
    assert "rho(S)^4 = I" in out
    assert "3/3 checks passed" in out


def test_verify_kernel_passes(capsys):
    code, out = run_cli(capsys, "verify", "kernel")
    assert code == 0
    assert "19/19 checks passed" in out


def test_verify_target_case_insensitive(capsys):
    code, _ = run_cli(capsys, "verify", "wellDefined", "--pmax", "10")
    assert code == 0


def test_verify_json_format(capsys):
    code, out = run_cli(capsys, "verify", "relations", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(item["pass"] for item in data)
    assert {"check_name", "pass", "witness"} <= set(data[0])


def test_verify_small_sweeps_pass(capsys):
    for target in ("periodicity", "closedform", "corollary"):
        code, _ = run_cli(capsys, "verify", target, "--pmax", "15")
        assert code == 0, target


def test_verify_bad_pmax_is_usage_error(capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", "periodicity", "--pmax", "5")
    assert code == 2
    assert "error" in out
    # 0 is a bad bound for every sweep, not a request for the default
    for target in ("welldefined", "periodicity", "closedform", "corollary", "all"):
        code, out = run_cli(capsys, "verify", target, "--pmax", "0")
        assert code == 2, target
        assert out.startswith("error: "), target
    # relations and kernel have no bound to set
    for target in ("relations", "kernel"):
        code, out = run_cli(capsys, "verify", target, "--pmax", "48")
        assert code == 2, target
        assert out == (f"error: {target} takes no --pmax; only welldefined, periodicity, "
                       "closedform, corollary and all do\n")
    # the bound is checked against every sweep before the first suite runs

    def must_not_run():
        raise AssertionError("a suite ran before the bound was checked")

    monkeypatch.setattr(rep, "verify_relations", must_not_run)
    code, out = run_cli(capsys, "verify", "all", "--pmax", "5")
    assert code == 2
    assert out == "error: p_max must be between 13 and 120\n"


def test_verify_failure_exits_1(capsys, monkeypatch):
    bad = Report("welldefined", (Check("forced failure", "synthetic"),))
    monkeypatch.setattr(invariant, "verify_well_defined", lambda **kw: bad)
    code, out = run_cli(capsys, "verify", "welldefined")
    assert code == 1
    assert "FAIL" in out


def _corrupt_construction(monkeypatch):
    """w*rho(S) with one composite entry plus one, behind fresh caches: a
    cached table or state sum would bypass the self-check."""
    rows = [list(row) for row in rep._s_numerator().rows]
    rows[0][6] = rows[0][6] + ONE
    monkeypatch.setattr(rep, "_s_numerator", lambda: rep.CycloMatrix(rows))
    for module, name in ((rep, "_construction"), (rep, "_eigenbasis"),
                         (invariant, "_literal_state_sum")):
        cached = getattr(module, name)
        monkeypatch.setattr(module, name, lru_cache(cached.cache_info().maxsize)(cached.__wrapped__))


def test_verify_reports_a_failed_self_check(capsys, monkeypatch):
    # the library raises on a table that failed its self-check; verify
    # reports each suite that reads one as a failure and exits 1
    _corrupt_construction(monkeypatch)
    code, out = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 1
    passed = {}
    for check in json.loads(out):
        suite = check["check_name"].split(":")[0]
        passed[suite] = passed.get(suite, True) and check["pass"]
    assert passed == {"relations": False, "unitarity": False, "kernel": False,
                      "welldefined": False, "periodicity": False, "closedform": False,
                      "corollary": True}
    code, out = run_cli(capsys, "verify", "kernel")
    assert code == 1
    first, last = out.splitlines()
    assert first.startswith("FAIL  kernel: ") and "self-check of w*rho(S) failed" in first
    assert last == "kernel: 0/1 checks passed"


def test_compute_and_table_report_a_failed_self_check(capsys, monkeypatch):
    # every command that reads a table ends in one error line and exit 1
    _corrupt_construction(monkeypatch)
    for argv in (("compute", "5", "1"), ("table", "--pmax", "5")):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        (line,) = out.splitlines()
        assert line.startswith("error: self-check of w*rho(S) failed: ")
    # homotopy reads no table
    assert run_cli(capsys, "homotopy", "7", "1", "7", "2") == (0, "L(7,1) ~ L(7,2): true\n")


def test_homotopy_output(capsys):
    code, out = run_cli(capsys, "homotopy", "7", "1", "7", "2")
    assert code == 0
    assert "true" in out
    code, out = run_cli(capsys, "homotopy", "5", "1", "7", "1")
    assert code == 0
    assert "false" in out


def test_homotopy_negative_p(capsys):
    code, out = run_cli(capsys, "homotopy", "-7", "-1", "7", "1")
    assert (code, out) == (0, "L(-7,-1) ~ L(7,1): true\n")
    code, out = run_cli(capsys, "homotopy", "-7", "1", "7", "1")
    assert (code, out) == (0, "L(-7,1) ~ L(7,1): false\n")


def test_homotopy_zero_p(capsys):
    code, out = run_cli(capsys, "homotopy", "0", "1", "0", "-1")
    assert (code, out) == (0, "L(0,1) ~ L(0,-1): true\n")


def test_homotopy_non_coprime(capsys):
    code, _ = run_cli(capsys, "homotopy", "4", "2", "7", "1")
    assert code == 2


def test_compute_negative_p(capsys):
    code, out = run_cli(capsys, "compute", "-3", "1")
    assert code == 0
    assert "Z(L(-3,1))" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "e6lens", "compute", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4.732050808" in proc.stdout


def test_table_byte_identical_across_processes():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "e6lens", "table", "--pmax", "7", "--format", "csv"],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].startswith(b"p,q,exact")


# --precision is no option: every value prints the same doubles at any precision
USAGE_ERRORS = [[], ["bogus"], ["verify", "nonsense"],
                ["compute", "5", "1", "--precision", "64"],
                ["table", "--precision", "64"]]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


# the parser is built once per process, so no call may see another's arguments
@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_after_a_successful_call(capsys, argv):
    assert run_cli(capsys, "compute", "5", "1")[0] == 0
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert cli._build_parser() is cli._build_parser()


def test_table_defaults_after_a_call_with_options(capsys):
    assert run_cli(capsys, "table", "--pmax", "5", "--format", "csv")[0] == 0
    code, out = run_cli(capsys, "table")
    assert code == 0
    assert out == invariant.table_text(invariant.sweep_table(12))
