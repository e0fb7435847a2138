"""Quick self-test of the benchmark harness, at a tiny size.

    python3 bench/run.py --selftest

Runs every workload, traced and untraced, through the same code as a
benchmark run, and requires error rate 0 and exactly the metric names of
BENCHMARK.json.  Then hands deliberately wrong outputs to each checker
and requires that each is counted as a failure.  Exit code 0 when all
pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import run
import workloads

TINY = {
    "sweep": {"pmax": 12},
    "bigp": {"bits": 64, "ops": 5},
    "verify": {"pmax": 13},
}


def _cli(argv):
    from e6lens import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _checker_cases():
    """(name, (attempted, failed, first) from a checker, expected failures)."""
    from e6lens import ONE

    pairs = workloads.coprime_pairs(5)
    csv, _ = _cli(["table", "--pmax", "5", "--format", "csv"])
    lines = csv.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("5,1,"))
    fields = lines[row].split(",")
    wrong = lines[:row] + [",".join(fields[:2] + [ONE.to_text()] + fields[3:])] + lines[row + 1:]
    garbled = lines[:row] + [",".join(fields[:2] + ["x"] + fields[3:])] + lines[row + 1:]
    yield "csv as printed", workloads.check_table_csv(pairs, csv), 0
    yield "csv wrong value", workloads.check_table_csv(pairs, "\n".join(wrong)), 1
    yield "csv unparsable value", workloads.check_table_csv(pairs, "\n".join(garbled)), 1
    yield "csv missing row", workloads.check_table_csv(pairs, "\n".join(lines[:-1])), 1

    out, code = _cli(["compute", "5", "1"])
    exact = out.splitlines()[0]
    bad = out.replace(exact, exact.split("exact: ")[0] + "exact: " + ONE.to_text())
    yield "compute as printed", workloads.check_compute(5, 1, out, code), 0
    yield "compute wrong value", workloads.check_compute(5, 1, bad, 0), 1
    yield "compute exit code", workloads.check_compute(5, 1, out, 2), 1

    checks = [{"check_name": "a", "pass": True, "witness": None}] * 3
    failing = checks[:2] + [{"check_name": "b", "pass": False, "witness": "w"}]
    yield "verify all pass", workloads.check_verify_json(json.dumps(checks), 0), 0
    yield "verify one false", workloads.check_verify_json(json.dumps(failing), 1), 2
    yield "verify exit code", workloads.check_verify_json(json.dumps(checks), 1), 1
    yield "verify not json", workloads.check_verify_json("oops", 0), 2
    yield "verify not a list", workloads.check_verify_json('{"pass": true}', 0), 2


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            info, result = run.run(workload, 1, 0, trace, size=TINY[workload])
            label = f"{workload} trace={trace}"
            metrics = result["metrics"]
            if not result["correct"] or info["error_rate"] != 0:
                problems.append(f"{label}: {info['first_failure']}")
            if set(metrics) != names[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ names[trace])}")
            if not all(math.isfinite(m["value"]) for m in metrics.values()):
                problems.append(f"{label}: a metric is not a finite number")
            print(f"selftest {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for name, (attempted, failed, first), expected in _checker_cases():
        if failed != expected or attempted < 1:
            problems.append(f"checker {name}: {failed} failed of {attempted}, "
                            f"expected {expected} ({first})")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0
