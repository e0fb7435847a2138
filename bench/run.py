"""Benchmark of the e6lens command line, end to end and layer by layer.

    python3 bench/run.py --workload {sweep,bigp,verify} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --selftest

Run it from anywhere; it measures the sources in ../src next to this
directory, with the standard library only.  Every pass runs in a fresh
interpreter (bench/worker.py), one process and one thread, closed loop.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass (see BENCHMARK.json and bench/README.md).  The last line
of stdout is the result object; the line before it records the run
environment, the workload's input properties and sample counts.  Exit
code 2 if the sources are missing, 1 if a pass dies or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_PROBES = 6  # set-up only interpreters per run, beside the passes
MIN_PASSES = {"sweep": 3, "bigp": 2, "verify": 3}
PASS_TIMEOUT_S = 150
SPAN_DIR = os.path.join(ROOT, ".bench_out")

# Span names of the traced passes, reported on every workload (zero where
# the workload's CLI path does not make that call).
OP_SPANS = (
    "modular.cofactors",
    "modular.lens_matrix",
    "modular.decompose",
    "rep.rho_entry_11",
    "cyclotomic.mul_w",
    "invariant.closed_form",
    "cyclotomic.approx",
    "cyclotomic.to_text",
    "cyclotomic.surd_str",
    "cli.format",
)
SUITE_SPANS = (
    "rep.verify_relations",
    "rep.verify_unitary",
    "rep.verify_kernel_generators",
    "invariant.verify_well_defined",
    "invariant.verify_periodicity",
    "invariant.verify_closed_form",
    "invariant.verify_corollary",
    "report.to_json",
)
ROOT_SPANS = ("cli.table", "cli.compute", "cli.verify")


class PassFailed(RuntimeError):
    pass


def worker(spec, timeout=PASS_TIMEOUT_S):
    """Run one pass in a fresh interpreter; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{spec['mode']} pass timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{spec['mode']} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit():
    """HEAD of the enclosing checkout, read from .git; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _percentile(values, pct):
    """The inclusive `pct` percentile; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seed, seconds, size):
    """End-to-end metrics of one run, with tracing off.

    A run is a series of passes, each a fresh interpreter making the whole
    workload once.  Every op (one `cli.main` call) is timed in every pass
    and reported as its fastest time: a shared host's speed can drift by
    tens of percent over seconds, and the fastest of a few passes spread
    over the run is what stays put from run to run (bench/README.md).  Passes start while the
    next one is expected to end within `seconds`, at least MIN_PASSES."""
    spec = {"mode": "run", "workload": workload, "size": size, "seed": seed}
    setup = [worker({"mode": "setup"})["setup_s"] for _ in range(SETUP_PROBES // 2)]
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES[workload] or (
            (time.perf_counter() - t_start) * (len(passes) + 1) / len(passes) <= seconds):
        # bigp: each pass starts half-way round the op list from the last
        # one, so an op's passes lie one whole pass apart in time
        spec["offset"] = len(passes) % 2 * size.get("ops", 0) // 2
        passes.append(worker(spec))
    setup += [worker({"mode": "setup"})["setup_s"] for _ in range(SETUP_PROBES // 2)]
    setup += [p["setup_s"] for p in passes]
    best = [min(times) for times in zip(*(p["op_s"] for p in passes))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(best), "s"),
        "op_ms_p50": (1000 * statistics.median(best), "ms"),
        "op_ms_p90": (1000 * _percentile(best, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    samples = {"setup": len(setup), "passes": len(passes), "ops_per_pass": len(best)}
    n_ops = len(best) if workload == "bigp" else 0
    return metrics, passes, samples, n_ops


def measure_traced(workload, seed, seconds, size):
    """Per-layer metrics: untraced and traced passes, alternating.  The
    raw spans of the last traced pass are written to SPAN_DIR."""
    run = {"mode": "run", "workload": workload, "size": size, "seed": seed}
    trace = {"mode": "trace", "workload": workload, "size": size, "seed": seed,
             "dump": os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.json")}
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        untraced.append(worker(run))
        traced.append(worker(trace))

    spans = {}
    for t in traced:
        for name, s in t["spans"].items():
            agg = spans.setdefault(name, {"count": 0, "self_ns": 0, "dur_ns": []})
            agg["count"] += s["count"]
            agg["self_ns"] += s["self_ns"]
            agg["dur_ns"] += s["dur_ns"]
    root = next(spans[n] for n in ROOT_SPANS if n in spans)
    root_ns = sum(root["dur_ns"])
    layer_ns = sum(spans[n]["self_ns"] for n in OP_SPANS + SUITE_SPANS if n in spans)
    wall_untraced = statistics.median(sum(u["op_s"]) for u in untraced)
    wall_traced = statistics.median(root["dur_ns"]) / 1e9

    metrics = {}
    zero = {"count": 0, "self_ns": 0, "dur_ns": [0]}
    for name in OP_SPANS:
        s = spans.get(name, zero)
        metrics[f"{name}.us_p50"] = (statistics.median(s["dur_ns"]) / 1e3, "us")
        metrics[f"{name}.self_s"] = (s["self_ns"] / 1e9 / len(traced), "s")
        metrics[f"{name}.share"] = (s["self_ns"] / root_ns, "ratio")
    for name in SUITE_SPANS:
        s = spans.get(name, zero)
        metrics[f"{name}.s"] = (s["self_ns"] / 1e9 / len(traced), "s")
        metrics[f"{name}.share"] = (s["self_ns"] / root_ns, "ratio")
    ops = sum(t["ops"] for t in traced)
    s_steps = sum(t["s_steps"] for t in traced)
    rho = spans.get("rep.rho_entry_11", zero)
    metrics.update({
        "rep.rho_entry_11.us_per_s_step": (rho["self_ns"] / 1e3 / s_steps if s_steps else 0.0, "us"),
        "modular.word_tokens_mean": (sum(t["tokens"] for t in traced) / ops if ops else 0.0, "count"),
        "modular.s_count_mean": (s_steps / ops if ops else 0.0, "count"),
        "trace.untraced_wall_s": (wall_untraced, "s"),
        "trace.traced_wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "trace.span_cost_s": (statistics.median(
            t["span_count"] * t["span_cost_ns"] / 1e9 for t in traced), "s"),
        "trace.layer_share": (layer_ns / root_ns, "ratio"),
    })
    samples = {"untraced_passes": len(untraced), "traced_passes": len(traced),
               "traced_ops": ops}
    # the traced pass must print exactly what the CLI prints
    digests = {p["digest"] for p in untraced + traced}
    fidelity = {"attempted": len(traced), "failed": 0 if len(digests) == 1 else len(traced),
                "first_failure": None if len(digests) == 1 else "traced output differs from cli.main"}
    return metrics, untraced + traced + [fidelity], samples, size["ops"] if workload == "bigp" else 0


def run(workload, seed, seconds, trace, size=None):
    """Measure one run; returns (info line object, result object)."""
    size = size or workloads.FULL_SIZE[workload]
    if trace:
        metrics, checked, samples, n_ops = measure_traced(workload, seed, seconds, size)
    else:
        metrics, checked, samples, n_ops = measure(workload, seed, seconds, size)
    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    first = next((c["first_failure"] for c in checked if c["first_failure"]), None)
    props = workloads.input_properties(
        workloads.input_pairs(workload, size, ops=n_ops, seed=seed))
    if trace:
        metrics["workload.pairs"] = (props["workload.pairs"], "count")
        for key in ("workload.repeat_pq_share", "workload.repeat_residue_share"):
            metrics[key] = (props[key], "ratio")
    info = {
        "env": environment(workload, seed, seconds, trace),
        "inputs": props,
        "samples": samples,
        "error_rate": failed / attempted,
        "first_failure": first,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at a tiny size and test the checkers")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "e6lens", "cli.py")):
        print(f"error: no e6lens sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
