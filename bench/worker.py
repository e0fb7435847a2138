"""One measured process of the benchmark: a fresh interpreter per pass.

    python3 bench/worker.py '<json spec>'

Modes (the spec's "mode"):

setup   time `import e6lens` plus the one-time construction behind
        `rep.rho_s()` and `modular.gamma12_generators()`.
run     time the same set-up, then time `e6lens.cli.main` in-process: one
        call for sweep and verify; for bigp one `compute` call per op of
        the seed's fixed list, each timed on its own, starting at op
        `offset` and wrapping round.  Outputs are checked after the timed
        region.
trace   the same work, made by calling the public functions in the order
        the CLI calls them, with a span around each call (see Tracer).

The last line of stdout is one JSON object for the parent (bench/run.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

PRECISION = 64  # the CLI's default --precision


def _setup():
    from e6lens import modular, rep

    rep.rho_s()
    modular.gamma12_generators()


def mode_setup(spec):
    t0 = time.perf_counter()
    import e6lens  # noqa: F401  (the import is what is timed)

    _setup()
    return {"setup_s": time.perf_counter() - t0}


def _timed_main(argv):
    from e6lens import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, counted by the check
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, buf.getvalue(), code


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def mode_run(spec):
    t0 = time.perf_counter()
    _setup()
    setup_s = time.perf_counter() - t0
    workload, size = spec["workload"], spec["size"]
    if workload != "bigp":
        dt, out, code = _timed_main(workloads.argv_for(workload, size))
        rss = _rss_mb()
        if workload == "sweep":
            pairs = workloads.coprime_pairs(size["pmax"])
            attempted, failed, first = workloads.check_table_csv(pairs, out)
            if code != 0:
                failed, first = failed + 1, first or f"exit code {code}"
        else:
            attempted, failed, first = workloads.check_verify_json(out, code)
        return {"setup_s": setup_s, "op_s": [dt], "rss_mb": rss, "attempted": attempted,
                "failed": failed, "first_failure": first, "digest": _digest(out)}

    # bigp: the seed's first size["ops"] computes, starting at op `offset`
    # and wrapping round; op_s is returned in stream order
    pairs = workloads.bigp_pairs(spec["seed"], size["bits"], size["ops"])
    n, offset = len(pairs), spec.get("offset", 0)
    results = [None] * n
    for i in range(offset, offset + n):
        p, q = pairs[i % n]
        results[i % n] = _timed_main(["compute", str(p), str(q)])
    rss = _rss_mb()
    attempted, failed, first = workloads.check_computes(
        (p, q, out, code) for (p, q), (_, out, code) in zip(pairs, results))
    return {"setup_s": setup_s, "op_s": [r[0] for r in results], "rss_mb": rss,
            "attempted": attempted, "failed": failed, "first_failure": first,
            "digest": _digest("".join(r[1] for r in results))}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def begin(self, name):
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-2]])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def summary(self):
        """Per span name: call count, summed self time and each call's
        duration.  Self time is the duration minus that of direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"count": 0, "self_ns": 0, "dur_ns": []})
            s["count"] += 1
            s["self_ns"] += end - start - child_ns[i]
            s["dur_ns"].append(end - start)
        return out

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _span_cost_ns(n=20000):
    """Time of one empty span, for the tracing cost of a pass."""
    tr = Tracer()
    t0 = time.perf_counter_ns()
    for _ in range(n):
        tr.call("empty", int)
    return (time.perf_counter_ns() - t0) / n


def _fmt(x):
    return f"{float(x):.10g}"


def _csv_row(p, q, text, re, im, agrees):
    return f"{p},{q},{text},{_fmt(re)},{_fmt(im)},{str(agrees).lower()}"


def _compute_text(space, text, surd, re, im):
    fr, fi = _fmt(re), _fmt(im)
    fl = fr if im == 0 else (f"{fr} + {fi}i" if im > 0 else f"{fr} - {fi[1:]}i")
    return (f"Z({space}) exact: {text}\nZ({space}) surd:  {surd}\n"
            f"Z({space}) float: {fl}\n")


def _state_sum_spans(tr, p, q):
    """state_sum's steps, one span each; returns (word, value)."""
    from e6lens import GLOBAL_INDEX
    from e6lens.modular import cofactors, decompose, lens_matrix
    from e6lens.rep import rho_entry_11

    a, b = tr.call("modular.cofactors", cofactors, p, q)
    m = tr.call("modular.lens_matrix", lens_matrix, p, q, a, b)
    word = tr.call("modular.decompose", decompose, m)
    entry = tr.call("rep.rho_entry_11", rho_entry_11, word)
    return word, tr.call("cyclotomic.mul_w", operator.mul, GLOBAL_INDEX, entry)


def _trace_sweep(tr, pairs):
    # the path of `table --format csv`: sweep_table, then table_csv
    from e6lens import LensSpace, closed_form

    words, lines = [], ["p,q,exact,float_re,float_im,agrees"]
    tr.begin("cli.table")
    for p, q in pairs:
        tr.begin("op")
        space = LensSpace(p, q)
        word, value = _state_sum_spans(tr, p, q)
        closed = tr.call("invariant.closed_form", closed_form, space)
        re, im = tr.call("cyclotomic.approx", value.approx, PRECISION)
        text = tr.call("cyclotomic.to_text", value.to_text)
        lines.append(tr.call("cli.format", _csv_row, p, q, text, re, im, value == closed))
        tr.end()
        words.append(word)
    out = "\n".join(lines) + "\n"
    tr.end()
    return words, out


def _trace_bigp(tr, pairs):
    # the path of `compute p q`, once per op
    from e6lens import LensSpace

    words, outs = [], []
    tr.begin("cli.compute")
    for p, q in pairs:
        tr.begin("op")
        space = LensSpace(p, q)
        word, value = _state_sum_spans(tr, p, q)
        re, im = tr.call("cyclotomic.approx", value.approx, PRECISION)
        text = tr.call("cyclotomic.to_text", value.to_text)
        surd = tr.call("cyclotomic.surd_str", value.surd_str)
        outs.append(tr.call("cli.format", _compute_text, space, text, surd, re, im))
        tr.end()
        words.append(word)
    tr.end()
    return words, outs


def _trace_verify(tr, pmax):
    # the suites in the order of `verify all`, then the JSON report
    from e6lens import invariant, rep
    from e6lens.report import merge

    suites = (
        ("rep.verify_relations", rep.verify_relations, None),
        ("rep.verify_unitary", rep.verify_unitary, None),
        ("rep.verify_kernel_generators", rep.verify_kernel_generators, None),
        ("invariant.verify_well_defined", invariant.verify_well_defined, 48),
        ("invariant.verify_periodicity", invariant.verify_periodicity, 48),
        ("invariant.verify_closed_form", invariant.verify_closed_form, 48),
        ("invariant.verify_corollary", invariant.verify_corollary, 60),
    )
    tr.begin("cli.verify")
    reports = [
        tr.call(name, fn) if default is None else tr.call(name, fn, p_max=pmax or default)
        for name, fn, default in suites
    ]
    out = tr.call("report.to_json", lambda: merge("all", reports).to_json()) + "\n"
    tr.end()
    return out


def mode_trace(spec):
    _setup()
    workload, size = spec["workload"], spec["size"]
    tr = Tracer()
    words = []
    if workload == "sweep":
        pairs = workloads.coprime_pairs(size["pmax"])
        words, out = _trace_sweep(tr, pairs)
        attempted, failed, first = workloads.check_table_csv(pairs, out)
    elif workload == "bigp":
        pairs = workloads.bigp_pairs(spec["seed"], size["bits"], size["ops"])
        words, outs = _trace_bigp(tr, pairs)
        attempted, failed, first = workloads.check_computes(
            (p, q, o, 0) for (p, q), o in zip(pairs, outs))
        out = "".join(outs)
    else:
        out = _trace_verify(tr, size["pmax"])
        attempted, failed, first = workloads.check_verify_json(out, 0)
    tr.dump(spec["dump"])
    return {
        "spans": tr.summary(),
        "span_count": len(tr.spans),
        "span_cost_ns": _span_cost_ns(),
        "ops": len(words),
        "tokens": sum(len(w) for w in words),
        "s_steps": sum(w.s_count() for w in words),
        "attempted": attempted,
        "failed": failed,
        "first_failure": first,
        "digest": _digest(out),
    }


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(MODES[spec["mode"]](spec)))
