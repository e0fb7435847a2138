"""Command line front end: compute one invariant, sweep a table, run the
verification suites, or test homotopy equivalence.

Exit codes: 0 success / all checks pass, 1 verification failure or a table
that failed its self-check, 2 usage error (argparse or bad arguments such as
non-coprime p, q, or a --pmax outside the library's bounds).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import invariant, rep
from .report import Check, Report, merge

# Every verification suite as (target, module, suite name), in the order of
# `verify all`.  Suites are looked up by name when they run; the targets in
# invariant.MIN_PMAX are the sweeps, which take --pmax.
_SUITES = (
    ("relations", rep, "verify_relations"),
    ("relations", rep, "verify_unitary"),
    ("kernel", rep, "verify_kernel_generators"),
    ("welldefined", invariant, "verify_well_defined"),
    ("periodicity", invariant, "verify_periodicity"),
    ("closedform", invariant, "verify_closed_form"),
    ("corollary", invariant, "verify_corollary"),
)
VERIFY_TARGETS = (*dict.fromkeys(target for target, _, _ in _SUITES), "all")

# Every table format by name, in the order of --help; each formatter returns its text.
_TABLE_FORMATS = {"text": invariant.table_text, "json": invariant.table_json,
                  "csv": invariant.table_csv}


# One parser per process: a build costs far more than a parse, which keeps no state.
@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="e6lens",
        description="E6 state sum invariants of lens spaces, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute Z(L(p,q))")
    c.add_argument("p", type=int)
    c.add_argument("q", type=int)
    c.set_defaults(run=_cmd_compute)

    t = sub.add_parser("table", help="sweep all coprime (p,q) with p <= pmax")
    t.add_argument("--pmax", type=int, default=12,
                   help=f"sweep bound (1..{invariant.MAX_PMAX}, default 12)")
    t.add_argument("--format", choices=_TABLE_FORMATS, default="text")
    t.set_defaults(run=_cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("target", type=str.lower, choices=VERIFY_TARGETS)
    v.add_argument("--pmax", type=int, default=None,
                   help=f"sweep bound, at most {invariant.MAX_PMAX}, at least "
                        f"{invariant.MIN_PMAX['periodicity']} for periodicity (defaults: "
                        "closedform/periodicity/welldefined 48, corollary 60)")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(run=_cmd_verify)

    h = sub.add_parser("homotopy", help="orientation-preserving homotopy test")
    h.add_argument("p", type=int)
    h.add_argument("q", type=int)
    h.add_argument("p2", type=int)
    h.add_argument("q2", type=int)
    h.set_defaults(run=_cmd_homotopy)

    return parser


def _cmd_compute(args, out):
    space = invariant.LensSpace(args.p, args.q)
    value = invariant.state_sum(space)
    label = f"Z({space})"  # two decimal ints, which a 1000-bit p makes costly
    print(f"{label} exact: {value.to_text()}", file=out)
    print(f"{label} surd:  {value.surd_str()}", file=out)
    print(f"{label} float: {invariant.format_complex(*value.approx())}", file=out)
    return 0


def _cmd_table(args, out):
    out.write(_TABLE_FORMATS[args.format](invariant.sweep_table(args.pmax)))
    return 0


def _cmd_verify(args, out):
    suites = [suite for suite in _SUITES if args.target in (suite[0], "all")]
    sweeps = [target for target, _, _ in suites if target in invariant.MIN_PMAX]
    bound = {}
    if args.pmax is not None:  # checked before any suite runs
        if not sweeps:
            raise ValueError(f"{args.target} takes no --pmax; only "
                             f"{', '.join(invariant.MIN_PMAX)} and all do")
        invariant.check_pmax(args.pmax, *sweeps)
        bound = {"p_max": args.pmax}
    reports = []
    for target, module, name in suites:
        try:
            reports.append(getattr(module, name)(**(bound if target in sweeps else {})))
        except RuntimeError as exc:  # its table failed a self-check: report that, not a traceback
            reports.append(Report(target, (Check(name, str(exc)),)))
    combined = merge(args.target, reports)
    if args.format == "json":
        out.write(combined.to_json())
        out.write("\n")
    else:
        for r in reports:
            for line in r.lines():
                print(line, file=out)
        total = len(combined.checks)
        failed = len(combined.failures())
        print(f"{args.target}: {total - failed}/{total} checks passed", file=out)
    return 0 if combined.passed else 1


def _cmd_homotopy(args, out):
    one = invariant.LensSpace(args.p, args.q)
    two = invariant.LensSpace(args.p2, args.q2)
    eq = invariant.homotopy_equivalent(one, two)
    print(f"{one} ~ {two}: {'true' if eq else 'false'}", file=out)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        return args.run(args, out)
    except (ValueError, RuntimeError) as exc:  # a rejected argument, or a failed self-check
        print(f"error: {exc}", file=out)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
