"""Pass/fail reports shared by the verification sweeps."""

from __future__ import annotations

import json
from typing import NamedTuple


class Check(NamedTuple):
    """A named check; it fails exactly when it carries a witness."""

    name: str
    witness: str | None = None

    @property
    def passed(self):
        return self.witness is None


class Report(NamedTuple):
    title: str
    checks: tuple[Check, ...]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return json.dumps(
            [
                {"check_name": c.name, "pass": c.passed, "witness": c.witness}
                for c in self.checks
            ]
        )

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = "" if c.passed else f"  [{c.witness}]"
            out.append(f"{status}  {self.title}: {c.name}{suffix}")
        return out


def merge(title, reports):
    return Report(title, tuple(Check(f"{r.title}: {c.name}", c.witness)
                               for r in reports for c in r.checks))
