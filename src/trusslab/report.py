"""Verification reports: named checks with exact residuals."""

from __future__ import annotations

from typing import Optional, Tuple

from .linmap import LinMap
from .record import Record


class CheckResult(Record):
    """One verified law.

    `name` is a stable slug, `anchor` states the law as a formula.  For
    matrix laws a failing check carries the exact residual (lhs - rhs);
    set-level checks carry a witness string in `detail` instead.
    """

    name: str
    anchor: str
    passed: bool
    residual: Optional[LinMap] = None
    detail: str = ""

    def renamed(self, name: str) -> "CheckResult":
        """The same check under another name."""
        return CheckResult(name, self.anchor, self.passed, self.residual, self.detail)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "pass": self.passed,
            "residual_zero": self.passed,
        }


class VerificationReport(Record):
    subject: str
    checks: Tuple[CheckResult, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def named(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def prefixed(self, prefix: str) -> Tuple[CheckResult, ...]:
        """The checks named under prefix, the same objects when it is empty."""
        if not prefix:
            return self.checks
        return tuple(c.renamed(prefix + c.name) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def text_lines(self, verbose: bool = False) -> list:
        lines = [f"{self.subject}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.anchor}")
            if not c.passed and c.detail:
                lines.append(f"         witness: {c.detail}")
            if not c.passed and c.residual is not None and verbose:
                for row in c.residual.rows():
                    lines.append("         " + " ".join(c.residual.field.fmt(v) for v in row))
        return lines

    def __str__(self) -> str:
        return "\n".join(self.text_lines())


def equation(name: str, anchor: str, lhs: LinMap, rhs: LinMap) -> CheckResult:
    """Check an exact matrix identity; a failure carries lhs - rhs."""
    if lhs == rhs:
        return CheckResult(name, anchor, True)
    # lhs - rhs raises on unequal fields or shapes.
    return CheckResult(name, anchor, False, lhs - rhs)


def condition(name: str, anchor: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, anchor, ok, None, "" if ok else detail)
