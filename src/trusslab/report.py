"""Verification reports: named checks with exact residuals."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

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
        """The same check under another name, itself under its own."""
        if name == self.name:
            return self
        return CheckResult(name, self.anchor, self.passed, self.residual, self.detail)


class VerificationReport(Record):
    """A subject and its checks in table order, each a CheckResult or a
    part (prefix, report) whose checks are named under prefix when read."""

    subject: str
    checks: Tuple[Union[CheckResult, Tuple[str, "VerificationReport"]], ...] = ()

    def named_checks(self, prefix: str = "") -> Iterator[Tuple[str, CheckResult]]:
        """(full name, check) for every check, in table order."""
        for entry in self.checks:
            if type(entry) is tuple:
                yield from entry[1].named_checks(prefix + entry[0])
            else:
                yield prefix + entry.name, entry

    @property
    def ok(self) -> bool:
        return all(c.passed for _, c in self.named_checks())

    def failures(self) -> Tuple[CheckResult, ...]:
        """The failing checks, each under its full name."""
        return tuple(c.renamed(name) for name, c in self.named_checks() if not c.passed)

    def named(self, name: str) -> CheckResult:
        for full, c in self.named_checks():
            if full == name:
                return c.renamed(name)
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.ok,
            "checks": [{"name": name, "anchor": c.anchor, "pass": c.passed, "residual_zero": c.passed}
                       for name, c in self.named_checks()],
        }

    def text_lines(self, verbose: bool = False) -> list:
        lines = [f"{self.subject}: {'PASS' if self.ok else 'FAIL'}"]
        for name, c in self.named_checks():
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {name}: {c.anchor}")
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
