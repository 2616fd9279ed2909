"""Violation reports produced by the exhaustive law checkers.

A checker scans every instance of a law and records each failure together
with the witnessing id tuple.  Reports are deterministic: witnesses appear
in scan order (ascending ids), capped at a fixed count so that a thoroughly
broken structure still produces a readable report.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_VIOLATION_CAP = 32


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple[int, ...]
    detail: str

    def render(self) -> str:
        ids = ", ".join(str(i) for i in self.witness)
        return f"{self.law} at ({ids}): {self.detail}"


@dataclass(frozen=True)
class Report:
    subject: str
    violations: tuple[Violation, ...] = ()
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return [f"{self.subject}: ok"]
        out = [f"{self.subject}: {len(self.violations)} violation(s)"
               + (" (truncated)" if self.truncated else "")]
        out.extend("  " + v.render() for v in self.violations)
        return out


class ReportBuilder:
    """Collects violations up to a cap; scanning may stop once full."""

    def __init__(self, subject: str, cap: int = DEFAULT_VIOLATION_CAP):
        self.subject = subject
        self.cap = cap
        self._violations: list[Violation] = []
        self._truncated = False

    def add(self, law: str, witness: tuple[int, ...], detail: str) -> None:
        if len(self._violations) >= self.cap:
            self._truncated = True
            return
        self._violations.append(Violation(law, witness, detail))

    def merge(self, prefix: str, report: Report,
              witness: tuple[int, ...] = ()) -> None:
        """Add each violation of a sub-check's report, its law after prefix
        and its witness after the given ids.  A truncated sub-report
        truncates this one too: its scan stopped at its cap, so the merged
        violations are not all there are."""
        for v in report.violations:
            self.add(prefix + v.law, witness + v.witness, v.detail)
        if report.truncated:
            self._truncated = True

    @property
    def full(self) -> bool:
        return len(self._violations) >= self.cap

    def report(self) -> Report:
        return Report(self.subject, tuple(self._violations), self._truncated)

