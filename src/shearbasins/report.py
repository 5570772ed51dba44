"""Check/report containers shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class CheckResult:
    name: str
    status: str
    defect: float | None = None
    tolerance: float | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def line(self) -> str:
        parts = [self.status.upper().ljust(4), self.name]
        if self.defect is not None:
            parts.append(f"defect={self.defect:.3e}")
        if self.tolerance is not None:
            parts.append(f"tol={self.tolerance:.1e}")
        if self.note:
            parts.append(f"({self.note})")
        return "  ".join(parts)


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(
        self,
        name: str,
        passed: bool,
        defect: float | None = None,
        tolerance: float | None = None,
        note: str = "",
        status: str | None = None,
    ) -> CheckResult:
        result = CheckResult(name, status or (PASS if passed else FAIL), defect, tolerance, note)
        self.checks.append(result)
        return result

    def extend(self, prefix: str, other: Report) -> None:
        """Append each of ``other``'s rows as ``prefix.name``, then its notes."""
        self.checks.extend(replace(c, name=f"{prefix}.{c.name}") for c in other.checks)
        self.notes.extend(other.notes)

    def __getitem__(self, name: str) -> CheckResult:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "defect": c.defect,
                    "tolerance": c.tolerance,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        lines.extend(c.line() for c in self.checks)
        lines.extend(f"NOTE  {n}" for n in self.notes)
        lines.append(f"result: {'all checks pass' if self.passed else 'FAILURES present'}")
        return "\n".join(lines)
