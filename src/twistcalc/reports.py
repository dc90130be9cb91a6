"""Machine-readable verification reports.

A report is an ordered list of named checks, each with a pass/fail status,
a canonical rendering of the residual and a wall-clock timing.  A suite
passes iff all non-informational checks pass.
"""

from __future__ import annotations

import time


class Check:
    __slots__ = ("name", "passed", "residual", "millis", "info")

    def __init__(self, name, passed, residual, millis, info=False):
        self.name = name
        self.passed = passed
        self.residual = residual
        self.millis = millis
        self.info = info

    def status(self):
        if self.info:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def _render(residual):
    if residual is None:
        return "0"
    if isinstance(residual, str):
        return residual
    if isinstance(residual, bool):
        return "0" if residual else "nonzero"
    if hasattr(residual, "to_text"):
        return residual.to_text()
    return str(residual)


def _is_clean(residual):
    if residual is None or residual is True:
        return True
    if residual is False:
        return False
    if isinstance(residual, str):
        return residual == "0"
    if hasattr(residual, "is_zero"):
        return bool(residual.is_zero)
    return not residual


class Report:
    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    @property
    def passed(self):
        return all(c.passed for c in self.checks if not c.info)

    def run(self, name, fn):
        """Time fn; its return value is the residual (zero/True means pass)."""
        t0 = time.perf_counter()
        residual = fn()
        ms = (time.perf_counter() - t0) * 1000.0
        ok = _is_clean(residual)
        self.checks.append(Check(name, ok, "0" if ok else _render(residual), ms))
        return ok

    def note(self, name, text):
        """Informational entry that never fails the suite."""
        self.checks.append(Check(name, True, text, 0.0, info=True))

    def extend(self, other):
        for c in other.checks:
            self.checks.append(Check("%s/%s" % (other.suite, c.name),
                                     c.passed, c.residual, c.millis, c.info))

    def format_text(self):
        lines = ["suite %s" % self.suite]
        for c in self.checks:
            lines.append("  [%s] %-48s %8.1f ms%s"
                         % (c.status(), c.name, c.millis,
                            "" if c.passed and not c.info else "  residual: " + c.residual))
        lines.append("suite %s: %s" % (self.suite, "PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def format_kv(self):
        lines = []
        for c in self.checks:
            lines.append("suite=%s check=%s status=%s residual=%s millis=%.1f"
                         % (self.suite, c.name.replace(" ", "_"), c.status(),
                            c.residual.replace(" ", "") or "0", c.millis))
        lines.append("suite=%s status=%s" % (self.suite, "PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def __str__(self):
        return self.format_text()
