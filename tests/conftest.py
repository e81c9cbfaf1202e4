"""Shared pytest hooks: one summary line per acceptance criterion, with
the time its test calls took, and the one hypothesis profile of the
suite."""

from __future__ import annotations

import re

from hypothesis import settings

# every property test draws the same examples on every run, and a slow
# example is not a failure
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_TITLES = {
    1: "dark-state algebra",
    2: "displacement-overlap oracle",
    3: "exact-propagator agreement",
    4: "collective ground-state capture",
    5: "noise robustness and blockade",
    6: "ramp hysteresis",
    7: "criterion-simulation consistency",
    8: "emission statistics",
    9: "conservation and determinism",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcome: dict[int, dict] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            found = _PATTERN.search(getattr(rep, "nodeid", ""))
            if found is None or not hasattr(rep, "when"):
                continue  # deselected tests are listed as items, not reports
            n = int(found.group(1))
            slot = outcome.setdefault(n, {"passed": False, "bad": False,
                                          "seconds": None})
            call = rep.when == "call"
            if call:  # a criterion may have several tests
                slot["seconds"] = (slot["seconds"] or 0.0) + rep.duration
            if rep.failed or rep.skipped:
                slot["bad"] = True
            elif call and rep.passed:
                slot["passed"] = True
    if not outcome:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(outcome):
        ok = outcome[n]["passed"] and not outcome[n]["bad"]
        title = _TITLES.get(n, "unnamed")
        seconds = outcome[n]["seconds"]
        took = "" if seconds is None else f" ({seconds:.1f} s)"
        terminalreporter.write_line(
            f"ACCEPTANCE {n} ({title}): {'PASS' if ok else 'FAIL'}{took}")
