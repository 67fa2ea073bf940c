"""Shared test configuration.

Prints a one-line pass/fail verdict per acceptance criterion at the end
of the run, derived from the outcomes of tests/test_acceptance.py.

`pyproject.toml` puts `src` on the path of the test process; the
`PYTHONPATH` set here puts it on the path of the `python -m mpst.cli`
processes the tests start, so a checkout runs its tests without
installing the package.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)

CRITERIA = {
    1: "sale choreography projects to the pinned seller/buyer environment",
    2: "starred protocol projects to the pinned recursive environment; session traces match global traces",
    3: "liveness verdicts for the three pinned environments, with replayable witness",
    4: "well-formedness verdicts, including the multi-sender join contrast with exact witness",
    5: "merge vectors and the expected algorithmic projection failure",
    6: "two-phase loop projects to the pinned recursive types and passes the bounded preorder",
    7: "the three flawed protocols classify as their expected categories",
    8: "random property suite: soundness, completeness, liveness on projectable samples",
    9: "trace compiler and well-formedness agree with brute-force oracles",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            m = _NODE_RE.search(getattr(report, "nodeid", ""))
            if m:
                results[int(m.group(1))] = outcome
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        outcome = results.get(num)
        if outcome is None:
            verdict = "NOT RUN"
        elif outcome == "passed":
            verdict = "PASS"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {CRITERIA[num]}")
