"""Running one op in-process and judging its outcome.

An op is one `mpst` command with `--json`, run through the real entry
point `mpst.cli.main` with its output captured.  The op fails when it
raises, exits 2, reports `BoundExhausted` or `Unknown`, runs past the limit,
or gives a verdict other than its known answer.  Whether an op ran past the
limit is decided on its time scaled to nominal speed (see run.py); a
wall-clock timer at BACKSTOP_S only stops an op that would never end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import sys
import time
from dataclasses import dataclass

# Per-op time limit at nominal speed.  The slowest op that passes today
# (`verify` on the 500-interaction chain) takes about 4 s.
LIMIT_S = 8.0
# Raw wall time after which an op is stopped, whatever the machine's speed.
BACKSTOP_S = 3 * LIMIT_S

OVER_LIMIT = "over the limit"


class OverLimit(BaseException):
    """Raised by the timer in the op that runs past the backstop.  A
    BaseException, so that no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OverLimit


@dataclass
class Outcome:
    elapsed: float
    exit: int | None
    stdout: str
    error: str | None  # the raised exception's type, or OVER_LIMIT

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()

    def report(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


class Runner:
    """Runs ops through `mpst.cli.main` in this process, one at a time."""

    def __init__(self):
        from mpst import cli

        self.cli = cli  # `main` is looked up per op, so a traced run sees its wrapper
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, argv: list[str]) -> Outcome:
        out = io.StringIO()
        code: int | None = None
        error = None
        saved = sys.argv
        sys.argv = ["mpst", *argv]
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BACKSTOP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                self.cli.main()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except OverLimit:
            error = OVER_LIMIT
        except Exception as exc:  # the op's failure is the measurement
            error = f"raise {type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            sys.argv = saved
        return Outcome(elapsed, code, out.getvalue(), error)


def _exit_for(command: str, report: dict) -> int:
    """The exit code the CLI promises for a finished report."""
    if command == "check":
        ok = report.get("well_formed") is True
    elif command == "project":
        ok = report.get("projected") is True
    elif command == "classify":
        ok = report.get("category") == "Projectable"
    elif command == "verify":
        ok = report.get("sound") is True and report.get("complete") is True
    elif command == "simulate":
        ok = report.get("verdict") == "Live"
    else:
        ok = True
    return 0 if ok else 1


def judge(op, outcome: Outcome) -> tuple[str | None, bool]:
    """(failure reason or None, whether the verdict is wrong)."""
    if outcome.error:
        return outcome.error, False
    if outcome.exit == 2:
        return "exit 2", False
    report = outcome.report()
    if not isinstance(report, dict):
        return "no JSON report", True
    if report.get("error") == "BoundExhausted":
        return "BoundExhausted", False
    if report.get("verdict") == "Unknown":
        return "Unknown", False
    wrong = [k for k, v in op.expect.items() if report.get(k) != v]
    if outcome.exit != _exit_for(op.command, report):
        wrong.append(f"exit {outcome.exit}")
    if wrong:
        return "wrong verdict: " + ", ".join(wrong), True
    return None, False
