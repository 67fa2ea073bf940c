"""Command-line interface.

One command per invocation, reproducible by construction: every verdict
is a function of the input files, the bounds, and the seed, and JSON
reports are emitted with sorted keys so identical runs are byte-identical.
Exit codes: 0 the check passed, 1 the check produced a finding (not well
formed, projection failed, not live, unsound/incomplete, flawed class,
bound exhausted), 2 the input could not be parsed or the usage was wrong.

File formats: `.gt` files hold one global type, `.mps` files hold one
session environment (`role : type` lines); both allow `//` comments.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click

from . import machine, projector, runtime, tracelang, verifier
from .syntax import (
    DuplicateRoleError,
    NotSessionTypeError,
    ParseError,
    SelfMessageError,
    UnguardedRecursionError,
    default_max_len,
    parse_global_type,
    parse_session_env,
    print_global_type,
    print_session_env,
)

_INPUT_ERRORS = (
    ParseError,
    SelfMessageError,
    DuplicateRoleError,
    UnguardedRecursionError,
    NotSessionTypeError,
    machine.MergeError,
    OSError,
)


def _fmt_location(location) -> str | None:
    return None if location is None else print_global_type(location)


def _word_json(word) -> list[str]:
    # a letter's str is its concrete syntax, as print_global_type writes it
    return list(map(str, word))


def _fmt_word(texts: list[str]) -> str:
    """A word given by the texts of its letters (see `_word_json`)."""
    return " ; ".join(texts) if texts else "(empty)"


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps({"schema": 1, **report}, sort_keys=True, indent=2))
    else:
        for line in lines:
            click.echo(line)


def _projection_failed(exc: projector.ProjectionError, fields: dict, as_json: bool, detailed: bool = False) -> None:
    """Report the failed projection `exc` with the caller's JSON `fields`, and
    its detail and location when `detailed` (the text names both); exit 1."""
    where = _fmt_location(exc.location) if detailed or not as_json else None
    report = {**fields, "projected": False, "error": exc.kind}
    if detailed:
        report.update(detail=exc.detail, location=where)
    lines = [f"ProjectionError: {exc.kind}", f"detail: {exc.detail}"]
    _emit(report, as_json, lines + ([f"at: {where}"] if where else []))
    sys.exit(1)


@contextmanager
def _bound_exhausted(report: dict, as_json: bool):
    """Report an enumeration that ran out of budget in the block as a
    BoundExhausted finding with the fields of `report`, and exit 1."""
    try:
        yield
    except tracelang.BudgetExceededError as exc:
        _emit({**report, "error": "BoundExhausted", "detail": str(exc)}, as_json, [f"BoundExhausted: {exc}"])
        sys.exit(1)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_global(path: str):
    return parse_global_type(_read(path))


def _load_env(path: str):
    return parse_session_env(_read(path))


def _dump_dot(automaton: tracelang.TraceAutomaton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(automaton.to_dot())


_POSITIVE = click.IntRange(min=1)

# The options shared by several commands; each command attaches only those
# it reads (see `_options`).
_OPTIONS = {
    "max_len": click.option("--max-len", type=_POSITIVE, default=None, help="Trace length bound (default: 2·interactions + 4)."),
    "buf_bound": click.option("--buf-bound", type=_POSITIVE, default=runtime.DEFAULT_BUF_BOUND, show_default=True, help="Buffer capacity per channel."),
    "depth_bound": click.option("--depth", "depth_bound", type=_POSITIVE, default=runtime.DEFAULT_DEPTH_BOUND, show_default=True, help="Configuration exploration bound."),
    "budget": click.option("--budget", type=_POSITIVE, default=projector.DEFAULT_AND_BUDGET, show_default=True, help="Terms the unordered-composition rewrite search visits (not the candidates tried)."),
    "as_json": click.option("--json", "as_json", is_flag=True, help="Emit a JSON report."),
}


def _options(*names: str):
    """Attach the named shared options, then --json, to a command."""

    def attach(cmd):
        for name in reversed((*names, "as_json")):
            cmd = _OPTIONS[name](cmd)
        return cmd

    return attach


@click.group()
def cli() -> None:
    """Parse, check, project, simulate, and verify multiparty protocols."""


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.option("--dot", type=click.Path(dir_okay=False), default=None, help="Write the trace automaton in DOT format.")
@_options()
def check(path, dot, as_json):
    """Decide well-formedness of the global type in PATH."""
    g = _load_global(path)
    if dot:
        _dump_dot(tracelang.compile_traces(g), dot)
    verdict = tracelang.well_formed(g)
    if verdict:
        _emit(
            {"command": "check", "input": path, "well_formed": True},
            as_json,
            ["WellFormed"],
        )
        sys.exit(0)
    witness = _word_json(verdict.witness)
    _emit(
        {
            "command": "check",
            "input": path,
            "well_formed": False,
            "witness": witness,
            "position": verdict.position,
        },
        as_json,
        [
            "NotWellFormed",
            f"witness: {_fmt_word(witness)}",
            f"swap at position: {verdict.position}",
        ],
    )
    sys.exit(1)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@_options("budget")
def project(path, budget, as_json):
    """Project the global type in PATH onto each participant."""
    g = _load_global(path)
    try:
        env = projector.project_top(g, budget=budget)
    except projector.ProjectionError as exc:
        _projection_failed(exc, {"command": "project", "input": path}, as_json, detailed=True)
    text = print_session_env(env)
    _emit(
        {
            "command": "project",
            "input": path,
            "projected": True,
            "environment": {r: line.split(" : ", 1)[1] for r, line in zip(sorted(env), text.splitlines())},
        },
        as_json,
        [text],
    )
    sys.exit(0)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.option("--traces", "trace_count", type=click.IntRange(min=0), default=10, show_default=True, help="How many sample traces to print.")
@click.option("--max-len", type=_POSITIVE, default=None, help="Trace length bound (default: 2·roles + 8).")
@_options("buf_bound", "depth_bound")
def simulate(path, trace_count, max_len, buf_bound, depth_bound, as_json):
    """Run the session environment in PATH and report liveness, the number
    of traces up to the length bound, and the first of them.  The traces
    are counted on the session's trace automaton, not enumerated: only the
    sample printed is built."""
    env = _load_env(path)
    bound = max_len or 2 * len(env) + 8
    verdict, automaton = runtime.explore(env, buf_bound, depth_bound)
    name = type(verdict).__name__
    report: dict = {
        "command": "simulate",
        "input": path,
        "verdict": name,
        "max_len": bound,
        "buf_bound": buf_bound,
        "depth_bound": depth_bound,
    }
    lines = [name]
    if isinstance(verdict, runtime.NotLive):
        steps = len(verdict.witness) - 1
        report["witness_steps"] = steps
        lines.append(f"witness: {steps} step(s) to a configuration that cannot succeed")
    with _bound_exhausted({"command": "simulate", "input": path}, as_json):
        count, samples = tracelang.count_traces(automaton, bound, trace_count)
    report["traces"] = samples
    report["trace_count"] = count
    lines.append(f"traces up to length {bound}: {count}")
    if not as_json:
        lines.extend(f"  {_fmt_word(w)}" for w in samples)
    if count > trace_count:
        lines.append(f"  ... ({count - trace_count} more; raise --traces to list them)")
    _emit(report, as_json, lines)
    sys.exit(0 if isinstance(verdict, runtime.Live) else 1)


@cli.command()
@click.argument("gt_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.argument("env_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True), required=False)
@_options("max_len", "buf_bound", "depth_bound", "budget")
def verify(gt_path, env_path, max_len, buf_bound, depth_bound, budget, as_json):
    """Check that an environment implements the global type in GT_PATH.

    With ENV_PATH the environment is read from file; otherwise the global
    type is projected first."""
    g = _load_global(gt_path)
    if env_path:
        env = _load_env(env_path)
    else:
        try:
            env = projector.project_top(g, budget=budget)
        except projector.ProjectionError as exc:
            _projection_failed(exc, {"command": "verify", "input": gt_path}, as_json)
    bound = max_len or default_max_len(g)
    with _bound_exhausted({"command": "verify", "input": gt_path}, as_json):
        report = verifier.check_preorder(g, env, bound, buf_bound, depth_bound)
    payload = {
        "command": "verify",
        "input": gt_path,
        "environment_input": env_path,
        "sound": report.sound,
        "complete": report.complete,
        "liveness": report.liveness,
        "max_len": report.max_len,
        "buf_bound": report.buf_bound,
        "basis": report.basis,
        "sound_counterexample": None
        if report.sound_counterexample is None
        else _word_json(report.sound_counterexample),
        "completeness_gap": None
        if report.completeness_gap is None
        else _word_json(report.completeness_gap),
    }
    lines = [
        f"sound: {'yes' if report.sound else 'no'}",
        f"complete: {'yes' if report.complete else 'no'}",
        f"liveness: {report.liveness}",
        f"bounds: max_len={report.max_len} buf_bound={report.buf_bound} ({report.basis})",
    ]
    if report.sound_counterexample is not None:
        lines.append(f"session trace outside the global type: {_fmt_word(payload['sound_counterexample'])}")
    if report.completeness_gap is not None:
        lines.append(f"global trace not covered: {_fmt_word(payload['completeness_gap'])}")
    _emit(payload, as_json, lines)
    sys.exit(0 if report else 1)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@_options("max_len", "buf_bound", "depth_bound", "budget")
def classify(path, max_len, buf_bound, depth_bound, budget, as_json):
    """Diagnose why the global type in PATH resists projection."""
    g = _load_global(path)
    outcome = verifier.classify(g, max_len, buf_bound, depth_bound, budget=budget)
    _emit(
        {
            "command": "classify",
            "input": path,
            "category": outcome.category,
            "detail": outcome.detail,
        },
        as_json,
        [outcome.category, outcome.detail],
    )
    sys.exit(0 if outcome.category == verifier.PROJECTABLE else 1)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.option("--dot", type=click.Path(dir_okay=False), default=None, help="Write the trace automaton in DOT format.")
@_options("max_len")
def trace(path, dot, max_len, as_json):
    """List the traces of the global type in PATH up to the length bound,
    shortest first, then in the order of their letters' texts.  The list
    comes out of one breadth-first pass over the trace automaton already
    in that order, and a listing that visits more than 100,000 prefixes,
    or holds more than 100,000 traces or letters, is reported as
    BoundExhausted."""
    g = _load_global(path)
    auto = tracelang.compile_traces(g)
    if dot:
        _dump_dot(auto, dot)
    bound = max_len or default_max_len(g)
    with _bound_exhausted({"command": "trace", "input": path}, as_json):
        words = tracelang.list_traces(auto, bound)
    _emit(
        {
            "command": "trace",
            "input": path,
            "max_len": bound,
            "count": len(words),
            "traces": words,
        },
        as_json,
        [f"{len(words)} trace(s) up to length {bound}"]
        + ([] if as_json else [f"  {_fmt_word(w)}" for w in words]),
    )
    sys.exit(0)


@cli.command()
@click.option("--samples", type=click.IntRange(min=0), default=200, show_default=True, help="Number of random global types.")
@click.option("--max-size", type=_POSITIVE, default=8, show_default=True, help="Interactions per sample.")
@click.option("--roles", "role_count", type=click.IntRange(min=2), default=4, show_default=True, help="Roles per sample.")
@click.option("--star-depth", type=click.IntRange(min=0), default=1, show_default=True, help="Star nesting per sample.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed of the first sample; sample i uses seed + i.")
@_options("buf_bound", "depth_bound")
def crosscheck(samples, max_size, role_count, star_depth, seed, buf_bound, depth_bound, as_json):
    """Cross-check projection soundness/completeness/liveness on random
    global types."""
    with _bound_exhausted({"command": "crosscheck", "seed": seed}, as_json):
        report = verifier.cross_check_theorems(
            samples, seed, max_size, role_count, star_depth, buf_bound, depth_bound
        )
    violations = report["violations"]
    payload = {
        "command": "crosscheck",
        "seed": seed,
        "samples": report["samples"],
        "well_formed": report["well_formed"],
        "projected": report["projected"],
        "checked": report["checked"],
        "violations": [
            {"sample": i, "kind": kind, "trace": None if w is None else _word_json(w)}
            for i, kind, w in violations
        ],
    }
    lines = [
        f"samples: {report['samples']}  well-formed: {report['well_formed']}"
        f"  projected: {report['projected']}  checked: {report['checked']}",
        f"violations: {len(violations)}",
    ]
    _emit(payload, as_json, lines)
    sys.exit(0 if not violations else 1)


def main() -> None:
    # trace counts are exact, and a count may have more digits than Python
    # converts to text by default (a limit Python has had since 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        cli(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except _INPUT_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except RecursionError:
        click.echo("error: input nests too deeply", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
