"""Command-line interface.

One command per invocation, reproducible by construction: every verdict
is a function of the input files, the bounds, and the seed, and JSON
reports are emitted with sorted keys so identical runs are byte-identical
(in the bytes of `json.dumps(report, sort_keys=True, indent=2)`).
Exit codes: 0 the check passed, 1 the check produced a finding (not well
formed, projection failed, not live, unsound/incomplete, flawed class,
bound exhausted), 2 the input could not be parsed or the usage was wrong.

Each command returns its outcome: its report's fields, its text lines,
and whether it passed.  `main` alone writes it, reports a bound met
anywhere in a command as BoundExhausted, and picks the exit code.

File formats: `.gt` files hold one global type, `.mps` files hold one
session environment (`role : type` lines); both allow `//` comments.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import projector, runtime, tracelang, verifier
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


class _Parser(argparse.ArgumentParser):
    """Raises each usage error for `main` to report, where argparse would exit."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


_INPUT_ERRORS = (
    argparse.ArgumentError,
    ParseError,
    SelfMessageError,
    DuplicateRoleError,
    UnguardedRecursionError,
    NotSessionTypeError,
    OSError,
)


def _word_json(word) -> list[str]:
    # a letter's str is its concrete syntax, as print_global_type writes it
    return list(map(str, word))


def _fmt_word(texts: list[str]) -> str:
    """A word given by the texts of its letters (see `_word_json`)."""
    return " ; ".join(texts) if texts else "(empty)"


class _Encoded(dict):
    """The JSON text of each string looked up, encoded on its first lookup."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = encode_basestring_ascii(text)
        return encoded


def _json(report: dict) -> str:
    """`report` as `json.dumps(report, sort_keys=True, indent=2)` writes it,
    byte for byte, without the pure-Python encoder that an indent selects.
    It holds what reports hold: strings, ints, booleans, None, lists,
    tuples and dicts keyed by strings."""
    out: list[str] = []
    _write(report, "\n", _Encoded(), out)
    return "".join(out)


def _write(value, newline: str, texts: _Encoded, out: list[str]) -> None:
    """Append the JSON text of `value` to `out`, each of its lines after the
    first starting with `newline` (a line break and the value's indent).
    The strings in lists are looked up in `texts`, so each is encoded once
    per report; a list of strings is written with one join of their texts,
    and so is each item of a list of non-empty such lists (a listing of
    words)."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, text = newline + "  ", texts.__getitem__
        try:
            out.append("[" + inner + ("," + inner).join(map(text, value)) + newline + "]")
            return
        except TypeError:  # an item that is not a string
            pass
        if all([item and isinstance(item, (list, tuple)) for item in value]):
            deeper = inner + "  "
            separator = "," + deeper
            try:
                words = [separator.join(map(text, item)) for item in value]
            except TypeError:  # an item of an item that is not a string
                pass
            else:  # the words' brackets go into the join between them
                between = inner + "]," + inner + "[" + deeper
                out.extend(("[" + inner + "[" + deeper, between.join(words), inner + "]" + newline + "]"))
                return
        lead, between = "[" + inner, "," + inner
        for item in value:
            out.append(lead)
            lead = between
            _write(item, inner, texts, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead, between = "{" + inner, "," + inner
        for key in sorted(value):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            lead = between
            _write(value[key], inner, texts, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _projection_failed(exc: projector.ProjectionError, detailed: bool = False):
    """The outcome of the failed projection `exc`: its kind, and its detail
    and location when `detailed`; the text names all three."""
    fields = {"projected": False, "error": exc.kind}
    if detailed:
        fields.update(detail=exc.detail, location=None if exc.location is None else print_global_type(exc.location))
    where = (f"at: {print_global_type(location)}" for location in [exc.location] if location is not None)
    return fields, chain([f"ProjectionError: {exc.kind}", f"detail: {exc.detail}"], where), False


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


def check(path, dot):
    """Decide well-formedness of the global type in PATH."""
    g = _load_global(path)
    if dot:
        _dump_dot(tracelang.compile_traces(g), dot)
    verdict = tracelang.well_formed(g)
    if verdict:
        return {"well_formed": True}, ["WellFormed"], True
    witness = _word_json(verdict.witness)
    return (
        {
            "well_formed": False,
            "witness": witness,
            "position": verdict.position,
        },
        [
            "NotWellFormed",
            f"witness: {_fmt_word(witness)}",
            f"swap at position: {verdict.position}",
        ],
        False,
    )


def project(path, budget):
    """Project the global type in PATH onto each participant."""
    g = _load_global(path)
    try:
        env = projector.project_top(g, budget=budget)
    except projector.ProjectionError as exc:
        return _projection_failed(exc, detailed=True)
    text = print_session_env(env)
    return (
        {
            "projected": True,
            "environment": {r: line.split(" : ", 1)[1] for r, line in zip(sorted(env), text.splitlines())},
        },
        [text],
        True,
    )


def simulate(path, trace_count, length_bound, buf_bound, depth_bound):
    """Run the session environment in PATH and report liveness, the number
    of traces up to the length bound, and the first of them.  The traces
    are counted on the session's trace automaton, not enumerated: only the
    sample printed is built.  They are counted on the shuffle of the parts
    of one `runtime.explore_parts`, whose subset automaton is the product
    of theirs."""
    env = _load_env(path)
    bound = length_bound or 2 * len(env) + 8
    verdict, parts = runtime.explore_parts(runtime.Session(env, buf_bound), depth_bound)
    name = type(verdict).__name__
    report: dict = {
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
    count, samples = tracelang.count_traces(tracelang.shuffle_automata(*parts.values()), bound, trace_count)
    report["traces"] = samples
    report["trace_count"] = count
    lines.append(f"traces up to length {bound}: {count}")
    more = [f"  ... ({count - trace_count} more; raise --traces to list them)"] if count > trace_count else []
    return report, chain(lines, (f"  {_fmt_word(w)}" for w in samples), more), isinstance(verdict, runtime.Live)


def verify(gt_path, env_path=None, *, max_len, buf_bound, depth_bound, projection_budget):
    """Check that an environment implements the global type in GT_PATH.

    With ENV_PATH the environment is read from file, and --budget is a
    usage error; otherwise the global type is projected first."""
    if env_path is not None and projection_budget is not None:
        raise argparse.ArgumentError(None, "--budget is read only when ENV_PATH is omitted")
    g = _load_global(gt_path)
    bound = max_len or default_max_len(g)
    if env_path is not None:
        env = _load_env(env_path)
    else:
        try:
            env = projector.project_top(g, budget=projection_budget or projector.DEFAULT_AND_BUDGET)
        except projector.ProjectionError as exc:
            return _projection_failed(exc)
    report = verifier.check_preorder(g, env, bound, buf_bound, depth_bound)
    payload = {
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
    return payload, lines, bool(report)


def classify(path, max_len, buf_bound, depth_bound, budget):
    """Diagnose why the global type in PATH resists projection."""
    g = _load_global(path)
    outcome = verifier.classify(g, max_len, buf_bound, depth_bound, budget=budget)
    return (
        {
            "category": outcome.category,
            "detail": outcome.detail,
        },
        [outcome.category, outcome.detail],
        outcome.category == verifier.PROJECTABLE,
    )


def trace(path, dot, max_len):
    """List the traces of the global type in PATH up to the length bound,
    shortest first, then in the order of their letters' texts.  The list
    comes out of one breadth-first pass over the trace automaton already
    in that order, and a listing that visits more than 100,000 prefixes,
    or holds more than 100,000 traces or letters, is reported as
    BoundExhausted."""
    g = _load_global(path)
    bound = max_len or default_max_len(g)
    auto = tracelang.compile_traces(g)
    if dot:
        _dump_dot(auto, dot)
    words = tracelang.list_traces(auto, bound)
    return (
        {
            "max_len": bound,
            "count": len(words),
            "traces": words,
        },
        chain([f"{len(words)} trace(s) up to length {bound}"], (f"  {_fmt_word(w)}" for w in words)),
        True,
    )


def crosscheck(samples, max_size, role_count, star_depth, seed, buf_bound, depth_bound):
    """Cross-check projection soundness/completeness/liveness on random
    global types."""
    report = verifier.cross_check_theorems(
        samples, seed, max_size, role_count, star_depth, buf_bound, depth_bound
    )
    violations = report["violations"]
    payload = {
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
    return payload, lines, not violations


# The parameters of the commands: name -> (option, lower bound, default, help);
# `main` rejects a value below the lower bound.
_PARAMETERS = {
    "dot": ("--dot", None, None, "Write the trace automaton in DOT format."),
    "max_len": ("--max-len", 1, None, "Trace length bound (default: 2·interactions + 4)."),
    "length_bound": ("--max-len", 1, None, "Trace length bound (default: 2·roles + 8)."),
    "buf_bound": ("--buf-bound", 1, runtime.DEFAULT_BUF_BOUND, "Buffer capacity per channel (default: %(default)s)."),
    "depth_bound": ("--depth", 1, runtime.DEFAULT_DEPTH_BOUND, "Configuration exploration bound (default: %(default)s)."),
    "budget": ("--budget", 1, projector.DEFAULT_AND_BUDGET, "Terms the unordered-composition rewrite search visits, not the candidates tried (default: %(default)s)."),
    "projection_budget": ("--budget", 1, None, f"As for project, without ENV_PATH only (default: {projector.DEFAULT_AND_BUDGET})."),
    "trace_count": ("--traces", 0, 10, "How many sample traces to print (default: %(default)s)."),
    "samples": ("--samples", 0, 200, "Number of random global types (default: %(default)s)."),
    "max_size": ("--max-size", 1, 8, "Interactions per sample (default: %(default)s)."),
    "role_count": ("--roles", 2, 4, "Roles per sample (default: %(default)s)."),
    "star_depth": ("--star-depth", 0, 1, "Star nesting per sample (default: %(default)s)."),
    "seed": ("--seed", None, 0, "Seed of the first sample; sample i uses seed + i (default: %(default)s)."),
}

_COMMANDS = (check, project, simulate, verify, classify, trace, crosscheck)


def _parser() -> _Parser:
    """The parser of the command line.  A command takes the options its parameters
    name in `_PARAMETERS`, then `--json`; the others are PATHs, optional when they
    default to None."""
    parser = _Parser(prog="mpst", description="Parse, check, project, simulate, and verify multiparty protocols.", add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for function in _COMMANDS:
        summary = function.__doc__.split(".")[0] + "."
        command = commands.add_parser(function.__name__, help=summary, description=function.__doc__, add_help=False, allow_abbrev=False)
        command.set_defaults(function=function)
        for name, parameter in inspect.signature(function).parameters.items():
            if name not in _PARAMETERS:
                command.add_argument(name, metavar=name.upper(), nargs=None if parameter.default is parameter.empty else "?")
                continue
            flag, _, default, text = _PARAMETERS[name]
            # --dot names a file, the others take integers
            kind = {"metavar": "FILE"} if name == "dot" else {"metavar": "N", "type": int, "default": default}
            command.add_argument(flag, dest=name, help=text, **kind)
        command.add_argument("--json", dest="as_json", action="store_true", help="Emit a JSON report.")
        command.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


_PARSER = _parser()


def main() -> None:
    # trace counts are exact, and a count may have more digits than Python
    # converts to text by default (a limit Python has had since 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        arguments = vars(_PARSER.parse_args(sys.argv[1:]))
        for name, (flag, low, _, _) in _PARAMETERS.items():
            value = arguments.get(name)
            if value is not None and low is not None and value < low:
                raise argparse.ArgumentError(None, f"Invalid value for '{flag}': {value} is not in the range x>={low}.")
        command, as_json = arguments.pop("function"), arguments.pop("as_json")
        # every report starts with the command and what it read: its PATH,
        # or the seed of crosscheck's samples
        head = {"command": command.__name__}
        if command is crosscheck:
            head["seed"] = arguments["seed"]
        else:
            head["input"] = arguments["gt_path" if command is verify else "path"]
        try:
            fields, lines, passed = command(**arguments)
        except tracelang.BudgetExceededError as exc:
            # a search that ran out of budget: an enumeration, a product, a
            # subset automaton, or the resolution of a session type
            fields, lines, passed = {"error": "BoundExhausted", "detail": str(exc)}, [f"BoundExhausted: {exc}"], False
        print(_json({"schema": 1, **head, **fields}) if as_json else "\n".join(lines))
        sys.exit(0 if passed else 1)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
