"""Per-layer spans and counters for the traced run.

`Tracer.install` wraps every public function and public method of the
seven `mpst` modules (but the UNTRACED subset steps), plus
`Session.__init__`, and rebinds every name that
refers to a wrapped function in any `mpst` module (the by-name imports such
as `verifier.session_traces` or `projector.includes`), so nested calls are
seen too.  A direct recursive call runs unwrapped: it belongs to the span
of its outermost call.  Nothing under `src/` changes.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends.  A module's self time is the time of its
spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "syntax", "tracelang", "machine", "projector", "runtime", "verifier")
EXTRA_METHODS = ("runtime.Session.__init__",)
# Subset steps, called per letter from inside tracelang only: a span each
# would make up nine tenths of all spans without moving time between layers.
UNTRACED = ("tracelang.TraceAutomaton.step", "tracelang.TraceAutomaton.epsilon_closure")

# Inclusive times reported per layer: metric name -> wrapped function.
TIMED = {
    "tracelang.includes_s": "tracelang.includes",
    "tracelang.enumerate_s": "tracelang.enumerate_traces",
    "tracelang.well_formed_s": "tracelang.well_formed",
    "projector.eliminate_and_s": "projector.eliminate_and",
    "verifier.check_sound_s": "verifier.check_sound",
    "verifier.check_complete_s": "verifier.check_complete",
    "verifier.classify_s": "verifier.classify",
}


def _text_bytes(args) -> int:
    return len(args[0].encode("utf-8")) if args and isinstance(args[0], str) else 0


def _counters(runtime_unknown, budget_error):
    """Work counts per wrapped function: name -> hook(counts, args, result, exc)."""

    def parse(c, args, result, exc):
        c["syntax.parse_calls"] += 1
        c["syntax.input_bytes"] += _text_bytes(args)

    def compile_traces(c, args, result, exc):
        c["tracelang.compile_calls"] += 1
        if exc is None:
            c["tracelang.nfa_states"] += result.n_states

    def enumerate_traces(c, args, result, exc):
        c["tracelang.enumerate_calls"] += 1
        if exc is None:
            c["tracelang.words"] += len(result)
        elif isinstance(exc, budget_error):
            c["tracelang.budget_exceeded"] += 1

    def type_machine(c, args, result, exc):
        c["machine.type_machine_calls"] += 1
        if exc is None:
            c["machine.machine_states"] += len(result.kinds)

    def eliminate_and(c, args, result, exc):
        if exc is None:
            c["projector.and_candidates"] += len(result)

    def project_alg(c, args, result, exc):
        c["projector.project_alg_calls"] += 1
        c["projector.project_alg_ok"] += exc is None

    def step(c, args, result, exc):
        c["runtime.step_calls"] += 1
        if exc is None:
            c["runtime.edges"] += len(result)

    def is_live(c, args, result, exc):
        c["runtime.unknown_verdicts"] += isinstance(result, runtime_unknown)

    def count(name):
        def hook(c, args, result, exc):
            c[name] += 1
        return hook

    return {
        "cli.main": count("cli.ops"),
        "syntax.parse_global_type": parse,
        "syntax.parse_session_env": parse,
        "syntax.parse_session_type": parse,
        "tracelang.compile_traces": compile_traces,
        "tracelang.TraceAutomaton.eliminate_epsilon": count("tracelang.eliminate_epsilon_calls"),
        "tracelang.TraceAutomaton.member": count("tracelang.member_calls"),
        "tracelang.includes": count("tracelang.includes_calls"),
        "tracelang.enumerate_traces": enumerate_traces,
        "machine.type_machine": type_machine,
        "machine.normalize_session_type": count("machine.normalize_calls"),
        "projector.eliminate_and": eliminate_and,
        "projector.project_alg": project_alg,
        "runtime.Session.__init__": count("runtime.sessions_built"),
        "runtime.Session.step": step,
        "runtime.is_live": is_live,
    }


COUNTS = (
    "cli.ops",
    "syntax.parse_calls",
    "syntax.input_bytes",
    "tracelang.compile_calls",
    "tracelang.nfa_states",
    "tracelang.eliminate_epsilon_calls",
    "tracelang.member_calls",
    "tracelang.includes_calls",
    "tracelang.enumerate_calls",
    "tracelang.words",
    "tracelang.budget_exceeded",
    "machine.type_machine_calls",
    "machine.machine_states",
    "machine.normalize_calls",
    "projector.and_candidates",
    "projector.project_alg_calls",
    "runtime.sessions_built",
    "runtime.step_calls",
    "runtime.edges",
    "runtime.unknown_verdicts",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[tuple[str, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            stack.append((name, index))
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if hook is not None:
                    hook(counts, args, result, exc)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"mpst.{m}") for m in MODULES}
        hooks = _counters(mods["runtime"].Unknown, mods["tracelang"].BudgetExceededError)
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, name, hooks.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        public = not meth.startswith("_") or name in EXTRA_METHODS
                        if inspect.isfunction(fn) and public and name not in UNTRACED:
                            self._set(obj, meth, self._wrap(fn, name, hooks.get(name)))
        for mod in [importlib.import_module("mpst"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\top\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer self times, inclusive times and counts of the spans and
        counts recorded since `mark`."""
        first, before = mark
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
        out |= {metric: 0.0 for metric in TIMED}
        timed = {fn: metric for metric, fn in TIMED.items()}
        for (name, start, end, _, _), inner in zip(spans, child):
            out[name.split(".", 1)[0] + ".self_s"] += end - start - inner
            if name in timed:
                out[timed[name]] += end - start
        counts = {name: self.counts[name] - before[name] for name in (*COUNTS, "projector.project_alg_ok")}
        out |= {name: counts[name] for name in COUNTS}
        calls = counts["projector.project_alg_calls"]
        out["projector.project_alg_ok_ratio"] = counts["projector.project_alg_ok"] / calls if calls else 0.0
        return out
