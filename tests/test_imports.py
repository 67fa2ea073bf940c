"""Every name a module of the package imports is used in that module,
every private function, class or method a module defines is used in
that module,
no memo table outlives the call that fills it, the package imports
nothing from outside the standard library, no call of `json` passes
an indent, which would select its pure-Python encoder, and neither the
verifier nor the command line explores a session whole or compiles a
type whole where the parts would do, or orders traces itself, the
runtime decides liveness in one function only, the projector
catches no bound, only the command line's `main` writes a report, the
verifier decides well-formedness only through `is_well_formed` and
compiles a type only to check environments against it,
no module walks a spine apart from the term or reads its binary view,
a term's equality and stored slots are defined once per language,
in the bases of `syntax`, whose term classes have no `__post_init__`, the trace compiler calls no constructor of a
global term, and no function refers to itself but those
that still recurse, listed to be rewritten off explicit stacks.

The import check covers `mpst/__init__.py` too: the package re-exports
nothing, so each name is imported from the module that defines it, and
importing one module loads only the modules it imports; the command
line imports a command's layers only when that command runs."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpst"
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# Each step imports one module in the same fresh interpreter and prints the
# `mpst` modules it added to `sys.modules`.
LOADS = """
import importlib, json, sys
loaded = set()
for name in ("mpst.syntax", "mpst.tracelang", "mpst.cli"):
    importlib.import_module(name)
    now = {m for m in sys.modules if m.split(".")[0] == "mpst"}
    print(json.dumps(sorted(now - loaded)))
    loaded = now
"""


def test_importing_a_module_loads_only_what_it_needs():
    environment = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", LOADS], capture_output=True, text=True, env=environment, check=True)
    syntax, tracelang, cli = map(json.loads, result.stdout.splitlines())
    assert syntax == ["mpst", "mpst.syntax"]
    assert tracelang == ["mpst.tracelang"]
    assert cli == ["mpst.cli"]


# Runs one command through `mpst.cli.main` in a fresh interpreter and
# prints the `mpst` modules loaded when it exits.
RUNS = """
import json, sys
from mpst import cli
sys.argv = ["mpst", *sys.argv[1:]]
try:
    cli.main()
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "mpst")))
"""


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("check", ["syntax", "tracelang"]),
        ("trace", ["syntax", "tracelang"]),
        ("simulate", ["machine", "runtime", "syntax", "tracelang"]),
        ("project", ["machine", "projector", "syntax", "tracelang"]),
        ("classify", ["machine", "projector", "runtime", "syntax", "tracelang", "verifier"]),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, loaded):
    path = tmp_path / ("env.mps" if command == "simulate" else "protocol.gt")
    path.write_text("p : q!a.end\nq : p?a.end\n" if command == "simulate" else "p -> q : a\n")
    environment = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", RUNS, command, str(path), "--json"], capture_output=True, text=True, env=environment, check=True
    )
    *report, modules = result.stdout.splitlines()
    assert json.loads("\n".join(report))["command"] == command
    assert json.loads(modules) == ["mpst", "mpst.cli", *(f"mpst.{m}" for m in loaded)]


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterator, Union\nimport re\nX = Union[int, str]\n"
    assert unused_imports(source) == ["Iterator (line 1)", "re (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_private_definitions(source: str) -> list[str]:
    """The `_`-prefixed module-level functions and classes, and the
    `_`-prefixed methods (dunders aside) of module-level classes, that
    nothing in the module outside their own body refers to: a function or
    class by name, a method as an attribute.  Methods are named
    `Class._method`, and the list is in source order."""
    tree = ast.parse(source)
    defined: list[tuple[str, ast.AST, bool]] = []  # (label, definition, is it a method)
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and node.name.startswith("_"):
            defined.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            defined += [
                (f"{node.name}.{m.name}", m, True)
                for m in node.body
                if isinstance(m, FUNCTIONS) and m.name.startswith("_") and not m.name.endswith("__")
            ]
    # every reference, as (name, is it an attribute, the definitions around it)
    references: list[tuple[str, bool, tuple]] = []
    work: list[tuple[ast.AST, tuple]] = [(tree, ())]
    while work:
        node, around = work.pop()
        if isinstance(node, ast.Name):
            references.append((node.id, False, around))
        elif isinstance(node, ast.Attribute):
            references.append((node.attr, True, around))
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            around += (node,)
        work += [(child, around) for child in ast.iter_child_nodes(node)]
    return [
        label
        for label, node, is_method in defined
        if not any(
            ref == node.name and is_attribute == is_method and node not in around
            for ref, is_attribute, around in references
        )
    ]


def test_the_check_sees_an_unused_private_definition():
    source = (
        "def _used(n):\n    return _Kept() if n else _used(n - 1)\n"
        "class _Kept:\n    pass\n"
        "def _dead():\n    return 1\n"
        "class _Gone:\n    pass\n"
        "def _loop(n):\n    return _loop(n)\n"
        "def public():\n    return _used(2)\n"
    )
    assert unused_private_definitions(source) == ["_dead", "_Gone", "_loop"]


def test_the_check_sees_an_unused_private_method():
    source = (
        "class Walker:\n"
        "    def __init__(self):\n        self._ready = self._start()\n"
        "    def _start(self):\n        return True\n"
        "    def _dead(self):\n        return self._start()\n"
        "    def _loop(self, n):\n        return self._loop(n)\n"
        "    def _named(self):\n        return 1\n"
        "    def walk(self, other):\n        return other._helper()\n"
        "    def _helper(self):\n        return _named()\n"
        "def _named():\n    return 2\n"
    )
    assert unused_private_definitions(source) == ["Walker._dead", "Walker._loop", "Walker._named"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    assert unused_private_definitions(path.read_text(encoding="utf-8")) == []


CACHE_DECORATORS = {"lru_cache", "cache"}
DICT_WRITERS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


def process_wide_memos(source: str) -> list[str]:
    """Memo tables that outlive the call that fills them: any use of
    `functools.lru_cache` or `functools.cache`, and module-level dicts that
    a function writes to."""
    tree = ast.parse(source)
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in CACHE_DECORATORS]
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"functools.{node.attr} (line {node.lineno})")
    tables: set[str] = set()
    for statement in tree.body:
        value = getattr(statement, "value", None)
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "defaultdict", "OrderedDict")
        )
        if is_dict and isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            tables |= {t.id for t in targets if isinstance(t, ast.Name)}
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                table = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DICT_WRITERS:
                table = node.func.value
            else:
                continue
            if isinstance(table, ast.Name) and table.id in tables:
                found.append(f"{table.id} (line {node.lineno})")
    return found


def test_the_check_sees_a_process_wide_memo():
    source = (
        "import functools\n"
        "from functools import cache, reduce\n"
        "_MEMO = {}\n"
        "_TABLE: dict = dict()\n"
        "_CONST = {'a': 1}\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n    _MEMO[x] = x\n    return _CONST[x]\n"
        "def g(x):\n    memo = {}\n    memo[x] = 1\n    return _TABLE.setdefault(x, memo)\n"
    )
    assert process_wide_memos(source) == [
        "cache (line 2)",
        "functools.lru_cache (line 6)",
        "_MEMO (line 8)",
        "_TABLE (line 13)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_memo_tables_live_for_one_call(path):
    assert process_wide_memos(path.read_text(encoding="utf-8")) == []


def non_standard_imports(source: str) -> list[str]:
    """The absolute imports of modules outside the standard library."""
    imports: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports.append((node.module, node.lineno))
    return [
        f"{name} (line {line})"
        for name, line in imports
        if name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_the_check_sees_a_non_standard_import():
    source = (
        "from __future__ import annotations\n"
        "import click\n"
        "import os.path, yaml.loader\n"
        "from . import syntax\n"
        "from .syntax import parse_global_type\n"
        "from collections import deque\n"
        "from hypothesis import given\n"
    )
    assert non_standard_imports(source) == ["click (line 2)", "yaml.loader (line 3)", "hypothesis (line 7)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert non_standard_imports(path.read_text(encoding="utf-8")) == []


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def indented_json_calls(source: str) -> list[str]:
    """Calls of `json.dump`, `json.dumps` or `json.JSONEncoder` (by any of
    these names, qualified or not) that pass `indent=`: with an indent,
    Python's `json` writes with its pure-Python encoder instead of the C one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in JSON_WRITERS and any(keyword.arg == "indent" for keyword in node.keywords):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_the_check_sees_an_indented_json_call():
    source = (
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps(x, sort_keys=True, indent=2)\n"
        "b = json.dumps(x, sort_keys=True)\n"
        "json.dump(x, fh, indent=None)\n"
        "c = dumps(x, indent=4)\n"
        "d = json.JSONEncoder(indent=1).encode(x)\n"
        "e = print(x, sep='')\n"
    )
    assert indented_json_calls(source) == ["dumps (line 3)", "dump (line 5)", "dumps (line 6)", "JSONEncoder (line 7)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_json_call_selects_the_pure_python_encoder(path):
    assert indented_json_calls(path.read_text(encoding="utf-8")) == []


def named(source: str, names: set[str], outside: str = "") -> list[str]:
    """Where `source` refers to one of `names`: as a name, an imported name
    or an attribute, in line order; with `outside`, only outside the body
    of the module-level function of that name."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for definition in tree.body
        if isinstance(definition, FUNCTIONS) and definition.name == outside
        for statement in definition.body
        for node in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_a_name():
    source = (
        "from .runtime import explore\n"
        "from . import tracelang\n"
        "v = explore(env)\n"
        "w = session.explore(9)\n"
        "x = tracelang.compile_traces(g)\n"
        "y = explore_parts(session, 9)\n"
        "z = 'explore'\n"
    )
    assert named(source, {"explore", "compile_traces"}) == [
        "explore (line 1)", "explore (line 3)", "explore (line 4)", "compile_traces (line 5)"
    ]


# The whole-session exploration and the whole-type compilation live behind
# `runtime.explore_parts` and `tracelang.compile_parts`.
WHOLE = {"cli.py": {"explore"}, "verifier.py": {"explore", "compile_traces"}}


@pytest.mark.parametrize("name", sorted(WHOLE))
def test_no_caller_falls_back_to_the_whole(name):
    assert named((PACKAGE / name).read_text(encoding="utf-8"), WHOLE[name]) == []


# The order in which traces are listed and picked lives in `tracelang`.
ORDERED = {"word_key", "enumerate_traces"}


@pytest.mark.parametrize("name", ["cli.py", "verifier.py"])
def test_the_trace_order_lives_in_tracelang(name):
    assert named((PACKAGE / name).read_text(encoding="utf-8"), ORDERED) == []


def test_the_check_sees_a_name_outside_its_owner():
    source = (
        "def _decide(s):\n    return _liveness(_can_reach(s))\n"
        "def explore(s):\n    return _decide(s), _liveness(s)\n"
        "def _can_reach(s):\n    return runtime._trace_automaton(s)\n"
        "class Session:\n    def _decide(self):\n        return _can_reach(self)\n"
    )
    assert named(source, {"_can_reach", "_liveness", "_trace_automaton"}, outside="_decide") == [
        "_liveness (line 4)", "_trace_automaton (line 6)", "_can_reach (line 9)"
    ]


# Whether a session, or a part of one, is live, and its trace automaton,
# are decided in one place: `runtime._decide`.
DECIDED = {"_can_reach", "_liveness", "_trace_automaton"}


def test_the_liveness_decision_lives_in_decide():
    assert named((PACKAGE / "runtime.py").read_text(encoding="utf-8"), DECIDED, outside="_decide") == []


# A command returns its outcome; `cli.main` alone writes it, turns a bound
# into a report and picks the exit code.
REPORT_WRITERS = {"exit", "print", "BudgetExceededError"}


def test_the_check_sees_a_report_written_outside_main():
    source = (
        "def _emit(report):\n    print(report)\n"
        "def check(path):\n    try:\n        _emit(path)\n"
        "    except tracelang.BudgetExceededError:\n        sys.exit(1)\n"
        "def trace(path):\n    return {}, [print_global_type(path)], True\n"
        "def main():\n    try:\n        print(check(p))\n"
        "    except BudgetExceededError:\n        pass\n    sys.exit(0)\n"
    )
    assert named(source, REPORT_WRITERS, outside="main") == [
        "print (line 2)", "BudgetExceededError (line 6)", "exit (line 7)"
    ]


def test_only_main_writes_a_report():
    assert named((PACKAGE / "cli.py").read_text(encoding="utf-8"), REPORT_WRITERS, outside="main") == []


# Whether a type is well formed is decided in `tracelang`, by one pass
# with the automata behind it (`is_well_formed`): the verifier never asks
# the swap diamonds itself, and compiles a type's role groups only to
# check environments against them, in `_checks`.
def calls_outside(source: str, names: set[str], outside: str) -> list[str]:
    """The calls in `source` of a function named in `names`, by its name
    or as an attribute, outside the body of the module-level function
    `outside`, in line order."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for definition in tree.body
        if isinstance(definition, FUNCTIONS) and definition.name == outside
        for node in ast.walk(definition)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_a_call_outside_its_owner():
    source = (
        "from .tracelang import compile_parts\n"
        "def _checks(g):\n    return compile_parts(g)\n"
        "def classify(g):\n    return all(map(swap_closed, compile_parts(g).values()))\n"
        "def crosscheck(g):\n    return tracelang.compile_parts(g), compile_parts\n"
    )
    assert calls_outside(source, {"compile_parts"}, outside="_checks") == [
        "compile_parts (line 5)", "compile_parts (line 7)"
    ]


def test_the_verifier_decides_well_formedness_through_one_pass():
    source = (PACKAGE / "verifier.py").read_text(encoding="utf-8")
    assert named(source, {"swap_closed", "_by_construction"}) == []
    assert calls_outside(source, {"compile_parts", "compile_traces"}, outside="_checks") == []



# The trace compiler builds automata and no terms: a loop compiles as a
# loop, not as a term that unfolds it, so rewriting terms stays in the
# modules that own it.
CONSTRUCTORS = {"GAction", "GSeq", "GBoth", "GEither", "GStar", "GKExit"}


def constructor_calls(source: str) -> list[str]:
    """The calls in `source` of a global-term constructor, by its name or
    as an attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CONSTRUCTORS:
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_a_constructor_call():
    source = (
        "from .syntax import GSeq, GStar\n"
        "def unfold(b, e):\n    return GSeq(GStar(b), e)\n"
        "def again(b):\n    return syntax.GKExit((b,), (b,))\n"
        "def kind(g):\n    return type(g) is GSeq or isinstance(g, GStar)\n"
    )
    assert constructor_calls(source) == ["GSeq (line 3)", "GStar (line 3)", "GKExit (line 5)"]


def test_the_trace_compiler_builds_no_term():
    assert constructor_calls((PACKAGE / "tracelang.py").read_text(encoding="utf-8")) == []

# A bound is a `tracelang.BudgetExceededError`, which is a `RuntimeError`.
BOUND_CATCHERS = {"BudgetExceededError", "RuntimeError", "Exception", "BaseException"}


def handlers_of_bounds(source: str) -> list[str]:
    """The `except` clauses of `source` that catch a bound: bare ones, and
    those naming one of `BOUND_CATCHERS`, alone or in a tuple, plain or
    qualified by a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"except (line {node.lineno})")
            continue
        for caught in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
            name = caught.attr if isinstance(caught, ast.Attribute) else getattr(caught, "id", None)
            if name in BOUND_CATCHERS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_the_check_sees_a_handler_of_bounds():
    source = (
        "try:\n    f()\nexcept ValueError:\n    pass\n"
        "try:\n    f()\nexcept (ProjectionError, tracelang.BudgetExceededError):\n    pass\n"
        "try:\n    f()\nexcept RuntimeError as exc:\n    pass\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\n"
    )
    assert handlers_of_bounds(source) == [
        "BudgetExceededError (line 7)", "RuntimeError (line 11)", "except (line 15)", "Exception (line 19)"
    ]


def test_the_projector_lets_every_bound_through():
    """No search or check of the projector reads a bound as a failure to
    project: a bound ends the projection and reaches the caller."""
    assert handlers_of_bounds((PACKAGE / "projector.py").read_text(encoding="utf-8")) == []


# A term's equality is its language base's, and its stored hash and kept
# machine are slots of the bases, not fields of each constructor.
EQUALITY_OWNERS = {"_GlobalTerm", "_SessionTerm"}
BASE_SLOTS = {"_hash", "_machine"}


def decorated_as_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "dataclass":
            return True
    return False


def identity_redefinitions(source: str) -> list[str]:
    """Where `source` defines term identity outside the language bases:
    an `__eq__` that a class other than `EQUALITY_OWNERS` assigns or
    defines in its body, or that is assigned as an attribute anywhere; and
    a dataclass field named in `BASE_SLOTS`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
                elif isinstance(statement, FUNCTIONS):
                    names = [statement.name]
                elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    names = [statement.target.id]
                else:
                    continue
                if "__eq__" in names and node.name not in EQUALITY_OWNERS:
                    found.append(f"{node.name}.__eq__ (line {statement.lineno})")
                if isinstance(statement, ast.AnnAssign) and decorated_as_dataclass(node):
                    found += [f"{node.name}.{n} (line {statement.lineno})" for n in names if n in BASE_SLOTS]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Attribute) and target.attr == "__eq__":
                    found.append(f"__eq__ (line {node.lineno})")
    return found


def test_the_check_sees_identity_outside_the_bases():
    source = (
        "class _GlobalTerm(_Term):\n    __eq__ = _same_global\n"
        "@dataclass(frozen=True)\nclass A(_GlobalTerm):\n    x: int\n    _hash: int = field(init=False)\n"
        "@dataclasses.dataclass\nclass B:\n    _machine: object\n    __eq__ = _same_session\n"
        "class C:\n    _hash: int\n    def __eq__(self, other):\n        return True\n"
        "D.__eq__ = _same_global\n"
    )
    assert identity_redefinitions(source) == [
        "A._hash (line 6)", "B._machine (line 9)", "B.__eq__ (line 10)", "C.__eq__ (line 13)", "__eq__ (line 15)"
    ]


def test_term_identity_lives_in_the_language_bases():
    assert identity_redefinitions((PACKAGE / "syntax.py").read_text(encoding="utf-8")) == []


def post_init_hooks(source: str) -> list[str]:
    """The classes of `source` that define or assign `__post_init__`,
    which a dataclass's generated `__init__` calls once it has written
    every field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, FUNCTIONS):
                    names = [statement.name]
                elif isinstance(statement, ast.Assign):
                    names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if "__post_init__" in names:
                    found.append(f"{node.name}.__post_init__ (line {statement.lineno})")
    return found


def test_the_check_sees_a_post_init_hook():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    def __post_init__(self):\n        pass\n"
        "class B(A):\n    __post_init__ = A.__post_init__\n"
        "class C:\n    def __init__(self, x):\n        self.x = x\n"
    )
    assert post_init_hooks(source) == ["A.__post_init__ (line 4)", "B.__post_init__ (line 7)"]


def test_term_constructors_write_their_own_slots():
    """Every term class of `syntax` that has fields writes them in its own
    `__init__`, once each, so none has a `__post_init__` that writes the
    stored hash or the other derived slots a second time."""
    assert post_init_hooks((PACKAGE / "syntax.py").read_text(encoding="utf-8")) == []


def self_references(source: str, module: str) -> list[str]:
    """The functions of `source` that refer to themselves, in source order:
    a function that names itself anywhere in its body, nested functions
    included, whether it calls itself or passes itself as a value, and a
    method that refers to `self.<its name>`.  Each is labelled
    `module.name`, with the names of the classes and functions around it."""
    found = []
    work: list[tuple[ast.AST, str, bool]] = [(ast.parse(source), f"{module}.", False)]
    while work:
        node, prefix, in_class = work.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                for inner in ast.walk(child):
                    if in_class:
                        refers = (
                            isinstance(inner, ast.Attribute)
                            and inner.attr == child.name
                            and isinstance(inner.value, ast.Name)
                            and inner.value.id == "self"
                        )
                    else:
                        refers = isinstance(inner, ast.Name) and inner.id == child.name
                    if refers:
                        found.append((child.lineno, prefix + child.name))
                        break
                work.append((child, f"{prefix}{child.name}.", False))
            elif isinstance(child, ast.ClassDef):
                work.append((child, f"{prefix}{child.name}.", True))
            else:
                work.append((child, prefix, in_class))
    return [label for _, label in sorted(found)]


def test_the_check_sees_a_function_that_refers_to_itself():
    source = (
        "def walk(t):\n    return [walk(k) for k in t]\n"
        "def spread(t):\n    return list(map(spread, t))\n"
        "def flat(t):\n    return [k for k in t]\n"
        "def outer(t):\n    def inner(k):\n        return inner(k - 1) if k else outer\n    return inner(t)\n"
        "class Walker:\n"
        "    def visit(self, t):\n        return [self.visit(k) for k in t]\n"
        "    def leave(self, t):\n        return other.leave(t) + leave(t)\n"
    )
    assert self_references(source, "m") == ["m.walk", "m.spread", "m.outer", "m.outer.inner", "m.Walker.visit"]


# A spine's operands are its immediate subterms: no module walks a spine
# apart from the term itself, and nothing in the package reads the binary
# view (`left`, `right`, or a `;`, `|` or `&` class pattern by position)
# that a spine keeps for reference semantics written over binary nodes.
SPINE_WALKS = {"spine", "_operands"}
BINARY_VIEW = {"left", "right"}
SPINE_CLASSES = {"GSeq", "GBoth", "GEither", "_Pair"}


def spine_walks_and_binary_reads(source: str) -> list[str]:
    """Where `source` defines, imports or names one of `SPINE_WALKS`,
    reads an attribute in `BINARY_VIEW`, or matches a class of
    `SPINE_CLASSES` by position, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS) and node.name in SPINE_WALKS:
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.alias) and node.name in SPINE_WALKS:
            found.append((node.lineno, f"import {node.name}"))
        elif isinstance(node, ast.Name) and node.id in SPINE_WALKS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BINARY_VIEW | SPINE_WALKS:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.MatchClass) and node.patterns:
            cls = node.cls.attr if isinstance(node.cls, ast.Attribute) else getattr(node.cls, "id", None)
            if cls in SPINE_CLASSES:
                found.append((node.lineno, f"case {cls}(..)"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_sees_a_spine_walk_or_a_binary_read():
    source = (
        "from .syntax import spine, subterms\n"
        "def _operands(g):\n    return syntax.spine(g) + [g.left, g.right]\n"
        "match g:\n    case GSeq(l, r):\n        pass\n"
        "    case GBoth(operands=ops) | GStar(b):\n        pass\n"
        "left, right = g.operands[0], g.operands[-1]\n"
        "_set_operands = _Pair.operands.__set__\n"
    )
    assert spine_walks_and_binary_reads(source) == [
        "import spine (line 1)",
        "def _operands (line 2)",
        ".left (line 3)",
        ".right (line 3)",
        ".spine (line 3)",
        "case GSeq(..) (line 5)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_walks_a_spine_apart_or_reads_its_binary_view(path):
    assert spine_walks_and_binary_reads(path.read_text(encoding="utf-8")) == []


# The functions that still recurse, one frame per level of their input.
# Rewrite each off an explicit stack, and take it off this list.
RECURSIVE = {
    "cli._write",
    "machine._Resolver.kind_keys",
    "machine._Resolver.target",
    "projector._project",
    "verifier._branches",
    "verifier.forced_join",
    "verifier._random_term",
}


def test_no_function_refers_to_itself_but_the_listed_ones():
    found = {label for path in SOURCES for label in self_references(path.read_text(encoding="utf-8"), path.stem)}
    assert found == RECURSIVE
