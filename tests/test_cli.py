"""Command-line interface: exit codes, report formats, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from functools import reduce, wraps
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mpst import cli, machine, projector, runtime, tracelang, verifier
from mpst.syntax import (
    GBoth,
    Interaction,
    default_max_len,
    parse_global_type,
    parse_session_env,
    print_global_type,
    print_session_env,
    roles_of,
)
from test_machine import CORPUS_GLOBAL
from test_runtime import STARVING_OBSERVER, disjoint_unions, pairs_text
from test_syntax import global_texts, mutated
from test_tracelang import and_spines, loopk_text, pairs, reference_enumerate_traces, reference_first_uncovered, renamed

SALE = (
    "seller -> buyer : descr ;\n"
    "seller -> buyer : price ;\n"
    "(buyer -> seller : accept | buyer -> seller : quit)\n"
)
UNORDERED = "p -> q : a ; r -> s : b\n"
NEVER_ENDS = "p : rec X . q!a.X\nq : rec Y . p?a.Y\n"
LOOP_UNTIL_DONE = "p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)\n"


def run(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "mpst.cli", *args],
        capture_output=True,
        text=True,
    )


def run_in_process(monkeypatch, *args: str) -> int:
    """The exit code of `mpst.cli.main` run in this process on `args`."""
    monkeypatch.setattr(sys, "argv", ["mpst", *args])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    return stop.value.code


@pytest.fixture()
def sale(tmp_path):
    path = tmp_path / "sale.gt"
    path.write_text(SALE)
    return str(path)


def test_check_passes_on_well_formed_input(sale):
    result = run("check", sale)
    assert result.returncode == 0
    assert result.stdout.strip() == "WellFormed"


def test_check_reports_witness_on_hidden_ordering(tmp_path):
    path = tmp_path / "g.gt"
    path.write_text(UNORDERED)
    result = run("check", str(path))
    assert result.returncode == 1
    assert "NotWellFormed" in result.stdout
    assert "p -> q : a ; r -> s : b" in result.stdout
    assert "position: 0" in result.stdout


def test_parse_errors_exit_with_usage_code(tmp_path):
    path = tmp_path / "broken.gt"
    path.write_text("p -> q :\n")
    result = run("check", str(path))
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_missing_file_exits_with_usage_code(tmp_path):
    result = run("check", str(tmp_path / "absent.gt"))
    assert result.returncode == 2


ROLES = ("p", "q", "r", "s")
DEEP_INPUTS = {
    # each interaction is sent by the receiver of the one before
    "chain1500": " ;\n".join(f"{ROLES[i % 4]} -> {ROLES[(i + 1) % 4]} : m" for i in range(1500)),
    "nesting1200": "(" * 1200 + "p -> q : a" + ")" * 1200,
    "and1500": " & ".join(f"p -> q : m{i}" for i in range(1500)),
}
AND_REFUSED = "more than 100000 states in the shuffle product of an `&`"


@pytest.mark.parametrize("command", ["check", "project"])
@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_too_deep_inputs_exit_with_usage_code(tmp_path, name, command):
    """No input is too deep.  `check` settles the 1,500-operand `&` spine
    by its first and last letters, with no automaton (an `&` of letters is
    closed under swaps), and `project` serializes it off an explicit stack
    and projects the first serialization, a chain.  A long `;` spine is compiled and projected
    in one frame, so the 1,500-interaction chain decides.  Parentheses
    parse off an explicit stack, so 1,200 of them decide as the
    interaction they enclose does."""
    path = tmp_path / f"{name}.gt"
    path.write_text(DEEP_INPUTS[name])
    result = run(command, str(path))
    assert "Traceback" not in result.stderr
    if name == "and1500":
        if command == "check":
            assert (result.returncode, result.stdout, result.stderr) == (0, "WellFormed\n", "")
        else:
            assert (result.returncode, result.stderr) == (0, "")
            assert result.stdout.splitlines() == [
                f"{role} : {''.join(f'{io}m{i}.' for i in range(1500))}end" for role, io in (("p", "q!"), ("q", "p?"))
            ]
    elif name == "chain1500":
        assert (result.returncode, result.stderr) == (0, "")
        if command == "check":
            assert result.stdout == "WellFormed\n"
        else:
            assert result.stdout.splitlines() == [
                f"{role} : {rounds * 375}end"
                for role, rounds in zip(ROLES, ("q!m.s?m.", "p?m.r!m.", "q?m.s!m.", "r?m.p!m."))
            ]
    else:
        bare = tmp_path / "bare.gt"
        bare.write_text("p -> q : a")
        expected = run(command, str(bare))
        assert expected.returncode == 0
        assert (result.returncode, result.stdout, result.stderr) == (0, expected.stdout, "")


@pytest.mark.parametrize("command", ["trace", "classify", "verify"])
def test_a_long_and_spine_is_refused_unless_it_is_projected(tmp_path, command):
    """`trace` compiles the 1,500-operand `&` spine in one frame and
    reports its product as BoundExhausted; `verify` projects it first, to
    a chain, and then refuses the product the same way.  `classify`
    settles well-formedness by the spine's first and last letters and
    projects it, so it compiles nothing and answers Projectable."""
    path = tmp_path / "and1500.gt"
    path.write_text(DEEP_INPUTS["and1500"])
    result = run(command, str(path), "--json")
    if command == "classify":
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == {
            "category": "Projectable",
            "command": command,
            "detail": "well formed and projectable",
            "input": str(path),
            "schema": 1,
        }
        return
    assert (result.returncode, result.stderr) == (1, "")
    assert json.loads(result.stdout) == {
        "command": command,
        "detail": AND_REFUSED,
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


def right_nested(links: list[str]) -> str:
    """`a ; (b ; (c ; ...))`: the chain of `links` nested to the right."""
    return " ; (".join(links) + ")" * (len(links) - 1)


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_long_chains_decide_at_the_default_recursion_limit(tmp_path, monkeypatch, capsys, nesting):
    """A 1,500-interaction chain, parsed nested to the left (the parser's
    own associativity) or written nested to the right, gets the answers of
    a short chain from every command, in this process: `;` spines are
    compiled, projected and counted in one frame."""
    assert sys.getrecursionlimit() <= 1000
    text = DEEP_INPUTS["chain1500"]
    if nesting == "right":
        text = right_nested(text.split(" ;\n"))
    path = tmp_path / "chain.gt"
    path.write_text(text)
    reports = {}
    for command in ("check", "project", "trace", "classify", "verify"):
        assert run_in_process(monkeypatch, command, str(path), "--json") == 0
        out, err = capsys.readouterr()
        assert err == ""
        reports[command] = json.loads(out)
    assert reports["check"]["well_formed"] is True
    assert reports["project"]["projected"] is True
    assert sorted(reports["project"]["environment"]) == list(ROLES)
    assert reports["trace"]["count"] == 1
    assert len(reports["trace"]["traces"][0]) == 1500
    assert reports["classify"]["category"] == verifier.PROJECTABLE
    assert (reports["verify"]["sound"], reports["verify"]["complete"]) == (True, True)


@pytest.mark.parametrize("command", ["project"])
def test_stacked_stars_still_exit_with_usage_code(tmp_path, command):
    """Iteration is not a spine: each of 1,500 stacked `*` is a frame of
    the projector, so the input is reported as nesting too deeply, with
    no traceback."""
    path = tmp_path / "stars.gt"
    path.write_text("p -> q : a" + "*" * 1500)
    result = run(command, str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: input nests too deeply\n"


def alternation(levels: int) -> str:
    """`p -> q : a0 ; (p -> q : b0 | p -> q : c0 ; (...))`, `levels` deep:
    `;` and `|` alternate, so neither makes a spine."""
    text = "p -> q : z"
    for i in reversed(range(levels)):
        text = f"p -> q : a{i} ; (p -> q : b{i} | p -> q : c{i} ; ({text}))"
    return text


def in_process(monkeypatch, capsys, tmp_path, text: str, *args: str) -> tuple[int, dict]:
    """The exit code and the `--json` report of `mpst.cli.main` run in this
    process, at the default recursion limit, on `text` as a `.gt` file."""
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "deep.gt"
    path.write_text(text)
    code = run_in_process(monkeypatch, *args, str(path), "--json")
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


def test_deep_inputs_decide_where_terms_are_folded(tmp_path, monkeypatch, capsys):
    """The trace compiler and the relaxations of `classify` fold a term
    bottom-up off an explicit stack, so inputs nested a thousand deep
    decide in this process: 1,500 stacked `*` in `check` and `trace`, a
    600-level alternation in `check`, and `classify` of a type under 1,500
    stacked `*` that is not well formed, whose relaxations are compiled."""
    stars = "p -> q : a" + "*" * 1500
    code, report = in_process(monkeypatch, capsys, tmp_path, stars, "check")
    assert (code, report["well_formed"]) == (0, True)
    code, report = in_process(monkeypatch, capsys, tmp_path, stars, "trace")
    assert (code, report["max_len"], report["count"]) == (0, 6, 7)
    assert report["traces"] == [["p -> q : a"] * n for n in range(7)]
    code, report = in_process(monkeypatch, capsys, tmp_path, alternation(600), "check")
    assert (code, report["well_formed"]) == (0, True)
    unordered = "(p -> q : a ; r -> s : b ; p -> q : c)" + "*" * 1500
    code, report = in_process(monkeypatch, capsys, tmp_path, unordered, "classify")
    assert (code, report["category"]) == (1, verifier.UNCLASSIFIED)
    assert report["detail"] == "not well formed, and no sequentiality relaxation is implementable"


def test_a_long_alternative_decides_in_one_frame(tmp_path, monkeypatch, capsys):
    """The projector takes a `|` spine as one alternative, in one frame:
    `project` and `verify` decide on 1,500 operands over three messages,
    more operands than the recursion limit, and `project` merges 300
    distinct ones into one choice per role."""
    text = " | ".join(f"p -> q : m{i % 3}" for i in range(1500))
    code, report = in_process(monkeypatch, capsys, tmp_path, text, "project")
    assert (code, report["environment"]) == (0, {"p": "q!m0.end (+) q!m1.end (+) q!m2.end", "q": "p?m0.end + p?m1.end + p?m2.end"})
    code, report = in_process(monkeypatch, capsys, tmp_path, text, "verify")
    assert (code, report["liveness"], report["sound"], report["complete"], report["basis"]) == (0, "Live", True, True, "exact")
    text = " | ".join(f"p -> q : m{i}" for i in range(300))
    code, report = in_process(monkeypatch, capsys, tmp_path, text, "project")
    messages = sorted(f"m{i}" for i in range(300))
    assert (code, report["environment"]) == (
        0,
        {"p": " (+) ".join(f"q!{m}.end" for m in messages), "q": " + ".join(f"p?{m}.end" for m in messages)},
    )


def test_a_loop_automaton_is_budgeted_by_its_states(tmp_path, monkeypatch, capsys):
    """A k-phase loop with one interaction per body and per exit compiles,
    each part appended once, to 2k + 1 states: 1,201 at k = 600, which
    `check` decides under a budget of 1,201, and which the trace compiler
    refuses under one of 1,200 before it builds any, so `check` ends
    BoundExhausted on the loop's own message."""
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 1201)
    code, report = in_process(monkeypatch, capsys, tmp_path, loopk_text(600), "check")
    assert (code, report["well_formed"]) == (0, True)
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 1200)
    code, report = in_process(monkeypatch, capsys, tmp_path, loopk_text(600), "check")
    assert (code, report["error"], report["detail"]) == (
        1,
        "BoundExhausted",
        "more than 1200 states in the automaton of a loop",
    )


@pytest.mark.parametrize("k", [600, 2000])
def test_a_long_loop_is_decided(tmp_path, monkeypatch, capsys, k):
    """A loop grows its automaton by two states a phase, so `check` decides
    the 600-phase and the 2,000-phase loop under the default budget."""
    code, report = in_process(monkeypatch, capsys, tmp_path, loopk_text(k), "check")
    assert (code, report["well_formed"]) == (0, True)


@pytest.mark.parametrize(
    ("command", "suffix", "text"),
    [("check", ".gt", b"p -> q : a\xff"), ("simulate", ".mps", b"p : q!a.end\nq : p?a.\xffend\n"),
     ("verify", ".mps", b"p : q!a.end\nq : p?a.\xffend\n")],
)
def test_undecodable_input_files_exit_with_usage_code(tmp_path, command, suffix, text):
    """A byte that is not UTF-8 is read from a file as it is from stdin,
    and reported where it stands, as a character that starts no token."""
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(text)
    args = [command, str(path)]
    if command == "verify":
        good = tmp_path / "good.gt"
        good.write_text("p -> q : a")
        args = [command, str(good), str(path)]
    result = run(*args)
    assert (result.returncode, result.stdout) == (2, "")
    where = "1:11" if suffix == ".gt" else "2:9"
    assert result.stderr == f"error: {where}: unexpected character '\\udcff'\n"


def test_undecodable_stdin_read_strictly_exits_with_usage_code():
    """Where stdin is decoded strictly, a byte that is not UTF-8 is
    reported as the decoding error, on one line."""
    result = subprocess.run(
        [sys.executable, "-m", "mpst.cli", "check", "-"],
        input=b"p -> q : a\xff",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict", "PYTHONUTF8": "0"},
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"


@pytest.mark.parametrize("command", ["project", "verify"])
def test_a_long_loop_body_decides(tmp_path, command):
    """The projection of a 1,200-interaction loop body is closed into its
    recursion off an explicit stack, not one frame per prefix."""
    body = " ;\n".join(f"p -> q : a{i % 3}" if i % 2 == 0 else f"q -> p : b{i % 3}" for i in range(1200))
    path = tmp_path / "loop.gt"
    path.write_text(f"({body})* ; p -> q : z\n")
    result = run(command, str(path))
    assert (result.returncode, result.stderr) == (0, "")
    if command == "project":
        p = "".join(f"q!a{i % 3}." if i % 2 == 0 else f"q?b{i % 3}." for i in range(1200))
        q = "".join(f"p?a{i % 3}." if i % 2 == 0 else f"p!b{i % 3}." for i in range(1200))
        assert result.stdout.splitlines() == [f"p : rec X . {p}X (+) q!z.end", f"q : rec X . {q}X + p?z.end"]
    else:
        assert result.stdout.splitlines()[:3] == ["sound: yes", "complete: yes", "liveness: Live"]


def test_classify_answers_on_a_long_chain_that_is_not_well_formed(tmp_path):
    """The junctions of a 1,200-interaction chain are counted, and no
    relaxation is built past 16 of them."""
    path = tmp_path / "chain.gt"
    path.write_text(" ;\n".join("p -> q : a" if i % 2 == 0 else "r -> s : b" for i in range(1200)))
    result = run("classify", str(path))
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.splitlines() == [
        verifier.UNCLASSIFIED,
        "not well formed, and relaxations are not tried past 16 `;` junctions",
    ]


def test_deep_equal_alternatives_project(tmp_path):
    """`_rewrites` compares the two sides of the `|`, each an 800-interaction
    chain; comparing them took more stack than projecting either."""
    path = tmp_path / "g.gt"
    chain = DEEP_INPUTS["chain1500"].split(" ;\n")[:800]
    path.write_text(f"(({' ; '.join(chain)}) | ({' ; '.join(chain)})) & r -> s : b\n")
    result = run("project", str(path))
    assert result.returncode == 0
    assert result.stderr == ""


def test_a_merge_past_a_long_branch_projects(tmp_path):
    """r's branch behaviours are merged: one takes 1,500 inputs from q
    before it takes `a` from p, and the compatibility check walks them in
    one loop, not one frame each."""
    path = tmp_path / "g.gt"
    inputs = " ; ".join(f"q -> r : c{i}" for i in range(1500))
    path.write_text(
        f"(s -> p : l ; s -> q : l ; p -> r : a) | (s -> p : k ; s -> q : k ; {inputs} ; p -> r : b ; p -> r : a)\n"
    )
    result = run("project", str(path))
    assert (result.returncode, result.stderr) == (0, "")
    chain = ".".join(f"q?c{i}" for i in range(1500))
    assert f"r : p?a.end + {chain}.p?b.p?a.end" in result.stdout.splitlines()


def test_a_failed_merge_past_a_long_branch_is_reported(tmp_path):
    """Without `p -> r : b`, r's two behaviours cannot be merged: direct
    projection says so, and the `&`-elimination search that follows walks
    the 1,500-interaction `;` chain off explicit stacks, finds no rewrite,
    and lets that finding stand."""
    path = tmp_path / "g.gt"
    inputs = " ; ".join(f"q -> r : c{i}" for i in range(1500))
    path.write_text(f"(s -> p : l ; s -> q : l ; p -> r : a) | (s -> p : k ; s -> q : k ; {inputs} ; p -> r : a)\n")
    result = run("project", str(path))
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.splitlines()[:2] == [
        "ProjectionError: IncompatibleMerge",
        "detail: role 'r': input of 'a' from {p} cannot be merged: the other behaviour may consume it elsewhere",
    ]


def test_project_prints_long_two_role_chains(tmp_path):
    """800 interactions between two roles give each of them 800 prefixes,
    which the printer takes one after another, not one frame each."""
    path = tmp_path / "g.gt"
    path.write_text(" ;\n".join("p -> q : a" if i % 2 else "q -> p : b" for i in range(800)))
    result = run("project", str(path))
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines() == ["p : " + "q?b.q!a." * 400 + "end", "q : " + "p!b.p?a." * 400 + "end"]


def test_a_projected_long_chain_simulates(tmp_path):
    """The environment `project` prints for an 800-interaction two-role
    chain has 800 prefixes per role, which the session parser folds off a
    stack."""
    path = tmp_path / "g.gt"
    path.write_text(" ;\n".join("p -> q : a" if i % 2 else "q -> p : b" for i in range(800)))
    projected = run("project", str(path))
    assert projected.returncode == 0
    env = tmp_path / "env.mps"
    env.write_text(projected.stdout)
    result = run("simulate", "--json", str(env))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "Live"


def test_project_prints_the_environment(sale):
    result = run("project", sale)
    assert result.returncode == 0
    assert "seller : buyer!descr.buyer!price.(buyer?accept.end + buyer?quit.end)" in result.stdout


def test_project_reports_failures(tmp_path):
    path = tmp_path / "g.gt"
    path.write_text("{p,q} -> r : a | {p,q} -> r : b\n")
    result = run("project", str(path))
    assert result.returncode == 1
    assert "NoDecisionMaker" in result.stdout


def test_simulate_flags_non_live_sessions(tmp_path):
    path = tmp_path / "env.mps"
    path.write_text(NEVER_ENDS)
    result = run("simulate", str(path))
    assert result.returncode == 1
    assert "NotLive" in result.stdout


def test_simulate_accepts_live_sessions(tmp_path):
    path = tmp_path / "env.mps"
    path.write_text(LOOP_UNTIL_DONE)
    result = run("simulate", str(path), "--max-len", "4")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "Live"


# Two groupings of one type each, of a `|` spine and of the `&` spine of
# `random_global_type(3207, 10, 3)`: an `&` search that rewrites binary
# nodes projects the first grouping of each and not the second.
GROUPINGS = [
    (
        "(p -> q : m ; q -> r : x | p -> q : m ; q -> r : y) | p -> q : n ; q -> r : w",
        "p -> q : m ; q -> r : x | (p -> q : m ; q -> r : y | p -> q : n ; q -> r : w)",
    ),
    (
        "(q -> r : c | {q,r} -> p : e) & q -> r : a & q -> p : c",
        "(q -> r : c | {q,r} -> p : e) & (q -> r : a & q -> p : c)",
    ),
]


@pytest.mark.parametrize("texts", GROUPINGS, ids=["either", "both"])
def test_project_decides_every_grouping_alike(tmp_path, texts):
    """Both groupings project, and `project`, `verify` and `classify` print
    the same report of each."""
    path = tmp_path / "g.gt"
    for command in ("project", "verify", "classify"):
        outputs = []
        for text in texts:
            path.write_text(text + "\n")
            result = run(command, "--json", str(path))
            assert (result.returncode, result.stderr) == (0, ""), (command, text)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1], command
    if texts[1] == GROUPINGS[1][1]:
        assert parse_global_type(texts[1]) == verifier.random_global_type(3207, 10, 3)


def test_verify_projects_when_no_environment_is_given(sale):
    result = run("verify", sale)
    assert result.returncode == 0
    assert "sound: yes" in result.stdout
    assert "complete: yes" in result.stdout


def test_verify_rejects_an_incomplete_environment(sale, tmp_path):
    env = tmp_path / "env.mps"
    env.write_text(
        "seller : buyer!descr.buyer!price.buyer?accept.end\n"
        "buyer : seller?descr.seller?price.seller!accept.end\n"
    )
    result = run("verify", sale, str(env))
    assert result.returncode == 1
    assert "complete: no" in result.stdout


def test_verify_reports_a_projection_failure_as_project_does(monkeypatch, capsys, tmp_path):
    """The text names the subterm at fault; the JSON report does not."""
    path = tmp_path / "choice.gt"
    path.write_text(UNKNOWABLE_CHOICE)
    assert run_in_process(monkeypatch, "project", str(path)) == 1
    projected = capsys.readouterr().out
    assert projected.splitlines()[2].startswith("at: ")
    assert run_in_process(monkeypatch, "verify", str(path)) == 1
    assert capsys.readouterr().out == projected
    assert run_in_process(monkeypatch, "verify", str(path), "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "schema": 1,
        "command": "verify",
        "input": str(path),
        "projected": False,
        "error": "IncompatibleMerge",
    }


LATE = "p -> q : a ; p -> q : a ; p -> q : a ; r -> s : b\n"


def test_verify_finds_a_reordering_longer_than_max_len(monkeypatch, capsys, tmp_path):
    path = tmp_path / "late.gt"
    path.write_text(LATE)
    assert run_in_process(monkeypatch, "verify", str(path), "--max-len", "3", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sound"] is False and payload["complete"] is True
    assert payload["sound_counterexample"] == ["p -> q : a", "p -> q : a", "r -> s : b", "p -> q : a"]
    assert payload["basis"] == "exact" and payload["liveness"] == "Live"


def test_verify_orders_a_counterexample_by_its_letters_texts(monkeypatch, capsys, tmp_path):
    """The counterexample is the least in `word_key` order, the order every
    listing takes: a join letter, whose text opens with `{`, comes after
    the single-sender letters of its length."""
    path = tmp_path / "join.gt"
    path.write_text("{r,u} -> q : f & (t -> u : c ; r -> t : c)\n")
    assert run_in_process(monkeypatch, "verify", str(path), "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sound_counterexample"] == ["r -> t : c", "t -> u : c", "{r,u} -> q : f"]
    assert payload["complete"] is True and payload["basis"] == "exact"


NO_JOIN = "(p -> q1 : a & p -> q2 : a) ; (q1 -> q : b & q2 -> q : b)\n"


def test_verify_decides_completeness_of_a_star_free_type_exactly(monkeypatch, capsys, tmp_path):
    """Under the default bound the bounded check has seen every trace of a
    star-free type, so a complete verdict is exact.  A bound below its
    longest trace leaves it bounded."""
    path = tmp_path / "no_join.gt"
    path.write_text(NO_JOIN)
    verdicts = ["sound: no", "complete: yes", "liveness: Live"]
    assert run_in_process(monkeypatch, "verify", str(path)) == 1
    assert capsys.readouterr().out.splitlines()[:4] == [*verdicts, "bounds: max_len=12 buf_bound=4 (exact)"]
    assert run_in_process(monkeypatch, "verify", str(path), "--max-len", "3") == 1
    assert capsys.readouterr().out.splitlines()[:4] == [*verdicts, "bounds: max_len=3 buf_bound=4 (bounded)"]


def test_verify_reports_a_deadlocking_environment_as_not_live(monkeypatch, capsys, tmp_path):
    protocol = tmp_path / "loop.gt"
    protocol.write_text("(p -> q : a)*\n")
    env = tmp_path / "env.mps"
    env.write_text(NEVER_ENDS)
    assert run_in_process(monkeypatch, "verify", str(protocol), str(env), "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["liveness"] == "NotLive" and payload["basis"] == "exact"
    assert payload["complete"] is False and payload["completeness_gap"] == []
    assert run_in_process(monkeypatch, "verify", str(protocol), str(env)) == 1
    assert "liveness: NotLive" in capsys.readouterr().out.splitlines()


def test_verify_under_a_small_depth_is_unknown_and_bounded(monkeypatch, capsys, sale):
    assert run_in_process(monkeypatch, "verify", sale, "--depth", "2", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["liveness"] == "Unknown" and payload["basis"] == "bounded"


def test_verify_says_where_a_cut_exploration_stopped(monkeypatch, capsys, sale):
    """After an `Unknown` exploration the completeness fallback lists
    traces; when that runs out of budget, the report names the
    configurations explored.  A small cap stands in for the default budget."""
    first_uncovered = verifier.first_uncovered
    monkeypatch.setattr(verifier, "first_uncovered", lambda a, b, n: first_uncovered(a, b, n, cap=3))
    assert run_in_process(monkeypatch, "verify", sale, "--depth", "2", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "BoundExhausted"
    assert payload["detail"] == (
        "visited more than 3 prefixes of length <= 12; "
        "the session exploration stopped at its bound after 2 configurations"
    )


def test_verify_decides_four_parallel_pairs(monkeypatch, capsys, tmp_path):
    path = tmp_path / "pairs4.gt"
    path.write_text(
        " & ".join(f"(a{i} -> b{i} : m ; b{i} -> a{i} : k ; a{i} -> b{i} : z)" for i in range(4))
    )
    assert run_in_process(monkeypatch, "verify", str(path), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sound"] and payload["complete"]
    assert payload["basis"] == "exact" and payload["liveness"] == "Live"


ABC_LOOP = "p : rec X . (q!a.X (+) q!b.X (+) q!c.end)\nq : rec Y . (p?a.Y + p?b.Y + p?c.end)\n"


def test_simulate_counts_the_traces_of_a_long_loop(tmp_path):
    path = tmp_path / "many.mps"
    path.write_text(ABC_LOOP)
    # every word of a's and b's, then c: 2**n traces of length n + 1
    result = run("simulate", str(path), "--max-len", "40", "--buf-bound", "1", "--json")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    payload = json.loads(result.stdout)
    assert payload["trace_count"] == 2**40 - 1
    a, b, c = (f"p -> q : {m}" for m in "abc")
    assert payload["traces"] == [
        [c], [a, c], [b, c], [a, a, c], [a, b, c], [b, a, c], [b, b, c], [a, a, a, c], [a, a, b, c], [a, b, a, c]
    ]


def test_simulate_prints_counts_of_any_length(tmp_path):
    path = tmp_path / "many.mps"
    path.write_text(ABC_LOOP)
    result = run("simulate", str(path), "--max-len", "20000", "--buf-bound", "1", "--traces", "0", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["trace_count"] == 2**20000 - 1


def test_simulate_reports_an_exhausted_count_without_a_traceback(tmp_path):
    path = tmp_path / "many.mps"
    path.write_text(ABC_LOOP)
    result = run("simulate", str(path), "--max-len", "1000000", "--buf-bound", "1", "--json")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    payload = json.loads(result.stdout)
    assert payload["error"] == "BoundExhausted"
    assert "cells" in payload["detail"]


def test_crosscheck_reports_an_exhausted_bound(monkeypatch, capsys):
    def overflow(*args):
        raise tracelang.BudgetExceededError("more than 1 traces of length <= 4")

    monkeypatch.setattr(verifier, "_conformance", overflow)
    assert run_in_process(monkeypatch, "crosscheck", "--samples", "15", "--seed", "3", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "BoundExhausted"
    assert payload["detail"] == "more than 1 traces of length <= 4"


def test_classify_prints_the_category(tmp_path):
    path = tmp_path / "g.gt"
    path.write_text("p -> q : a | q -> p : a\n")
    result = run("classify", str(path))
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == "NoKnowledgeNoChoice"


def test_classify_passes_projectable_protocols(sale):
    result = run("classify", sale)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "Projectable"


def test_trace_enumerates_the_bounded_language(sale):
    result = run("trace", sale, "--max-len", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "2 trace(s) up to length 3"
    assert any("buyer -> seller : accept" in line for line in lines)


def test_trace_lists_a_long_loop_in_bounded_memory(monkeypatch, capsys, tmp_path):
    """Each prefix is a link to the one it extends, and the letters of the
    traces listed are budgeted: the loop's listing, whose words would hold
    some 128 million letters, ends at once."""
    path = tmp_path / "loop2.gt"
    path.write_text("loop2 (p -> q : handover, q -> p : handover) exit (p -> q : bailout, q -> p : bailout)")
    start = time.process_time()
    assert run_in_process(monkeypatch, "trace", str(path), "--max-len", "16000", "--json") == 1
    assert time.process_time() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "BoundExhausted"
    assert payload["detail"] == "more than 100000 letters in the traces of length <= 16000"


def test_trace_writes_dot_dumps(sale, tmp_path):
    dot = tmp_path / "auto.dot"
    result = run("trace", sale, "--dot", str(dot))
    assert result.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_json_reports_are_byte_identical_across_runs(sale):
    first = run("verify", sale, "--json")
    second = run("verify", sale, "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["schema"] == 1
    assert payload["sound"] and payload["complete"]


def test_json_check_reports_carry_the_witness(tmp_path):
    path = tmp_path / "g.gt"
    path.write_text(UNORDERED)
    result = run("check", str(path), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert payload["well_formed"] is False
    assert payload["witness"] == ["p -> q : a", "r -> s : b"]
    assert payload["position"] == 0


@pytest.mark.parametrize("width", [10, 12])
def test_check_decides_wide_parallel_pairs(monkeypatch, capsys, tmp_path, width):
    """Each pair is decided alone; their product would have 4**width states."""
    path = tmp_path / "pairs.gt"
    path.write_text(
        " &\n".join(f"(a{i} -> b{i} : m ; b{i} -> a{i} : k ; a{i} -> b{i} : z)" for i in range(width)) + "\n"
    )
    start = time.perf_counter()
    assert run_in_process(monkeypatch, "check", str(path), "--json") == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["well_formed"] is True


def test_check_finds_the_product_witness_on_a_role_disjoint_spine(monkeypatch, capsys, tmp_path):
    path = tmp_path / "g.gt"
    path.write_text("(p -> q : a ; r -> s : b) & t -> u : c\n")
    outputs = []
    for one_group in (False, True):
        if one_group:  # the whole type is one group, decided on the product
            monkeypatch.setattr(tracelang, "role_groups", lambda g: [g])
        for flags in ((), ("--json",)):
            assert run_in_process(monkeypatch, "check", str(path), *flags) == 1
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    payload = json.loads(outputs[1])
    assert payload["witness"] == ["p -> q : a", "r -> s : b", "t -> u : c"]
    assert payload["position"] == 0


def test_crosscheck_runs_a_seeded_batch():
    first = run("crosscheck", "--samples", "15", "--seed", "3", "--json")
    second = run("crosscheck", "--samples", "15", "--seed", "3", "--json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["violations"] == []


def test_crosscheck_does_not_count_a_cut_exploration_as_incomplete(monkeypatch, capsys):
    """At a depth of one configuration, sample 2's exploration stops before
    any trace, which says nothing about completeness; its soundness is
    still checked on what was explored."""
    assert run_in_process(monkeypatch, "crosscheck", "--samples", "3", "--depth", "1", "--json") == 0
    assert json.loads(capsys.readouterr().out) == {
        "checked": 1,
        "command": "crosscheck",
        "projected": 1,
        "samples": 3,
        "schema": 1,
        "seed": 0,
        "violations": [],
        "well_formed": 2,
    }


def test_main_heads_a_report_by_the_command_s_name(monkeypatch, capsys, sale):
    """A tracer that rebinds `cli.verify` and `cli.crosscheck` to wrappers
    made with `functools.wraps` leaves the functions the parser holds as
    they were; `main` still heads their reports with the right fields."""
    def wrapped(function):
        @wraps(function)
        def wrapper(*args, **kwargs):
            return function(*args, **kwargs)
        return wrapper

    for name in ("verify", "crosscheck"):
        monkeypatch.setattr(cli, name, wrapped(getattr(cli, name)))
    assert run_in_process(monkeypatch, "verify", sale, "--json") == 0
    assert json.loads(capsys.readouterr().out)["input"] == sale
    assert run_in_process(monkeypatch, "crosscheck", "--samples", "3", "--seed", "5", "--json") == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


REJECTED_BOUNDS = [
    ("trace", "--max-len", "0"),
    ("simulate", "--traces", "-2"),
    ("crosscheck", "--roles", "1"),
    ("crosscheck", "--max-size", "0"),
    ("crosscheck", "--samples", "-1"),
    ("crosscheck", "--star-depth", "-1"),
]


@pytest.mark.parametrize(
    ("command", "option", "value"),
    REJECTED_BOUNDS,
    ids=[f"{command}{option}={value}" for command, option, value in REJECTED_BOUNDS],
)
def test_rejected_bounds_exit_with_usage_code(monkeypatch, capsys, tmp_path, command, option, value):
    path = tmp_path / "input"
    path.write_text(LOOP_UNTIL_DONE if command == "simulate" else SALE)
    files = [] if command == "crosscheck" else [str(path)]
    assert run_in_process(monkeypatch, command, *files, option, value) == 2
    assert f"error: Invalid value for '{option}'" in capsys.readouterr().err


def test_simulate_help_states_its_own_length_default():
    result = run("simulate", "--help")
    assert result.returncode == 0
    help_text = " ".join(result.stdout.split())
    assert "(default: 2·roles + 8)" in help_text
    assert "interactions" not in help_text


def test_dash_reads_the_protocol_from_stdin():
    result = subprocess.run(
        [sys.executable, "-m", "mpst.cli", "trace", "-", "--max-len", "2"],
        input="p -> q : a\n",
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1 trace(s) up to length 2" in result.stdout


def test_simulate_announces_truncated_trace_listings(tmp_path):
    path = tmp_path / "loop.mps"
    path.write_text(LOOP_UNTIL_DONE)
    result = run("simulate", str(path), "--traces", "2")
    assert result.returncode == 0
    assert "(10 more; raise --traces to list them)" in result.stdout


def test_trace_and_simulate_format_each_letter_once(monkeypatch, tmp_path, capsys):
    """Each distinct letter is formatted once per command, in either mode,
    and the words still come in `tracelang.word_key` order."""
    protocol = tmp_path / "pairs.gt"
    protocol.write_text("(p -> q : a ; q -> p : b) & (r -> s : c ; s -> r : d)")
    env = tmp_path / "loop.mps"
    env.write_text(LOOP_UNTIL_DONE)
    words = tracelang.enumerate_traces(
        tracelang.compile_traces(cli._load_global(str(protocol))), 8
    )
    expected = [list(map(str, w)) for w in sorted(words, key=tracelang.word_key)]
    formatted = []
    fmt = Interaction.__str__

    def counting(self):
        formatted.append(self)
        return fmt(self)

    monkeypatch.setattr(Interaction, "__str__", counting)
    for mode in (["--json"], []):
        formatted.clear()
        assert run_in_process(monkeypatch, "trace", str(protocol), *mode) == 0
        assert len(formatted) == 4
        out = capsys.readouterr().out
        if mode:
            assert json.loads(out)["traces"] == expected
        else:
            assert out.splitlines()[1:] == [f"  {' ; '.join(w)}" for w in expected]
        formatted.clear()
        assert run_in_process(monkeypatch, "simulate", str(env), *mode) == 0
        assert len(formatted) == 2
        capsys.readouterr()


def test_dot_dumps_have_no_epsilon_edges(tmp_path):
    path = tmp_path / "g.gt"
    path.write_text("(seller -> buyer : hint)* ; (seller -> buyer : ad | skip) ; " + SALE)
    for command in ("check", "trace"):
        dot = tmp_path / f"{command}.dot"
        result = run(command, str(path), "--dot", str(dot))
        assert result.returncode == 0
        text = dot.read_text()
        assert "->" in text and "ε" not in text


UNREAD_OPTIONS = [
    ("check", ["--max-len", "--buf-bound", "--depth", "--budget", "--seed"]),
    ("project", ["--max-len", "--buf-bound", "--depth", "--seed"]),
    ("trace", ["--buf-bound", "--depth", "--budget", "--seed"]),
    ("simulate", ["--budget", "--seed"]),
    ("verify", ["--seed"]),
    ("classify", ["--seed"]),
    ("crosscheck", ["--max-len", "--budget"]),
]


@pytest.mark.parametrize(
    ("command", "option"),
    [(command, option) for command, options in UNREAD_OPTIONS for option in options],
)
def test_commands_take_only_the_options_they_read(monkeypatch, tmp_path, command, option):
    path = tmp_path / "input"
    path.write_text(NEVER_ENDS if command == "simulate" else SALE)
    files = [] if command == "crosscheck" else [str(path)]
    assert run_in_process(monkeypatch, command, *files, option, "1") == 2


def test_verify_takes_a_budget_only_to_project(monkeypatch, capsys, sale, tmp_path):
    """`--budget` bounds the projection, so with ENV_PATH it is a usage
    error."""
    env = tmp_path / "env.mps"
    env.write_text(
        "seller : buyer!descr.buyer!price.buyer?accept.end\n"
        "buyer : seller?descr.seller?price.seller!accept.end\n"
    )
    assert run_in_process(monkeypatch, "verify", sale, str(env), "--budget", "5") == 2
    assert capsys.readouterr() == ("", "error: --budget is read only when ENV_PATH is omitted\n")
    assert run_in_process(monkeypatch, "verify", sale, "--budget", "5") == 0
    assert run_in_process(monkeypatch, "verify", sale, str(env)) == 1


# (command, PATHs it takes, one of its integer options with a value below range)
COMMAND_LINES = [
    ("check", 1, None),
    ("project", 1, ("--budget", "0")),
    ("simulate", 1, ("--traces", "-1")),
    ("verify", 2, ("--depth", "0")),
    ("classify", 1, ("--buf-bound", "0")),
    ("trace", 1, ("--max-len", "0")),
    ("crosscheck", 0, ("--roles", "1")),
]


def usage_errors():
    yield "no command", []
    yield "unknown command", ["frob"]
    for command, paths, integer in COMMAND_LINES:
        files = ["INPUT"] * min(paths, 1)
        yield f"{command}: unknown option", [command, *files, "--frob"]
        yield f"{command}: extra positional", [command, *["INPUT"] * (paths + 1)]
        if integer is not None:
            option, below = integer
            yield f"{command}: non-integer value", [command, *files, option, "x"]
            yield f"{command}: value below range", [command, *files, option, below]
        if paths:
            yield f"{command}: missing PATH", [command]
            yield f"{command}: missing file", [command, "ABSENT"]
            yield f"{command}: directory as PATH", [command, "DIR"]


@pytest.mark.parametrize(("case", "args"), list(usage_errors()), ids=[case for case, _ in usage_errors()])
def test_usage_errors_are_one_line_with_exit_2(monkeypatch, capsys, tmp_path, case, args):
    (tmp_path / "input.gt").write_text(SALE)
    places = {"INPUT": tmp_path / "input.gt", "ABSENT": tmp_path / "absent.gt", "DIR": tmp_path}
    assert run_in_process(monkeypatch, *(str(places.get(a, a)) for a in args)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and err.endswith("\n")


# (malformed ENV text, the one line `simulate` and `verify` print for it)
MALFORMED_ENVS = {
    "unbound variable": ("p : q!a.X\nq : p?a.end\n", "in binding for role 'p': 1:9: unbound recursion variable 'X'"),
    "unbound variable on line 2": ("p : q!a.end\nq : p?a.X\n", "in binding for role 'q': 2:9: unbound recursion variable 'X'"),
    "unguarded rec": ("p : rec X . X\nq : end\n", "in binding for role 'p': recursion variable 'X' is not guarded by a prefix"),
    "mixed choice": (
        "p : q!a.end + q?b.end\nq : p?a.end (+) p!b.end\n",
        "in binding for role 'p': one state mixes in and out behaviours",
    ),
    "overlapping joins": (
        "p : {q,r}?a.end + q?a.end\nq : p!a.end\nr : p!a.end\n",
        "in binding for role 'p': ambiguous external choice: inputs of 'a' from {q} and {q,r} overlap",
    ),
    "duplicate role": ("p : q!a.end\np : q!a.end\nq : p?a.end\n", "2:1: role 'p' bound twice"),
    "stray character": ("p : q!a.end $\nq : p?a.end\n", "1:13: unexpected character '$'"),
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ENVS))
def test_a_malformed_env_is_a_usage_error(monkeypatch, capsys, tmp_path, command, case):
    """Every malformed ENV file exits 2 with one `error: ` line, whatever
    the class of the error the parser raised and the fields it carries
    (a ParseError, for an unbound variable, has a line and a column)."""
    text, detail = MALFORMED_ENVS[case]
    env = tmp_path / "env.mps"
    env.write_text(text)
    (tmp_path / "g.gt").write_text("p -> q : a\n")
    gt = [str(tmp_path / "g.gt")] if command == "verify" else []
    assert run_in_process(monkeypatch, command, *gt, str(env)) == 2
    assert capsys.readouterr() == ("", f"error: {detail}\n")


@pytest.mark.parametrize("command", [None] + [command for command, _, _ in COMMAND_LINES])
def test_every_command_has_help(monkeypatch, capsys, command):
    args = ["--help"] if command is None else [command, "--help"]
    assert run_in_process(monkeypatch, *args) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: mpst {command or ''}".rstrip()) and err == ""


def test_classify_forwards_its_budget_to_projection(monkeypatch, tmp_path, capsys):
    budgets = []

    def project_top(g, budget=projector.DEFAULT_AND_BUDGET):
        budgets.append(budget)
        return projector.project_top(g, budget)

    monkeypatch.setattr(verifier, "project_top", project_top)
    path = tmp_path / "g.gt"
    path.write_text("p -> q : a | q -> p : a\n")
    assert run_in_process(monkeypatch, "classify", str(path), "--budget", "7") == 1
    assert capsys.readouterr().out.splitlines()[0] == "NoKnowledgeNoChoice"
    assert len(budgets) > 1 and set(budgets) == {7}


UNKNOWABLE_CHOICE = (
    "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)\n"
)


@pytest.fixture()
def sessions(monkeypatch):
    """Every `runtime.Session` built, and every session explored, in order."""
    built: list = []
    explored: list = []
    init, explore = runtime.Session.__init__, runtime._explore

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_explore(session, depth_bound):
        explored.append(session)
        return explore(session, depth_bound)

    monkeypatch.setattr(runtime.Session, "__init__", counting_init)
    monkeypatch.setattr(runtime, "_explore", counting_explore)
    return built, explored


def test_verify_and_simulate_explore_one_session(monkeypatch, tmp_path, sessions):
    built, explored = sessions
    protocol = tmp_path / "sale.gt"
    protocol.write_text(SALE)
    assert run_in_process(monkeypatch, "verify", str(protocol)) == 0
    assert len(built) == 1 and explored == built
    env = tmp_path / "loop.mps"
    env.write_text(LOOP_UNTIL_DONE)
    assert run_in_process(monkeypatch, "simulate", str(env)) == 0
    assert len(built) == 2 and explored == built


def test_classify_reports_a_candidate_check_past_its_bound(monkeypatch, capsys, tmp_path):
    """A candidate whose check runs out of budget is left unchecked, so
    `classify` ends BoundExhausted with one report, rather than reading
    the candidate as one that covers nothing (NoKnowledgeNoChoice)."""

    def overflow(*args):
        raise tracelang.BudgetExceededError("more than 1 traces of length <= 4")

    monkeypatch.setattr(verifier, "_conformance", overflow)
    path = tmp_path / "g.gt"
    path.write_text(UNKNOWABLE_CHOICE)
    assert run_in_process(monkeypatch, "classify", str(path), "--json") == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "command": "classify",
        "detail": "more than 1 traces of length <= 4",
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


def test_classify_explores_one_session_per_candidate(monkeypatch, tmp_path, capsys, sessions):
    built, explored = sessions
    candidates: list = []
    candidate_envs = verifier._candidate_envs

    def recording(*args):
        found = candidate_envs(*args)
        candidates.extend(found)
        return found

    monkeypatch.setattr(verifier, "_candidate_envs", recording)
    path = tmp_path / "g.gt"
    path.write_text(UNKNOWABLE_CHOICE)
    assert run_in_process(monkeypatch, "classify", str(path)) == 1
    assert capsys.readouterr().out.splitlines()[0] == "NoKnowledgeForChoice"
    assert len(candidates) > 1
    assert len(built) == len(candidates) and explored == built


def test_crosscheck_explores_one_session_per_checked_sample(monkeypatch, capsys, sessions):
    built, explored = sessions
    assert run_in_process(monkeypatch, "crosscheck", "--samples", "15", "--seed", "3", "--json") == 0
    checked = json.loads(capsys.readouterr().out)["checked"]
    assert checked > 0
    assert len(built) == checked and explored == built


FAULTY_PAIR = (
    "p : q!a.q?b.end\n"
    "q : p?a.p!b.end\n"
    "r : s!c.end (+) s!d.end\n"
    "s : r?c.end + r?d.end\n"
)


@pytest.mark.parametrize(
    "protocol, env_text, components",
    [
        ("(p -> q : a ; q -> p : b) & r -> s : c", FAULTY_PAIR, [["p", "q"], ["r", "s"]]),
        ("(p -> q : a ; r -> s : b) & t -> u : c", None, [["p", "q"], ["r", "s"], ["t", "u"]]),
    ],
    ids=["faulty-pair", "coarse-groups"],
)
def test_verify_explores_each_component_once(monkeypatch, tmp_path, capsys, sessions, protocol, env_text, components):
    """`verify` explores each component of a role-disjoint session once,
    and never the whole session, even when a part's traces differ from
    its role group's (the faulty pair can also send `d`) or when the
    type's groups are coarser than the session's components (`p`, `q`,
    `r` and `s` are one group of the type).  It reports what the whole
    session, explored once against the whole type, gives: both sessions
    have a trace that the type lacks."""
    built, explored = sessions
    path = tmp_path / "g.gt"
    path.write_text(protocol + "\n")
    args = ["verify", str(path)]
    if env_text is not None:
        args.append(str(tmp_path / "env.mps"))
        (tmp_path / "env.mps").write_text(env_text)
    code = run_in_process(monkeypatch, *args, "--json")
    payload = json.loads(capsys.readouterr().out)
    assert len(built) == 1
    assert [sorted(session.roles) for session in explored] == components
    g = parse_global_type(protocol)
    env = projector.project_top(g) if env_text is None else parse_session_env(env_text)
    expected = verify_reference(g, env, default_max_len(g), runtime.DEFAULT_BUF_BOUND, runtime.DEFAULT_DEPTH_BOUND)
    assert {key: payload[key] for key in expected} == expected
    assert code == 1 and (payload["sound"], payload["complete"], payload["basis"]) == (False, True, "exact")
    if env_text is None:  # nothing orders `r -> s : b` after `p -> q : a`
        assert payload["sound_counterexample"] == ["r -> s : b", "p -> q : a", "t -> u : c"]
    else:
        assert payload["sound_counterexample"] == ["p -> q : a", "q -> p : b", "r -> s : d"]


def test_simulate_decides_four_parallel_pairs(monkeypatch, capsys, tmp_path):
    """All 12!/(3!)**4 traces of width-4 pairs are counted, in under two
    seconds of CPU."""
    path = tmp_path / "pairs4.mps"
    path.write_text(pairs_text(4))
    start = time.process_time()
    assert run_in_process(monkeypatch, "simulate", str(path), "--json") == 0
    assert time.process_time() - start < 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Live" and payload["trace_count"] == 369600


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The three sessions of the benchmark corpus, width-2 and width-3
    pairs, and role-disjoint unions of sessions with Live and NotLive
    components (see `test_runtime.disjoint_unions`), each written to a
    file."""
    root = tmp_path_factory.mktemp("simulate")
    texts = {
        "live-loop": LOOP_UNTIL_DONE,
        "never-ends": NEVER_ENDS,
        "starving": STARVING_OBSERVER,
        "pairs2": pairs_text(2),
        "pairs3": pairs_text(3),
    }
    texts.update((f"union{i}", text) for i, text in enumerate(disjoint_unions()))
    for name, text in texts.items():
        (root / f"{name}.mps").write_text(text)
    return {str(root / f"{name}.mps"): parse_session_env(text) for name, text in texts.items()}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    trace_count=st.integers(0, 12),
    max_len=st.integers(1, 24),
    buf_bound=st.integers(1, 4),
    depth_bound=st.integers(1, 200),
)
def test_simulate_keeps_its_contract(simulated, data, trace_count, max_len, buf_bound, depth_bound):
    """Exit 0 for a live session and 1 otherwise, a report that parses,
    the count and first traces of the reference enumeration, and a NotLive
    witness as long as the whole session's exploration gives.  Where the
    enumeration visits too many prefixes (a union of loops has hundreds of
    thousands of traces), the count and traces are those of the whole
    session's automaton (`simulate_reference`)."""
    path = data.draw(st.sampled_from(sorted(simulated)))
    argv = ["mpst", "simulate", path, "--json", "--traces", str(trace_count), "--max-len", str(max_len),
            "--buf-bound", str(buf_bound), "--depth", str(depth_bound)]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        sys.argv = saved
    assert "Traceback" not in err.getvalue()
    payload = json.loads(out.getvalue())
    assert stop.value.code == (0 if payload["verdict"] == "Live" else 1)
    verdict, automaton = runtime.explore(simulated[path], buf_bound, depth_bound)
    assert payload["verdict"] == type(verdict).__name__
    if isinstance(verdict, runtime.NotLive):
        assert payload["witness_steps"] == len(verdict.witness) - 1
    try:
        words = sorted(tracelang.enumerate_traces(automaton, max_len, cap=10**6), key=tracelang.word_key)
    except tracelang.BudgetExceededError:
        expected = simulate_reference(simulated[path], max_len, trace_count, buf_bound, depth_bound)
        assert {key: payload[key] for key in expected} == expected
        return
    assert payload["trace_count"] == len(words)
    assert payload["traces"] == [list(map(str, w)) for w in words[:trace_count]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The global types of the benchmark corpus, width-2 and width-3 pairs
    and a loop of two letters, whose listings run out of budget, each
    written to a file."""
    root = tmp_path_factory.mktemp("trace")
    texts = [*CORPUS_GLOBAL, pairs(2), pairs(3), "(p -> q : a | p -> q : b)*"]
    protocols = {}
    for i, text in enumerate(texts):
        path = root / f"protocol{i}.gt"
        path.write_text(text)
        protocols[str(path)] = tracelang.compile_traces(cli._load_global(str(path)))
    return protocols


@settings(max_examples=200, deadline=None)
@given(data=st.data(), max_len=st.integers(0, 24))
def test_trace_keeps_its_contract(traced, data, max_len):
    """Exit 2 with one line of error for a length bound of 0.  Otherwise a
    report that parses, with no traceback: exit 0 and the traces of the
    reference enumeration, sorted, or exit 1 for BoundExhausted exactly
    when the reference runs out of budget or its traces hold more letters
    than the cap."""
    path = data.draw(st.sampled_from(sorted(traced)))
    argv = ["mpst", "trace", path, "--json", "--max-len", str(max_len)]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        sys.argv = saved
    assert stop.value.code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    if max_len == 0:
        assert stop.value.code == 2 and not out.getvalue()
        return
    payload = json.loads(out.getvalue())
    try:
        words = sorted(reference_enumerate_traces(traced[path], max_len), key=tracelang.word_key)
    except tracelang.BudgetExceededError:
        words = None
    if words is None or sum(map(len, words)) > tracelang.DEFAULT_ENUM_CAP:
        assert stop.value.code == 1 and payload["error"] == "BoundExhausted"
        return
    assert stop.value.code == 0
    assert payload["count"] == len(payload["traces"]) == len(words)
    assert payload["traces"] == [list(map(str, w)) for w in words]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `mpst.cli.main` on `argv`."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.argv = sys.argv, ["mpst", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        sys.argv = saved
    return stop.value.code, out.getvalue(), err.getvalue()


def verify_reference(g, env, max_len, buf_bound, depth_bound) -> dict:
    """The fields of a `verify --json` report as the product path gives
    them: the whole environment explored once, against the whole type,
    with the completeness gap found by the reference listings
    (`test_tracelang.reference_first_uncovered`)."""
    try:
        with mock.patch.object(verifier, "first_uncovered", reference_first_uncovered):
            report = verifier._conformance(
                tracelang.compile_traces(g), *runtime.explore(env, buf_bound, depth_bound), max_len, buf_bound
            )
    except tracelang.BudgetExceededError as exc:
        return {"error": "BoundExhausted", "detail": str(exc)}
    words = (report.sound_counterexample, report.completeness_gap)
    return {
        "sound": report.sound,
        "complete": report.complete,
        "liveness": report.liveness,
        "max_len": max_len,
        "buf_bound": buf_bound,
        "basis": report.basis,
        "sound_counterexample": None if words[0] is None else list(map(str, words[0])),
        "completeness_gap": None if words[1] is None else list(map(str, words[1])),
    }


def simulate_reference(env, max_len, trace_count, buf_bound, depth_bound, cap=tracelang.DEFAULT_ENUM_CAP) -> dict:
    """The fields of a `simulate --json` report as the product path gives
    them, counting with the budget `cap`."""
    verdict, automaton = runtime.explore(env, buf_bound, depth_bound)
    try:
        count, samples = tracelang.count_traces(automaton, max_len, trace_count, cap)
    except tracelang.BudgetExceededError as exc:
        return {"error": "BoundExhausted", "detail": str(exc)}
    return {"verdict": type(verdict).__name__, "trace_count": count, "traces": samples}


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    """The global types of the benchmark corpus, width-2 and width-3 pairs,
    and `&`s of corpus types with renamed roles, each written to a file."""
    root = tmp_path_factory.mktemp("verify")
    corpus = [parse_global_type(text) for text in CORPUS_GLOBAL]
    sale, starred, loop2, hidden, join, no_join = corpus[:6]
    ring3 = corpus[6]
    joined = [
        (sale, renamed(starred, "1")),
        (renamed(hidden, "1"), renamed(join, "2")),
        (loop2, renamed(ring3, "1"), renamed(sale, "2")),
        (renamed(no_join, "1"), renamed(no_join, "2")),
    ]
    types = corpus + [parse_global_type(pairs(2)), parse_global_type(pairs(3))]
    types += [reduce(GBoth, parts) for parts in joined]
    protocols = {}
    for i, g in enumerate(types):
        path = root / f"protocol{i}.gt"
        path.write_text(print_global_type(g))
        protocols[str(path)] = cli._load_global(str(path))
    return protocols


@pytest.fixture(scope="module")
def environments(verified, tmp_path_factory):
    """The projections of the `verified` types that project, and the
    role-disjoint unions of `test_runtime.disjoint_unions`, each written
    to a file."""
    root = tmp_path_factory.mktemp("environments")
    envs = []
    for g in verified.values():
        try:
            envs.append(projector.project_top(g))
        except projector.ProjectionError:
            continue
    envs += [parse_session_env(text) for text in disjoint_unions()]
    written = {}
    for i, env in enumerate(envs):
        path = root / f"env{i}.mps"
        path.write_text(print_session_env(env))
        written[str(path)] = cli._load_env(str(path))
    return written


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    max_len=st.integers(1, 24),
    buf_bound=st.integers(1, 4),
    depth_bound=st.integers(1, 400),
)
def test_verify_keeps_its_contract(verified, environments, data, max_len, buf_bound, depth_bound):
    """Exit 0 when sound and complete and 1 otherwise, a report that
    parses, no traceback, and the report the product path gives: the
    projection's failure, or the whole environment explored once and
    checked against the whole type (width-3 pairs have 343
    configurations, so the depth falls on both sides of them).  The
    environment is the type's projection, or one drawn from
    `environments`, which mostly implements another type, so that the
    counterexample and the gap are both searched for."""
    path = data.draw(st.sampled_from(sorted(verified)))
    env_path = data.draw(st.none() | st.sampled_from(sorted(environments)))
    code, out, err = run_main(["verify", path, *([] if env_path is None else [env_path]), "--json",
                               "--max-len", str(max_len), "--buf-bound", str(buf_bound), "--depth", str(depth_bound)])
    assert code in (0, 1)
    assert "Traceback" not in err
    payload = json.loads(out)
    g = verified[path]
    if env_path is not None:
        env = environments[env_path]
    else:
        try:
            env = projector.project_top(g)
        except projector.ProjectionError as exc:
            assert code == 1 and payload["projected"] is False and payload["error"] == exc.kind
            return
    expected = verify_reference(g, env, max_len, buf_bound, depth_bound)
    assert {key: payload.get(key) for key in expected} == expected
    assert code == (0 if expected.get("sound") and expected.get("complete") else 1)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("groups") / "session.mps"


def projectable_types() -> list:
    """The random types of criterion 8's samples that project."""
    types = []
    for i in range(200):
        sample = verifier.random_global_type(20260814 + i)
        try:
            projector.project_top(sample)
        except projector.ProjectionError:
            continue
        types.append(sample)
    return types


@settings(max_examples=100, deadline=None)
@given(sample=and_spines(st.sampled_from(projectable_types())), data=st.data())
def test_role_groups_report_as_the_product_does(scratch_file, sample, data):
    """On an `&` of projectable random types with renamed roles whose role
    groups each project, with the depth drawn on both sides of the
    product's configurations, `verify` reports what the product path
    reports, and `simulate` gives the product's verdict, count and traces,
    or the same BoundExhausted.  Where the product's count runs out of
    cells, `simulate`, which counts on the shuffle of the groups'
    automata, may instead give the count the product gives with a raised
    budget."""
    groups = [group for group in tracelang.role_groups(sample) if roles_of(group)]
    if not groups:
        return
    envs = []
    for group in groups:
        try:
            envs.append(projector.project_top(group))
        except projector.ProjectionError:
            return
    env = {role: t for part in envs for role, t in part.items()}
    scratch_file.write_text(print_session_env(env))
    env = cli._load_env(str(scratch_file))
    size = 1
    for part in envs:
        size *= len(runtime._explore(runtime.Session(part), 10**9)[0])
    if size > 3000:
        return
    depth_bound = data.draw(st.sampled_from([size - 1, size, size + 1]) | st.integers(1, 2 * size + 2), "depth")
    depth_bound = max(depth_bound, 1)
    buf_bound = data.draw(st.integers(1, 3), "buf_bound")
    max_len = data.draw(st.integers(1, 8), "max_len")
    trace_count = data.draw(st.integers(0, 6), "traces")

    try:
        report = verifier.check_preorder(sample, env, max_len, buf_bound, depth_bound)
    except tracelang.BudgetExceededError as exc:
        report = str(exc)
    try:
        expected = verifier._conformance(
            tracelang.compile_traces(sample), *runtime.explore(env, buf_bound, depth_bound), max_len, buf_bound
        )
    except tracelang.BudgetExceededError as exc:
        expected = str(exc)
    assert report == expected

    code, out, err = run_main(["simulate", str(scratch_file), "--json", "--traces", str(trace_count),
                               "--max-len", str(max_len), "--buf-bound", str(buf_bound), "--depth", str(depth_bound)])
    assert "Traceback" not in err
    payload = json.loads(out)
    expected = simulate_reference(env, max_len, trace_count, buf_bound, depth_bound)
    if expected.get("detail", "").startswith("filled") and "error" not in payload:
        expected = simulate_reference(env, max_len, trace_count, buf_bound, depth_bound, 10**9)
    assert {key: payload.get(key) for key in expected} == expected
    assert code == (0 if expected.get("verdict") == "Live" else 1)


@pytest.fixture()
def steps(monkeypatch):
    """How many configurations `Session._step` expands."""
    calls = [0]
    step = runtime.Session._step

    def counting(self, key):
        calls[0] += 1
        return step(self, key)

    monkeypatch.setattr(runtime.Session, "_step", counting)
    return calls


@pytest.mark.parametrize("width", [2, 3, 5, 7, 8, 12])
def test_verify_and_simulate_expand_seven_configurations_per_pair(monkeypatch, capsys, tmp_path, steps, width):
    """With the depth unbounded, width-n pairs are explored pair by pair:
    7 configurations each, where their product has 7**n.  The traces are
    counted on the shuffle of the pairs' 4-state automata: at width 8
    that fills more than 100,000 cells, and at width 12 the shuffle would
    have 4**12 states."""
    protocol, session = tmp_path / "pairs.gt", tmp_path / "pairs.mps"
    protocol.write_text(pairs(width) + "\n")
    session.write_text(pairs_text(width) + "\n")
    assert run_in_process(monkeypatch, "verify", str(protocol), "--depth", str(10**12), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["sound"], payload["complete"], payload["liveness"], payload["basis"]) == (True, True, "Live", "exact")
    assert steps[0] == 7 * width
    steps[0] = 0
    code = run_in_process(monkeypatch, "simulate", str(session), "--depth", str(10**12), "--json")
    payload = json.loads(capsys.readouterr().out)
    assert steps[0] == 7 * width
    if width <= 7:
        assert code == 0 and payload["verdict"] == "Live"
        assert payload["trace_count"] == math.factorial(3 * width) // 6**width
    elif width == 8:
        assert code == 1 and payload["error"] == "BoundExhausted"
        assert payload["detail"] == (
            f"filled more than 100000 (length, state) cells counting traces of length <= {4 * width + 8}"
        )
    else:
        assert code == 1 and payload["error"] == "BoundExhausted"
        assert payload["detail"] == "more than 100000 states in the shuffle product of an `&`"


def test_width_five_pairs_report_as_before_at_the_default_depth(monkeypatch, capsys, tmp_path):
    """16,807 configurations pass the default depth, so the product is
    explored, and cut, as it always was."""
    protocol, session = tmp_path / "pairs5.gt", tmp_path / "pairs5.mps"
    protocol.write_text(pairs(5) + "\n")
    session.write_text(pairs_text(5) + "\n")
    assert run_in_process(monkeypatch, "verify", str(protocol), "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify",
        "detail": "visited more than 100000 prefixes of length <= 34; "
        "the session exploration stopped at its bound after 10000 configurations",
        "error": "BoundExhausted",
        "input": str(protocol),
        "schema": 1,
    }
    assert run_in_process(monkeypatch, "simulate", str(session), "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "buf_bound": 4,
        "command": "simulate",
        "depth_bound": 10000,
        "input": str(session),
        "max_len": 28,
        "schema": 1,
        "trace_count": 0,
        "traces": [],
        "verdict": "Unknown",
    }


def run_capped(*args: str):
    """`mpst` in a child process whose address space is capped at 1 GiB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "mpst.cli", *args], capture_output=True, text=True, preexec_fn=cap, timeout=300)


def test_width_ten_pairs_end_bound_exhausted_or_decide_in_bounded_memory(tmp_path):
    """The product of width-10 pairs has 4**10 states: compiling it ends
    BoundExhausted, within seconds and one line of stderr at most.  With
    the depth past 7**10, `verify` decides pair by pair, compiling no
    product."""
    path = tmp_path / "pairs10.gt"
    path.write_text(pairs(10) + "\n")
    for command in ("trace", "verify"):
        start = time.perf_counter()
        proc = run_capped(command, str(path), "--json")
        assert time.perf_counter() - start < 60
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) <= 1
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["error"] == "BoundExhausted"
        assert payload["detail"] == "more than 100000 states in the shuffle product of an `&`"
    proc = run_capped("verify", str(path), "--depth", "1000000000", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["sound"], payload["complete"], payload["liveness"], payload["basis"]) == (True, True, "Live", "exact")


# over two roles, with about 2**23 sets of states to tell apart
TWO_ROLE_CHOICES = "(p -> q : a | p -> q : b)* ; p -> q : a ; " + " ; ".join(["(p -> q : a | p -> q : b)"] * 22)


def test_a_subset_automaton_past_its_budget_ends_bound_exhausted(tmp_path):
    """`(p -> q : a | p -> q : b)* ; p -> q : a` followed by 22 choices
    between the same two letters, all in an `&` with `q -> r : c`, then
    `p -> q : a`, has about 2**24 sets of states to tell apart.  Its first
    and last letters do not settle it: `q -> r : c` before the last
    `p -> q : a` swaps, and the `&` holds the two the other way round.  So
    `check` and `classify` determinize it, and stop before the 100,001st
    set, with one BoundExhausted report and nothing on stderr."""
    path = tmp_path / "choices.gt"
    path.write_text(f"(({TWO_ROLE_CHOICES}) & q -> r : c) ; p -> q : a")
    for command in ("check", "classify"):
        start = time.perf_counter()
        proc = run_capped(command, str(path), "--json")
        assert time.perf_counter() - start < 60
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout) == {
            "command": command,
            "detail": "more than 100000 states in the subset automaton",
            "error": "BoundExhausted",
            "input": str(path),
            "schema": 1,
        }


def test_two_role_types_are_well_formed_without_a_subset_automaton(tmp_path):
    """No two letters over two roles swap, so `check` answers the input
    above without its `&` at once, where its subset automaton would run
    out of budget."""
    path = tmp_path / "choices.gt"
    path.write_text(TWO_ROLE_CHOICES)
    start = time.perf_counter()
    proc = run_capped("check", str(path))
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "WellFormed\n", "")


def test_a_merge_past_the_resolver_cap_ends_bound_exhausted(tmp_path):
    """`project` on `(p -> q : a | p -> q : b)* ; p -> q : a` followed by 14
    choices between the same two letters and a last `p -> q : c` meets a
    behaviour with more than 20,000 states to resolve: each role's
    behaviour must know which of the last 15 letters before `c` were `a`,
    so its minimal machine alone has 2**15 + 1 states, however its terms
    are shared.  It reports that bound as BoundExhausted, not as a merge
    that fails, with nothing on stderr."""
    path = tmp_path / "choices.gt"
    path.write_text("(p -> q : a | p -> q : b)* ; p -> q : a ; " + " ; ".join(["(p -> q : a | p -> q : b)"] * 14) + " ; p -> q : c")
    proc = run_capped("project", str(path), "--json")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout) == {
        "command": "project",
        "detail": "session type is too large to resolve (more than 20000 states)",
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


def shared_choices(n: int) -> str:
    """`(p -> q : a | p -> q : b)* ; p -> q : a`, then `n` choices between
    the same two letters, then `p -> q : c`.  The minimal machines of `p`
    and `q` have 2**(n + 1) + 1 states, and their canonical terms read each
    state back once per path to it."""
    return "(p -> q : a | p -> q : b)* ; p -> q : a ; " + " ; ".join(["(p -> q : a | p -> q : b)"] * n) + " ; p -> q : c\n"


@pytest.mark.parametrize(
    "n, digest",
    [
        (3, "653989bd871c29291ab2859f9be00c48bee6c51d2ceff45b9952ede28a1599d2"),
        (4, "817a37a0fe7b0c2d9e3ce47aa43a7f0fcb1de0eb0c2f1701dec419e0cbdf98fa"),
    ],
)
def test_shared_choices_read_back_within_the_budget(monkeypatch, capsys, tmp_path, n, digest):
    """At n = 3 and 4 the read-back stays within its budget, and `project`
    prints what it printed before the read-back was budgeted (at n = 4,
    about 5 MB)."""
    path = tmp_path / "choices.gt"
    path.write_text(shared_choices(n))
    assert run_in_process(monkeypatch, "project", str(path)) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (digest, "")


def test_a_read_back_past_its_budget_ends_bound_exhausted_in_bounded_memory(tmp_path):
    """At n = 5 the canonical term of `p` would pass `_READBACK_CAP` term
    nodes: `project` reports that bound as BoundExhausted, in a process
    whose address space is capped at 1 GiB."""
    path = tmp_path / "choices.gt"
    path.write_text(shared_choices(5))
    proc = run_capped("project", str(path), "--json")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout) == {
        "command": "project",
        "detail": f"session type is too large to read back (more than {machine._READBACK_CAP} term nodes)",
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


@pytest.mark.parametrize(
    "args",
    [
        ("project", "{gt}"),
        ("verify", "{gt}"),
        ("classify", "{gt}"),
        ("verify", "{gt}", "{env}"),
        ("simulate", "{env}"),
    ],
)
def test_a_read_back_past_its_budget_is_reported_by_every_command(monkeypatch, capsys, tmp_path, args):
    """With the read-back capped at three term nodes, the canonical term of
    a merge that projection normalizes, or of a loop read from an ENV
    file, cannot be read back: each command reports BoundExhausted."""
    monkeypatch.setattr(machine, "_READBACK_CAP", 3)
    gt, env = tmp_path / "merge.gt", tmp_path / "loop.mps"
    gt.write_text("p -> q : a ; q -> r : x | p -> q : b ; q -> r : y\n")
    env.write_text("p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)\n")
    command, *paths = (arg.format(gt=gt, env=env) for arg in args)
    assert run_in_process(monkeypatch, command, *paths, "--json") == 1
    out, err = capsys.readouterr()
    assert err == ""
    role = "in binding for role 'p': " if "{env}" in args else ""
    assert json.loads(out) == {
        "command": command,
        "detail": f"{role}session type is too large to read back (more than 3 term nodes)",
        "error": "BoundExhausted",
        "input": paths[0],
        "schema": 1,
    }


def test_a_merge_that_fails_on_a_shared_continuation_is_decided(tmp_path):
    """Without the last `c` the input above ends right after its 14
    choices, so one state of `p` would both end and send: the merge
    fails.  Resolution keeps the sharing of the projected terms,
    so it finds that within the bound, where a copy that unshared them
    met 20,000 states first."""
    path = tmp_path / "choices.gt"
    path.write_text("(p -> q : a | p -> q : b)* ; p -> q : a ; " + " ; ".join(["(p -> q : a | p -> q : b)"] * 14))
    proc = run_capped("project", str(path), "--json")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout) == {
        "command": "project",
        "detail": "role 'p': one state mixes end and out behaviours",
        "error": "IncompatibleMerge",
        "input": str(path),
        "location": "(p -> q : a | p -> q : b)*",
        "projected": False,
        "schema": 1,
    }


@pytest.mark.parametrize(
    "source, code, report",
    [
        (
            "(p -> q : a ; p -> q : a | p -> q : a)* ; p -> q : b",
            0,
            "p : rec X . q!a.X (+) q!b.end\nq : rec X . p?a.X + p?b.end\n",
        ),
        (
            "loop1 (q -> p : d & {q,r} -> p : d*) exit ({q,r} -> p : c & p -> r : a)",
            1,
            "ProjectionError: AndEliminationExhausted\n",
        ),
    ],
)
def test_merges_of_merges_decide_within_a_small_step_cap(monkeypatch, capsys, tmp_path, source, code, report):
    """Two types whose merges of merges repeat only as the sets of the keys
    they merge decide with the resolver capped at 1,000 steps (the default
    is 200,000): the loop of two ways to send `a` projects, and a 3-role
    k-exit loop fails to project as AndEliminationExhausted."""
    monkeypatch.setattr(machine, "_STEP_CAP", 1000)
    path = tmp_path / "loop.gt"
    path.write_text(source + "\n")
    assert run_in_process(monkeypatch, "project", str(path)) == code
    out, err = capsys.readouterr()
    assert (out[: len(report)], err) == (report, "")


@pytest.mark.parametrize(
    "args",
    [
        ("project", "{gt}"),
        ("verify", "{gt}"),
        ("classify", "{gt}"),
        ("verify", "{gt}", "{env}"),
        ("simulate", "{env}"),
    ],
)
def test_a_session_type_past_the_resolver_cap_is_reported_by_every_command(monkeypatch, capsys, tmp_path, args):
    """With the resolver capped at three states, a three-interaction chain
    cannot be resolved, whether projection builds it or the parser reads it
    from an ENV file: each command reports BoundExhausted with one report,
    which names the role when the type was read from an ENV file."""
    monkeypatch.setattr(machine, "_STATE_CAP", 3)
    gt, env = tmp_path / "chain.gt", tmp_path / "chain.mps"
    gt.write_text("p -> q : a ; q -> p : b ; p -> q : c\n")
    env.write_text("p : q!a.q?b.q!c.end\nq : p?a.p!b.p?c.end\n")
    command, *paths = (arg.format(gt=gt, env=env) for arg in args)
    assert run_in_process(monkeypatch, command, *paths, "--json") == 1
    out, err = capsys.readouterr()
    assert err == ""
    role = "in binding for role 'p': " if "{env}" in args else ""
    assert json.loads(out) == {
        "command": command,
        "detail": f"{role}session type is too large to resolve (more than 3 states)",
        "error": "BoundExhausted",
        "input": paths[0],
        "schema": 1,
    }


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--dot", "{dot}"),
        ("classify",),
        ("trace",),
        ("trace", "--dot", "{dot}"),
    ],
)
def test_a_shuffle_past_its_budget_is_reported_by_every_command(monkeypatch, capsys, tmp_path, args):
    """Each command that compiles `p -> q : a & q -> p : b`, whose product
    has four states, reports a budget of three as BoundExhausted."""
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 3)
    path = tmp_path / "both.gt"
    path.write_text("p -> q : a & q -> p : b\n")
    command, *options = (arg.format(dot=tmp_path / "out.dot") for arg in args)
    assert run_in_process(monkeypatch, command, str(path), *options, "--json") == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": command,
        "detail": "more than 3 states in the shuffle product of an `&`",
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


@pytest.mark.parametrize(
    ("command", "owner", "name", "text"),
    [
        ("simulate", runtime, "explore_parts", "p : q!a.end\nq : p?a.end\n"),
        ("project", cli, "print_session_env", "p -> q : a\n"),
    ],
)
def test_a_bound_raised_anywhere_in_a_command_is_one_report(monkeypatch, capsys, tmp_path, command, owner, name, text):
    """A bound is reported as BoundExhausted wherever the command meets it,
    with the fields every report starts with and nothing else."""

    def bound(*args, **kwargs):
        raise tracelang.BudgetExceededError("x")

    monkeypatch.setattr(owner, name, bound)
    path = tmp_path / "input"
    path.write_text(text)
    assert run_in_process(monkeypatch, command, str(path), "--json") == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "command": command,
        "detail": "x",
        "error": "BoundExhausted",
        "input": str(path),
        "schema": 1,
    }


# ---------------------------------------------------------------------------
# The report writer, the contract of the other commands, and text output
# ---------------------------------------------------------------------------

# strings that need escapes (quote, backslash, control characters, non-ASCII,
# an astral character and a lone surrogate), drawn often, so that a report
# holds the same string many times
SPECIAL_STRINGS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "a\u2028b", "\U0001F600", "\ud800", "", "a0 -> b0 : m"]
json_strings = st.sampled_from(SPECIAL_STRINGS) | st.text(max_size=6)
json_ints = st.integers() | st.integers(10**4300, 10**4400) | st.integers(-(10**4400), -(10**4300))
json_leaves = json_strings | json_ints | st.sampled_from([True, False, None])


def extend_json(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(json_strings, inner, max_size=4),
        # strings first, then an item that is not a string
        st.builds(lambda head, tail: [*head, tail], st.lists(json_strings, min_size=1, max_size=3), inner),
        # lists of words, some of them empty
        st.lists(st.lists(json_strings, max_size=4), min_size=1, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
    )


json_values = st.recursive(json_leaves, extend_json, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_the_report_writer_writes_what_json_dumps_writes(value):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as `cli.main` sets it
    try:
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A file for the generated protocol and one for a DOT dump."""
    root = tmp_path_factory.mktemp("generated")
    return root / "protocol.gt", root / "protocol.dot"


# for each option, values at and above its lower bound (None leaves the
# default), and values below it
BOUNDS = {
    "--budget": (st.sampled_from([None, "1", "2", "16"]), st.sampled_from(["0", "-1"])),
    "--max-len": (st.sampled_from([None, "1", "2", "8"]), st.sampled_from(["0", "-1"])),
    "--buf-bound": (st.sampled_from([None, "1", "2"]), st.sampled_from(["0", "-3"])),
    "--depth": (st.sampled_from([None, "1", "2", "60"]), st.sampled_from(["0", "-1"])),
    "--samples": (st.sampled_from(["0", "1", "3"]), st.just("-1")),
    "--max-size": (st.sampled_from(["1", "2", "4"]), st.just("0")),
    "--roles": (st.sampled_from(["2", "3"]), st.just("1")),
    "--star-depth": (st.sampled_from(["0", "1"]), st.just("-1")),
}
OPTIONS = {
    "check": [],
    "project": ["--budget"],
    "classify": ["--max-len", "--buf-bound", "--depth", "--budget"],
    "crosscheck": ["--samples", "--max-size", "--roles", "--star-depth", "--buf-bound", "--depth"],
}


def draw_options(data, command: str) -> list[str]:
    """The options of `command`; in one draw of four, one of them below its
    bound."""
    options = OPTIONS[command]
    below = options and data.draw(st.integers(0, 3), label="one below its bound") == 0
    past = data.draw(st.sampled_from(options), label="below its bound") if below else None
    argv = []
    for option in options:
        valid, invalid = BOUNDS[option]
        value = data.draw(invalid if option == past else valid, label=option)
        argv += [] if value is None else [option, value]
    return argv


def assert_contract(code: int, out: str, err: str, as_json: bool) -> dict | None:
    """Exit 0, 1 or 2, at most one line of stderr and no traceback; on exit
    2 nothing on stdout, otherwise, with `--json`, the report as
    `json.dumps(sort_keys=True, indent=2)` writes it, which is returned."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    if code == 2:
        assert not out and err.startswith("error: ")
        return None
    if not as_json:
        return None
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return payload


PASSED = {
    "check": lambda payload: payload["well_formed"],
    "project": lambda payload: payload["projected"],
    "classify": lambda payload: payload["category"] == verifier.PROJECTABLE,
    "crosscheck": lambda payload: not payload["violations"],
}


def assert_exit_one_only_on_a_finding(command: str, code: int, payload: dict | None) -> None:
    if payload is None:
        return
    if payload.get("error") == "BoundExhausted":
        assert code == 1
    else:
        assert code == (0 if PASSED[command](payload) else 1)


random_texts = st.builds(
    lambda seed, size, roles: print_global_type(verifier.random_global_type(seed, size, roles, 1)),
    st.integers(0, 10**6), st.integers(1, 8), st.integers(2, 4),
)


@settings(max_examples=400, deadline=None)
@given(text=mutated(global_texts | random_texts) | random_texts | st.sampled_from([*CORPUS_GLOBAL, pairs(2)]),
       command=st.sampled_from(["check", "project", "classify"]),
       as_json=st.booleans(), dot=st.booleans(), data=st.data())
def test_check_project_and_classify_keep_their_contract(generated, text, command, as_json, dot, data):
    """On the corpus types and generated global types, some of them mutated
    past parsing, and option values on both sides of their bounds: the exit
    code contract, and exit 1 only with a finding or BoundExhausted."""
    path, dot_path = generated
    path.write_text(text)
    argv = [command, str(path), *draw_options(data, command)] + (["--json"] if as_json else [])
    if command == "check" and dot:
        argv += ["--dot", str(dot_path)]
    code, out, err = run_main(argv)
    event(f"{command} exit {code}")
    assert_exit_one_only_on_a_finding(command, code, assert_contract(code, out, err, as_json))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), as_json=st.booleans(), data=st.data())
def test_crosscheck_keeps_its_contract(seed, as_json, data):
    argv = ["crosscheck", "--seed", str(seed), *draw_options(data, "crosscheck")] + (["--json"] if as_json else [])
    code, out, err = run_main(argv)
    event(f"crosscheck exit {code}")
    assert_exit_one_only_on_a_finding("crosscheck", code, assert_contract(code, out, err, as_json))


# sha256 of the text output of each command line, pinned from the output of
# `print` called once per line, with its line count and first and last lines
TEXT_OUTPUTS = [
    (["trace", "pairs2.gt"], 21, "20 trace(s) up to length 16",
     "  a1 -> b1 : m ; b1 -> a1 : k ; a1 -> b1 : z ; a0 -> b0 : m ; b0 -> a0 : k ; a0 -> b0 : z",
     "7b240dd7a5689b1e085075c8bbc76e7a343c0ad965240e4470d652a2200f9bda"),
    (["trace", "pairs3.gt"], 1681, "1680 trace(s) up to length 22",
     "  a2 -> b2 : m ; b2 -> a2 : k ; a2 -> b2 : z ; a1 -> b1 : m ; b1 -> a1 : k ; a1 -> b1 : z"
     " ; a0 -> b0 : m ; b0 -> a0 : k ; a0 -> b0 : z",
     "7a106abe504a35748e4a67916779e5f9678fb82ba640c5442e6818f3a4554dc7"),
    (["simulate", "pairs3.mps"], 13, "Live", "  ... (1670 more; raise --traces to list them)",
     "b21db32b0f790a2af751d9f3d7a52c7dea287151a34ff5020c484661d7fd38f6"),
    (["verify", "pairs3.gt", "pairs3.mps"], 4, "sound: yes", "bounds: max_len=22 buf_bound=4 (exact)",
     "8027ae18a8f181865a2b9ec3d39729c3e2732809318372226f5db23d7b631a3a"),
]


@pytest.mark.parametrize(("argv", "count", "first", "last", "sha256"), TEXT_OUTPUTS,
                         ids=["-".join(case[0]) for case in TEXT_OUTPUTS])
def test_text_output_is_unchanged(monkeypatch, capsys, tmp_path, argv, count, first, last, sha256):
    (tmp_path / "pairs2.gt").write_text(pairs(2))
    (tmp_path / "pairs3.gt").write_text(pairs(3))
    (tmp_path / "pairs3.mps").write_text(pairs_text(3))
    monkeypatch.chdir(tmp_path)
    assert run_in_process(monkeypatch, *argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert (len(lines), lines[0], lines[-1]) == (count, first, last)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
