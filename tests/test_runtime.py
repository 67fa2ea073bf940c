"""Asynchronous execution: liveness verdicts and session traces."""

from __future__ import annotations

import itertools
import re
import time
from collections import deque

import pytest

from mpst import runtime
from mpst.runtime import (
    DEFAULT_BUF_BOUND,
    DEFAULT_DEPTH_BOUND,
    Config,
    Live,
    NotLive,
    Session,
    Unknown,
    buffer_normalize,
    explore,
    explore_parts,
    is_live,
    session_traces,
)
from mpst.projector import ProjectionError, project_top
from mpst.syntax import parse_global_type, parse_session_env
from mpst.tracelang import (
    BudgetExceededError,
    TraceAutomaton,
    compile_traces,
    count_traces,
    enumerate_traces,
    includes,
    shuffle_automata,
)
from mpst.verifier import random_global_type
from test_tracelang import is_trim

LOOP_UNTIL_DONE = "p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)"
NEVER_ENDS = "p : rec X . q!a.X\nq : rec Y . p?a.Y"
STARVING_OBSERVER = (
    "p : rec X . q!a.q!b.X\n"
    "q : rec Y . (p?a.p?b.Y + p?b.r!c.end)\n"
    "r : q?c.end"
)


def replay(env, verdict: NotLive, buf_bound: int = DEFAULT_BUF_BOUND) -> bool:
    """A NotLive witness must be a run: consecutive configurations related
    by the step relation, starting at the initial configuration."""
    session = Session(env, buf_bound)
    if verdict.witness[0] != session.initial():
        return False
    return all(
        after in [c for _, c in session.step(before)]
        for before, after in zip(verdict.witness, verdict.witness[1:])
    )


def test_terminating_loop_is_live():
    assert isinstance(is_live(parse_session_env(LOOP_UNTIL_DONE)), Live)


def test_unterminating_loop_is_not_live_with_replayable_witness():
    env = parse_session_env(NEVER_ENDS)
    verdict = is_live(env)
    assert isinstance(verdict, NotLive)
    assert replay(env, verdict)


def test_starving_observer_is_not_live_with_replayable_witness():
    env = parse_session_env(STARVING_OBSERVER)
    verdict = is_live(env)
    assert isinstance(verdict, NotLive)
    assert replay(env, verdict)


def test_deadlocked_inputs_are_not_live():
    env = parse_session_env("p : q?x.end\nq : p?y.end")
    verdict = is_live(env)
    assert isinstance(verdict, NotLive)
    assert replay(env, verdict)


def test_not_live_witness_is_a_shortest_run_to_a_stuck_configuration():
    # p may announce b, which q never accepts, but only after its output to r
    env = parse_session_env(
        "p : r!x.(q!a.end (+) q!b.end)\nq : p?a.end\nr : p?x.end"
    )
    verdict = is_live(env)
    assert isinstance(verdict, NotLive)
    assert replay(env, verdict)
    assert len(verdict.witness) - 1 == 2


def test_truncated_exploration_reports_unknown():
    verdict = is_live(parse_session_env(LOOP_UNTIL_DONE), depth_bound=2)
    assert isinstance(verdict, Unknown)
    assert verdict.explored == 2


def test_truncated_exploration_yields_a_trim_automaton():
    # cut off inside the long branch, whose configurations cannot reach
    # success yet: they are left out of the automaton
    env = parse_session_env(
        "p : q!b.end (+) q!a.q!c.q!c.q!c.end\n"
        "q : p?b.end + p?a.p?c.p?c.p?c.end"
    )
    verdict, auto = explore(env, buf_bound=1, depth_bound=7)
    assert isinstance(verdict, Unknown)
    assert is_trim(auto) and auto.n_states == 2
    bail = parse_global_type("p -> q : b").interaction
    assert session_traces(env, 6, buf_bound=1, depth_bound=7) == {(bail,)}


def test_join_input_waits_for_every_sender():
    env = parse_session_env("p : r!a.end\nq : r!a.end\nr : {p,q}?a.end")
    session = Session(env)
    config = session.initial()
    # outputs only, until both messages are buffered
    assert all(label is None for label, _ in session.step(config))
    # drive to the join: enqueue both, then the input consumes both buffers
    _, c1 = next(x for x in session.step(config) if x[0] is None)
    _, c2 = next(x for x in session.step(c1) if x[0] is None)
    fires = [(label, c) for label, c in session.step(c2) if label is not None]
    assert len(fires) == 1
    label, done = fires[0]
    assert label.senders == frozenset({"p", "q"}) and label.message == "a"
    assert done.buffers == ()
    assert reference_success(session, done)
    assert isinstance(is_live(env), Live)


def test_partial_join_does_not_fire():
    env = parse_session_env("p : r!a.end\nq : r!a.end\nr : {p,q}?a.end")
    session = Session(env)
    config = session.initial()
    (_, one_sent) = next(x for x in session.step(config) if x[0] is None)
    assert all(label is None for label, _ in session.step(one_sent))


def test_buffer_bound_disables_overflowing_outputs():
    env = parse_session_env(NEVER_ENDS)
    session = Session(env, buf_bound=1)
    config = session.initial()
    (_, full) = session.step(config)[0]
    # p's buffer is full: only q's input remains
    moves = session.step(full)
    assert all(label is not None for label, _ in moves)


def test_session_traces_match_global_traces_for_star_protocol():
    protocol = parse_global_type("(p -> q : a)* ; p -> q : b")
    env = project_top(protocol)
    assert session_traces(env, 7, buf_bound=1) == enumerate_traces(
        compile_traces(protocol), 7
    )


def test_session_traces_of_non_live_sessions_are_empty():
    assert session_traces(parse_session_env(NEVER_ENDS), 10) == set()
    assert session_traces(parse_session_env(STARVING_OBSERVER), 10) == set()


def test_session_traces_grow_with_the_bound():
    env = parse_session_env(LOOP_UNTIL_DONE)
    small = session_traces(env, 3)
    large = session_traces(env, 6)
    assert small <= large
    assert len(small) == 3 and len(large) == 6


def test_buffer_normalize_sorts_and_drops_empty_queues():
    raw = {("p", "q"): ["a", "b"], ("a", "z"): [], ("q", "p"): ["c"]}
    assert buffer_normalize(raw) == (
        (("p", "q"), ("a", "b")),
        (("q", "p"), ("c",)),
    )
    assert buffer_normalize({}) == ()


def test_a_session_builds_each_letter_once():
    """Width-3 parallel pairs: the session automaton takes its 9 letters,
    each as one object, however many moves take it."""
    env = parse_session_env(
        "\n".join(
            f"a{i} : b{i}!m.b{i}?k.b{i}!z.end\nb{i} : a{i}?m.a{i}!k.a{i}?z.end"
            for i in range(3)
        )
    )
    verdict, automaton = explore(env)
    assert isinstance(verdict, Live)
    labels = [label for row in automaton.delta for label, _ in row]
    assert len(labels) > 400
    assert len({id(label) for label in labels}) == 9
    assert len(set(labels)) == 9


def pairs_text(width: int) -> str:
    """The session of width-n parallel pairs: a_i sends m, b_i answers k,
    a_i sends z, for i < n."""
    return "\n".join(
        f"a{i} : b{i}!m.b{i}?k.b{i}!z.end\nb{i} : a{i}?m.a{i}!k.a{i}?z.end" for i in range(width)
    )


def pairs_env(width: int):
    return parse_session_env(pairs_text(width))


# ---------------------------------------------------------------------------
# The exploration as it ran on `Config` objects, before configurations were
# numbered: the reference for `explore`.
# ---------------------------------------------------------------------------


def reference_step(session: Session, c: Config) -> list:
    buffers = {chan: list(msgs) for chan, msgs in c.buffers}
    out = []
    for i, (role, m) in enumerate(zip(session.roles, session.machines)):
        state = c.locations[i]
        for bk, target in m.branches[state].items():
            if bk[0] == "out":
                _, partner, msg = bk
                chan = (role, partner)
                queue = buffers.get(chan, [])
                if len(queue) >= session.buf_bound:
                    continue
                nb = dict(buffers)
                nb[chan] = queue + [msg]
                nxt = Config(
                    c.locations[:i] + (target,) + c.locations[i + 1 :],
                    buffer_normalize(nb),
                )
                out.append((None, nxt))
            else:
                _, partners, msg = bk
                if all(
                    buffers.get((s, role), [None])[0:1] == [msg]
                    for s in partners
                ):
                    nb = dict(buffers)
                    for s in partners:
                        nb[(s, role)] = buffers[(s, role)][1:]
                    nxt = Config(
                        c.locations[:i] + (target,) + c.locations[i + 1 :],
                        buffer_normalize(nb),
                    )
                    out.append((session.letters[partners, role, msg], nxt))
    return out


def reference_success(session: Session, c: Config) -> bool:
    """Whether every role of `c` has ended and every buffer is empty."""
    return not c.buffers and all(m.kinds[s] == "end" for m, s in zip(session.machines, c.locations))


def reference_explore_graph(session: Session, depth_bound: int):
    init = session.initial()
    graph = {}
    parents = {init: None}
    queue = deque([init])
    truncated = False
    while queue:
        c = queue.popleft()
        if len(graph) >= depth_bound:
            truncated = True
            break
        succs = reference_step(session, c)
        graph[c] = succs
        for _, c2 in succs:
            if c2 not in parents:
                parents[c2] = c
                queue.append(c2)
    return graph, truncated, parents


def reference_can_reach(graph, targets):
    reverse = {}
    for c, succs in graph.items():
        for _, c2 in succs:
            reverse.setdefault(c2, []).append(c)
    closure = set(targets)
    work = list(targets)
    while work:
        c = work.pop()
        for p in reverse.get(c, ()):
            if p not in closure:
                closure.add(p)
                work.append(p)
    return closure


def reference_liveness(graph, truncated, parents, success):
    frontier = {
        c2 for succs in graph.values() for _, c2 in succs if c2 not in graph
    }
    promising = reference_can_reach(graph, success | frontier if truncated else success)
    bad = next((c for c in graph if c not in promising), None)
    if bad is None:
        return Unknown(len(graph)) if truncated else Live()
    path = [bad]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return NotLive(tuple(reversed(path)))


def reference_trace_automaton(session, graph, success):
    live = reference_can_reach(graph, success)
    init = session.initial()
    if init not in live:
        return TraceAutomaton([[]], frozenset())
    index = {init: 0}
    delta = [[]]
    accepts = set()
    work = [init]
    while work:
        c = work.pop()
        q = index[c]
        edges = {}
        silent, todo = {c}, [c]
        while todo:
            c1 = todo.pop()
            if c1 in success:
                accepts.add(q)
            for label, c2 in graph[c1]:
                if c2 not in live:
                    continue
                if label is not None:
                    if c2 not in index:
                        index[c2] = len(delta)
                        delta.append([])
                        work.append(c2)
                    edges[(label, index[c2])] = None
                elif c2 not in silent:
                    silent.add(c2)
                    todo.append(c2)
        delta[q] = list(edges)
    return TraceAutomaton(delta, frozenset(accepts))


def reference_explore(env, buf_bound, depth_bound):
    """The verdict and trace automaton of the reference exploration, its
    graph and whether it was truncated."""
    session = Session(env, buf_bound)
    graph, truncated, parents = reference_explore_graph(session, depth_bound)
    success = {c for c in graph if reference_success(session, c)}
    verdict = reference_liveness(graph, truncated, parents, success)
    if isinstance(verdict, NotLive):
        return verdict, TraceAutomaton([[]], frozenset()), graph, truncated
    return verdict, reference_trace_automaton(session, graph, success), graph, truncated


# q never takes b: p's first choice is stuck at once, and its other choice
# is long, so a truncated exploration can still find it stuck
STUCK_OR_LONG = "p : q!b.end (+) q!a.q!c.q!c.q!c.end\nq : p?a.p?c.p?c.p?c.end"


def differential_envs():
    """Projections of criterion 8's random samples, the three sessions of
    the benchmark corpus, one that is stuck under truncation, and width-2
    to width-4 pairs."""
    envs = []
    for i in range(200):
        try:
            envs.append(project_top(random_global_type(20260814 + i)))
        except ProjectionError:
            pass
    texts = (LOOP_UNTIL_DONE, NEVER_ENDS, STARVING_OBSERVER, STUCK_OR_LONG)
    return envs + [*map(parse_session_env, texts), *map(pairs_env, (2, 3, 4))]


@pytest.fixture()
def counted(monkeypatch):
    """How often `_can_reach` and `Session._step` run."""
    calls = {"reach": 0, "step": 0}
    can_reach, step = runtime._can_reach, Session._step

    def counting_reach(*args):
        calls["reach"] += 1
        return can_reach(*args)

    def counting_step(self, key):
        calls["step"] += 1
        return step(self, key)

    monkeypatch.setattr(runtime, "_can_reach", counting_reach)
    monkeypatch.setattr(Session, "_step", counting_step)
    return calls


def test_numbered_exploration_answers_as_the_reference(counted):
    """Same verdict, same NotLive witness, same number explored, and trace
    automata of one language, under every buffer bound from 1 to 4 and
    depth bounds that truncate; one backward pass when nothing is
    truncated, and one step per expanded configuration."""
    envs = differential_envs()
    assert len(envs) > 60
    seen = set()
    for env in envs:
        for buf_bound in (1, 2, 3, 4):
            for depth_bound in (1, 2, 7, 50, DEFAULT_DEPTH_BOUND):
                expected, reference, graph, truncated = reference_explore(env, buf_bound, depth_bound)
                counted.update(reach=0, step=0)
                verdict, automaton = explore(env, buf_bound, depth_bound)
                assert verdict == expected
                assert includes(automaton, reference) is None and includes(reference, automaton) is None
                assert counted["step"] == len(graph)
                assert counted["reach"] == 1 + truncated
                seen.add((type(verdict), truncated))
    assert seen == {(Live, False), (NotLive, False), (NotLive, True), (Unknown, True)}


def test_step_takes_the_moves_of_the_reference_step():
    """`step` on every configuration the reference explores: the same
    moves, in the same order, to equal configurations."""
    texts = (LOOP_UNTIL_DONE, STARVING_OBSERVER, "p : r!a.end\nq : r!a.end\nr : {p,q}?a.end")
    for env in (pairs_env(3), *map(parse_session_env, texts)):
        for buf_bound in (1, 2):
            session = Session(env, buf_bound)
            graph, _, _ = reference_explore_graph(session, DEFAULT_DEPTH_BOUND)
            assert len(graph) > 3
            assert all(session.step(c) == moves for c, moves in graph.items())


def test_width_five_pairs_are_explored_to_a_live_verdict():
    """Width-5 pairs have 16,807 configurations, and 15,784 states in
    their trace automaton; explored whole, in under two seconds of CPU."""
    start = time.process_time()
    verdict, automaton = explore(pairs_env(5), depth_bound=20000)
    assert isinstance(verdict, Live)
    assert automaton.n_states == 15784
    assert time.process_time() - start < 2


TWO_LOOPS_AND_A_PAIR = "\n".join([
    LOOP_UNTIL_DONE,
    "u : rec X . (v!a.X (+) v!b.end)\nv : rec Y . (u?a.Y + u?b.end)",
    pairs_text(1),
])


def test_parts_are_explored_only_when_they_decide_the_whole():
    """Width-3 pairs have 7**3 configurations: each pair is explored alone
    from a depth of 343 on, and below it the whole session is, as one
    part.  A component that is not live sends the session to its whole
    exploration, for its NotLive witness."""
    session = Session(pairs_env(3))
    assert sorted(map(sorted, session.components())) == [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]
    verdict, parts = explore_parts(session, 342)
    assert verdict == Unknown(342) and list(parts) == [frozenset(session.roles)]
    verdict, parts = explore_parts(session, 343)
    assert verdict == Live()
    assert sorted(map(sorted, parts)) == [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]
    assert [automaton.n_states for automaton in parts.values()] == [4, 4, 4]
    env = parse_session_env(STARVING_OBSERVER + "\n" + pairs_text(1))
    starving = Session(env)
    assert len(starving.components()) == 2
    verdict, parts = explore_parts(starving, DEFAULT_DEPTH_BOUND)
    assert verdict == explore(env)[0] and isinstance(verdict, NotLive)
    assert list(parts) == [frozenset(starving.roles)] and not parts[frozenset(starving.roles)].accepts


def test_a_part_past_the_budget_left_is_not_decided(monkeypatch, counted):
    """Width-2 pairs at depth 10: the first pair's 7 configurations leave a
    budget of 10 // 7 = 1 to the second, whose exploration is cut after one
    step and not decided, before the whole is explored and decided.  So
    the backward passes and trace automata are the first pair's (one each)
    and the whole's (two passes, as it is cut, and one automaton)."""
    traced = []
    trace_automaton = runtime._trace_automaton
    monkeypatch.setattr(runtime, "_trace_automaton", lambda *args: traced.append(1) or trace_automaton(*args))
    verdict, parts = explore_parts(Session(pairs_env(2)), 10)
    assert verdict == Unknown(10) and len(parts) == 1
    assert counted["reach"] == 1 + 2
    assert len(traced) == 1 + 1
    assert counted["step"] == 7 + 1 + 10


def test_counting_parts_answers_as_the_whole_under_every_budget():
    """`count_traces` on the shuffle of the parts' automata gives the count
    and traces it gives on the whole session's automaton wherever the
    whole decides, and the same error wherever the whole visits too many
    prefixes, at every length bound tried and every budget from 1 to 149.
    The subset automaton of the shuffle is the product of the parts' subset
    automata, which the whole's maps onto, so it fills no more cells: where
    the whole fills too many, the shuffle fails the same way, or goes on to
    count as the whole does with cells to spare, or to visit too many
    prefixes on the way."""
    outcomes = set()
    for text in (pairs_text(2), LOOP_UNTIL_DONE + "\n" + pairs_text(1), TWO_LOOPS_AND_A_PAIR):
        env = parse_session_env(text)
        session = Session(env)
        shuffle = shuffle_automata(*explore_parts(session, DEFAULT_DEPTH_BOUND)[1].values())
        automaton = explore(env)[1]
        for max_len in (0, 1, 4, 9):
            spared = count_traces(automaton, max_len, 60, 10**6)
            for cap in range(1, 150):
                found = []
                for a in (shuffle, automaton):
                    try:
                        found.append(count_traces(a, max_len, 60, cap))
                    except BudgetExceededError as exc:
                        found.append(str(exc))
                parts, whole = found
                if isinstance(whole, str) and whole.startswith("filled"):
                    visited = f"visited more than {cap} prefixes of length <= {max_len}"
                    assert parts in (whole, spared, visited), (text, max_len, cap)
                    outcomes.add("filled" if parts == whole else "spared")
                else:
                    assert parts == whole, (text, max_len, cap)
                    outcomes.add("visited" if isinstance(whole, str) else "counted")
    assert outcomes == {"counted", "filled", "visited", "spared"}


def renamed_text(text: str, suffix: str) -> str:
    """The session environment `text` with `suffix` appended to every role:
    to each name before a `:` that opens a line, a `!` or a `?`, or inside
    the braces of a set of partners."""
    return re.sub(r"\b(\w+)(?=\s*[:!?,}])", lambda m: m.group(1) + suffix, text)


def disjoint_unions() -> list[str]:
    """Every union of two and of three of the corpus sessions,
    `STUCK_OR_LONG` and width-1 pairs, renamed apart: sessions of two or
    three components, each Live, NotLive, or stuck only past a short
    depth."""
    texts = (LOOP_UNTIL_DONE, NEVER_ENDS, STARVING_OBSERVER, STUCK_OR_LONG, pairs_text(1))
    return [
        "\n".join(renamed_text(text, str(k)) for k, text in enumerate(chosen))
        for n in (2, 3)
        for chosen in itertools.combinations_with_replacement(texts, n)
    ]


def test_parts_answer_as_the_whole_exploration(monkeypatch):
    """`explore_parts` gives the verdict of the whole session's exploration,
    with the same `Unknown.explored` and NotLive witness, and parts whose
    shuffle has the whole's language, at depths on both sides of the
    sessions' sizes and both buffer bounds.  Only a session whose parts
    are all Live is decided by parts."""
    explored = []
    search = runtime._explore
    monkeypatch.setattr(runtime, "_explore", lambda session, depth: explored.append(session.roles) or search(session, depth))
    unions = [parse_session_env(text) for text in disjoint_unions()]
    assert len(unions) == 50 and all(len(Session(env).components()) > 1 for env in unions)
    seen = set()
    for env in differential_envs() + unions:
        for buf_bound in (1, 4):
            for depth_bound in (1, 5, 30, 200, 10000):
                session = Session(env, buf_bound)
                explored.clear()
                verdict, parts = explore_parts(session, depth_bound)
                whole = session.roles in explored
                expected, automaton = session.explore(depth_bound)
                assert verdict == expected
                if isinstance(verdict, NotLive):
                    assert replay(env, verdict, buf_bound)
                shuffle = shuffle_automata(*parts.values())
                assert includes(shuffle, automaton) is None and includes(automaton, shuffle) is None
                seen.add((type(verdict).__name__, "whole" if whole else "parts"))
    assert seen == {
        ("Live", "parts"), ("Live", "whole"), ("NotLive", "whole"), ("Unknown", "whole")
    }


def test_every_part_is_its_component_explored_alone():
    """A part's automaton is the one its roles' session gives when explored
    alone, and a single part is the whole's: the parts and the whole are
    decided by one routine."""
    unions = [parse_session_env(text) for text in disjoint_unions()]
    split = 0
    for env in differential_envs() + unions:
        for buf_bound in (1, 4):
            for depth_bound in (1, 5, 30, 200, 10000):
                _, parts = explore_parts(Session(env, buf_bound), depth_bound)
                if len(parts) == 1:
                    alone = {frozenset(env): Session(env, buf_bound).explore(depth_bound)[1]}
                else:
                    split += 1
                    alone = {
                        roles: Session({r: env[r] for r in roles if r in env}, buf_bound).explore(depth_bound)[1]
                        for roles in parts
                    }
                assert parts.keys() == alone.keys()
                for roles, automaton in parts.items():
                    assert automaton.delta == alone[roles].delta
                    assert automaton.accepts == alone[roles].accepts
    assert split > 0
