"""Asynchronous execution: liveness verdicts and session traces."""

from __future__ import annotations

from mpst.runtime import (
    Live,
    NotLive,
    Session,
    Unknown,
    buffer_normalize,
    explore,
    is_live,
    session_traces,
)
from mpst.projector import project_top
from mpst.syntax import parse_global_type, parse_session_env
from mpst.tracelang import compile_traces, enumerate_traces
from test_tracelang import is_trim

LOOP_UNTIL_DONE = "p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)"
NEVER_ENDS = "p : rec X . q!a.X\nq : rec Y . p?a.Y"
STARVING_OBSERVER = (
    "p : rec X . q!a.q!b.X\n"
    "q : rec Y . (p?a.p?b.Y + p?b.r!c.end)\n"
    "r : q?c.end"
)


def replay(env, verdict: NotLive) -> bool:
    """A NotLive witness must be a run: consecutive configurations related
    by the step relation, starting at the initial configuration."""
    session = Session(env)
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
    assert session.is_success(done)
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
