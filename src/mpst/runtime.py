"""Asynchronous execution of sessions over buffered point-to-point channels.

A configuration pairs every role's current state in its session-type
machine with one FIFO buffer per (sender, receiver) pair.  Outputs are
internal moves: they append to a buffer (when it has room — outputs that
would overflow the bound are disabled, restricting the semantics to
bounded buffers).  Inputs are the observable moves: an input of message
`a` from partners π fires only when *every* buffer from a partner in π to
the receiver holds `a` at its head, and consumes one copy from each.

A session is live when every reachable configuration can still reach
success: all roles ended with all buffers drained.  The traces of a
session are the sequences of input labels along runs that reach success;
a session that is not live has no traces at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import machine as _machine
from .syntax import Interaction, Role, SessionEnv
from .tracelang import TraceAutomaton, Word, enumerate_traces

DEFAULT_BUF_BOUND = 4
DEFAULT_DEPTH_BOUND = 10000

Buffer = tuple  # canonical: sorted tuple of ((sender, receiver), (msg, ...))


def buffer_normalize(buffers: dict) -> Buffer:
    """Canonical form of a buffer map: only non-empty queues, sorted by
    channel, contents as tuples.  Two buffer maps are equal iff their
    canonical forms are."""
    return tuple(
        sorted((chan, tuple(msgs)) for chan, msgs in buffers.items() if msgs)
    )


@dataclass(frozen=True, slots=True)
class Config:
    """A snapshot of a running session: one machine state per role (in the
    session's fixed role order) and the canonical buffer map."""

    locations: tuple[int, ...]
    buffers: Buffer


# A move: the input it performs, or None for an output, which is silent;
# and the configuration it leads to.  Only this module sees silent moves.
Move = tuple[Optional[Interaction], Config]
Graph = dict[Config, list[Move]]
Parents = dict[Config, Optional[Config]]


@dataclass(frozen=True, slots=True)
class Live:
    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class NotLive:
    """`witness` is a replayable run (successive configurations, starting
    at the initial one) ending in a configuration from which success is
    unreachable."""

    witness: tuple[Config, ...]

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Unknown:
    """Exploration hit the configuration bound before the verdict was
    decided."""

    explored: int

    def __bool__(self) -> bool:
        return False


class Session:
    """A session environment compiled to per-role machines, ready to run."""

    def __init__(self, env: SessionEnv, buf_bound: int = DEFAULT_BUF_BOUND):
        self.roles: tuple[Role, ...] = tuple(sorted(env))
        self.machines = [_machine.type_machine(env[r]) for r in self.roles]
        self.buf_bound = buf_bound
        # The label of every input a role can take, built once: all moves
        # that take one input share one letter, so the automata built from
        # the moves find their letters by identity.
        self.letters: dict[tuple, Interaction] = {}
        for role, m in zip(self.roles, self.machines):
            for branches in m.branches:
                for kind, partners, msg in branches:
                    key = (partners, role, msg)
                    if kind == "in" and key not in self.letters:
                        self.letters[key] = Interaction(partners, role, msg)

    def initial(self) -> Config:
        return Config(tuple(m.root for m in self.machines), ())

    def is_success(self, c: Config) -> bool:
        return not c.buffers and all(
            m.kinds[s] == "end" for m, s in zip(self.machines, c.locations)
        )

    def step(self, c: Config) -> list[Move]:
        """All moves from `c`: (None, c') for outputs, (label, c') for
        inputs."""
        buffers = {chan: list(msgs) for chan, msgs in c.buffers}
        out: list[Move] = []
        for i, (role, m) in enumerate(zip(self.roles, self.machines)):
            state = c.locations[i]
            for bk, target in m.branches[state].items():
                if bk[0] == "out":
                    _, partner, msg = bk
                    chan = (role, partner)
                    queue = buffers.get(chan, [])
                    if len(queue) >= self.buf_bound:
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
                        out.append((self.letters[partners, role, msg], nxt))
        return out


def _explore(session: Session, depth_bound: int) -> tuple[Graph, bool, Parents]:
    """Breadth-first reachable configuration graph, capped at `depth_bound`
    configurations.  Returns (graph, truncated, parents): configurations
    discovered but not expanded are absent from the graph's key set, and
    `parents` maps every discovered configuration to the one that
    discovered it (None for the initial one)."""
    init = session.initial()
    graph: Graph = {}
    parents: Parents = {init: None}
    queue = deque([init])
    truncated = False
    while queue:
        c = queue.popleft()
        if len(graph) >= depth_bound:
            truncated = True
            break
        succs = session.step(c)
        graph[c] = succs
        for _, c2 in succs:
            if c2 not in parents:
                parents[c2] = c
                queue.append(c2)
    return graph, truncated, parents


def _can_reach(graph: Graph, targets: set[Config]) -> set[Config]:
    reverse: dict[Config, list[Config]] = {}
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


def _liveness(
    graph: Graph, truncated: bool, parents: Parents, success: set[Config]
) -> Live | NotLive | Unknown:
    """Can every reachable configuration still reach `success`?  Exact when
    the bounded configuration graph is fully explored; a configuration
    whose whole future was explored and never succeeds yields a definitive
    NotLive even under truncation.  The witness is the BFS path to the
    first such configuration in exploration order, hence a shortest one."""
    frontier: set[Config] = {
        c2 for succs in graph.values() for _, c2 in succs if c2 not in graph
    }
    promising = _can_reach(graph, success | frontier if truncated else success)
    bad = next((c for c in graph if c not in promising), None)
    if bad is None:
        return Unknown(len(graph)) if truncated else Live()
    path = [bad]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return NotLive(tuple(reversed(path)))


def _trace_automaton(
    session: Session, graph: Graph, success: set[Config]
) -> TraceAutomaton:
    """The explored graph as a trim automaton over input labels.  Only
    configurations that can reach `success` are kept.  Outputs are silent,
    so each state takes the inputs of every configuration its outputs lead
    to, and accepts when those outputs reach success."""
    live = _can_reach(graph, success)
    init = session.initial()
    if init not in live:
        return TraceAutomaton([[]], frozenset())
    index = {init: 0}
    delta: list[list[tuple[Interaction, int]]] = [[]]
    accepts = set()
    work = [init]
    while work:
        c = work.pop()
        q = index[c]
        edges: dict[tuple[Interaction, int], None] = {}
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


def explore(
    env: SessionEnv,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
) -> tuple[Live | NotLive | Unknown, TraceAutomaton]:
    """Build the session of `env` and explore its configuration graph
    once.  Returns the liveness verdict and the session's trace automaton
    (over input labels, accepting runs that reach success), which accepts
    nothing when the session is not live."""
    session = Session(env, buf_bound)
    graph, truncated, parents = _explore(session, depth_bound)
    success = {c for c in graph if session.is_success(c)}
    verdict = _liveness(graph, truncated, parents, success)
    if isinstance(verdict, NotLive):
        return verdict, TraceAutomaton([[]], frozenset())
    return verdict, _trace_automaton(session, graph, success)


def is_live(
    env: SessionEnv,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
) -> Live | NotLive | Unknown:
    """The liveness verdict of `explore`."""
    return explore(env, buf_bound, depth_bound)[0]


def session_traces(
    env: SessionEnv,
    max_len: int,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
) -> set[Word]:
    """The input-label sequences (length <= max_len) of runs that reach
    success — empty when the session is not live."""
    return enumerate_traces(explore(env, buf_bound, depth_bound)[1], max_len)
