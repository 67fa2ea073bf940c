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

`explore` numbers the configurations breadth-first as it finds them, and
works on those numbers from then on: the configuration graph is a list of
rows of (label, number), one backward reachability pass from success
serves both the liveness verdict and the trace automaton, and `Config`
objects are built only for a NotLive witness.  A configuration's moves are
read off a move table that `Session` builds once per role and machine
state, and a move rebuilds only the canonical entry of each channel it
changes.

A session whose roles fall into groups that name no partner outside
their group is the product of the groups' sessions.  `explore_parts`
explores each group alone, n1 + n2 + ... configurations where the whole
has n1 · n2 · ..., and the whole only when that cannot decide the session
(one group, a group not Live, or n1 · n2 · ... past the depth bound);
either way it answers with a verdict and the trace automaton in parts
keyed by their roles.
"""

from __future__ import annotations

import copy
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


def _put(buffers: Buffer, chan: tuple, msgs: tuple) -> Buffer:
    """The canonical buffer map `buffers` with the queue of `chan` set to
    `msgs`, which drops the channel when `msgs` is empty."""
    for j, entry in enumerate(buffers):
        if entry[0] >= chan:
            rest = buffers[j + 1 :] if entry[0] == chan else buffers[j:]
            return buffers[:j] + ((chan, msgs),) + rest if msgs else buffers[:j] + rest
    return buffers + ((chan, msgs),) if msgs else buffers


@dataclass(frozen=True, slots=True)
class Config:
    """A snapshot of a running session: one machine state per role (in the
    session's fixed role order) and the canonical buffer map."""

    locations: tuple[int, ...]
    buffers: Buffer


# A move: the input it performs, or None for an output, which is silent;
# and the configuration it leads to.  Only this module sees silent moves.
Move = tuple[Optional[Interaction], Config]
# A configuration as `explore` keys it: the fields of its `Config`.
Key = tuple[tuple[int, ...], Buffer]
# The moves of a numbered configuration: (label, number of the target).
Row = list[tuple[Optional[Interaction], int]]


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
    """A session environment compiled to per-role machines, ready to run.

    `moves[i][s]` lists, in branch order, what role i can do in state s
    of its machine: (None, channel, message, target) for an output, and
    (letter, channels, message, target) for an input, whose channels run
    from each partner to the role.  The label of every input is built
    once: all moves that take one input share one letter, so the automata
    built from the moves find their letters by identity."""

    def __init__(self, env: SessionEnv, buf_bound: int = DEFAULT_BUF_BOUND):
        self.roles: tuple[Role, ...] = tuple(sorted(env))
        self.machines = [_machine.type_machine(env[r]) for r in self.roles]
        self.buf_bound = buf_bound
        self.letters: dict[tuple, Interaction] = {}
        self.moves: list[list[list[tuple]]] = []
        for role, m in zip(self.roles, self.machines):
            table = []
            for branches in m.branches:
                entries = []
                # the peer of an output is its partner, of an input the
                # set of its partners
                for (kind, peer, msg), target in branches.items():
                    if kind == "out":
                        entries.append((None, (role, peer), msg, target))
                        continue
                    letter = self.letters.get((peer, role, msg))
                    if letter is None:
                        letter = self.letters[peer, role, msg] = Interaction(peer, role, msg)
                    entries.append((letter, tuple((s, role) for s in peer), msg, target))
                table.append(entries)
            self.moves.append(table)

    def components(self) -> list[set[Role]]:
        """The roles, in groups that name no partner outside the group: the
        connected components of the relation between a role and those its
        machine sends to or receives from, which may not be session roles."""
        groups: list[set[Role]] = []
        for role, m in zip(self.roles, self.machines):
            joined, apart = {role}, []
            for branches in m.branches:
                for kind, peer, _ in branches:
                    joined |= {peer} if kind == "out" else peer
            for group in groups:
                if group.isdisjoint(joined):
                    apart.append(group)
                else:
                    joined |= group
            groups = apart + [joined]
        return groups

    def explore(self, depth_bound: int) -> tuple[Live | NotLive | Unknown, TraceAutomaton]:
        """`explore` on this session."""
        configs, rows, parents, truncated = _explore(self, depth_bound)
        success = bytearray(map(self._succeeds, configs[: len(rows)]))
        goals = [n for n, s in enumerate(success) if s]
        live = _can_reach(rows, len(configs), goals)
        frontier = range(len(rows), len(configs))
        promising = _can_reach(rows, len(configs), [*goals, *frontier]) if truncated else live
        verdict = _liveness(configs, rows, truncated, parents, promising)
        if isinstance(verdict, NotLive):
            return verdict, TraceAutomaton([[]], frozenset())
        return verdict, _trace_automaton(rows, live, success)

    def initial(self) -> Config:
        return Config(tuple(m.root for m in self.machines), ())

    def _succeeds(self, key: Key) -> bool:
        locations, buffers = key
        return not buffers and all(
            m.kinds[s] == "end" for m, s in zip(self.machines, locations)
        )

    def step(self, c: Config) -> list[Move]:
        """All moves from `c`: (None, c') for outputs, (label, c') for
        inputs."""
        return [(label, Config(*key)) for label, key in self._step((c.locations, c.buffers))]

    def _step(self, key: Key) -> list[tuple[Optional[Interaction], Key]]:
        """`step` on keys: the moves of role 0 first, each role's in
        branch order."""
        locations, buffers = key
        queues = dict(buffers)
        bound = self.buf_bound
        out = []
        for i, table in enumerate(self.moves):
            for letter, chans, msg, target in table[locations[i]]:
                if letter is None:
                    queue = queues.get(chans, ())
                    if len(queue) >= bound:
                        continue
                    nb = _put(buffers, chans, queue + (msg,))
                else:
                    # the input fires when the head of every partner's
                    # channel is the message, and takes each of them
                    nb = buffers
                    for chan in chans:
                        queue = queues.get(chan)
                        if not queue or queue[0] != msg:
                            break
                        nb = _put(nb, chan, queue[1:])
                    else:
                        out.append((letter, (locations[:i] + (target,) + locations[i + 1 :], nb)))
                    continue
                out.append((letter, (locations[:i] + (target,) + locations[i + 1 :], nb)))
        return out


def _explore(session: Session, depth_bound: int) -> tuple[list[Key], list[Row], list[int], bool]:
    """Breadth-first reachable configuration graph, expanding at most
    `depth_bound` configurations.  Returns (configs, rows, parents,
    truncated): configuration n is `configs[n]`, numbered in the order it
    was found, so the initial one is 0; `rows[n]` holds its moves for
    every expanded n, and since configurations are expanded in the order
    they are numbered, the ones discovered but not expanded are those
    from `len(rows)` on; `parents[n]` is the number of the configuration
    that discovered n (-1 for the initial one)."""
    m0 = session.initial()
    configs: list[Key] = [(m0.locations, m0.buffers)]
    number = {configs[0]: 0}
    parents = [-1]
    rows: list[Row] = []
    step = session._step
    while len(rows) < len(configs):
        if len(rows) >= depth_bound:
            return configs, rows, parents, True
        n = len(rows)
        row: Row = []
        for label, key in step(configs[n]):
            m = number.setdefault(key, len(configs))
            if m == len(configs):
                configs.append(key)
                parents.append(n)
            row.append((label, m))
        rows.append(row)
    return configs, rows, parents, False


def _can_reach(rows: list[Row], size: int, targets: list[int]) -> bytearray:
    """Which of the `size` numbered configurations can reach `targets`:
    a flag per number."""
    reverse: list[list[int]] = [[] for _ in range(size)]
    for n, row in enumerate(rows):
        for _, m in row:
            reverse[m].append(n)
    reach = bytearray(size)
    for t in targets:
        reach[t] = 1
    work = list(targets)
    while work:
        for p in reverse[work.pop()]:
            if not reach[p]:
                reach[p] = 1
                work.append(p)
    return reach


def _liveness(
    configs: list[Key], rows: list[Row], truncated: bool, parents: list[int], promising: bytearray
) -> Live | NotLive | Unknown:
    """Can every reachable configuration still reach success?  `promising`
    flags the configurations that can reach success, or the frontier of
    a truncated exploration.  Exact when the bounded configuration graph
    is fully explored; a configuration whose whole future was explored
    and never succeeds yields a definitive NotLive even under truncation.
    The witness is the BFS path to the first such configuration in
    exploration order, hence a shortest one."""
    bad = promising.find(0, 0, len(rows))
    if bad < 0:
        return Unknown(len(rows)) if truncated else Live()
    path = [bad]
    while parents[path[-1]] >= 0:
        path.append(parents[path[-1]])
    return NotLive(tuple(Config(*configs[n]) for n in reversed(path)))


def _trace_automaton(rows: list[Row], live: bytearray, success: bytearray) -> TraceAutomaton:
    """The explored graph as a trim automaton over input labels.  Only
    configurations that can reach success (flagged in `live`) are kept.  Outputs are
    silent, so each state takes the inputs of every configuration its
    outputs lead to, and accepts when those outputs reach success."""
    if not live[0]:
        return TraceAutomaton([[]], frozenset())
    index = {0: 0}
    delta: list[list[tuple[Interaction, int]]] = [[]]
    accepts = set()
    work = [0]
    while work:
        n = work.pop()
        q = index[n]
        edges: dict[tuple[Interaction, int], None] = {}
        silent, todo = {n}, [n]
        while todo:
            n1 = todo.pop()
            if success[n1]:
                accepts.add(q)
            for label, n2 in rows[n1]:
                if not live[n2]:
                    continue
                if label is not None:
                    q2 = index.get(n2)
                    if q2 is None:
                        q2 = index[n2] = len(delta)
                        delta.append([])
                        work.append(n2)
                    edges[(label, q2)] = None
                elif n2 not in silent:
                    silent.add(n2)
                    todo.append(n2)
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
    return Session(env, buf_bound).explore(depth_bound)


def explore_parts(session: Session, depth_bound: int) -> tuple[Live | NotLive | Unknown, dict[frozenset[Role], TraceAutomaton]]:
    """The verdict of `session.explore(depth_bound)` and the session's trace
    automaton in parts keyed by their roles, one per group of `components`.

    No role names a partner outside its group.  So the groups share no
    channel, and a move of one changes nothing another reads, so:

    - the configuration graph of the session is the product of the
      groups' graphs: its reachable configurations are the tuples of the
      groups' reachable configurations, n1 · n2 · ... of them, so its
      exploration finishes iff that product is at most `depth_bound`;
    - a tuple can reach success iff each of its entries can, so the
      session is Live iff every group is;
    - its traces are the shuffle of the groups' traces, over disjoint
      alphabets, as letters name the roles that take them (see
      `tracelang.role_groups`);
    - so, every group being Live and so having a trace, the session's
      traces are included in a shuffle of languages over the same groups
      iff each group's traces are included in its own: a word of a shuffle
      read on one group's letters is a word of that group's language, and
      any trace of a group, followed by one trace of each other, is a
      trace of the session;
    - and its traces of length n number N(n) = sum over k of C(n, k)
      N1(k) N2(n - k) for two groups, the binomial convolution of the
      groups' counts, as a trace is a choice of the positions that hold
      the first group's letters.

    So two or more groups, each Live, whose sizes multiply to at most
    `depth_bound` answer Live with each group's automaton (no larger than
    its graph).  Otherwise the whole is explored, as one part keyed by all
    its roles, for its NotLive witness or its Unknown count: a group whose
    exploration is cut has more than `depth_bound` configurations."""
    groups = session.components()
    if len(groups) > 1:
        parts: dict[frozenset[Role], TraceAutomaton] = {}
        size = 1
        for group in groups:
            keep = [i for i, role in enumerate(session.roles) if role in group]
            part = copy.copy(session)  # shares the machines and move tables
            part.roles = tuple(session.roles[i] for i in keep)
            part.machines = [session.machines[i] for i in keep]
            part.moves = [session.moves[i] for i in keep]
            configs, rows, _, _ = _explore(part, depth_bound)
            size *= len(configs)
            if size > depth_bound:
                break
            success = bytearray(map(part._succeeds, configs))
            live = _can_reach(rows, len(configs), [n for n, s in enumerate(success) if s])
            if 0 in live:
                break
            parts[frozenset(group)] = _trace_automaton(rows, live, success)
        else:
            return Live(), parts
    verdict, automaton = session.explore(depth_bound)
    return verdict, {frozenset(session.roles): automaton}


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
