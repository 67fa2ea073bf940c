"""Trace languages of global types.

A global type denotes a regular language of interactions.  This module
compiles global types to nondeterministic finite automata over interaction
letters, and provides the operations the rest of the package needs:
bounded enumeration, listing and counting of traces, language inclusion
with shortest counterexamples, shuffle products, Parikh vectors, and the
well-formedness check.

Automata have no epsilon moves, start at state 0 and are trim: every state
is reachable from state 0 and can reach acceptance.  Compilation builds
position automata (Berry & Sethi, TCS 1986), which are trim by
construction and standard (Caron & Ziadi, TCS 2000): no move enters the
start state.  So no construction copies an operand's start: each appends
the states of its parts but their starts to one list of moves (`_append`)
and gives the moves of each part's start to the states that go on with
it.  In a `;` spine (`_seq`) these are its junctions, the states reached
after each operand; in a `|` spine (`_alt`) the start of all.  A loop
`loopk (B1..Bk) exit (E1..Ek)` (`_loop`) is the `;` spine of its bodies
with each exit Ei wired into the junction before Bi, and its last
junction, where a round ends, takes the moves and the acceptance of the
start; `*` is the loop of one phase whose exit is the empty word.  So
every part is appended once, and a loop of k phases has one state more
than its parts have past their starts, not the O(k^2) states of the term
that unfolds it.  The automaton is folded bottom-up off an explicit stack
(`syntax.fold`), a `;`, `|` or `&` spine (`spine`) as one node, and
`shuffle_automata` builds an `&` spine's one product, each numbering
states as nested binary calls would.  No consumer cleans an automaton up
first.  The one automaton that is not trim is the one-swap automaton
`well_formed` builds for a type that is not well formed, which only
`includes` reads.

Automata stay nondeterministic.  Each keeps the one subset automaton
(`_Subset`) that all its language questions read, filled in row by row:
`swap_closed` reads every row, the other questions only those they reach.
Its letters are numbered, and its rows ordered, by the letters' texts, so
every word a question picks is the least in one order, `word_key`'s: the
counterexample of `includes`, the witness of `well_formed`, the gap of
`first_uncovered` and the traces listed.

Traces up to a length are listed by one breadth-first pass (`_traces`)
that keeps each prefix as a link to the prefix it extends, so only the
traces are built, in `word_key` order: as a set of words
(`enumerate_traces`), as the texts of their letters (`list_traces`, for
`trace`), or up to the first whose Parikh vector another language lacks
(`first_uncovered`, for `verify`).  `count_traces` counts them for
`simulate` by a dynamic program over the non-zero (length, state) cells,
and builds only the first few.  Each is budgeted by its work and raises
`BudgetExceededError` past it, and so is the automaton of a spine or a
loop, by its states, counted before any is built.

`minimal_form`, with which `machine` minimizes session machines, merges
states by Hopcroft partition refinement, in O(m log n) for m moves between
n states.  The deterministic automata it minimizes are partial, so every
initial block (the states of one kind) starts as a splitter, which does
the work of a sink state for the missing letters.

`well_formed` decides closure under swaps by swap diamonds on the subset
automaton of the compiled automaton (`swap_closed`): from every state,
each independent pair read in one order must be readable in the other,
and whatever follows the first order must follow the second.  Most
diamonds close on one state; the rest seed one inclusion search between
states of the same deterministic automaton.  `is_well_formed` stops there,
with a boolean.  Only `well_formed`, which `check` uses, finds a witness:
for a type that is not well formed it builds the one-swap automaton
(`_swap_variants`) and runs `includes` on it, to find the least word
outside the traces.

A type whose root is an `&` of parts with disjoint roles is decided one
part at a time.  The operands of the root `&` spine are grouped by shared
roles, transitively (`role_groups`), and compiled alone (`compile_parts`);
the type is well formed iff each group is, so the product of the groups,
whose states multiply, is never built for a well-formed type.  Only the
witness of a type that is not well formed is found on the product, as
for any type.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce

from .syntax import (
    GAction,
    GBoth,
    GEither,
    GlobalType,
    GSeq,
    GSkip,
    GStar,
    Interaction,
    Role,
    fold,
    roles_of,
    spine,
    subterms,
)

Word = tuple[Interaction, ...]

DEFAULT_ENUM_CAP = 100000
# The defaults of the bounds that the runtime (a channel's buffer and the
# configurations explored) and the projector (the terms the `&` search
# visits) take.  They are kept here, beside the enumeration cap, so the
# command line reads them without loading those layers.
DEFAULT_BUF_BOUND = 4
DEFAULT_DEPTH_BOUND = 10000
DEFAULT_AND_BUDGET = 256


class BudgetExceededError(RuntimeError):
    """An enumeration visited more prefixes than the allowed budget."""


class TraceAutomaton:
    """A nondeterministic finite automaton over interaction letters.

    `delta[q]` is a list of (label, target) pairs; every label is an
    interaction, so there are no epsilon moves.  State 0 is the start
    state, and `accepts` is the set of accepting states.  Every language
    question reads its one subset automaton, `_subset`, built by the first.

    Every automaton the package builds is trim: every state is reachable
    from state 0 and can reach an accepting state, and the empty language
    is the single state 0 with no moves.  Compiled automata are also
    standard: no move enters state 0.  The one automaton that is not trim
    is `_swap_variants`' one-swap automaton, which `well_formed` builds
    only for a type that is not well formed and which only ever serves as
    the left operand of `includes`.
    """

    def __init__(
        self,
        delta: list[list[tuple[Interaction, int]]],
        accepts: frozenset[int],
    ):
        self.delta = delta
        self.accepts = frozenset(accepts)

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @cached_property
    def _subset(self) -> _Subset:
        return _Subset(self)

    def member(self, word: Word) -> bool:
        dfa, s = self._subset, 0
        for letter in word:
            s = dfa[s].get(dfa.ids.get(letter))
            if s is None:
                return False
        return dfa.accepting[s]

    def to_dot(self) -> str:
        """The automaton in DOT graph format (for debugging dumps)."""
        lines = ["digraph traces {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepts else "circle"
            lines.append(f"  s{q} [shape={shape}, label=\"{q}\"];")
        lines.append("  hidden -> s0;")
        for q in range(self.n_states):
            for lab, r in self.delta[q]:
                lines.append(f'  s{q} -> s{r} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)


class _Subset(dict):
    """The subset automaton of a `TraceAutomaton`, whose moves must not
    change once this is built: the state sets reachable from {0}, numbered
    as they are found, over letters numbered in the order of their texts,
    the order of `word_key` (letter `x` is `letters[x]`, its text, formatted
    once, is `texts[x]`, and `ids` maps the letter back).  `self[s]` maps
    each letter of state `s`, in that order, to its successor, computed
    when first read (`__missing__`), and `accepting[s]` says whether `s`
    accepts.  Every state of the subset automaton of a trim automaton
    accepts some word.  Numbering a set past `DEFAULT_ENUM_CAP` raises
    BudgetExceededError, so every reader is budgeted."""

    def __init__(self, a: TraceAutomaton):
        texts = {lab: str(lab) for lab in {lab for edges in a.delta for lab, _ in edges}}
        letters = sorted(texts, key=texts.__getitem__)
        ids = {lab: x for x, lab in enumerate(letters)}
        self.letters, self.texts, self.ids = letters, [texts[lab] for lab in letters], ids
        self.accepting = [0 in a.accepts]
        self._moves = [[(ids[lab], r) for lab, r in edges] for edges in a.delta]
        self._accepts, self._sets, self._index = a.accepts, [frozenset({0})], {frozenset({0}): 0}

    def __missing__(self, s: int) -> dict[int, int]:
        moves, sets, index = self._moves, self._sets, self._index
        succ: dict[int, set[int]] = {}
        for q in sets[s]:
            for x, r in moves[q]:
                succ.setdefault(x, set()).add(r)
        row = {}  # kept only once whole
        for x in sorted(succ):
            t = frozenset(succ[x])
            n = index.get(t)
            if n is None:
                if len(sets) >= DEFAULT_ENUM_CAP:
                    raise BudgetExceededError(f"more than {DEFAULT_ENUM_CAP} states in the subset automaton")
                n = index[t] = len(sets)
                sets.append(t)
                self.accepting.append(not self._accepts.isdisjoint(t))
            row[x] = n
        self[s] = row
        return row


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _empty_word() -> TraceAutomaton:
    return TraceAutomaton([[]], frozenset({0}))


def _letter(i: Interaction) -> TraceAutomaton:
    return TraceAutomaton([[(i, 1)], []], frozenset({1}))


def _wire(delta, sources, edges) -> None:
    """Give every state in `sources` the moves `edges` as well.  Each
    state gets a new list, so `edges` may be one of the lists wired; with
    no moves to wire, no list is copied."""
    if edges:
        for q in sources:
            delta[q] = list(dict.fromkeys(delta[q] + edges))


def _budget(autos: list[TraceAutomaton], what: str) -> None:
    """Raise BudgetExceededError, before anything is built, when appending
    `autos`, each but its start, to one start state would pass
    `DEFAULT_ENUM_CAP` states."""
    if 1 + sum([len(a.delta) - 1 for a in autos]) > DEFAULT_ENUM_CAP:
        raise BudgetExceededError(f"more than {DEFAULT_ENUM_CAP} states in the automaton of {what}")


def _append(delta, a: TraceAutomaton, sources) -> frozenset[int]:
    """Append the states of `a` but its start, which no move enters, to
    `delta`, numbered on from its last state, and give every state in
    `sources` the moves of `a`'s start; the first part appended to a lone
    start with no moves is taken as it is.  Returns the accepting states
    of `a` that were appended, as numbered in `delta`."""
    shift = len(delta) - 1
    if not shift:
        delta[:] = a.delta
        return a.accepts - {0}
    moves = [[(lab, r + shift) for lab, r in edges] for edges in a.delta]
    delta += moves[1:]
    _wire(delta, sources, moves[0])
    return frozenset([f + shift for f in a.accepts if f])


def _chain(autos: list[TraceAutomaton]) -> tuple[list, list[frozenset[int]]]:
    """The moves of the `;` spine of `autos`, numbered as a left fold of
    binary steps numbers them, and its junctions J0 = {0}, J1, .., Ji the
    states reached after the first i operands: Ji takes the moves of the
    next operand's start, and holds J(i-1) too when the i-th operand
    accepts the empty word."""
    delta, junctions = [[]], [frozenset({0})]
    for a in autos:
        last = _append(delta, a, junctions[-1])
        junctions.append(junctions[-1] | last if 0 in a.accepts else last)
    return delta, junctions


def _seq(autos: list[TraceAutomaton]) -> TraceAutomaton:
    """The automaton of a `;` spine whose operands are compiled to `autos`."""
    _budget(autos, "a `;` or `|` spine")
    delta, junctions = _chain(autos)
    return TraceAutomaton(delta, junctions[-1])


def _alt(autos: list[TraceAutomaton]) -> TraceAutomaton:
    """The automaton of a `|` spine whose operands are compiled to `autos`:
    the start of all takes the moves of each operand's start, and accepts
    when one of them does."""
    _budget(autos, "a `;` or `|` spine")
    delta, accepts = [[]], frozenset()
    for a in autos:
        accepts |= _append(delta, a, [0]) | (a.accepts & {0})
    return TraceAutomaton(delta, accepts)


def _loop(bodies: list[TraceAutomaton], exits: list[TraceAutomaton | None]) -> TraceAutomaton:
    """The automaton of `loopk (B1..Bk) exit (E1..Ek)` whose bodies and
    exits are compiled to `bodies` and `exits`, each appended once: the
    bodies as one `;` spine (`_chain`) with junctions J0..Jk, then each
    exit Ei, whose start's moves J(i-1) takes; J(i-1) accepts when Ei
    accepts the empty word.  A finished round is the start again, so Jk
    takes the start's moves, and accepts when the start does.  `*` is the
    loop of one phase whose exit is the empty word, given as None, which
    appends and wires nothing: J0 accepts."""
    _budget(bodies + [e for e in exits if e is not None], "a loop")
    delta, junctions = _chain(bodies)
    accepts = frozenset()
    for before, e in zip(junctions, exits):
        if e is not None:
            accepts |= _append(delta, e, before)
        if e is None or 0 in e.accepts:
            accepts |= before
    _wire(delta, junctions[-1], delta[0])
    return TraceAutomaton(delta, accepts | junctions[-1] if 0 in accepts else accepts)


def shuffle_automata(*parts: TraceAutomaton) -> TraceAutomaton:
    """All interleavings of one trace of each of `parts`: every tuple of
    their states (each one number, in mixed radix), numbered depth-first
    from (0, ..., 0) taking each part's moves in turn, as nested binary
    products number them.  A lone part is returned as it is.  Raises
    BudgetExceededError, before building any, when their number passes
    `DEFAULT_ENUM_CAP`."""
    if len(parts) == 1:
        return parts[0]
    radix, size = [], 1
    for part in parts:
        moves = [[(lab, (r - q) * size) for lab, r in edges] for q, edges in enumerate(part.delta)]
        radix.append((size, part.n_states, moves, part.accepts))
        size *= part.n_states
        if size > DEFAULT_ENUM_CAP:
            raise BudgetExceededError(f"more than {DEFAULT_ENUM_CAP} states in the shuffle product of an `&`")
    index = {0: 0}
    delta: list[list[tuple[Interaction, int]]] = [[]]
    work = [0]
    while work:
        t = work.pop()
        edges = delta[index[t]]
        for stride, n, moves, _ in radix:
            for lab, shift in moves[t // stride % n]:
                s = index.get(t + shift)
                if s is None:
                    s = index[t + shift] = len(delta)
                    delta.append([])
                    work.append(t + shift)
                edges.append((lab, s))
    accepts = (s for t, s in index.items() if all(t // stride % n in f for stride, n, _, f in radix))
    return TraceAutomaton(delta, frozenset(accepts))


def _operands(g: GlobalType):
    """What `compile_traces` builds the automaton of `g` from: the
    operands of a `;`, `|` or `&` spine, or else the immediate subterms."""
    k = type(g)
    return spine(g) if k is GSeq or k is GEither or k is GBoth else subterms(g)


def _compiled(g: GlobalType, autos: list[TraceAutomaton]) -> TraceAutomaton:
    """The automaton of `g`, given those of its `_operands`."""
    k = type(g)
    if k is GAction:
        return _letter(g.interaction)
    if k is GSkip:
        return _empty_word()
    if k is GSeq:
        return _seq(autos)
    if k is GEither:
        return _alt(autos)
    if k is GBoth:
        return shuffle_automata(*autos)
    if k is GStar:
        return _loop(autos, [None])
    n = len(g.bodies)
    return _loop(autos[:n], autos[n:])


def compile_traces(g: GlobalType) -> TraceAutomaton:
    """An automaton accepting exactly the traces of `g`, folded bottom-up
    (`syntax.fold`), a spine as one node."""
    return fold(g, _compiled, _operands)


# ---------------------------------------------------------------------------
# Language operations
# ---------------------------------------------------------------------------


def _traces(dfa: _Subset, max_len: int, cap: int, names: list) -> Iterator[list]:
    """The traces of length <= max_len of `dfa`'s automaton in `word_key`
    order, each as the list of the `names` of its letters (`dfa.letters`
    or `dfa.texts`).  One breadth-first pass takes each row's letters in
    order and keeps a prefix as a link, (letter id, the link of the prefix
    it extends), so only the traces are built.  Raises BudgetExceededError,
    checked in this order at every prefix visited, when more than `cap` of
    them are traces or more than `cap` are visited."""
    accepting = dfa.accepting
    level: list[tuple[int, tuple | None]] = [(0, None)]  # (state, prefix) of one length
    visited = found = n = 0
    while level:
        below: list[tuple[int, tuple]] = []
        append, longer = below.append, n < max_len
        for s, prefix in level:
            visited += 1
            found += accepting[s]
            if found > cap:
                raise BudgetExceededError(f"more than {cap} traces of length <= {max_len}")
            if visited > cap:
                raise BudgetExceededError(f"visited more than {cap} prefixes of length <= {max_len}")
            if accepting[s]:
                word, link = [], prefix
                while link:
                    x, link = link
                    word.append(names[x])
                word.reverse()
                yield word
            if longer:
                for x, t in dfa[s].items():
                    append((t, (x, prefix)))
        level, n = below, n + 1


def enumerate_traces(
    a: TraceAutomaton, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> set[Word]:
    """All traces of `a` of length <= max_len, as a set of words.  Raises
    BudgetExceededError as `_traces` does."""
    dfa = a._subset
    return set(map(tuple, _traces(dfa, max_len, cap, dfa.letters)))


def list_traces(
    a: TraceAutomaton, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> list[list[str]]:
    """All traces of `a` of length <= max_len in `word_key` order, each
    given by the texts of its letters (every letter is formatted once).
    Raises BudgetExceededError as `_traces` does, and, checked after its
    budgets, when the traces listed hold more than `cap` letters."""
    dfa = a._subset
    words: list[list[str]] = []
    letters = 0
    for word in _traces(dfa, max_len, cap, dfa.texts):
        letters += len(word)
        if letters > cap:
            raise BudgetExceededError(f"more than {cap} letters in the traces of length <= {max_len}")
        words.append(word)
    return words


def first_uncovered(
    a: TraceAutomaton, b: TraceAutomaton, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> Word | None:
    """The first trace of `a` of length <= max_len in `word_key` order
    with the Parikh vector of no trace of `b` of length <= max_len, or
    None.  Lists `b`, then `a` up to that trace, each as `_traces` does."""
    covered = {parikh_vector(w) for w in enumerate_traces(b, max_len, cap)}
    dfa = a._subset
    for word in _traces(dfa, max_len, cap, dfa.letters):
        if parikh_vector(word) not in covered:
            return tuple(word)
    return None


def count_traces(
    a: TraceAutomaton, max_len: int, first: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, list[list[str]]]:
    """The number of traces of `a` of length <= max_len, and the first
    `first` of them in `word_key` order, each given by the texts of its
    letters (every letter is formatted once).

    Only that sample is enumerated.  The count is a dynamic program over
    the rows of the subset automaton: ways[n][s], the number of words of
    length n that state s accepts, is the sum of ways[n - 1][t] over the
    moves s -> t.  Only its non-zero cells are filled: ways[n] is summed
    over the predecessors of the states with ways[n - 1] > 0, recorded by
    the breadth-first search that finds the states within max_len moves
    of the start.  A cell is kept only for a state within max_len - n
    moves of the start, the only ones a trace passes through with n
    letters left, and the program stops at a length that no state accepts
    a word of, since no state accepts a longer one either.  The sample is
    built by a depth-first search that takes letters in the order of their
    texts and enters only states that accept a word of the length left.
    Raises BudgetExceededError when the search for the states and the
    program together fill more than `cap` (length, state) cells, or the
    sample's search visits more than `cap` prefixes."""
    dfa = a._subset
    states, depth = [0], {0: 0}  # the states within max_len moves, breadth first
    preds: dict[int, list[int]] = {0: []}  # one entry per move s -> t
    for s in states:
        if depth[s] < max_len:
            for t in dfa[s].values():
                if t not in depth:
                    depth[t] = depth[s] + 1
                    states.append(t)
                    preds[t] = []
                preds[t].append(s)
    ways = {s: 1 for s in states if dfa.accepting[s]}  # the non-zero cells of ways[n]
    total, cells = ways.get(0, 0), len(states)
    able = [ways.keys()]  # able[n]: the states with ways[n] > 0
    while ways and len(able) <= max_len:
        # a word of this length from a state deeper than this is too long
        deepest = max_len - len(able)
        prev, ways = ways, {}
        for t, w in prev.items():
            for s in preds[t]:
                if depth[s] <= deepest:
                    ways[s] = ways.get(s, 0) + w
        cells += len(ways)
        if cells > cap:
            raise BudgetExceededError(f"filled more than {cap} (length, state) cells counting traces of length <= {max_len}")
        total += ways.get(0, 0)
        able.append(ways.keys())

    samples: list[list[str]] = []
    visited = 0
    for n in range(len(able)):
        if len(samples) >= first:
            break
        if 0 not in able[n]:
            continue
        stack = [(0, n, [])]
        while stack and len(samples) < first:
            s, left, word = stack.pop()
            visited += 1
            if visited > cap:
                raise BudgetExceededError(f"visited more than {cap} prefixes of length <= {max_len}")
            if not left:
                samples.append(word)
                continue
            row = dfa[s]
            # pushed greatest first, so that the least is taken first
            for x in reversed(row):
                if row[x] in able[left - 1]:
                    stack.append((row[x], left - 1, [*word, dfa.texts[x]]))
    return total, samples


def includes(a1: TraceAutomaton, a2: TraceAutomaton) -> Word | None:
    """None if the language of `a1` is included in that of `a2`; otherwise
    the least word in `word_key` order accepted by `a1` and rejected by
    `a2`.  Neither automaton needs to be trim: the
    breadth-first search over pairs of states of their subset automata
    (-1 for no state of `a2`) finds that word all the same.  Raises
    BudgetExceededError when the search visits more than
    `DEFAULT_ENUM_CAP` pairs."""
    d1, d2 = a1._subset, a2._subset
    into = [d2.ids.get(letter, -1) for letter in d1.letters]
    parent: dict = {(0, 0): None}
    queue = deque([(0, 0)])
    visited = 0
    while queue:
        visited += 1
        if visited > DEFAULT_ENUM_CAP:
            raise BudgetExceededError(f"visited more than {DEFAULT_ENUM_CAP} pairs of states comparing two languages")
        pair = queue.popleft()
        s1, s2 = pair
        if d1.accepting[s1] and (s2 < 0 or not d2.accepting[s2]):
            word: list[Interaction] = []
            node = pair
            while parent[node] is not None:
                node, x = parent[node]
                word.append(d1.letters[x])
            return tuple(reversed(word))
        # words outside L(a1) can never be counterexamples, so only the
        # letters of `a1` are followed
        row1, row2 = d1[s1], d2[s2] if s2 >= 0 else {}
        for x, t in row1.items():
            nxt = (t, row2.get(into[x], -1))
            if nxt not in parent:
                parent[nxt] = (pair, x)
                queue.append(nxt)
    return None


def _refine(labels: list, moves: list[list[tuple]]) -> list[int]:
    """The coarsest partition of states `0..n-1` that separates states of
    different `labels` and is stable under the moves: two states in one
    block move by the same letters, each into one block.  Returns the block
    of each state.

    Hopcroft refinement over inverse moves (Hopcroft, *An n log n algorithm
    for minimizing states in a finite automaton*, 1971).  The initial blocks
    group states by label, and every one of them is a splitter: the moves
    are partial, and refining by every block splits states that lack a
    letter from those that have it, which a sink state would do in a
    complete automaton (Valmari & Lehtinen, STACS 2008).  A splitter splits
    each block that the sources of its incoming moves by one letter touch
    but do not cover; the larger part keeps the old id and the smaller one
    becomes a splitter.  Each state is thus in a splitter at most
    log2(n) + 1 times, so the refinement takes O(m log n) for m moves."""
    inverse: list[list[tuple]] = [[] for _ in labels]
    for s, row in enumerate(moves):
        for letter, t in row:
            inverse[t].append((letter, s))
    ids: dict = {}
    block = [ids.setdefault(k, len(ids)) for k in labels]
    members: list[set[int]] = [set() for _ in ids]
    for s, b in enumerate(block):
        members[b].add(s)
    work = list(range(len(members)))
    while work:
        sources: dict = {}
        for t in members[work.pop()]:
            for letter, s in inverse[t]:
                sources.setdefault(letter, []).append(s)
        for into in sources.values():
            touched: dict[int, list[int]] = {}
            for s in into:
                touched.setdefault(block[s], []).append(s)
            for b, inside in touched.items():
                part = members[b]
                if len(inside) == len(part):
                    continue
                # the smaller part moves to a new block; when `inside` is
                # the larger, the rest costs no more than `inside` did
                small = set(inside) if 2 * len(inside) <= len(part) else part.difference(inside)
                part -= small
                for s in small:
                    block[s] = len(members)
                work.append(len(members))
                members.append(small)
    return block


def minimal_form(root, kind, edges, order) -> tuple[list, list[dict]]:
    """The minimal deterministic automaton of the states reachable from
    `root`, numbered canonically.

    `kind(s)` labels state `s` (its acceptance, its session-type kind),
    `edges(s)` gives its moves as (letter, successor) pairs, at most one
    per letter, and `order` is a sort key on letters.  The states are
    indexed breadth-first from the root and merged by Hopcroft refinement
    (`_refine`) in O(m log n) for m moves between n states.  The moves are
    partial, so every initial block starts as a splitter instead of adding
    a sink state for the missing letters.  The initial blocks are the
    states of one kind and one set of letters, which gives the blocks that
    seeding by kind alone gives: a stable partition keeps two states in one
    block only when they move by the same letters, so the coarsest stable
    partition that separates kinds separates letter sets too, and it is
    also the coarsest that refines the seeding by both.  When every initial
    block holds one state there is nothing to refine.  The blocks are
    numbered depth-first from the root's, taking letters in `order`.
    Returns `(kinds, rows)`: block `n` has kind `kinds[n]`, and
    `rows[n]` maps its letters, in `order`, to the numbers of their
    successors.  Two states have the same behaviour iff their minimal forms
    are equal."""
    index = {root: 0}
    states = [root]
    moves: list[list[tuple]] = []
    for s in states:  # grows while it is read: a breadth-first search
        row = []
        for letter, t in edges(s):
            if t not in index:
                index[t] = len(states)
                states.append(t)
            row.append((letter, index[t]))
        moves.append(row)
    labels = [kind(s) for s in states]
    signatures = [(k, frozenset(a for a, _ in row)) for k, row in zip(labels, moves)]
    if len(set(signatures)) == len(states):
        block = list(range(len(states)))  # no two states to tell apart
    else:
        block = _refine(signatures, moves)

    rep: dict[int, int] = {}
    for s, b in enumerate(block):
        rep.setdefault(b, s)
    ordered = {b: sorted(moves[s], key=lambda m: order(m[0])) for b, s in rep.items()}
    number: dict[int, int] = {}
    stack = [block[0]]
    while stack:
        b = stack.pop()
        if b not in number:
            number[b] = len(number)
            stack.extend(block[t] for _, t in reversed(ordered[b]))
    return (
        [labels[rep[b]] for b in number],
        [{a: number[block[t]] for a, t in ordered[b]} for b in number],
    )


def word_key(word: Word) -> tuple:
    """The order in which words are reported: shorter words first, then
    by the text of their letters."""
    return len(word), tuple(map(str, word))


def parikh_vector(word: Word) -> frozenset:
    """The multiset of letters of `word`, as a hashable frozenset of
    (interaction, count) pairs.  Two words are permutations of one another
    iff their Parikh vectors are equal."""
    counts: dict[Interaction, int] = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
    return frozenset(counts.items())


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WellFormed:
    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class NotWellFormed:
    """`witness` is a trace of the type whose interactions at `position`
    and `position`+1 are independent, yet the swapped trace is not a trace
    of the type."""

    witness: Word
    position: int

    def __bool__(self) -> bool:
        return False


def _swappable(first: Interaction, second: Interaction) -> bool:
    return first.receiver not in (second.senders | {second.receiver})


def _swap_variants(a: TraceAutomaton) -> TraceAutomaton:
    """Accepts every word obtained from a word of `a` by
    swapping exactly one adjacent independent pair.  Not trim: a state
    with no swap ahead of it cannot reach acceptance, which `includes`
    does not mind."""
    n = a.n_states
    delta: list[list[tuple[Interaction, int]]] = [[] for _ in range(2 * n)]
    mids: dict[tuple[Interaction, int], int] = {}

    def mid(alpha: Interaction, target: int) -> int:
        key = (alpha, target)
        if key not in mids:
            mids[key] = len(delta)
            delta.append([(alpha, n + target)])
        return mids[key]

    for q in range(n):
        for lab, r in a.delta[q]:
            delta[q].append((lab, r))
            delta[n + q].append((lab, n + r))
    for q in range(n):
        for alpha, r in a.delta[q]:
            for beta, s in a.delta[r]:
                if _swappable(alpha, beta):
                    delta[q].append((beta, mid(alpha, s)))
    accepts = frozenset(n + f for f in a.accepts)
    return TraceAutomaton(delta, accepts)


def swap_closed(a: TraceAutomaton) -> bool:
    """Whether the language of the trim automaton `a` is closed under
    swapping one adjacent independent pair, decided by swap diamonds on
    its subset automaton D.

    It is closed iff, for every state S of D and letters α, β with
    `_swappable(α, β)` and T = δ(S, αβ) defined, T' = δ(S, βα) is defined
    and L(T) ⊆ L(T').  T is not empty, as no state of D is, so an undefined
    T' already breaks closure.  Most diamonds close on one state (T == T'),
    which needs nothing more; the other pairs seed one search over pairs of
    states of D, which fails at a pair whose left state accepts while the
    right one does not, or has a letter the right one lacks."""
    dfa = a._subset
    letters, accepting = dfa.letters, dfa.accepting
    # `_swappable(α, β)` needs α's receiver to be neither a sender nor the
    # receiver of β.  So when every letter has every receiver of the
    # alphabet among its roles, no pair of letters swaps, no diamond is
    # asked for, and the language is closed; over two roles this always
    # holds.  Deciding it reads no row of D.
    receivers = {alpha.receiver for alpha in letters}
    if all(receivers <= alpha.senders | {alpha.receiver} for alpha in letters):
        return True
    rows = [dfa[s] for s, _ in enumerate(accepting)]  # grows while it is read
    independent: dict[tuple[int, int], bool] = {}
    pending: set[tuple[int, int]] = set()
    for row in rows:
        for alpha, r in row.items():
            for beta, t in rows[r].items():
                swappable = independent.get((alpha, beta))
                if swappable is None:
                    swappable = _swappable(letters[alpha], letters[beta])
                    independent[alpha, beta] = swappable
                if not swappable:
                    continue
                r2 = row.get(beta)
                t2 = None if r2 is None else rows[r2].get(alpha)
                if t2 is None:
                    return False
                if t2 != t:
                    pending.add((t, t2))
    work = list(pending)
    while work:
        t, t2 = work.pop()
        if accepting[t] and not accepting[t2]:
            return False
        row2 = rows[t2]
        for x, u in rows[t].items():
            u2 = row2.get(x)
            if u2 is None:
                return False
            if u2 != u and (u, u2) not in pending:
                pending.add((u, u2))
                work.append((u, u2))
    return True


def role_groups(g: GlobalType) -> list[GlobalType]:
    """The operands of the root `&` spine of `g` (`spine`), grouped by
    shared roles, transitively: two operands are in one group when a chain
    of operands, each sharing a role with the next, joins them.  A group of
    several operands is their `&`, and an operand with no role, such as
    `skip`, is a group of its own.  When there is one group, it is `g`.

    `g` is well formed iff every group is, so with more than one group the
    groups are decided one at a time and the product of their automata,
    whose states multiply, is not needed.  The traces of `g` are the
    shuffle of the groups' traces, and:

    - letters of different groups are distinct, as their roles are, so a
      word of the shuffle splits into one trace per group in one way only;
    - letters of different groups are independent both ways under
      `_swappable`, and swapping two of them leaves every group's trace
      as it was, so the swapped word is in the shuffle;
    - a swap of two letters of one group swaps them in that group's trace,
      so it stays in the shuffle when that group is well formed;
    - every global type has a non-empty language, so a group that is not
      well formed, with a trace `u` whose swap is not its trace, gives the
      word `u` followed by one trace of each other group, whose swap is
      not in the shuffle.

    This is the commutation of letters over disjoint alphabets in
    Mazurkiewicz trace theory (Diekert & Rozenberg, *The Book of Traces*,
    1995).  The same facts let a session whose roles split along the
    groups be explored, compared (`compile_parts` and
    `runtime.explore_parts` key their parts alike) and counted group by group."""
    groups: list[tuple[frozenset, list[GlobalType]]] = []
    for operand in spine(g) if type(g) is GBoth else [g]:
        roles, members, apart = roles_of(operand), [], []
        for group in groups:
            if group[0].isdisjoint(roles):
                apart.append(group)
            else:
                roles |= group[0]
                members += group[1]
        groups = apart + [(roles, members + [operand])]
    if len(groups) == 1:
        return [g]
    return [reduce(GBoth, members) for _, members in groups]


def compile_parts(g: GlobalType) -> dict[frozenset[Role], TraceAutomaton]:
    """The automaton of each role group of `g` (see `role_groups`), compiled
    alone and keyed by the group's roles.  Their shuffle accepts the traces
    of `g`, and has as many states as the automaton of `g`.  Groups with no
    role accept the empty word alone, so they may share a key."""
    return {roles_of(group): compile_traces(group) for group in role_groups(g)}


def is_well_formed(g: GlobalType) -> bool:
    """Whether `g` is well formed (see `well_formed`), without a witness:
    each role group is compiled and decided in turn, stopping at the first
    that is not."""
    return all(swap_closed(compile_traces(group)) for group in role_groups(g))


def well_formed(g: GlobalType) -> WellFormed | NotWellFormed:
    """Decide whether the traces of `g` are closed under reordering of
    adjacent independent interactions.

    Closure under one swap implies closure under any number of swaps, so
    checking the one-swap variants suffices.  `swap_closed` decides it on
    the subset automaton of each role group of `g` (see `compile_parts`).
    Only a type that is not well formed builds the one-swap automaton, of
    the shuffle of its groups, whose shortlex-least word outside the
    traces, swapped back, is the witness."""
    parts = compile_parts(g).values()
    if all(map(swap_closed, parts)):
        return WellFormed()
    a = shuffle_automata(*parts)
    w2 = includes(_swap_variants(a), a)
    assert w2 is not None, "an open swap diamond with every swap variant a trace"
    for i in range(len(w2) - 1):
        beta, alpha = w2[i], w2[i + 1]
        if _swappable(alpha, beta):
            witness = w2[:i] + (alpha, beta) + w2[i + 2 :]
            if a.member(witness):
                return NotWellFormed(witness, i)
    raise AssertionError("swap counterexample with no matching source trace")
