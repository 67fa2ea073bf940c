"""Trace languages of global types.

A global type denotes a regular language of interactions.  This module
compiles global types to nondeterministic finite automata over interaction
letters, and provides the operations the rest of the package needs:
bounded enumeration, language inclusion with shortest counterexamples,
shuffle products, Parikh vectors, and the well-formedness check.

Automata have no epsilon moves.  Compilation wires each accepting state
straight to copies of the next operand's start moves, as a position
automaton does (Berry & Sethi, TCS 1986), so every consumer reads the
compiled automaton as it is.  Automata stay nondeterministic; subset
steps are taken on the fly inside `includes` and during enumeration, and
`language_key` is the one place that determinizes a whole automaton: it
gives the minimal form (`minimal_form`) of its subset construction, so two
automata accept the same language iff their keys are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .syntax import (
    GAction,
    GBoth,
    GEither,
    GKExit,
    GlobalType,
    GSeq,
    GSkip,
    GStar,
    Interaction,
)

Word = tuple[Interaction, ...]

DEFAULT_ENUM_CAP = 100000


class BudgetExceededError(RuntimeError):
    """An enumeration produced more traces than the allowed budget."""


def _ikey(i: Interaction):
    return (tuple(sorted(i.senders)), i.receiver, i.message)


class TraceAutomaton:
    """A nondeterministic finite automaton over interaction letters.

    `delta[q]` is a list of (label, target) pairs; every label is an
    interaction, so there are no epsilon moves.  There is one start state
    and a set of accepting states.
    """

    def __init__(
        self,
        delta: list[list[tuple[Interaction, int]]],
        start: int,
        accepts: frozenset[int],
    ):
        self.delta = delta
        self.start = start
        self.accepts = frozenset(accepts)

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def alphabet(self) -> frozenset[Interaction]:
        return frozenset(lab for edges in self.delta for lab, _ in edges)

    def trim(self) -> TraceAutomaton:
        """Drop states that are unreachable or cannot reach acceptance."""
        fwd = {self.start}
        work = [self.start]
        while work:
            q = work.pop()
            for _, r in self.delta[q]:
                if r not in fwd:
                    fwd.add(r)
                    work.append(r)
        rev: dict[int, set[int]] = {q: set() for q in range(self.n_states)}
        for q in range(self.n_states):
            for _, r in self.delta[q]:
                rev[r].add(q)
        bwd = set(self.accepts)
        work = list(self.accepts)
        while work:
            q = work.pop()
            for p in rev[q]:
                if p not in bwd:
                    bwd.add(p)
                    work.append(p)
        keep = sorted(fwd & bwd)
        if self.start not in keep:
            # empty language
            return TraceAutomaton([[]], 0, frozenset())
        index = {q: i for i, q in enumerate(keep)}
        delta = [
            [
                (lab, index[r])
                for lab, r in self.delta[q]
                if r in index
            ]
            for q in keep
        ]
        accepts = frozenset(index[q] for q in self.accepts if q in index)
        return TraceAutomaton(delta, index[self.start], accepts)

    def step(self, states: frozenset[int], letter: Interaction) -> frozenset[int]:
        """Subset transition."""
        return frozenset(
            r for q in states for lab, r in self.delta[q] if lab == letter
        )

    def member(self, word: Word) -> bool:
        states = frozenset({self.start})
        for letter in word:
            states = self.step(states, letter)
            if not states:
                return False
        return bool(states & self.accepts)

    def to_dot(self) -> str:
        """The automaton in DOT graph format (for debugging dumps)."""
        lines = ["digraph traces {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepts else "circle"
            lines.append(f"  s{q} [shape={shape}, label=\"{q}\"];")
        lines.append(f"  hidden -> s{self.start};")
        for q in range(self.n_states):
            for lab, r in self.delta[q]:
                lines.append(f'  s{q} -> s{r} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _empty_word() -> TraceAutomaton:
    return TraceAutomaton([[]], 0, frozenset({0}))


def _letter(i: Interaction) -> TraceAutomaton:
    return TraceAutomaton([[(i, 1)], []], 0, frozenset({1}))


def _offset(a: TraceAutomaton, by: int):
    return [
        [(lab, r + by) for lab, r in edges] for edges in a.delta
    ]


def _wire(delta, sources, edges) -> None:
    """Give every state in `sources` the moves `edges` as well.  Each
    state gets a new list, so `edges` may be one of the lists wired."""
    for q in sources:
        delta[q] = list(dict.fromkeys(delta[q] + edges))


def _seq(a: TraceAutomaton, b: TraceAutomaton) -> TraceAutomaton:
    shift = a.n_states
    delta = [list(e) for e in a.delta] + _offset(b, shift)
    _wire(delta, a.accepts, delta[b.start + shift])
    accepts = frozenset(f + shift for f in b.accepts)
    if b.start in b.accepts:
        accepts |= a.accepts
    return TraceAutomaton(delta, a.start, accepts)


def _alt(a: TraceAutomaton, b: TraceAutomaton) -> TraceAutomaton:
    # state 0 is the new start, with the moves of both starts
    shift = 1 + a.n_states
    delta = [[]] + _offset(a, 1) + _offset(b, shift)
    _wire(delta, [0], delta[a.start + 1] + delta[b.start + shift])
    accepts = frozenset(f + 1 for f in a.accepts) | frozenset(
        f + shift for f in b.accepts
    )
    if a.start in a.accepts or b.start in b.accepts:
        accepts |= {0}
    return TraceAutomaton(delta, 0, accepts)


def _star(a: TraceAutomaton) -> TraceAutomaton:
    # state 0 is the new accepting start; every accepting state of `a` may
    # begin another round with the moves of `a`'s start
    delta = [[]] + _offset(a, 1)
    _wire(delta, [0, *(f + 1 for f in a.accepts)], delta[a.start + 1])
    accepts = frozenset({0}) | frozenset(f + 1 for f in a.accepts)
    return TraceAutomaton(delta, 0, accepts)


def shuffle_automata(a: TraceAutomaton, b: TraceAutomaton) -> TraceAutomaton:
    """The automaton of all interleavings of one trace of `a` with one
    trace of `b`."""
    a = a.trim()
    b = b.trim()
    index: dict[tuple[int, int], int] = {}
    delta: list[list[tuple[Interaction, int]]] = []

    def state(p: int, q: int) -> int:
        key = (p, q)
        if key not in index:
            index[key] = len(delta)
            delta.append([])
        return index[key]

    start = state(a.start, b.start)
    work = [(a.start, b.start)]
    seen = {(a.start, b.start)}
    while work:
        p, q = work.pop()
        s = state(p, q)
        for lab, r in a.delta[p]:
            t = (r, q)
            delta[s].append((lab, state(*t)))
            if t not in seen:
                seen.add(t)
                work.append(t)
        for lab, r in b.delta[q]:
            t = (p, r)
            delta[s].append((lab, state(*t)))
            if t not in seen:
                seen.add(t)
                work.append(t)
    accepts = frozenset(
        s for (p, q), s in index.items() if p in a.accepts and q in b.accepts
    )
    return TraceAutomaton(delta, start, accepts)


def kexit_unfolding(
    bodies: tuple[GlobalType, ...], exits: tuple[GlobalType, ...]
) -> GlobalType:
    """loopk (B1..Bk) exit (E1..Ek) has the same traces as
    (B1;..;Bk)* ; (E1 | B1;E2 | .. | B1;..;B(k-1);Ek)."""
    chain = bodies[0]
    for b in bodies[1:]:
        chain = GSeq(chain, b)
    alt: GlobalType | None = None
    for i, e in enumerate(exits):
        arm: GlobalType = e
        for b in reversed(bodies[:i]):
            arm = GSeq(b, arm)
        alt = arm if alt is None else GEither(alt, arm)
    assert alt is not None
    return GSeq(GStar(chain), alt)


def compile_traces(g: GlobalType) -> TraceAutomaton:
    """An automaton accepting exactly the traces of `g`."""
    match g:
        case GSkip():
            return _empty_word()
        case GAction(i):
            return _letter(i)
        case GSeq(l, r):
            return _seq(compile_traces(l), compile_traces(r))
        case GEither(l, r):
            return _alt(compile_traces(l), compile_traces(r))
        case GBoth(l, r):
            return shuffle_automata(compile_traces(l), compile_traces(r))
        case GStar(b):
            return _star(compile_traces(b))
        case GKExit(bodies, exits):
            return compile_traces(kexit_unfolding(bodies, exits))
    raise TypeError(f"not a global type: {g!r}")


# ---------------------------------------------------------------------------
# Language operations
# ---------------------------------------------------------------------------


def enumerate_traces(
    source: GlobalType | TraceAutomaton,
    max_len: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> set[Word]:
    """All traces of length <= max_len, as a set of words.  Raises
    BudgetExceededError when more than `cap` traces would be produced."""
    a = compile_traces(source) if not isinstance(source, TraceAutomaton) else source
    a = a.trim()
    words: set[Word] = set()
    if a.n_states == 1 and not a.accepts and not a.delta[0]:
        return words
    sigma = sorted(a.alphabet(), key=_ikey)
    queue: deque[tuple[frozenset[int], Word]] = deque(
        [(frozenset({a.start}), ())]
    )
    while queue:
        states, word = queue.popleft()
        if states & a.accepts:
            words.add(word)
            if len(words) > cap:
                raise BudgetExceededError(
                    f"more than {cap} traces of length <= {max_len}"
                )
        if len(word) == max_len:
            continue
        for letter in sigma:
            nxt = a.step(states, letter)
            if nxt:
                queue.append((nxt, word + (letter,)))
    return words


def includes(a1: TraceAutomaton, a2: TraceAutomaton) -> Word | None:
    """None if the language of `a1` is included in that of `a2`; otherwise
    a shortest word accepted by `a1` and rejected by `a2`."""
    a1 = a1.trim()
    sigma = sorted(a1.alphabet() | a2.alphabet(), key=_ikey)
    start = (frozenset({a1.start}), frozenset({a2.start}))
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        s1, s2 = pair
        if s1 & a1.accepts and not (s2 & a2.accepts):
            word: list[Interaction] = []
            node = pair
            while parent[node] is not None:
                node, letter = parent[node]
                word.append(letter)
            return tuple(reversed(word))
        for letter in sigma:
            n1 = a1.step(s1, letter)
            if not n1:
                continue  # words outside L(a1) can never be counterexamples
            n2 = a2.step(s2, letter)
            nxt = (n1, n2)
            if nxt not in parent:
                parent[nxt] = (pair, letter)
                queue.append(nxt)
    return None


def minimal_form(root, kind, edges, order) -> tuple[list, list[dict]]:
    """The minimal deterministic automaton of the states reachable from
    `root`, numbered canonically.

    `kind(s)` labels state `s` (its acceptance, its session-type kind),
    `edges(s)` gives its moves as (letter, successor) pairs, at most one
    per letter, and `order` is a sort key on letters.  Moore refinement
    (Moore, *Gedanken-experiments on sequential machines*, 1956) starts from
    one block and splits blocks by (kind, {(letter, block of successor)})
    until no block splits.  The blocks are numbered depth-first from the
    root's, taking letters in `order`.  Returns `(kinds, rows)`: block `n`
    has kind `kinds[n]`, and `rows[n]` maps its letters, in `order`, to the
    numbers of their successors.  Two states have the same behaviour iff
    their minimal forms are equal."""
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

    block = [0] * len(states)
    count = 1
    while True:
        sigs: dict[tuple, int] = {}
        split = [
            sigs.setdefault((k, frozenset((a, block[t]) for a, t in row)), len(sigs))
            for k, row in zip(labels, moves)
        ]
        if len(sigs) == count:
            break
        block, count = split, len(sigs)

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


def language_key(a: TraceAutomaton) -> tuple:
    """A canonical key of the language of `a`: the minimal form of the
    subset construction of `a` trimmed, letters ordered by `_ikey`.  Two
    automata accept the same language iff their keys are equal."""
    a = a.trim()

    def moves(states: frozenset[int]):
        succ: dict[Interaction, set[int]] = {}
        for q in states:
            for lab, r in a.delta[q]:
                succ.setdefault(lab, set()).add(r)
        return [(lab, frozenset(rs)) for lab, rs in succ.items()]

    kinds, rows = minimal_form(
        frozenset({a.start}), lambda s: not a.accepts.isdisjoint(s), moves, _ikey
    )
    return tuple(kinds), tuple(tuple(row.items()) for row in rows)


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
    swapping exactly one adjacent independent pair."""
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
    return TraceAutomaton(delta, a.start, accepts)


def well_formed(g: GlobalType) -> WellFormed | NotWellFormed:
    """Decide whether the traces of `g` are closed under reordering of
    adjacent independent interactions.

    Closure under one swap implies closure under any number of swaps, so
    checking the one-swap variants suffices."""
    a = compile_traces(g).trim()
    if not a.accepts:
        return WellFormed()
    counterexample = includes(_swap_variants(a), a)
    if counterexample is None:
        return WellFormed()
    w2 = counterexample
    for i in range(len(w2) - 1):
        beta, alpha = w2[i], w2[i + 1]
        if _swappable(alpha, beta):
            witness = w2[:i] + (alpha, beta) + w2[i + 2 :]
            if a.member(witness):
                return NotWellFormed(witness, i)
    raise AssertionError("swap counterexample with no matching source trace")
