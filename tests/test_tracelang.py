"""Trace languages of global types, inclusion, and well-formedness."""

from __future__ import annotations

import functools
import math
import random
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import kexit_unfolding, parikh, swap_violations, swappable, trace_set
from mpst import machine, tracelang
from mpst.projector import DEFAULT_AND_BUDGET, ProjectionError, _sequential_rewrites, _Terms, project_top
from mpst.runtime import explore
from mpst.syntax import (
    GAction,
    GBoth,
    GEither,
    GKExit,
    GSeq,
    GSkip,
    GStar,
    Interaction,
    fold,
    parse_global_type,
    postorder,
    print_global_type,
    roles_of,
    spine,
    subterms,
    with_subterms,
)
from mpst.tracelang import (
    DEFAULT_ENUM_CAP,
    BudgetExceededError,
    NotWellFormed,
    TraceAutomaton,
    WellFormed,
    compile_parts,
    compile_traces,
    count_traces,
    enumerate_traces,
    first_uncovered,
    includes,
    is_well_formed,
    list_traces,
    minimal_form,
    parikh_vector,
    role_groups,
    shuffle_automata,
    swap_closed,
    well_formed,
    word_key,
)
from mpst.verifier import cross_check_theorems, random_global_type


def g(src: str):
    return parse_global_type(src)


def letter(src: str):
    action = parse_global_type(src)
    assert isinstance(action, GAction)
    return action.interaction


def word(*srcs: str):
    return tuple(letter(s) for s in srcs)


def lang(src: str, bound: int):
    return enumerate_traces(compile_traces(g(src)), bound)


PINNED = [
    "p -> q : a",
    "skip",
    "p -> q : a ; q -> r : b",
    "p -> q : a | q -> p : a",
    "p -> q : a & r -> s : b",
    "(p -> q : a)* ; p -> q : b",
    "(p -> q : a ; (p -> q : b)*)*",
    "{q1,q2} -> q : b & p -> q1 : a",
    "loop2 (p -> q : h, q -> p : h) exit (p -> q : b, q -> p : b)",
    "(p -> q : a | q -> r : c) ; (r -> s : d & s -> r : e)",
    "(p -> q : a)* ; (q -> p : b)*",
    "(p -> q : a | skip) ; q -> p : b",
    "((p -> q : a)* | q -> p : b)*",
    "skip ; (p -> q : a)? ; skip",
]


@pytest.mark.parametrize("src", PINNED)
@pytest.mark.parametrize("bound", [0, 1, 4, 7])
def test_compiled_traces_match_recursive_semantics(src, bound):
    assert lang(src, bound) == trace_set(g(src), bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_traces_match_recursive_semantics_randomly(seed):
    sample = random_global_type(seed, max_size=5, role_count=4, star_depth=1)
    assert enumerate_traces(compile_traces(sample), 5) == trace_set(sample, 5)


def test_shared_subterms_compile_once_and_stay_unchanged():
    """`x`, one term object, occurs three times in `(x | x) ; (x)*`, and
    each occurrence contributes its own traces."""
    x = g("p -> q : a ; q -> p : b")
    whole = GSeq(GEither(x, x), GStar(x))
    assert enumerate_traces(compile_traces(whole), 8) == trace_set(whole, 8)


def labels(auto):
    return [lab for edges in auto.delta for lab, _ in edges]


def test_compiled_automata_have_no_epsilon_moves():
    """The samples of acceptance criterion 8: every edge of a compiled
    automaton, and of the shuffle of two of them, reads an interaction."""
    autos = [compile_traces(random_global_type(20260814 + i)) for i in range(200)]
    for auto in autos:
        assert all(isinstance(lab, Interaction) for lab in labels(auto))
    for left, right in zip(autos, autos[1:]):
        shuffled = shuffle_automata(left, right)
        assert all(isinstance(lab, Interaction) for lab in labels(shuffled))


def reachable(roots, successors) -> set:
    seen, work = set(roots), list(roots)
    while work:
        for r in successors(work.pop()):
            if r not in seen:
                seen.add(r)
                work.append(r)
    return seen


def is_trim(auto) -> bool:
    """Every state is reachable from state 0 and can reach acceptance."""
    states = set(range(auto.n_states))
    forward = reachable({0}, lambda q: [r for _, r in auto.delta[q]])
    backward = reachable(
        auto.accepts, lambda q: [p for p in states if any(r == q for _, r in auto.delta[p])]
    )
    return forward == backward == states


def test_compiled_automata_are_trim_and_no_move_enters_the_start():
    """The pinned compositions, the two-phase loop and the samples of
    acceptance criterion 8, and the shuffles of neighbouring samples."""
    sources = [g(src) for src in PINNED]
    sources.append(g("loop2 (p -> q : handover, q -> p : handover) exit (p -> q : bailout, q -> p : bailout)"))
    sources += [random_global_type(20260814 + i) for i in range(200)]
    autos = [compile_traces(s) for s in sources]
    autos += [shuffle_automata(x, y) for x, y in zip(autos[-200:], autos[-199:])]
    for auto in autos:
        assert is_trim(auto)
        assert all(r != 0 for edges in auto.delta for _, r in edges)
    for src, auto in zip(PINNED, autos):
        assert auto.member(()) == (() in trace_set(g(src), 0))


def shortlex(w):
    return len(w), [str(i) for i in w]


def test_inclusion_counterexample_is_shortlex_least():
    """On criterion 8's neighbouring samples, the counterexample is the
    least word of the oracle's difference of the two trace sets, shorter
    words first and then by the texts of their letters."""
    samples = [random_global_type(20260814 + i) for i in range(200)]
    longest = 0
    for x, y in zip(samples, samples[1:]):
        for left, right in ((x, y), (y, x)):
            cex = includes(compile_traces(left), compile_traces(right))
            bound = 4 if cex is None else len(cex)
            gap = trace_set(left, bound) - trace_set(right, bound)
            assert cex == min(gap, key=shortlex, default=None)
            longest = max(longest, bound)
    assert longest >= 5


def test_shuffle_is_commutative_and_preserves_operand_order():
    left = lang("(p -> q : a ; q -> r : b) & r -> s : c", 4)
    right = lang("r -> s : c & (p -> q : a ; q -> r : b)", 4)
    assert left == right
    a, b, c = letter("p -> q : a"), letter("q -> r : b"), letter("r -> s : c")
    assert left == {(a, b, c), (a, c, b), (c, a, b)}


def test_shuffle_automata_agrees_with_language_shuffle():
    auto = shuffle_automata(compile_traces(g("p -> q : a")), compile_traces(g("r -> s : b ; s -> r : c")))
    assert enumerate_traces(auto, 3) == lang("p -> q : a & (r -> s : b ; s -> r : c)", 3)


def test_star_unfolds_once():
    assert lang("(p -> q : a ; q -> p : b)*", 6) == lang(
        "skip | (p -> q : a ; q -> p : b) ; (p -> q : a ; q -> p : b)*", 6
    )


def test_two_exit_loop_matches_its_unfolding():
    looped = "loop2 (p -> q : h, q -> p : h) exit (p -> q : b, q -> p : b)"
    unfolded = "(p -> q : h ; q -> p : h)* ; (p -> q : b | p -> q : h ; q -> p : b)"
    for bound in (0, 3, 7):
        assert lang(looped, bound) == lang(unfolded, bound)


def test_inclusion_is_reflexive_and_detects_gaps():
    a = compile_traces(g("(p -> q : a)* ; p -> q : b"))
    assert includes(a, a) is None
    branch = compile_traces(g("p -> q : a ; p -> q : b"))
    assert includes(branch, a) is None
    cex = includes(a, branch)
    assert cex is not None and cex in lang("(p -> q : a)* ; p -> q : b", 3)


def test_inclusion_counterexample_is_shortest():
    small = compile_traces(g("p -> q : b"))
    big = compile_traces(g("p -> q : b | p -> q : a ; p -> q : b"))
    assert includes(big, small) == word("p -> q : a", "p -> q : b")


def reference_successors(a, states):
    """The subset step: every letter some state in `states` moves by,
    mapped to the set of states those moves lead to."""
    succ = {}
    for q in states:
        for lab, r in a.delta[q]:
            succ.setdefault(lab, set()).add(r)
    return {lab: frozenset(rs) for lab, rs in succ.items()}


def reference_member(a, word):
    """The reference for `TraceAutomaton.member`: subset steps taken on
    the fly, as it ran before the subset automaton was kept."""
    states = frozenset({0})
    for letter in word:
        states = reference_successors(a, states).get(letter)
        if not states:
            return False
    return not a.accepts.isdisjoint(states)


def reference_traces(a, max_len, cap=DEFAULT_ENUM_CAP):
    """The reference for the listing of traces: a breadth-first search over
    (state set, word) with its own memo of subset steps, taking letters in
    the order of their texts, so that it yields the traces in `word_key`
    order."""
    queue = deque([(frozenset({0}), ())])
    moves = {}
    visited = found = 0
    while queue:
        states, word = queue.popleft()
        visited += 1
        accepting = not a.accepts.isdisjoint(states)
        found += accepting
        if found > cap:
            raise BudgetExceededError(f"more than {cap} traces of length <= {max_len}")
        if visited > cap:
            raise BudgetExceededError(f"visited more than {cap} prefixes of length <= {max_len}")
        if accepting:
            yield word
        if len(word) < max_len:
            if states not in moves:
                moves[states] = reference_successors(a, states)
            for letter, nxt in sorted(moves[states].items(), key=lambda move: str(move[0])):
                queue.append((nxt, word + (letter,)))


def reference_enumerate_traces(a, max_len, cap=DEFAULT_ENUM_CAP):
    """The reference for `enumerate_traces`."""
    return set(reference_traces(a, max_len, cap))


def reference_first_uncovered(a, b, max_len, cap=DEFAULT_ENUM_CAP):
    """The reference for `first_uncovered`: the reference listing of `a`
    up to the first trace whose Parikh vector no trace of `b` has."""
    covered = {parikh_vector(w) for w in reference_traces(b, max_len, cap)}
    return next((w for w in reference_traces(a, max_len, cap) if parikh_vector(w) not in covered), None)


def reference_includes(a1, a2):
    """The reference for `includes`: a breadth-first search over pairs of
    state sets, taking letters in the order of their texts at every pair."""
    start = (frozenset({0}), frozenset({0}))
    parent = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        s1, s2 = pair
        if not a1.accepts.isdisjoint(s1) and a2.accepts.isdisjoint(s2):
            found = []
            node = pair
            while parent[node] is not None:
                node, letter = parent[node]
                found.append(letter)
            return tuple(reversed(found))
        succ1, succ2 = reference_successors(a1, s1), reference_successors(a2, s2)
        for letter in sorted(succ1, key=str):
            nxt = (succ1[letter], succ2.get(letter, frozenset()))
            if nxt not in parent:
                parent[nxt] = (pair, letter)
                queue.append(nxt)
    return None


def enumeration(enumerate_, auto, max_len, cap):
    """The words `enumerate_` finds, or the text of the budget it exceeds."""
    try:
        return enumerate_(auto, max_len, cap)
    except BudgetExceededError as exc:
        return str(exc)


def candidates(protocol, budget: int = DEFAULT_AND_BUDGET) -> list:
    """The `&`-elimination candidates of `protocol`, as terms, in the order
    the search builds them."""
    terms = _Terms()
    return [terms.term(i) for i in _sequential_rewrites(terms, terms.intern(protocol), budget)]


def language_question_automata():
    """Criterion 8's 200 samples and the next 50 of its seeds, and their
    `&`-elimination candidates, compiled; the session automata of the
    samples that project, the one-swap automata (not trim) of the samples
    that are not well formed, and the automaton that accepts nothing.  Returns every automaton, and each
    one-swap automaton paired with the automaton it swaps."""
    samples = [random_global_type(20260814 + i) for i in range(250)]
    compiled = [compile_traces(t) for s in samples for t in (s, *candidates(s))]
    sessions, swaps = [], []
    for sample in samples:
        try:
            sessions.append(explore(project_top(sample))[1])
        except ProjectionError:
            pass
        if not is_well_formed(sample):
            auto = compile_traces(sample)
            swaps.append((tracelang._swap_variants(auto), auto))
    empty = TraceAutomaton([[]], frozenset())
    assert len(sessions) > 50 and len(swaps) > 50 and len(compiled) > 1000
    return [*compiled, *sessions, *(swap for swap, _ in swaps), empty], swaps


def test_subset_automata_answer_as_the_reference_algorithms():
    """The automata of `language_question_automata`.  Each automaton keeps
    the rows one question computed for the next, so the questions are
    asked in turns: inclusion first, then membership, then enumeration,
    then budgets."""
    autos, swaps = language_question_automata()
    empty = autos[-1]
    operands = [*zip(autos, autos[1:]), *zip(autos[1:], autos), *swaps, (empty, autos[0]), (autos[0], empty)]
    counterexamples = 0
    for left, right in operands:
        cex = includes(left, right)
        assert cex == reference_includes(left, right)
        counterexamples += cex is not None
    assert 0 < counterexamples < len(operands)

    for auto, other in zip(autos, autos[::-1]):
        words = reference_enumerate_traces(auto, 4) | reference_enumerate_traces(other, 4)
        words |= {w[:-1] + w[-1:] * 2 for w in words if w}
        assert all(auto.member(w) == reference_member(auto, w) for w in words)
        assert enumerate_traces(auto, 5) == reference_enumerate_traces(auto, 5)
        for cap in (1, 3, 10):
            assert enumeration(enumerate_traces, auto, 8, cap) == enumeration(reference_enumerate_traces, auto, 8, cap)


def test_the_first_uncovered_trace_is_the_reference_listings():
    """`first_uncovered` against `reference_first_uncovered` on neighbouring
    automata of `language_question_automata`: the same trace, or the same
    budget exceeded, at small caps and the default one.  Under the default
    one, the trace is the least uncovered one of both whole listings in
    `word_key` order."""
    autos, _ = language_question_automata()
    outcomes = set()
    for a, b in [*zip(autos, autos[1:]), *zip(autos[1:], autos)]:
        for cap in (3, 30, DEFAULT_ENUM_CAP):
            found = enumeration(lambda a, n, c: first_uncovered(a, b, n, c), a, 6, cap)
            assert found == enumeration(lambda a, n, c: reference_first_uncovered(a, b, n, c), a, 6, cap)
            outcomes.add(type(found).__name__)
        covered = {parikh_vector(w) for w in reference_enumerate_traces(b, 6)}
        uncovered = [w for w in reference_enumerate_traces(a, 6) if parikh_vector(w) not in covered]
        assert found == min(uncovered, key=word_key, default=None)
    assert outcomes == {"tuple", "NoneType", "str"}


def test_counting_answers_as_sorted_enumeration():
    """`count_traces` and `list_traces` against `enumerate_traces` then
    `word_key` order, on the automata of `language_question_automata`,
    explored sessions among them: the same count, the same first words and
    the same listing, at every length bound from 0 to 8.  At small caps,
    the listing runs out of budget exactly when the reference enumeration
    does or the traces it finds hold more letters than the cap."""
    autos, _ = language_question_automata()
    compared = exhausted = 0
    for auto in autos:
        for cap in (1, 3, 10):
            reference = enumeration(reference_enumerate_traces, auto, 8, cap)
            over = isinstance(reference, str) or sum(map(len, reference)) > cap
            assert isinstance(enumeration(list_traces, auto, 8, cap), str) == over
            exhausted += over
        try:
            every = [list(map(str, w)) for w in sorted(enumerate_traces(auto, 8), key=word_key)]
        except BudgetExceededError:
            continue
        for max_len in range(9):
            words = [w for w in every if len(w) <= max_len]
            if sum(map(len, words)) > DEFAULT_ENUM_CAP:
                with pytest.raises(BudgetExceededError, match="letters"):
                    list_traces(auto, max_len)
            else:
                assert list_traces(auto, max_len) == words
            for first in (0, 1, 3, 10):
                assert count_traces(auto, max_len, first) == (len(words), words[:first])
            compared += len(words) > 10
    assert compared > 500
    assert 0 < exhausted < 3 * len(autos)


def test_counting_is_budgeted_by_work():
    """A loop of two letters has 2**n words of length n: they are counted,
    without a budget error, until the table of counts outgrows the cap."""
    loop = compile_traces(g("(p -> q : a | p -> q : b)*"))
    count, sample = count_traces(loop, 60, 3)
    assert count == 2**61 - 1
    assert sample == [[], ["p -> q : a"], ["p -> q : b"]]
    with pytest.raises(BudgetExceededError, match="cells"):
        count_traces(loop, 10**6, 3, cap=1000)
    with pytest.raises(BudgetExceededError, match="prefixes"):
        count_traces(loop, 60, 100, cap=190)


def test_counting_a_long_chain_fills_only_its_non_zero_cells():
    """A chain of 500 interactions has one trace, and each length has one
    state that accepts a word of it: about a thousand cells, where every
    state within reach at every length would be about 250,000."""
    letters = [f"n{j % 4} -> n{(j + 1) % 4} : {'abc'[j % 3]}" for j in range(500)]
    chain = compile_traces(g(" ; ".join(letters)))
    assert count_traces(chain, 1004, 1, cap=2000) == (1, [letters])


def test_listing_is_budgeted_by_traces_prefixes_and_letters():
    """The budgets of `list_traces`, checked in this order at every prefix:
    traces, prefixes visited, then the letters of the traces listed."""
    loop = compile_traces(g("(p -> q : a | p -> q : b)*"))
    # three traces, the empty one and two of one letter, hold two letters
    with pytest.raises(BudgetExceededError, match="more than 2 traces of length <= 20"):
        list_traces(loop, 20, cap=2)
    eighteen = " ; ".join(["(p -> q : a | p -> q : b)"] * 18)
    with pytest.raises(BudgetExceededError, match="visited more than 1000 prefixes of length <= 17"):
        list_traces(compile_traces(g(eighteen)), 17, cap=1000)
    # 2**n traces of length n: 11 * 2**13 + 2 letters up to length 12,
    # 12 * 2**14 + 2 up to length 13
    assert len(list_traces(loop, 12)) == 2**13 - 1
    with pytest.raises(BudgetExceededError, match="more than 100000 letters in the traces of length <= 13"):
        list_traces(loop, 13)


def test_minimal_form_merges_equivalent_states_and_numbers_them_in_order():
    # a ring of four equivalent states, entered through a root that also
    # moves by a letter that sorts first
    edges = {"r": [("y", 0), ("x", "end")], 0: [("y", 1)], 1: [("y", 2)], 2: [("y", 3)], 3: [("y", 0)], "end": []}
    kinds, rows = minimal_form("r", lambda s: s == "end", edges.__getitem__, str)
    assert kinds == [False, True, False]
    assert rows == [{"x": 1, "y": 2}, {}, {"y": 2}]
    assert [list(row) for row in rows] == [["x", "y"], [], ["y"]]


def moore_refine(labels, moves):
    """The reference for `tracelang._refine`: Moore refinement (Moore,
    *Gedanken-experiments on sequential machines*, 1956), which
    `minimal_form` ran before Hopcroft's.  It starts from one block and
    splits blocks by (label, {(letter, block of successor)}) until no block
    splits, one round per split."""
    block = [0] * len(labels)
    count = 1
    while True:
        sigs: dict[tuple, int] = {}
        split = [
            sigs.setdefault((k, frozenset((a, block[t]) for a, t in row)), len(sigs))
            for k, row in zip(labels, moves)
        ]
        if len(sigs) == count:
            return block
        block, count = split, len(sigs)


def same_partition(x, y) -> bool:
    """Two block assignments of the same states differ only by renaming."""
    return len(set(zip(x, y))) == len(set(x)) == len(set(y))


HOPCROFT = tracelang._refine


def minimal_form_both_ways(*args):
    """`minimal_form(*args)`, after checking that Moore refinement gives
    the same partition of its states and the same `(kinds, rows)`."""

    def checked(labels, moves):
        blocks = HOPCROFT(labels, moves)
        assert same_partition(blocks, moore_refine(labels, moves))
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracelang, "_refine", checked)
        fast = minimal_form(*args)
        patch.setattr(tracelang, "_refine", moore_refine)
        assert minimal_form(*args) == fast
    return fast


@st.composite
def partial_automata(draw):
    """1-12 states, each with a kind out of 1-3 and at most one move for
    each of 1-3 letters; state 0 is the root."""
    n = draw(st.integers(1, 12))
    letters = "abc"[: draw(st.integers(1, 3))]
    kinds = draw(st.lists(st.integers(0, draw(st.integers(0, 2))), min_size=n, max_size=n))
    moves = st.dictionaries(st.sampled_from(letters), st.integers(0, n - 1))
    return kinds, draw(st.lists(moves, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(partial_automata())
def test_refinement_matches_moore_on_partial_automata(automaton):
    kinds, edges = automaton
    minimal_form_both_ways(0, kinds.__getitem__, lambda s: edges[s].items(), str)


def expanded(auto):
    """The subset automaton of `auto` with every row computed."""
    dfa = auto._subset
    for s, _ in enumerate(dfa.accepting):  # grows while it is read
        dfa[s]
    return dfa


def test_refinement_matches_moore_on_criterion_8_automata(monkeypatch):
    """The subset automata of criterion 8's 200 samples and the next 50 of
    its seeds and of their `&`-elimination candidates, every row computed, and every automaton `type_machine`
    minimizes while the samples are projected and checked."""
    sizes = []

    def both_ways(*args):
        kinds, rows = minimal_form_both_ways(*args)
        sizes.append(len(kinds))
        return kinds, rows

    monkeypatch.setattr(machine, "minimal_form", both_ways)
    for i in range(250):
        sample = random_global_type(20260814 + i)
        for term in (sample, *candidates(sample)):
            dfa = expanded(compile_traces(term))
            assert len(dfa) == len(dfa.accepting)
            both_ways(0, dfa.accepting.__getitem__, lambda s: dfa[s].items(), int)
    assert cross_check_theorems(sample_count=200, seed=20260814)["violations"] == []
    assert len(sizes) > 1000 and max(sizes) > 10


def test_minimal_form_scales_to_long_chains_and_rings():
    """A chain of 20,000 moves keeps its 20,001 states apart, and so does a
    ring of 20,000 states with one accepting state.  Moore rounds took
    seconds on a tenth of that."""
    n = 20000
    chain = {s: [("a", s + 1)] for s in range(n)}
    chain[n] = []
    ring = {s: [("a", (s + 1) % n)] for s in range(n)}
    for edges, final, blocks in ((chain, n, n + 1), (ring, 0, n)):
        start = time.perf_counter()
        kinds, rows = minimal_form(0, lambda s: s == final, edges.__getitem__, str)
        assert time.perf_counter() - start < 2
        assert len(kinds) == blocks and kinds.count(True) == 1


def test_enumeration_cap_is_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_traces(compile_traces(g("(p -> q : a | p -> q : b)*")), 20, cap=100)


def test_enumeration_budget_counts_visited_prefixes():
    # 2**18 - 1 prefixes shorter than 18 letters, none of them a trace
    eighteen = " ; ".join(["(p -> q : a | p -> q : b)"] * 18)
    with pytest.raises(BudgetExceededError, match="visited more than 1000 prefixes"):
        enumerate_traces(compile_traces(g(eighteen)), 17, cap=1000)
    # every prefix of a word of (a | b)* is a trace
    with pytest.raises(BudgetExceededError, match="more than 100 traces"):
        enumerate_traces(compile_traces(g("(p -> q : a | p -> q : b)*")), 20, cap=100)


def test_enumeration_steps_each_state_set_once(monkeypatch):
    """Many prefixes reach the same state set, a state of the subset
    automaton; its row is computed once, and a second enumeration computes
    none."""
    computed = []
    compute = tracelang._Subset.__missing__

    def counting(dfa, s):
        computed.append(s)
        return compute(dfa, s)

    monkeypatch.setattr(tracelang._Subset, "__missing__", counting)
    auto = compile_traces(g("(p -> q : a | p -> q : b ; q -> p : c)* ; p -> q : d"))
    words = enumerate_traces(auto, 8)
    assert len(words) > len(computed)
    assert sorted(computed) == list(range(len(auto._subset.accepting)))
    assert enumerate_traces(auto, 8) == words
    assert len(computed) == len(set(computed))


def test_an_automaton_is_determinized_once_across_questions(monkeypatch):
    """`well_formed` on criterion 4's join type builds two subset automata:
    the compiled automaton's, which the swap diamonds, the inclusion and
    the witness's `member` call share, and the one-swap automaton's."""
    built = []
    init = tracelang._Subset.__init__

    def counting(dfa, auto):
        built.append(auto)
        init(dfa, auto)

    monkeypatch.setattr(tracelang._Subset, "__init__", counting)
    verdict = well_formed(g("(p -> q1 : a & p -> q2 : a) ; (q1 -> q : b & q2 -> q : b)"))
    assert isinstance(verdict, NotWellFormed)
    assert len(built) == 2 and len(set(map(id, built))) == 2
    auto = built[0]
    assert auto.member(verdict.witness) and enumerate_traces(auto, 4)
    assert includes(auto, auto) is None
    assert len(built) == 2


def test_parikh_vector_identifies_permutations():
    u = word("p -> q : a", "q -> r : b", "p -> q : a")
    v = word("q -> r : b", "p -> q : a", "p -> q : a")
    w = word("p -> q : a", "q -> r : b")
    assert parikh_vector(u) == parikh_vector(v) == parikh(u) == parikh(v)
    assert parikh_vector(u) != parikh_vector(w)


def test_swappable_requires_independent_receiver():
    first, second = letter("p -> q : a"), letter("r -> s : b")
    assert swappable(first, second)
    assert not swappable(letter("p -> q : a"), letter("q -> r : b"))
    assert not swappable(letter("p -> q : a"), letter("r -> q : b"))


def test_well_formedness_of_pinned_protocols():
    assert well_formed(g("p -> q : a ; q -> r : b"))
    assert well_formed(g("p -> q : a & r -> s : b"))
    assert not well_formed(g("p -> q : a ; r -> s : b"))
    assert well_formed(g("(p -> q : a)* ; p -> q : b"))


def test_not_well_formed_witness_is_a_replayable_violation():
    verdict = well_formed(g("p -> q : a ; r -> s : b"))
    assert isinstance(verdict, NotWellFormed)
    auto = compile_traces(g("p -> q : a ; r -> s : b"))
    trace, pos = verdict.witness, verdict.position
    assert auto.member(trace)
    assert swappable(trace[pos], trace[pos + 1])
    swapped = trace[:pos] + (trace[pos + 1], trace[pos]) + trace[pos + 2 :]
    assert not auto.member(swapped)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_well_formedness_matches_swap_closure_oracle(seed):
    sample = random_global_type(seed, max_size=4, role_count=4, star_depth=0)
    words = enumerate_traces(compile_traces(sample), 4)
    assert bool(well_formed(sample)) == (not swap_violations(words))


def one_swap_well_formed(sample):
    """The reference for `well_formed`: the decision it made before swap
    diamonds, inclusion of the one-swap variants of the traces in the
    traces, with the same swap-back witness."""
    auto = compile_traces(sample)
    cex = includes(tracelang._swap_variants(auto), auto)
    if cex is None:
        return WellFormed()
    for i in range(len(cex) - 1):
        if swappable(cex[i + 1], cex[i]):
            witness = cex[:i] + (cex[i + 1], cex[i]) + cex[i + 2 :]
            if auto.member(witness):
                return NotWellFormed(witness, i)
    raise AssertionError("no source trace for the swap counterexample")


LETTERS = [
    letter(src)
    for src in ("p -> q : a", "q -> p : a", "r -> s : b", "s -> r : b", "p -> r : a", "q -> s : b", "{p,q} -> r : a")
]


def loops(kids):
    """`loopk` with 1 or 2 bodies and as many exits, drawn from `kids`."""
    return st.integers(1, 2).flatmap(
        lambda k: st.builds(GKExit, st.lists(kids, min_size=k, max_size=k), st.lists(kids, min_size=k, max_size=k))
    )


def global_types():
    leaves = st.one_of(st.just(GSkip()), st.builds(GAction, st.sampled_from(LETTERS)))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(GSeq, kids, kids),
            st.builds(GEither, kids, kids),
            st.builds(GBoth, kids, kids),
            st.builds(GStar, kids),
            loops(kids),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(global_types())
def test_swap_diamonds_match_one_swap_inclusion_on_generated_types(sample):
    assert well_formed(sample) == one_swap_well_formed(sample)


@pytest.mark.parametrize("size, roles, star_depth", [(4, 3, 0), (6, 4, 1), (8, 5, 2), (12, 4, 2)])
def test_swap_diamonds_match_one_swap_inclusion_on_random_types(size, roles, star_depth):
    verdicts = []
    for seed in range(150):
        sample = random_global_type(20261018 + seed, max_size=size, role_count=roles, star_depth=star_depth)
        verdict = well_formed(sample)
        assert verdict == one_swap_well_formed(sample)
        verdicts.append(bool(verdict))
    assert 0 < sum(verdicts) < len(verdicts)


def unfolded(sample):
    """`sample` with every loop replaced, innermost first, by its
    unfolding (`oracles.kexit_unfolding`), so that it holds none."""

    def step(t, new):
        if type(t) is GKExit:
            return kexit_unfolding(tuple(new[: len(t.bodies)]), tuple(new[len(t.bodies) :]))
        return with_subterms(t, new)

    return fold(sample, step)


def assert_compiles_as_its_unfolding(sample) -> None:
    a, b = compile_traces(sample), compile_traces(unfolded(sample))
    assert includes(a, b) is None and includes(b, a) is None
    assert swap_closed(a) == swap_closed(b)


def random_phase(rng: random.Random, depth: int):
    """A body or exit of `random_loop`: a letter, `skip`, a starred or
    optional letter, two letters in sequence, or, with `depth` left, a
    loop."""
    x, r = GAction(rng.choice(LETTERS)), rng.random()
    if depth and r < 0.15:
        return random_loop(rng, depth - 1)
    if r < 0.3:
        return GSkip()
    if r < 0.45:
        return GStar(x)
    if r < 0.6:
        return GEither(x, GSkip())
    if r < 0.75:
        return GSeq(x, GAction(rng.choice(LETTERS)))
    return x


def random_loop(rng: random.Random, depth: int):
    """A loop of one to four phases drawn by `random_phase`."""
    k = rng.randint(1, 4)
    return GKExit(tuple(random_phase(rng, depth) for _ in range(k)), tuple(random_phase(rng, depth) for _ in range(k)))


@settings(max_examples=300, deadline=None)
@given(global_types())
def test_a_loop_compiles_to_the_language_of_its_unfolding(sample):
    """The automaton of each loop of a generated type, built once from its
    parts, has the language, and so the swap closure, of the term that
    unfolds it."""
    assert_compiles_as_its_unfolding(sample)


def test_random_loops_compile_to_the_languages_of_their_unfoldings():
    """1,500 seeded loops, with nullable bodies and exits and loops nested
    in them, alone or under `;`, `|` and `&`: over 3,000 loops, some
    accepting the empty word and some not."""
    rng = random.Random(20261020)
    count = nullable = 0
    for _ in range(1500):
        loop, other = random_loop(rng, 2), random_phase(rng, 1)
        sample = rng.choice([loop, GSeq(other, loop), GSeq(loop, other), GEither(loop, other), GBoth(loop, other)])
        assert_compiles_as_its_unfolding(sample)
        count += sum(type(t) is GKExit for t, _ in postorder(sample))
        nullable += 0 in compile_traces(loop).accepts
    assert count > 3000 and 0 < nullable < 1500


def renamed(sample, suffix: str):
    """`sample` with `suffix` appended to every role."""
    if type(sample) is GAction:
        i = sample.interaction
        return GAction(Interaction(frozenset(r + suffix for r in i.senders), i.receiver + suffix, i.message))
    return with_subterms(sample, [renamed(t, suffix) for t in subterms(sample)])


@st.composite
def and_spines(draw, operands=None):
    """The `&`, in a drawn association, of 2 to 4 types drawn from
    `operands` (generated types by default).  Operand k has its roles
    renamed with a suffix drawn from 0..k, so operands with distinct
    suffixes share no role, and those with one suffix may."""
    n = draw(st.integers(min_value=2, max_value=4))
    operands = global_types() if operands is None else operands
    parts = [renamed(draw(operands), str(draw(st.integers(0, k)))) for k in range(n)]

    def joined(parts):
        if len(parts) == 1:
            return parts[0]
        cut = draw(st.integers(1, len(parts) - 1))
        return GBoth(joined(parts[:cut]), joined(parts[cut:]))

    return joined(parts)


# an `&` spine whose product has 262,144 states, past `DEFAULT_ENUM_CAP`,
# though its role groups have 1,024, 16 and 16
OVER_BUDGET = (
    "(r0 -> s0 : b ; (s0 -> r0 : b ; r0 -> s0 : b)) & (p0 -> q0 : a & s0 -> r0 : b & ({p0,q0} -> r0 : a & r0 -> s0 : b))"
    " & (p0 -> q0 : a & skip & (q0 -> p0 : a & q0 -> s0 : b & (skip | p0 -> q0 : a)))"
    " & (p1 -> q1 : a & skip & (q1 -> p1 : a & q1 -> s1 : b & (skip | p1 -> q1 : a)))"
    " & (p3 -> q3 : a & skip & (q3 -> p3 : a & q3 -> s3 : b & (skip | p3 -> q3 : a)))"
)


@settings(max_examples=100, deadline=None)
@given(and_spines())
@example(g(OVER_BUDGET))
@example(g(OVER_BUDGET + " & (t -> u : a ; v -> w : b)"))
def test_role_groups_decide_well_formedness_as_the_product_does(sample):
    """`well_formed` gives the verdict of the reference on the product,
    and `is_well_formed` and the reference on each role group agree with
    it.  Past the budget of the product, where the reference raises
    BudgetExceededError, a type whose groups are all well formed is still
    decided, by its groups, and one that is not raises it too, as its
    witness is sought on the product."""
    groups = role_groups(sample)
    roles = [roles_of(group) for group in groups]
    assert all(a.isdisjoint(b) for i, a in enumerate(roles) for b in roles[i + 1 :])
    by_groups = all(one_swap_well_formed(group) for group in groups)
    assert is_well_formed(sample) == by_groups
    try:
        verdict = one_swap_well_formed(sample)
    except BudgetExceededError:
        verdict = WellFormed() if by_groups else None
    else:
        assert bool(verdict) == by_groups
    if verdict is None:
        with pytest.raises(BudgetExceededError):
            well_formed(sample)
    else:
        assert well_formed(sample) == verdict


def test_role_groups_join_operands_that_share_a_role_transitively():
    sample = g("p -> q : a & r -> s : b & skip & q -> r : c & t -> u : d")
    assert role_groups(sample) == [
        GSkip(),
        g("(p -> q : a & r -> s : b) & q -> r : c"),
        g("t -> u : d"),
    ]
    for one in ("p -> q : a & q -> r : b", "p -> q : a ; r -> s : b", "skip"):
        assert role_groups(g(one)) == [g(one)]


A, B, C = "p -> q : a", "r -> p : b", "p -> q : c"


@pytest.mark.parametrize(
    "src, verdict",
    [
        (
            "(p -> q : a ; r -> p : b) | (r -> p : b ; p -> q : a) | (r -> p : b ; p -> q : a ; q -> s : c)",
            WellFormed(),
        ),
        ("(p -> q : a ; r -> p : b ; p -> q : c) | r -> p : b ; p -> q : a", NotWellFormed(word(A, B, C), 0)),
        ("p -> q : a ; r -> p : b ; (p -> q : c)? | r -> p : b ; p -> q : a ; p -> q : c", NotWellFormed(word(A, B), 0)),
    ],
)
def test_swap_diamonds_that_close_on_two_states(src, verdict):
    """`p -> q : a` then `r -> p : b` may swap, not the other way round,
    and every diamond is defined, but `a b` and `b a` lead to two states.
    The language after `a b` is strictly included in the one after `b a`
    in the first type; in the others it has a letter (`p -> q : c`) or
    the empty word that the one after `b a` lacks."""
    sample = g(src)
    assert well_formed(sample) == one_swap_well_formed(sample) == verdict
    assert bool(verdict) == (not swap_violations(enumerate_traces(compile_traces(sample), 4)))


def pairs(n: int) -> str:
    """The width-n parallel pairs, n three-message exchanges side by side."""
    return " & ".join(f"(a{i} -> b{i} : m ; b{i} -> a{i} : k ; a{i} -> b{i} : z)" for i in range(n))


def test_well_formed_types_build_no_swap_automaton(monkeypatch):
    samples = [g(src) for src in PINNED] + [g(pairs(4))]
    well = [sample for sample in samples if one_swap_well_formed(sample)]
    assert len(well) == len(samples) - 1
    built = []
    variants = tracelang._swap_variants

    def counting(auto):
        built.append(auto)
        return variants(auto)

    def unexpected(*args):
        raise AssertionError("inclusion used on a well-formed type")

    monkeypatch.setattr(tracelang, "_swap_variants", counting)
    monkeypatch.setattr(tracelang, "includes", unexpected)
    for sample in well:
        assert well_formed(sample)
    assert built == []
    monkeypatch.setattr(tracelang, "includes", includes)
    assert not well_formed(g("p -> q : a ; r -> s : b"))
    assert len(built) == 1


def test_width_6_pairs_are_well_formed_within_2_seconds():
    """4,096 states of the subset automaton, each a singleton."""
    sample = g(pairs(6))
    start = time.perf_counter()
    assert well_formed(sample) == WellFormed()
    assert time.perf_counter() - start < 2


def test_the_product_of_width_6_pairs_closes_its_swap_diamonds_within_2_seconds():
    """Well-formed pairs are decided one pair at a time; the diamonds of
    their product, 4,096 states of the subset automaton, each a
    singleton, are still closed within the bound."""
    start = time.perf_counter()
    assert swap_closed(compile_traces(g(pairs(6))))
    assert time.perf_counter() - start < 2


def test_a_shuffle_product_is_refused_iff_its_states_pass_the_budget(monkeypatch):
    """The operands are trim, so every tuple of their states is reachable:
    the shuffle of 2, 3 or 4 of them has exactly the product of their
    state counts, and is refused, with the text of its budget, iff that
    product passes it."""
    autos = [compile_traces(random_global_type(20260814 + i)) for i in range(40)]
    for operands in (autos[k : k + width] for width in (2, 3, 4) for k in range(len(autos) - width + 1)):
        size = math.prod(a.n_states for a in operands)
        for cap in (size - 1, size, size + 1):
            monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", cap)
            if size > cap:
                with pytest.raises(BudgetExceededError) as exc:
                    shuffle_automata(*operands)
                assert str(exc.value) == f"more than {cap} states in the shuffle product of an `&`"
            else:
                assert shuffle_automata(*operands).n_states == size


def loopk_text(k: int) -> str:
    """A k-phase loop: phase i sends `b{i}` from p to q, and its exit sends
    `e{i}` back."""
    bodies = ", ".join(f"p -> q : b{i}" for i in range(k))
    exits = ", ".join(f"q -> p : e{i}" for i in range(k))
    return f"loop{k} ({bodies}) exit ({exits})"


def binary_shuffle(a: TraceAutomaton, b: TraceAutomaton) -> TraceAutomaton:
    """The reference for `shuffle_automata`: the product of two automata,
    numbering pairs of states depth-first as they are found, `a`'s moves
    before `b`'s."""
    index = {(0, 0): 0}
    delta: list = [[]]
    work = [(0, 0)]
    while work:
        p, q = work.pop()
        edges = delta[index[p, q]]
        moves = [(lab, (r, q)) for lab, r in a.delta[p]]
        moves += [(lab, (p, r)) for lab, r in b.delta[q]]
        for lab, t in moves:
            if t not in index:
                index[t] = len(delta)
                delta.append([])
                work.append(t)
            edges.append((lab, index[t]))
    accepts = frozenset(s for (p, q), s in index.items() if p in a.accepts and q in b.accepts)
    return TraceAutomaton(delta, accepts)


def reference_star(a: TraceAutomaton) -> TraceAutomaton:
    """The position automaton of `a*`: `a`'s start accepts, and every
    accepting state of `a` may begin another round with the moves of `a`'s
    start."""
    delta = list(a.delta)
    tracelang._wire(delta, a.accepts, delta[0])
    return TraceAutomaton(delta, a.accepts | {0})


def binary_compile(sample) -> TraceAutomaton:
    """`compile_traces` with every `&` taken as the binary product of its
    two sides, as the term nests them, every `;` or `|` spine as a left
    fold of its operands, two at a time, every `*` as `reference_star`
    builds it, and every loop by `tracelang._loop` on its parts compiled
    so."""
    if type(sample) is GBoth:
        return binary_shuffle(binary_compile(sample.left), binary_compile(sample.right))
    if type(sample) in (GSeq, GEither):
        pair = tracelang._seq if type(sample) is GSeq else tracelang._alt
        return functools.reduce(lambda a, b: pair([a, b]), map(binary_compile, spine(sample)))
    if type(sample) is GStar:
        return reference_star(binary_compile(sample.body))
    if type(sample) is GKExit:
        return tracelang._loop(list(map(binary_compile, sample.bodies)), list(map(binary_compile, sample.exits)))
    return compile_traces(sample)


def test_an_and_spine_compiles_as_nested_binary_products_do():
    """`compile_traces` folds an `&` spine into one product, which numbers
    the states of left-, right- and mixed-nested spines as the nested
    binary products do, and a `;` or `|` spine in one pass, as folding its
    operands two at a time does: the same moves, acceptance and DOT text,
    on spines of up to six operands, long `;` and `|` spines, k-exit loops
    and random samples."""
    operands = [g(f"p{i} -> q{i} : a ; (q{i} -> p{i} : b | q{i} -> p{i} : c)") for i in range(6)]
    operands[2] = g("p2 -> q2 : a*")
    for n in range(2, 7):
        spines = [
            functools.reduce(GBoth, operands[:n]),
            functools.reduce(lambda rest, x: GBoth(x, rest), reversed(operands[:n])),
        ]
        if n > 3:
            spines.append(GBoth(GBoth(operands[0], functools.reduce(GBoth, operands[1 : n - 1])), operands[n - 1]))
            half = n // 2
            spines.append(GBoth(functools.reduce(GBoth, operands[:half]), functools.reduce(GBoth, operands[half:n])))
        for sample in spines:
            a, b = compile_traces(sample), binary_compile(sample)
            assert (a.delta, a.accepts, a.to_dot()) == (b.delta, b.accepts, b.to_dot())
    long_spines = [functools.reduce(kind, operands * 40) for kind in (GSeq, GEither)]
    long_spines += [functools.reduce(lambda rest, x: kind(x, rest), operands * 40) for kind in (GSeq, GEither)]
    loops = [GKExit(tuple(operands[:k]), tuple(operands[k:] + operands[:k])[:k]) for k in range(1, 7)]
    loops.append(g(loopk_text(40)))
    loops.append(g("loop2 (p -> q : a ; q -> p : b?, skip) exit (p -> q : c | q -> p : d, skip)*"))
    for sample in long_spines + loops:
        a, b = compile_traces(sample), binary_compile(sample)
        assert (a.delta, a.accepts, a.to_dot()) == (b.delta, b.accepts, b.to_dot())
    both = 0
    for i in range(600):
        sample = random_global_type(20260814 + i, max_size=10)
        both += "&" in print_global_type(sample)
        a, b = compile_traces(sample), binary_compile(sample)
        assert (a.delta, a.accepts, a.to_dot()) == (b.delta, b.accepts, b.to_dot())
    assert both > 100


def test_a_shuffle_product_is_budgeted_by_the_states_it_numbers(monkeypatch):
    """Width-2 pairs have 16 states: they compile under a budget of 16, and
    numbering the 16th state passes a budget of 15."""
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 16)
    assert compile_traces(g(pairs(2))).n_states == 16
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 15)
    with pytest.raises(BudgetExceededError, match="more than 15 states in the shuffle product of an `&`"):
        compile_traces(g(pairs(2)))


def test_a_spine_automaton_is_budgeted_by_its_states(monkeypatch):
    """A `;` or `|` spine of five letters has 6 states: it compiles under
    a budget of 6 and is refused, before any state is built, under a
    budget of 5, as a 3-phase loop's 7 states are under 6."""
    letters = ["p -> q : a", "p -> q : b", "q -> p : c", "p -> q : d", "q -> p : e"]
    for text in (" ; ".join(letters), " | ".join(letters)):
        monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 6)
        assert compile_traces(g(text)).n_states == 6
        monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 5)
        with pytest.raises(BudgetExceededError, match="more than 5 states in the automaton of a `;` or `|` spine"):
            compile_traces(g(text))
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 7)
    assert compile_traces(g(loopk_text(3))).n_states == 7
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 6)
    with pytest.raises(BudgetExceededError, match="more than 6 states in the automaton of a loop"):
        compile_traces(g(loopk_text(3)))


def test_a_subset_automaton_is_budgeted_by_the_sets_it_numbers(monkeypatch):
    """`(p -> q : a | p -> q : b)* ; p -> q : a` followed by three choices
    between the same letters, in an `&` with `q -> r : c`, has 34 subset
    states: reading every row is refused under a budget of 33, with the
    text of the budget.  A refused row is not kept, so the same automaton,
    asked again under a budget of 34, answers as a fresh one."""
    choice = "(p -> q : a | p -> q : b)"
    sample = g(f"({choice}* ; p -> q : a ; " + " ; ".join([choice] * 3) + ") & q -> r : c")
    auto = compile_traces(sample)
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 33)
    with pytest.raises(BudgetExceededError, match="^more than 33 states in the subset automaton$"):
        swap_closed(auto)
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 34)
    fresh = compile_traces(sample)
    assert swap_closed(auto) == swap_closed(fresh)
    assert list_traces(auto, 8) == list_traces(fresh, 8)
    assert [auto._subset[s] for s in range(34)] == [fresh._subset[s] for s in range(34)]


def test_includes_is_budgeted_by_the_pairs_it_visits(monkeypatch):
    """Two automata of one 12-letter chain have 13 subset states each, and
    comparing them visits 13 pairs of states: within a budget of 13, and
    refused, with the text of the budget, under one of 12.  Their subset
    automata are filled first, under the default budget, so that only the
    pairs are counted."""
    chain = g(" ; ".join(["p -> q : a"] * 12))
    left, right = compile_traces(chain), compile_traces(chain)
    assert includes(left, left) is None and includes(right, right) is None
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 13)
    assert includes(left, right) is None
    monkeypatch.setattr(tracelang, "DEFAULT_ENUM_CAP", 12)
    with pytest.raises(BudgetExceededError, match="^visited more than 12 pairs of states comparing two languages$"):
        includes(left, right)


def test_compiled_parts_are_the_role_groups_keyed_by_their_roles():
    """Their shuffle has the language and the size of the type's automaton,
    and a type of one group keeps its automaton, as the shuffle of one
    part is that part."""
    sample = g("(p -> q : a ; q -> p : b) & r -> s : c & skip & q -> p : d")
    parts = compile_parts(sample)
    assert list(parts) == [roles_of(group) for group in role_groups(sample)] == [
        frozenset("rs"), frozenset(), frozenset("pq")
    ]
    whole, shuffle = compile_traces(sample), shuffle_automata(*parts.values())
    assert includes(whole, shuffle) is None and includes(shuffle, whole) is None
    assert shuffle.n_states == whole.n_states
    (auto,) = compile_parts(g("p -> q : a ; q -> p : b")).values()
    assert shuffle_automata(auto) is auto


def test_well_formedness_stops_at_the_first_group_that_is_not():
    """The second group's `&` product passes the budget, but the first
    group is not well formed, so the answer is known before it is built."""
    protocol = g("(p -> q : a ; r -> s : b) & (" + " & ".join(f"x -> y : m{i}" for i in range(17)) + ")")
    assert is_well_formed(protocol) is False
    with pytest.raises(BudgetExceededError):
        compile_parts(protocol)
