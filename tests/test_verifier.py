"""Bounded conformance checking, diagnosis, and the random property suite."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from mpst.machine import session_type_equal
from mpst.projector import DEFAULT_AND_BUDGET, ProjectionError, project_top
from mpst.runtime import DEFAULT_BUF_BOUND, explore
from mpst.syntax import (
    GAction,
    GBoth,
    GEither,
    GKExit,
    GSeq,
    GSkip,
    GStar,
    default_max_len,
    interaction_count,
    parse_global_type,
    parse_session_env,
    parse_session_type,
    roles_of,
    subterms,
)
from mpst import projector, tracelang, verifier
from mpst.tracelang import (
    compile_traces,
    enumerate_traces,
    includes,
    parikh_vector,
    well_formed,
    word_key,
)
from mpst.verifier import (
    NO_KNOWLEDGE_FOR_CHOICE,
    NO_KNOWLEDGE_NO_CHOICE,
    NO_SEQUENTIALITY,
    PROJECTABLE,
    UNCLASSIFIED,
    Classification,
    _candidate_envs,
    _conformance,
    _relaxations,
    check_preorder,
    classify,
    cross_check_theorems,
    forced_join,
    forced_join_env,
    random_global_type,
)

g = parse_global_type
t = parse_session_type

PROPERTY_SEED = 20260814  # criterion 8's samples
UNKNOWABLE_CHOICE = (
    "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)"
)


def word(*srcs: str):
    return tuple(g(src).interaction for src in srcs)


def test_projection_of_a_sequence_is_sound_and_complete():
    protocol = g("p -> q : a ; q -> r : b")
    report = check_preorder(protocol, project_top(protocol))
    assert report.sound and report.complete and bool(report)
    assert report.basis == "exact"


def test_a_reordering_longer_than_the_length_bound_is_unsound():
    protocol = g("p -> q : a ; p -> q : a ; p -> q : a ; r -> s : b")
    report = check_preorder(protocol, project_top(protocol), max_len=3)
    assert not report.sound and report.complete
    assert report.sound_counterexample == word(
        "p -> q : a", "p -> q : a", "r -> s : b", "p -> q : a"
    )
    assert report.basis == "exact" and report.liveness == "Live"


def bounded_reference(protocol, session_automaton, max_len: int):
    """The enumerate-then-member check: the shortest session trace up to
    `max_len` that is not a trace of `protocol`, and the shortest trace of
    `protocol` up to `max_len` with the Parikh vector of no session trace
    (None when there is none)."""
    auto = compile_traces(protocol)
    words = enumerate_traces(session_automaton, max_len)
    outside = [w for w in words if not auto.member(w)]
    covered = {parikh_vector(w) for w in words}
    missing = [
        w for w in enumerate_traces(auto, max_len) if parikh_vector(w) not in covered
    ]
    return min(outside, key=word_key, default=None), min(missing, key=word_key, default=None)


def conformance_cases():
    """(global type, environment) pairs: the projection of every
    projectable criterion-8 sample, well formed or not; the classify
    candidates of every well-formed one that does not project, and of the
    unknowable choice; and, role by role, each projection with one role's
    type taken from the next sample's projection."""
    projected = []
    failed = [g(UNKNOWABLE_CHOICE)]
    for i in range(200):
        sample = random_global_type(PROPERTY_SEED + i)
        try:
            projected.append((sample, project_top(sample)))
        except ProjectionError:
            failed.append(sample)
    yield from projected
    for protocol in failed:
        for env in _candidate_envs(protocol, DEFAULT_AND_BUDGET):
            yield protocol, env
    for (protocol, env), (_, other) in zip(projected, projected[1:]):
        for role in sorted(env.keys() & other.keys()):
            if env[role] != other[role]:
                yield protocol, {**env, role: other[role]}


def star_free(protocol) -> bool:
    """Whether `protocol` has no `*` and no `loopk`."""
    work = [protocol]
    while work:
        node = work.pop()
        if isinstance(node, (GStar, GKExit)):
            return False
        work += subterms(node)
    return True


def test_exact_conformance_agrees_with_the_bounded_reference():
    """After a finished exploration, a star-free type under the default
    bound has no trace longer than the bound, so its verdicts are exact and
    a longer bound changes neither."""
    seen = Counter()
    for protocol, env in conformance_cases():
        verdict, session_automaton = explore(env)
        max_len = default_max_len(protocol)
        auto = compile_traces(protocol)
        report = _conformance(auto, verdict, session_automaton, max_len, DEFAULT_BUF_BOUND)
        outside, missing = bounded_reference(protocol, session_automaton, max_len)
        cex = report.sound_counterexample
        if outside is not None:
            assert cex is not None and len(cex) <= len(outside)
        if cex is not None:
            assert session_automaton.member(cex)
            assert not compile_traces(protocol).member(cex)
            if len(cex) <= max_len:
                assert outside is not None
        assert report.complete == (missing is None)
        assert report.completeness_gap == missing
        seen[report.liveness, report.sound, report.complete] += 1
        if report.liveness == "Unknown":
            continue
        if star_free(protocol):
            assert report.basis == "exact"
            outside, missing = bounded_reference(protocol, session_automaton, max_len + 4)
            assert (report.sound, report.complete) == (outside is None, missing is None)
            seen["star-free"] += 1
    assert seen["Live", False, True] > 0  # unsound
    assert seen["Live", True, False] > 0  # incomplete
    assert seen["NotLive", True, False] > 0  # no traces at all
    assert seen["Live", True, True] > 0
    assert seen["star-free"] > 0


def test_a_starred_type_complete_up_to_permutation_stays_bounded():
    """The session's traces cover the type's only up to permutation, and
    the starred type has traces of every length: completeness is bounded."""
    protocol = g("p -> s : a & s -> r : a* ; s -> r : c")
    env = project_top(protocol)
    assert includes(compile_traces(protocol), explore(env)[1]) is not None
    report = check_preorder(protocol, env)
    assert report.sound and report.complete and report.liveness == "Live"
    assert report.basis == "bounded"


def test_soundness_rejects_extra_behaviours():
    protocol = g("p -> q : a ; r -> s : b")  # not well formed
    env = project_top(protocol)  # projection exists but over-approximates
    report = check_preorder(protocol, env)
    assert not report.sound
    cex = report.sound_counterexample
    assert cex is not None and cex[0].message == "b"  # the reordered run


def test_completeness_rejects_covering_only_one_branch():
    protocol = g("p -> q : a | p -> q : b")
    half = parse_session_env("p : q!a.end\nq : p?a.end")
    report = check_preorder(protocol, half)
    assert not report.complete
    gap = report.completeness_gap
    assert gap is not None and gap[0].message == "b"
    assert report.sound


def test_completeness_is_up_to_permutation():
    protocol = g("p -> q : a ; r -> s : b")
    env = project_top(protocol)
    assert check_preorder(protocol, env).complete


def test_enlarging_bounds_preserves_soundness_on_projectable_protocols():
    protocol = g("(p -> q : a)* ; p -> q : b")
    env = project_top(protocol)
    for max_len in (4, 8, 12):
        report = check_preorder(protocol, env, max_len=max_len)
        assert report.sound and report.complete


def test_classify_projectable():
    assert classify(g("p -> q : a ; q -> r : b")).category == PROJECTABLE


def test_classify_hidden_ordering():
    assert classify(g("p -> q : a ; r -> s : b")).category == NO_SEQUENTIALITY


def test_classify_unknowable_choice():
    protocol = g(
        "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)"
    )
    assert classify(protocol).category == NO_KNOWLEDGE_FOR_CHOICE


def counting_subset_automata(monkeypatch) -> list:
    """The automata whose subset automata are built from now on, in order."""
    built = []
    init = tracelang._Subset.__init__

    def counting(dfa, auto):
        built.append(auto)
        init(dfa, auto)

    monkeypatch.setattr(tracelang._Subset, "__init__", counting)
    return built


def counting_compiles(monkeypatch, record) -> None:
    """Call `record(term, automaton)` for every type compiled from now on,
    all of them by `tracelang` (the verifier compiles by role groups, with
    `compile_parts`); the compiler's own calls on the operands of a type
    are not counted."""
    compile_, depth = tracelang.compile_traces, [0]

    def counting(t):
        depth[0] += 1
        try:
            auto = compile_(t)
        finally:
            depth[0] -= 1
        if not depth[0]:
            record(t, auto)
        return auto

    monkeypatch.setattr(tracelang, "compile_traces", counting)


def test_conformance_determinizes_each_automaton_once(monkeypatch):
    """Cut at depth 2, the sale protocol's check asks both inclusions and
    then lists both languages for the first uncovered trace; the type's
    and the session's automata are determinized once each for all four
    questions."""
    protocol = g(
        "seller -> buyer : descr ; seller -> buyer : price ;"
        " (buyer -> seller : accept | buyer -> seller : quit)"
    )
    env = project_top(protocol)
    enumerated = []
    first_uncovered = verifier.first_uncovered
    monkeypatch.setattr(
        verifier, "first_uncovered", lambda a, b, n: enumerated.extend((a, b)) or first_uncovered(a, b, n)
    )
    built = counting_subset_automata(monkeypatch)
    report = check_preorder(protocol, env, depth_bound=2)
    assert report.basis == "bounded" and report.liveness == "Unknown"
    assert len(enumerated) == 2 and enumerated[0] is not enumerated[1]
    assert len(built) == 2 and {id(a) for a in built} == {id(a) for a in enumerated}


def test_classify_determinizes_the_type_once_for_every_candidate(monkeypatch):
    protocol = g(UNKNOWABLE_CHOICE)
    assert len(_candidate_envs(protocol, DEFAULT_AND_BUDGET)) >= 2
    compiled = []
    counting_compiles(monkeypatch, lambda t, auto: compiled.append(auto))
    built = counting_subset_automata(monkeypatch)
    assert classify(protocol).category == NO_KNOWLEDGE_FOR_CHOICE
    assert len(compiled) == 1
    assert sum(auto is compiled[0] for auto in built) == 1


def test_classify_determinizes_the_type_on_its_candidate_path_once(monkeypatch):
    """The type's first and last letters settle its well-formedness, so
    its 7-state subset automaton is built when the first candidate is
    checked, after that candidate's session's, and serves every candidate;
    each later candidate's session has its own."""
    built = counting_subset_automata(monkeypatch)
    assert classify(g(UNKNOWABLE_CHOICE)).category == NO_KNOWLEDGE_FOR_CHOICE
    assert [len(auto._subset.accepting) for auto in built] == [4, 7, 4, 4]


def pairs(n: int) -> str:
    return " & ".join(f"(a{i} -> b{i} : m ; b{i} -> a{i} : k ; a{i} -> b{i} : z)" for i in range(n))


def test_classify_compiles_only_the_role_groups_of_a_projectable_spine(monkeypatch):
    protocol = g(pairs(5))
    compiled = []
    counting_compiles(monkeypatch, lambda t, auto: compiled.append(t))
    built = counting_subset_automata(monkeypatch)
    assert classify(protocol).category == PROJECTABLE
    assert len(tracelang.role_groups(protocol)) == 5
    # well formed by its first and last letters, and projectable: no
    # candidate is checked, so nothing is compiled
    assert compiled == [] and built == []


def test_crosscheck_determinizes_only_the_automata_it_compiles_and_explores(monkeypatch):
    """Every checked type is checked on the automaton its well-formedness
    was decided on, unless its role groups were compiled alone."""
    compiled, sessions = [], []
    counting_compiles(monkeypatch, lambda t, auto: compiled.append(auto))
    conformance = verifier._conformance
    monkeypatch.setattr(
        verifier, "_conformance",
        lambda auto, verdict, session, *rest: sessions.append(session) or conformance(auto, verdict, session, *rest),
    )
    built = counting_subset_automata(monkeypatch)
    report = cross_check_theorems(sample_count=30, seed=7)
    assert report["checked"] == len(sessions) > 0
    assert len({id(a) for a in built}) == len(built)
    assert {id(a) for a in built} <= {id(a) for a in compiled + sessions}


def test_classify_choice_without_any_cover():
    assert classify(g("p -> q : a | q -> p : a")).category == NO_KNOWLEDGE_NO_CHOICE


def test_classify_is_honest_when_only_the_algorithm_falls_short():
    protocol = g(
        "(p -> q : a ; q -> r : b) |"
        " (p -> q : c ; q -> p : d ; p -> r : e ; r -> q : f ; q -> r : b)"
    )
    outcome = classify(protocol)
    assert outcome.category == UNCLASSIFIED
    assert "sound and complete" in outcome.detail


def test_classify_does_not_project_a_type_that_is_not_well_formed(monkeypatch):
    protocol = g("p -> q : a ; r -> s : b")
    projected = []
    search = projector._project_top

    # every search, whether `project_top` or `project_first` starts it
    def counting(t, *args):
        projected.append(t)
        return search(t, *args)

    monkeypatch.setattr(projector, "_project_top", counting)
    assert classify(protocol).category == NO_SEQUENTIALITY
    assert projected and all(t != protocol for t in projected)


def test_classify_tries_each_relaxation_once(monkeypatch):
    """A type with one junction relaxes it to the same variant all at once
    and one at a time; `classify` decides that variant once, and, as it
    does not project, tries nothing more."""
    protocol = g("(p -> q : a | r -> q : b) ; s -> t : c")
    relaxed = g("(p -> q : a | r -> q : b) & s -> t : c")
    assert _relaxations(protocol) == [relaxed, relaxed]
    asked = []
    decide = verifier.is_well_formed
    monkeypatch.setattr(verifier, "is_well_formed", lambda t: asked.append(t) or decide(t))
    outcome = classify(protocol)
    assert outcome.category == UNCLASSIFIED and "no sequentiality relaxation" in outcome.detail
    assert asked == [protocol, relaxed]


def test_a_spine_relaxes_one_junction_at_a_time():
    """Of a `;` spine, all its junctions at once, then each junction in
    turn, left to right, with the operands before it and those after it
    on the two sides of an `&`, then the variants of each operand in its
    place; 16 junctions are relaxed, and 17 are not."""
    protocol = g("p -> q : a ; (q -> r : b ; r -> p : c | s -> t : d ; t -> s : e)")
    assert _relaxations(protocol) == [
        g("p -> q : a & (q -> r : b & r -> p : c | s -> t : d & t -> s : e)"),
        g("p -> q : a & (q -> r : b ; r -> p : c | s -> t : d ; t -> s : e)"),
        g("p -> q : a ; (q -> r : b & r -> p : c | s -> t : d ; t -> s : e)"),
        g("p -> q : a ; (q -> r : b ; r -> p : c | s -> t : d & t -> s : e)"),
    ]
    chain = g("p -> q : a ; q -> r : b ; r -> s : c ; s -> t : d")
    assert _relaxations(chain) == [
        g("p -> q : a & q -> r : b & r -> s : c & s -> t : d"),
        g("p -> q : a & (q -> r : b ; r -> s : c ; s -> t : d)"),
        g("(p -> q : a ; q -> r : b) & (r -> s : c ; s -> t : d)"),
        g("(p -> q : a ; q -> r : b ; r -> s : c) & s -> t : d"),
    ]
    links = [f"p -> q : m{i}" for i in range(19)]
    assert len(_relaxations(g(" ; ".join(links[:17])))) == 17
    assert _relaxations(g(" ; ".join(links[:18]))) is None
    # the junctions of every spine count
    assert len(_relaxations(g("(" + " ; ".join(links[:9]) + ")* | " + " ; ".join(links[9:18])))) == 17
    assert _relaxations(g("(" + " ; ".join(links[:10]) + ")* | " + " ; ".join(links[10:]))) is None


def test_classify_and_crosscheck_find_no_swap_witness(monkeypatch):
    """Both read only whether a type is well formed, so neither builds the
    one-swap automaton that `well_formed`'s witness comes from."""

    def unexpected(auto):
        raise AssertionError("a swap witness was searched for")

    monkeypatch.setattr(tracelang, "_swap_variants", unexpected)
    for src in ("p -> q : a ; r -> s : b", UNKNOWABLE_CHOICE, "p -> q : a | q -> p : a"):
        classify(g(src))
    report = cross_check_theorems(sample_count=30, seed=7)
    assert 0 < report["well_formed"] < report["samples"]


def classify_projecting_first(protocol):
    """`classify` with its former order of work, as a reference: it projects
    `protocol` before it looks at well-formedness, which it asks of
    `well_formed`, witness and all."""
    wf = well_formed(protocol)
    env = None
    try:
        env = project_top(protocol, DEFAULT_AND_BUDGET)
    except ProjectionError:
        pass
    if wf and env is not None:
        return Classification(PROJECTABLE, "well formed and projectable")
    if not wf:
        variants = _relaxations(protocol)
        if variants is None:
            return Classification(
                UNCLASSIFIED,
                "not well formed, and relaxations are not tried past 16 `;` junctions",
            )
        for variant in variants:
            if not well_formed(variant):
                continue
            try:
                project_top(variant, DEFAULT_AND_BUDGET)
            except ProjectionError:
                continue
            return Classification(
                NO_SEQUENTIALITY,
                "the specified ordering of independent interactions cannot be"
                " enforced; the unordered variant is implementable",
            )
        return Classification(
            UNCLASSIFIED,
            "not well formed, and no sequentiality relaxation is implementable",
        )
    candidates = _candidate_envs(protocol, DEFAULT_AND_BUDGET)
    if not candidates:
        return Classification(
            UNCLASSIFIED, "projection failed and no candidate implementations arise"
        )
    found_complete = False
    for cand in candidates:
        report = check_preorder(protocol, cand, default_max_len(protocol))
        if not report.complete:
            continue
        found_complete = True
        if report.sound:
            return Classification(
                UNCLASSIFIED,
                "a sound and complete implementation exists; only the"
                " projection algorithm falls short",
            )
    if found_complete:
        return Classification(
            NO_KNOWLEDGE_FOR_CHOICE,
            "participants cannot learn the outcome of a choice; covering"
            " implementations exhibit behaviours outside the specification",
        )
    return Classification(
        NO_KNOWLEDGE_NO_CHOICE,
        "no candidate implementation covers the specified behaviours",
    )


def test_classify_agrees_with_projecting_first():
    categories = Counter()
    for seed in range(PROPERTY_SEED, PROPERTY_SEED + 300):
        protocol = random_global_type(seed)
        outcome = classify(protocol)
        assert outcome == classify_projecting_first(protocol), seed
        categories[outcome.category] += 1
    assert len(categories) >= 4


def test_forced_join_announces_the_choice_then_converges():
    joined = forced_join(t("q!a.r?a.end"), t("q!b.r?b.end"))
    assert joined is not None
    assert session_type_equal(
        joined, t("q!a.(r?a.end + r?b.end) (+) q!b.(r?a.end + r?b.end)")
    )


def test_forced_join_unions_exclusive_inputs():
    joined = forced_join(t("p?a.r!a.end"), t("p?b.r!a.end"))
    assert joined is not None
    assert session_type_equal(joined, t("p?a.r!a.end + p?b.r!a.end"))


def test_forced_join_rejects_mixed_directions():
    assert forced_join(t("q!a.end"), t("q?a.end")) is None


def test_an_output_branch_that_cannot_converge_keeps_its_continuation():
    joined = forced_join(t("q!a.r!a.end"), t("q!b.s?b.end"))
    assert joined == t("q!a.r!a.end (+) q!b.s?b.end")


def test_an_env_join_fails_when_one_role_cannot_join():
    assert forced_join_env([{"p": t("q!a.end")}, {"p": t("q?a.end")}]) is None
    # q is absent from the second alternative, and an input cannot join `end`
    assert forced_join_env([parse_session_env("p : q!a.end\nq : p?a.end"), {"p": t("q!a.end")}]) is None


def test_candidates_are_the_join_then_the_projections_each_once():
    same = g("(p -> q : a ; r -> s : b) | (p -> q : a ; r -> s : b)")
    assert _candidate_envs(same, DEFAULT_AND_BUDGET) == [project_top(same.operands[0])]
    apart = g("(p -> q : a ; q -> r : b) | (r -> p : c)")
    projections = [project_top(b) for b in apart.operands]
    assert forced_join_env(projections) is None
    assert _candidate_envs(apart, DEFAULT_AND_BUDGET) == projections
    unknowable = g(UNKNOWABLE_CHOICE)
    projections = [project_top(b) for b in unknowable.operands]
    joined = forced_join_env(projections)
    assert joined is not None
    assert _candidate_envs(unknowable, DEFAULT_AND_BUDGET) == [joined, *projections]


def test_random_global_type_is_deterministic_and_bounded():
    for seed in range(60):
        a = random_global_type(seed, max_size=6, role_count=3, star_depth=1)
        b = random_global_type(seed, max_size=6, role_count=3, star_depth=1)
        assert a == b
        assert interaction_count(a) <= 6
        assert roles_of(a) <= {"p", "q", "r"}


def test_random_global_type_avoids_self_messages_and_empty_stars():
    def check(node, depth):
        match node:
            case GAction(i):
                assert i.receiver not in i.senders
            case GSeq(l, r) | GBoth(l, r) | GEither(l, r):
                check(l, depth)
                check(r, depth)
            case GStar(body):
                assert depth > 0
                assert interaction_count(body) >= 1
                check(body, depth - 1)

    for seed in range(300):
        check(random_global_type(seed, max_size=6, role_count=4, star_depth=1), 1)


def test_random_global_type_exercises_every_constructor():
    seen = set()

    def walk(node):
        seen.add(type(node).__name__)
        match node:
            case GSeq(l, r) | GBoth(l, r) | GEither(l, r):
                walk(l)
                walk(r)
            case GStar(body):
                walk(body)

    for seed in range(1000):
        walk(random_global_type(seed))
    assert {"GAction", "GSeq", "GBoth", "GEither", "GStar"} <= seen


def test_cross_check_accepts_a_small_pinned_batch():
    report = cross_check_theorems(sample_count=30, seed=7)
    assert report["violations"] == []
    assert report["checked"] > 0
    assert report == cross_check_theorems(sample_count=30, seed=7)


def random_loopk(seed, roles):
    """A k-exit loop drawn from `seed`: k is 1 or 2, each body a random term
    of 1 to 3 interactions with at most one `*`, each exit `skip` or a
    random `*`-free term of 1 or 2 interactions."""
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    bodies = [verifier._random_term(rng, roles, rng.randint(1, 3), 1) for _ in range(k)]
    exits = [
        GSkip() if rng.random() < 0.3 else verifier._random_term(rng, roles, rng.randint(1, 2), 0)
        for _ in range(k)
    ]
    return GKExit(tuple(bodies), tuple(exits))


def test_projections_of_well_formed_k_exit_loops_conform():
    """The theorems on k-exit loops: a well-formed loop that projects has a
    Live, sound and complete projection, or one whose exploration was cut
    with no soundness counterexample, or its check ends at a bound.  A
    projection may fail, but not at a bound."""
    checked = 0
    for roles in (("p", "q", "r"), ("p", "q")):
        for seed in range(1500):
            sample = random_loopk(seed, roles)
            if not tracelang.is_well_formed(sample):
                continue
            try:
                env = project_top(sample)
            except ProjectionError:
                continue
            try:
                report = check_preorder(sample, env)
            except tracelang.BudgetExceededError:
                continue
            checked += 1
            if report.liveness == "Unknown":
                assert report.sound_counterexample is None, (seed, roles)
            else:
                assert (report.liveness, report.sound, report.complete) == ("Live", True, True), (seed, roles)
    assert checked >= 200


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_projections_of_well_formed_samples_conform(seed):
    sample = random_global_type(seed, max_size=5, role_count=3, star_depth=1)
    if not well_formed(sample):
        return
    try:
        env = project_top(sample)
    except ProjectionError:
        return
    report = check_preorder(sample, env, max_len=min(interaction_count(sample) * 2 + 4, 10))
    assert report.sound and report.complete
