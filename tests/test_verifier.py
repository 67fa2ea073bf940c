"""Bounded conformance checking, diagnosis, and the random property suite."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mpst.machine import session_type_equal
from mpst.projector import project_top
from mpst.syntax import (
    GAction,
    GBoth,
    GEither,
    GSeq,
    GStar,
    interaction_count,
    parse_global_type,
    parse_session_env,
    parse_session_type,
    roles_of,
)
from mpst.verifier import (
    NO_KNOWLEDGE_FOR_CHOICE,
    NO_KNOWLEDGE_NO_CHOICE,
    NO_SEQUENTIALITY,
    PROJECTABLE,
    UNCLASSIFIED,
    check_preorder,
    classify,
    cross_check_theorems,
    forced_join,
    random_global_type,
)

g = parse_global_type
t = parse_session_type


def test_projection_of_a_sequence_is_sound_and_complete():
    protocol = g("p -> q : a ; q -> r : b")
    report = check_preorder(protocol, project_top(protocol))
    assert report.sound and report.complete and bool(report)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_projections_of_well_formed_samples_conform(seed):
    from mpst.projector import ProjectionError
    from mpst.tracelang import well_formed

    sample = random_global_type(seed, max_size=5, role_count=3, star_depth=1)
    if not well_formed(sample):
        return
    try:
        env = project_top(sample)
    except ProjectionError:
        return
    report = check_preorder(sample, env, max_len=min(interaction_count(sample) * 2 + 4, 10))
    assert report.sound and report.complete
