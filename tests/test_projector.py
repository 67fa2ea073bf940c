"""Algorithmic projection of global types onto session environments."""

from __future__ import annotations

import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst import projector
from mpst.machine import session_type_equal
from mpst.projector import (
    AND_ELIMINATION_EXHAUSTED,
    DEFAULT_AND_BUDGET,
    INCOMPATIBLE_MERGE,
    NO_DECISION_MAKER,
    OUTPUT_MISMATCH,
    ProjectionError,
    _sequential_rewrites,
    merge,
    project_alg,
    project_top,
)
from mpst.syntax import (
    GBoth,
    GSeq,
    GStar,
    TEnd,
    parse_global_type,
    parse_session_type,
    print_global_type,
    print_session_env,
    print_session_type,
    roles_of,
    subterms,
)
from mpst.tracelang import BudgetExceededError, compile_traces, includes, is_well_formed
from mpst.verifier import (
    NO_SEQUENTIALITY,
    UNCLASSIFIED,
    _relaxations,
    check_preorder,
    classify,
    random_global_type,
)

g = parse_global_type
t = parse_session_type


def project_error(src: str) -> ProjectionError:
    with pytest.raises(ProjectionError) as err:
        project_top(g(src))
    return err.value


def test_sale_choreography_projects_to_dual_types():
    env = project_top(
        g(
            "seller -> buyer : descr ; seller -> buyer : price ;"
            " (buyer -> seller : accept | buyer -> seller : quit)"
        )
    )
    assert print_session_type(env["seller"]) == (
        "buyer!descr.buyer!price.(buyer?accept.end + buyer?quit.end)"
    )
    assert print_session_type(env["buyer"]) == (
        "seller?descr.seller?price.(seller!accept.end (+) seller!quit.end)"
    )


def test_starred_protocol_projects_to_recursive_types():
    env = project_top(g("(p -> q : a)* ; p -> q : b"))
    assert session_type_equal(env["p"], t("rec X . q!a.X (+) q!b.end"))
    assert session_type_equal(env["q"], t("rec Y . p?a.Y + p?b.end"))


def test_two_phase_loop_projects_to_alternating_recursion():
    env = project_top(
        g("loop2 (p -> q : handover, q -> p : handover) exit (p -> q : bailout, q -> p : bailout)")
    )
    assert session_type_equal(
        env["p"],
        t("rec X . (q!handover.(q?handover.X + q?bailout.end) (+) q!bailout.end)"),
    )
    assert session_type_equal(
        env["q"],
        t("rec Y . (p?handover.(p!handover.Y (+) p!bailout.end) + p?bailout.end)"),
    )


def test_nested_star_projection_is_sound_and_complete():
    protocol = g("(p -> q : a ; (p -> q : b)*)* ; p -> q : c")
    env = project_top(protocol)
    assert check_preorder(protocol, env, max_len=8, buf_bound=1)


def test_loop_with_spectator_is_sound_and_complete():
    from mpst.tracelang import well_formed

    protocol = g("loop1 (p -> q : go ; q -> p : ok) exit (p -> q : stop ; q -> r : done)")
    assert well_formed(protocol)
    env = project_top(protocol)
    # r plays no part in the loop body and only learns of the exit
    assert print_session_type(env["r"]) == "q?done.end"
    assert session_type_equal(env["p"], t("rec X . q!go.q?ok.X (+) q!stop.end"))
    assert check_preorder(protocol, env, max_len=10)


def test_shuffle_is_projected_through_a_serialization():
    env = project_top(g("(p -> q : a & p -> q : b) ; p -> q : c"))
    assert print_session_type(env["p"]) == "q!a.q!b.q!c.end"
    assert print_session_type(env["q"]) == "p?a.p?b.p?c.end"


def test_unordered_composition_has_no_direct_projection_rule():
    protocol = g("p -> q : a & r -> s : b")
    with pytest.raises(ProjectionError):
        project_alg(protocol, {r: TEnd() for r in sorted(roles_of(protocol))})
    assert project_top(protocol)  # a serialization projects


def test_merge_keeps_exclusive_input_branches():
    merged = merge(t("p?a.p?b.end"), t("p?b.end"))
    assert session_type_equal(merged, t("p?a.p?b.end + p?b.end"))


def test_merge_rejects_confusable_input_branches():
    with pytest.raises(ProjectionError) as err:
        merge(t("p?a.q?b.end"), t("q?b.end"))
    assert err.value.kind == INCOMPATIBLE_MERGE


def test_alternative_needs_a_unique_decision_maker():
    assert project_error("{p,q} -> r : a | {p,q} -> r : b").kind == NO_DECISION_MAKER
    assert project_error("p -> q : a | q -> p : a").kind == NO_DECISION_MAKER


def test_alternative_with_input_only_difference_is_rejected():
    err = project_error("{p,q} -> r : a | (p -> r : a ; q -> r : a)")
    assert err.kind == OUTPUT_MISMATCH


def test_alternative_whose_merge_fails_is_rejected():
    err = project_error(
        "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)"
    )
    assert err.kind == INCOMPATIBLE_MERGE


def test_covert_channel_protocol_fails_every_rewrite():
    err = project_error(
        "(p -> q : a ; q -> r : b) |"
        " (p -> q : c ; ((q -> p : d ; p -> r : e) & q -> r : b))"
    )
    assert err.kind == AND_ELIMINATION_EXHAUSTED


def test_semantically_implementable_alternative_still_fails_algorithmically():
    err = project_error(
        "(p -> q : a ; q -> r : b) |"
        " (p -> q : c ; q -> p : d ; p -> r : e ; r -> q : f ; q -> r : b)"
    )
    assert err.kind == INCOMPATIBLE_MERGE


def test_projection_requires_bound_continuations():
    with pytest.raises(ProjectionError) as err:
        project_alg(g("p -> q : a"), {"p": TEnd()})
    assert err.value.kind == "UnboundContinuation"


def test_no_rewrite_adds_a_role():
    """`project_top` binds a continuation for the roles of the type alone
    and projects every `&`-elimination candidate against it, which holds
    only because no candidate has a role the type lacks."""
    for i in range(300):
        sample = random_global_type(20260814 + i, 8, 4, 1)
        roles = roles_of(sample)
        for cand in _sequential_rewrites(sample, DEFAULT_AND_BUDGET):
            assert roles_of(cand) <= roles


def test_eliminate_and_candidates_stay_within_the_language():
    protocol = g("(p -> q : a ; q -> r : b) & (r -> s : c | s -> r : d)")
    whole = compile_traces(protocol)
    candidates = list(_sequential_rewrites(protocol, DEFAULT_AND_BUDGET))
    assert candidates
    for cand in candidates:
        assert not isinstance(cand, GBoth)
        assert includes(compile_traces(cand), whole) is None


def test_eliminate_and_respects_its_budget():
    protocol = g("(p -> q : a & q -> r : b) & (r -> s : c & s -> p : d)")
    assert len(list(_sequential_rewrites(protocol, 5))) <= 5


def reference_sequential_rewrites(protocol, budget: int) -> list:
    """The search `_sequential_rewrites` describes, level by level and
    without its memo: the two whole-type serializations, then the
    breadth-first search from `protocol`, visiting at most `budget` terms;
    of these, each `&`-free term other than `protocol`, once, in order."""
    visited = {protocol: None}
    level = [protocol]
    while level and len(visited) < budget:
        below = []
        for t in level:
            for t2 in projector._rewrites(t, {}):
                if len(visited) < budget and t2 not in visited:
                    visited[t2] = None
                    below.append(t2)
        level = below
    serialized = (projector._serialize_all(protocol, left_first) for left_first in (True, False))
    terms = dict.fromkeys(t for t in (*serialized, *visited) if t != protocol and not has_both(t))
    return list(terms)


RANDOM_TYPES = [random_global_type(20260814 + i) for i in range(300)]


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 64, 256])
def test_the_rewrite_search_tries_every_term_it_visits(budget):
    for protocol in RANDOM_TYPES:
        assert list(_sequential_rewrites(protocol, budget)) == reference_sequential_rewrites(protocol, budget)


# Random-workload types whose search reaches its budget partway through a
# level: the terms of that level past the budget's point are tried too.
LEVEL_CUT = {26: 42, 45: 68, 80: 27, 191: 52, 207: 49}


@pytest.mark.parametrize("i", sorted(LEVEL_CUT))
def test_a_search_cut_at_its_budget_tries_the_rest_of_its_level(i):
    with pytest.raises(ProjectionError) as error:
        project_top(RANDOM_TYPES[i])
    assert error.value.kind == AND_ELIMINATION_EXHAUSTED
    assert f"({LEVEL_CUT[i]} candidates tried)" in str(error.value)


# Searches proven hopeless before any candidate is built: by a failing kept
# tail of the root `;` spine, by a loop kept whole whose body fails, by a
# failing kept end of a loop's body, and two random-workload types whose
# searches would reach their budget partway through a level.
PROVEN_HOPELESS = {
    "kept tail": (
        "(p -> q : c & r -> s : d) ; (p -> q : a | q -> p : b)",
        "no sequential rewrite projects (0 candidates tried): every rewrite ends with"
        " p -> q : a | q -> p : b, whose projection says: NoDecisionMaker: no role starts with"
        " outputs in both branches; differing roles: 'p', 'q' in: p -> q : a | q -> p : b;"
        " plain projection says: NoDecisionMaker: no role starts with outputs in both branches;"
        " differing roles: 'p', 'q' in: p -> q : a | q -> p : b",
    ),
    "kept loop": (
        "(p -> q : a | r -> s : b)* ; (p -> q : c & r -> s : d)",
        "no sequential rewrite projects (0 candidates tried): every rewrite keeps the loop"
        " (p -> q : a | r -> s : b)*, whose body's projection says: NoDecisionMaker: no role"
        " starts with outputs in both branches; differing roles: 'p', 'q', 'r', 's' in:"
        " p -> q : a | r -> s : b; plain projection says: AndEliminationExhausted: unordered"
        " composition has no direct projection rule in: p -> q : c & r -> s : d",
    ),
    "kept end of a body": (
        "((p -> q : a & r -> s : b) ; (p -> q : c | skip))* ; p -> q : e",
        "no sequential rewrite projects (0 candidates tried): every rewrite keeps"
        " p -> q : c | skip at the end of the body of the loop"
        " (p -> q : a & r -> s : b ; (p -> q : c | skip))*, whose projection there says:"
        " NoDecisionMaker: no role starts with outputs in both branches; differing roles:"
        " 'p', 'q' in: p -> q : c | skip; plain projection says: NoDecisionMaker: no role"
        " starts with outputs in both branches; differing roles: 'p', 'q' in: p -> q : c | skip",
    ),
    "random 208": (
        "p -> q : e* & ((s -> q : a | p -> q : e) ; s -> p : c)*",
        "no sequential rewrite projects (0 candidates tried): every rewrite keeps the loop"
        " ((s -> q : a | p -> q : e) ; s -> p : c)*, whose body's projection says:"
        " IncompatibleMerge: role 'p' would have to follow both a 'in'-rooted and a"
        " 'out'-rooted behaviour in: s -> q : a | p -> q : e; plain projection says:"
        " AndEliminationExhausted: unordered composition has no direct projection rule in:"
        " p -> q : e* & ((s -> q : a | p -> q : e) ; s -> p : c)*",
    ),
    "random 264": (
        "({p,s} -> r : c | r -> s : c)* & ({p,s} -> r : b & s -> r : e ; (r -> p : c ; (p -> q : b | r -> q : b)))",
        "no sequential rewrite projects (0 candidates tried): every rewrite keeps the loop"
        " ({p,s} -> r : c | r -> s : c)*, whose body's projection says: NoDecisionMaker: no role"
        " starts with outputs in both branches; differing roles: 'p', 'r', 's' in:"
        " {p,s} -> r : c | r -> s : c; plain projection says: AndEliminationExhausted: unordered"
        " composition has no direct projection rule in: ({p,s} -> r : c | r -> s : c)* &"
        " ({p,s} -> r : b & s -> r : e ; (r -> p : c ; (p -> q : b | r -> q : b)))",
    ),
}


def no_search(*args):
    raise AssertionError("a candidate was built")


@pytest.mark.parametrize("name", PROVEN_HOPELESS)
def test_a_hopeless_search_builds_no_candidate(monkeypatch, name):
    protocol, detail = PROVEN_HOPELESS[name]
    protocol = g(protocol)
    if name.startswith("random "):
        assert protocol == RANDOM_TYPES[int(name.split()[1])]
    assert proven_hopeless(protocol)
    monkeypatch.setattr(projector, "_sequential_rewrites", no_search)
    with pytest.raises(ProjectionError) as info:
        project_top(protocol)
    assert str(info.value) == f"{AND_ELIMINATION_EXHAUSTED}: {detail} in: {print_global_type(protocol)}"


# Near misses: each has a kept part the check projects, or a loop it must
# not count on, and its search runs.  The loopk's body fails against fresh
# unknowns, yet `&` unfolds the loopk and a candidate projects.
NOT_PROVEN = [
    "(p -> q : a & r -> s : b) ; (p -> q : c | p -> q : d)",
    "(p -> q : a)* ; (p -> q : b & r -> s : c)",
    "(p -> q : a & q -> p : b)* ; p -> q : c",
    "loop2 (p -> q : a | skip, p -> q : c) exit (p -> q : d, p -> q : e) & r -> s : f",
]


@pytest.mark.parametrize("protocol", NOT_PROVEN)
def test_a_search_that_may_succeed_runs(protocol):
    assert not proven_hopeless(g(protocol))
    assert project_top(g(protocol))


def test_the_check_keeps_exactly_the_terms_with_no_rewrite():
    """The check enters in the search's memo of rewrites, each mapped to no
    rewrite, exactly the subterms that `_rewrites` gives no rewrite, on
    every type with a `;` root or a `*` loop, and nothing on the others."""
    walked = 0
    for protocol in RANDOM_TYPES:
        kept, rewrites = {}, {}
        cont = {r: TEnd() for r in sorted(roles_of(protocol))}
        projector._kept_failure(protocol, cont, kept, projector._Ctx())
        projector._rewrites(protocol, rewrites)
        if type(protocol) is GSeq or any(type(t) is GStar for t in rewrites):
            walked += 1
            assert kept == {t: [] for t, out in rewrites.items() if not out}
        else:
            assert kept == {}
    assert walked > 150


def test_a_bound_met_while_checking_is_no_proof(monkeypatch):
    """The loop body the check projects runs out of a budget there: the
    bound reaches the caller, and no error says the search is hopeless."""
    protocol = g(PROVEN_HOPELESS["kept loop"][0])
    body = protocol.left.body
    project = projector._project

    def bounded(term, env, ctx):
        if term is body:
            raise BudgetExceededError("more than 0 states")
        return project(term, env, ctx)

    monkeypatch.setattr(projector, "_project", bounded)
    with pytest.raises(BudgetExceededError):
        project_top(protocol)


IN_CONTEXT_CANDIDATES = {
    "loop2 (p -> q : a & r -> s : b, q -> p : c) exit (p -> q : d, (r -> s : e ; s -> r : f) & p -> q : g)": [
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, r -> s : e ; s -> r : f ; p -> q : g)",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, p -> q : g ; (r -> s : e ; s -> r : f))",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, p -> q : g ; (r -> s : e ; s -> r : f))",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; s -> r : f ; p -> q : g)",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, r -> s : e ; p -> q : g ; s -> r : f)",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, p -> q : g ; r -> s : e ; s -> r : f)",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, r -> s : e ; (s -> r : f ; p -> q : g))",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, r -> s : e ; (p -> q : g ; s -> r : f))",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; p -> q : g ; s -> r : f)",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, p -> q : g ; r -> s : e ; s -> r : f)",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; (s -> r : f ; p -> q : g))",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; (p -> q : g ; s -> r : f))",
    ],
    "loop1 ((p -> q : a | q -> p : b) & r -> s : c) exit (p -> r : d & q -> s : e)": [
        "loop1 ((p -> q : a | q -> p : b) ; r -> s : c) exit (p -> r : d ; q -> s : e)",
        "loop1 (r -> s : c ; (p -> q : a | q -> p : b)) exit (q -> s : e ; p -> r : d)",
        "loop1 ((p -> q : a | q -> p : b) ; r -> s : c) exit (q -> s : e ; p -> r : d)",
        "loop1 (r -> s : c ; (p -> q : a | q -> p : b)) exit (p -> r : d ; q -> s : e)",
        "loop1 (p -> q : a ; r -> s : c | q -> p : b ; r -> s : c) exit (p -> r : d ; q -> s : e)",
        "loop1 (p -> q : a ; r -> s : c | q -> p : b ; r -> s : c) exit (q -> s : e ; p -> r : d)",
        "loop1 (p -> q : a ; r -> s : c | r -> s : c ; q -> p : b) exit (p -> r : d ; q -> s : e)",
        "loop1 (p -> q : a ; r -> s : c | r -> s : c ; q -> p : b) exit (q -> s : e ; p -> r : d)",
        "loop1 (r -> s : c ; p -> q : a | q -> p : b ; r -> s : c) exit (p -> r : d ; q -> s : e)",
        "loop1 (r -> s : c ; p -> q : a | q -> p : b ; r -> s : c) exit (q -> s : e ; p -> r : d)",
        "loop1 (r -> s : c ; p -> q : a | r -> s : c ; q -> p : b) exit (p -> r : d ; q -> s : e)",
        "loop1 (r -> s : c ; p -> q : a | r -> s : c ; q -> p : b) exit (q -> s : e ; p -> r : d)",
    ],
    "(p -> q : a & r -> s : b)* ; q -> p : c": [
        "(p -> q : a ; r -> s : b)* ; q -> p : c",
        "(r -> s : b ; p -> q : a)* ; q -> p : c",
    ],
}


@pytest.mark.parametrize("protocol", sorted(IN_CONTEXT_CANDIDATES))
def test_eliminate_and_rewrites_inside_loops_in_order(protocol):
    """`&` inside loop bodies, loop exits and `*` is rewritten in context,
    bodies before exits; the candidate list is pinned in full."""
    candidates = [print_global_type(c) for c in _sequential_rewrites(g(protocol), DEFAULT_AND_BUDGET)]
    assert candidates == IN_CONTEXT_CANDIDATES[protocol]


def chain(sender: str, receiver: str, n: int) -> str:
    return " ; ".join(f"{sender} -> {receiver} : m{k}" for k in range(n))


@pytest.mark.parametrize(
    "protocol",
    [
        "p -> q : a & r -> s : b",
        " & ".join(f"(a{i} -> b{i} : m ; b{i} -> a{i} : k ; a{i} -> b{i} : z)" for i in range(4)),
    ],
)
def test_projection_keys_no_candidate_after_the_first_that_projects(monkeypatch, protocol):
    drawn = 0

    def counted(t, budget, *rewrites):
        nonlocal drawn
        for cand in _sequential_rewrites(t, budget, *rewrites):
            drawn += 1
            yield cand

    monkeypatch.setattr(projector, "_sequential_rewrites", counted)
    assert project_top(g(protocol))
    assert drawn == 1


@pytest.mark.parametrize(
    ("protocol", "assignments"),
    [
        ("(p -> q : a)* ; p -> q : b", 1),
        # the body opens with outputs of p and of r: both are tried as decider
        ("(p -> q : a ; r -> s : b)* ; p -> q : c", 2),
        # the body fails, and with no `&` in the type nothing projects it again
        ("(p -> q : a | r -> s : b)* ; p -> q : c", 0),
    ],
)
def test_each_loop_body_is_projected_once(monkeypatch, protocol, assignments):
    protocol = g(protocol)
    body = protocol.left.body
    projections = builds = 0
    project, build = projector._project, projector._kexit_build

    def counted_project(term, env, ctx):
        nonlocal projections
        projections += term is body
        return project(term, env, ctx)

    def counted_build(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(projector, "_project", counted_project)
    monkeypatch.setattr(projector, "_kexit_build", counted_build)
    try:
        project_top(protocol)
    except ProjectionError:
        pass
    assert (projections, builds) == (1, assignments)


@pytest.mark.parametrize(
    ("protocol", "error", "message"),
    [
        # three senders may decide each of three phases: 27 assignments
        (
            "loop3 ({a,b,c} -> d : m ; d -> a : x, {a,b,c} -> d : n ; d -> b : y, "
            "{a,b,c} -> d : o ; d -> c : z) exit (skip, skip, skip)",
            BudgetExceededError,
            "^more than 16 assignments of deciding roles to the phases of a loop$",
        ),
        # four senders may decide each of two phases: 16 assignments
        (
            "loop2 ({a,b,c,e} -> d : m ; d -> e : x, {a,b,c,e} -> d : n) exit (skip, skip)",
            ProjectionError,
            "^IncompatibleMerge",
        ),
    ],
)
def test_a_loop_with_more_decider_assignments_than_the_cap_ends_at_a_bound(monkeypatch, protocol, error, message):
    """Loop decision-role inference tries at most 16 assignments of deciding
    roles to a loop's phases.  When all 16 fail and another is left, the
    loop ends at that bound; when none is left, the last one's error is
    the loop's."""
    builds = 0
    build = projector._kexit_build

    def counted_build(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(projector, "_kexit_build", counted_build)
    with pytest.raises(error, match=message):
        project_top(g(protocol))
    assert builds == 16


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_merge_is_idempotent_on_projected_types(seed):
    sample = random_global_type(seed, max_size=5, role_count=3, star_depth=1)
    try:
        env = project_top(sample)
    except ProjectionError:
        return
    for ty in env.values():
        assert session_type_equal(merge(ty, ty), ty)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_merge_is_commutative_when_defined(seed):
    left = random_global_type(seed, max_size=3, role_count=3, star_depth=0)
    right = random_global_type(seed + 1, max_size=3, role_count=3, star_depth=0)
    try:
        e1, e2 = project_top(left), project_top(right)
    except ProjectionError:
        return
    for role in set(e1) & set(e2):
        try:
            one = merge(e1[role], e2[role])
        except ProjectionError:
            with pytest.raises(ProjectionError):
                merge(e2[role], e1[role])
            continue
        assert session_type_equal(one, merge(e2[role], e1[role]))


PINNED_ERRORS = {
    "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)":
        "IncompatibleMerge: role 'r': cannot merge internal choices offering different outputs"
        " in: p -> q : a ; q -> r : a ; r -> p : a | p -> q : b ; q -> r : a ; r -> p : b",
    "p -> q : a | q -> p : a":
        "NoDecisionMaker: no role starts with outputs in both branches; differing roles: 'p', 'q'"
        " in: p -> q : a | q -> p : a",
    "{q,s} -> r : d & ({q,r} -> s : e | r -> p : b)":
        "AndEliminationExhausted: no sequential rewrite projects (6 candidates tried);"
        " plain projection says: AndEliminationExhausted: unordered composition has no direct"
        " projection rule in: {q,s} -> r : d & ({q,r} -> s : e | r -> p : b)"
        " in: {q,s} -> r : d & ({q,r} -> s : e | r -> p : b)",
    # loops whose bodies fail: the body's error, whoever decides
    "(p -> q : a | r -> s : b)* ; p -> q : c":
        "NoDecisionMaker: no role starts with outputs in both branches; differing roles:"
        " 'p', 'q', 'r', 's' in: p -> q : a | r -> s : b",
    "loop2 (p -> q : a, p -> q : b | r -> s : b) exit (q -> p : c, p -> q : d)":
        "NoDecisionMaker: no role starts with outputs in both branches; differing roles:"
        " 'p', 'q', 'r', 's' in: p -> q : b | r -> s : b",
}


@pytest.mark.parametrize("protocol", PINNED_ERRORS)
def test_projection_error_text_is_pinned(protocol):
    with pytest.raises(ProjectionError) as info:
        project_top(g(protocol))
    assert str(info.value) == PINNED_ERRORS[protocol]


def test_projection_error_text_is_built_from_its_fields():
    """The message, built when it is read, is the kind, the detail and the
    printed location, on every failure of `random_global_type(i)`, i < 700,
    and of the benchmark corpus's two unprojectable choices."""
    kinds = set()
    samples = [g(p) for p in PINNED_ERRORS] + [random_global_type(i) for i in range(700)]
    for sample in samples:
        try:
            project_top(sample)
        except ProjectionError as exc:
            assert exc.location is not None
            assert str(exc) == f"{exc.kind}: {exc.detail} in: {print_global_type(exc.location)}"
            assert exc.args == (exc.kind, exc.detail, exc.location)
            kinds.add(exc.kind)
    assert kinds == {AND_ELIMINATION_EXHAUSTED, INCOMPATIBLE_MERGE, NO_DECISION_MAKER}
    bare = ProjectionError(OUTPUT_MISMATCH, "no location")
    assert str(bare) == "OutputMismatch: no location"


def test_a_dropped_projection_error_prints_nothing(monkeypatch):
    """`&`-elimination drops the errors of the candidates it tries without
    reading them, so it prints no global type for them."""
    printed = []
    monkeypatch.setattr(projector, "print_global_type", lambda x: printed.append(x) or "")
    with pytest.raises(ProjectionError) as info:
        project_top(g("{q,s} -> r : d & ({q,r} -> s : e | r -> p : b)"))
    # the plain projection's message, inside the final detail
    assert len(printed) == 1
    str(info.value)
    assert len(printed) == 2


def has_both(x) -> bool:
    return type(x) is GBoth or any(map(has_both, subterms(x)))


def reference_project_top(protocol):
    """`project_top` without the memo: every candidate is projected on its
    own by the public `project_alg`, with a fresh context."""
    cont = {r: TEnd() for r in sorted(roles_of(protocol))}
    try:
        return project_alg(protocol, cont)
    except ProjectionError as exc:
        direct_error = exc
    tried = 0
    for cand in _sequential_rewrites(protocol, DEFAULT_AND_BUDGET):
        tried += 1
        try:
            return project_alg(cand, cont)
        except ProjectionError:
            continue
    if not has_both(protocol):
        raise direct_error
    raise ProjectionError(
        AND_ELIMINATION_EXHAUSTED,
        f"no sequential rewrite projects ({tried} candidates tried); "
        f"plain projection says: {direct_error}",
        protocol,
    )


def outcome(project, protocol) -> str:
    try:
        return print_session_env(project(protocol))
    except ProjectionError as exc:
        return f"error: {exc}"


def reference_relaxed_classification(protocol) -> tuple[str, str]:
    """What `classify` says of a type that is not well formed, each
    relaxation projected on its own."""
    variants = _relaxations(protocol)
    if variants is None:
        return (UNCLASSIFIED, "not well formed, and relaxations are not tried past 16 `;` nodes")
    for variant in variants:
        if is_well_formed(variant) and not outcome(reference_project_top, variant).startswith("error: "):
            return (
                NO_SEQUENTIALITY,
                "the specified ordering of independent interactions cannot be"
                " enforced; the unordered variant is implementable",
            )
    return (UNCLASSIFIED, "not well formed, and no sequentiality relaxation is implementable")


# random's generator at its defaults, with longer bodies and nested loops,
# and with more interactions and no loops
DIFFERENTIAL_SAMPLES = [
    *(random_global_type(i) for i in range(300)),
    *(random_global_type(i, 10, 4, 2) for i in range(300)),
    *(random_global_type(i, 12, 4, 0) for i in range(150)),
]


def proven_hopeless(protocol) -> bool:
    """Whether `project_top` proves the search of `protocol` hopeless before
    it builds a candidate.  Where it does, the reference search finds no
    candidate that projects either, and ends AndEliminationExhausted too;
    everywhere else `project_top` says what the reference says, text
    included."""
    got = outcome(project_top, protocol)
    want = outcome(reference_project_top, protocol)
    exhausted = f"error: {AND_ELIMINATION_EXHAUSTED}: "
    if got.startswith(exhausted) and "(0 candidates tried)" in got:
        assert want.startswith(exhausted), print_global_type(protocol)
        return True
    assert got == want, print_global_type(protocol)
    return False


def test_memoized_search_agrees_with_a_search_of_fresh_projections():
    """The memo changes no projection, no error text and no candidate
    count, on every sample whose search runs, whether it succeeds or is
    exhausted; a search proven hopeless is one the reference exhausts."""
    kinds = set()
    for protocol in DIFFERENTIAL_SAMPLES:
        proven_hopeless(protocol)
        got = outcome(project_top, protocol)
        kinds.add(got.split(": ")[1] if got.startswith("error: ") else "projected")
    assert {"projected", AND_ELIMINATION_EXHAUSTED, NO_DECISION_MAKER, INCOMPATIBLE_MERGE} <= kinds


def well_formed_relaxations(protocols) -> list:
    """The relaxations `classify` tries to project, of each of `protocols`
    that is not well formed: those that are well formed."""
    return [
        variant
        for protocol in protocols
        if not is_well_formed(protocol)
        for variant in _relaxations(protocol) or ()
        if is_well_formed(variant)
    ]


SOUNDNESS_SAMPLES = [*RANDOM_TYPES, *(random_global_type(s) for s in range(3000))]


@pytest.mark.parametrize("relaxed", [False, True], ids=["types", "relaxations"])
def test_a_search_is_proven_hopeless_only_where_no_candidate_projects(relaxed):
    """On the random workload's types, the first 3,000 of the random
    generator's, and the well-formed relaxations of those that are not
    well formed, the check that skips a search fires only where the
    memo-free reference search finds nothing, and changes nothing else."""
    samples = well_formed_relaxations(SOUNDNESS_SAMPLES) if relaxed else SOUNDNESS_SAMPLES
    assert sum(map(proven_hopeless, samples)) > 0


def test_classify_shares_projections_across_relaxations_without_changing_them():
    relaxed = 0
    for protocol in DIFFERENTIAL_SAMPLES:
        if is_well_formed(protocol):
            continue
        relaxed += bool(_relaxations(protocol))
        result = classify(protocol)
        assert (result.category, result.detail) == reference_relaxed_classification(protocol)
    assert relaxed > 50


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("other", ["r -> s : b", "r -> s : b | s -> r : c"])
def test_a_search_projects_in_one_frame_per_level(other):
    """The memo is read inside `_project`, not in a wrapper, so a search
    takes one frame per level of a 1,000-interaction chain, as the direct
    projection does: with the recursion limit 50 frames above that, it
    still decides `(C) & other`, whose direct attempt fails at once."""
    n = 1000
    protocol = g(f"({chain('p', 'q', n)}) & ({other})")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + n + 50)
    try:
        got = outcome(project_top, protocol)
    finally:
        sys.setrecursionlimit(limit)
    if "|" in other:
        assert got.startswith(f"error: {AND_ELIMINATION_EXHAUSTED}: no sequential rewrite projects")
    else:
        assert got.splitlines()[2:] == ["r : s!b.end", "s : r?b.end"]


EXHAUSTED = "{q,s} -> r : d & ({q,r} -> s : e | r -> p : b)"
RELAXATIONS_FAIL = "p -> q : e ; (r -> q : c | p -> r : e)"


def test_a_search_memo_is_freed_without_the_cycle_collector(monkeypatch):
    """The memo keeps the fields of the errors it meets, not the errors,
    whose tracebacks hold the frames that hold the memo; so a failing
    search and a classify whose relaxations fail leave no reference cycle,
    and their contexts are freed when the calls return."""
    refs = []

    class Recorded(projector._Ctx):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(projector, "_Ctx", Recorded)
    gc.collect()
    gc.disable()
    try:
        assert outcome(project_top, g(EXHAUSTED)).startswith(f"error: {AND_ELIMINATION_EXHAUSTED}")
        assert classify(g(RELAXATIONS_FAIL)).category == UNCLASSIFIED
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert refs and all(ref() is None for ref in refs)
