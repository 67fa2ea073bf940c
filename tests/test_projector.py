"""Algorithmic projection of global types onto session environments."""

from __future__ import annotations

import functools
import gc
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kexit_unfolding
from mpst import projector, verifier
from mpst.machine import session_type_equal
from mpst.projector import (
    AND_ELIMINATION_EXHAUSTED,
    DEFAULT_AND_BUDGET,
    INCOMPATIBLE_MERGE,
    NO_DECISION_MAKER,
    OUTPUT_MISMATCH,
    ProjectionError,
    _Terms,
    merge,
    project_alg,
    project_top,
)
from mpst.syntax import (
    GAction,
    GBoth,
    GEither,
    GKExit,
    GSeq,
    GSkip,
    GStar,
    TEnd,
    TInternal,
    TVar,
    fold,
    parse_global_type,
    parse_session_type,
    print_global_type,
    print_session_env,
    print_session_type,
    postorder,
    roles_of,
    spine,
    subterms,
    with_subterms,
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
from test_tracelang import candidates, global_types

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


def test_an_alternative_of_many_operands_names_every_branch():
    """A `|` spine of three or more operands is one alternative, decided
    and merged over all of its branches at once, and its errors say
    "every branch" where those of two operands say "both"."""
    cases = {
        "p -> q : a | q -> p : a | p -> q : b":
            "NoDecisionMaker: no role starts with outputs in every branch; differing roles: 'p', 'q'"
            " in: p -> q : a | q -> p : a | p -> q : b",
        "{p,q} -> r : a | (p -> r : a ; q -> r : a) | (q -> r : a ; p -> r : a)":
            "OutputMismatch: role 'r' behaves differently in the branches but does not start with"
            " outputs in every branch, so it cannot signal the choice"
            " in: {p,q} -> r : a | p -> r : a ; q -> r : a | q -> r : a ; p -> r : a",
        "s -> r : e | ({p,q} -> r : d | q -> p : c)":
            "NoDecisionMaker: no role starts with outputs in every branch; differing roles:"
            " 'p', 'q', 'r', 's' in: s -> r : e | ({p,q} -> r : d | q -> p : c)",
    }
    for protocol, text in cases.items():
        assert str(project_error(protocol)) == text
    env = project_top(g("p -> q : a ; q -> r : a | p -> q : b ; q -> r : b | p -> q : c ; q -> r : a"))
    assert print_session_env(env).splitlines() == [
        "p : q!a.end (+) q!b.end (+) q!c.end",
        "q : p?a.r!a.end + p?b.r!b.end + p?c.r!a.end",
        "r : q?a.end + q?b.end",
    ]


def binary_outcome(monkeypatch, protocol) -> str:
    """What `project_top` says of `protocol` under the binary rule: each
    `|` node is an alternative of its two sides, and the pieces a loop
    merges for a role are merged two at a time, left to right."""
    n_ary = projector._merge_terms

    def pairwise(ts, role, loc):
        return functools.reduce(lambda x, y: n_ary([x, y], role, loc), ts)

    with monkeypatch.context() as patch:
        patch.setattr(projector, "spine", lambda x: [x.left, x.right] if type(x) is GEither else spine(x))
        patch.setattr(projector, "_merge_terms", pairwise)
        return outcome(project_top, protocol)


def random_loop(seed: int):
    """A k-exit loop, k from 1 to 3, over two or three roles, each body a
    random term of 1 to 3 interactions with at most one `*`, each exit
    `skip` or a random `*`-free term of 1 or 2 interactions."""
    rng = random.Random(seed)
    roles = ("p", "q", "r")[: rng.randint(2, 3)]
    k = rng.randint(1, 3)
    bodies = [verifier._random_term(rng, roles, rng.randint(1, 3), 1) for _ in range(k)]
    exits = [
        GSkip() if rng.random() < 0.3 else verifier._random_term(rng, roles, rng.randint(1, 2), 0)
        for _ in range(k)
    ]
    return GKExit(tuple(bodies), tuple(exits))


def binary_alike(protocol) -> bool:
    """Whether every `|` spine of `protocol` has at most two operands and
    every loop one phase, where the binary rule is the rule."""
    return not any(
        (type(x) is GEither and GEither in map(type, subs)) or (type(x) is GKExit and len(x.bodies) > 1)
        for x, subs in postorder(protocol)
    )


def test_a_spine_projects_as_the_binary_rule_decides(monkeypatch):
    """One alternative per `|` spine and one merge per loop role change no
    verdict and no projection from those of the binary rule, on random
    types and random k-exit loops; where every spine has at most two
    operands and every loop one phase, they change no error text either."""
    samples = [
        random_global_type(i, max_size=6 + i % 11, role_count=2 + i % 3, star_depth=i % 3) for i in range(1000)
    ]
    samples += [random_loop(i) for i in range(1000)]
    seen = set()
    for protocol in samples:
        got, want = outcome(project_top, protocol), binary_outcome(monkeypatch, protocol)
        alike = binary_alike(protocol)
        seen.add((alike, got.startswith("error: "), got == want))
        if alike or not want.startswith("error: "):
            assert got == want, print_global_type(protocol)
        else:
            assert got.startswith("error: "), print_global_type(protocol)
    assert seen >= {(True, True, True), (True, False, True), (False, False, True), (False, True, False)}


SPINES = (GSeq, GEither, GBoth)


def grouped(operands: list, shape: str, k=GEither):
    """The `k` spine of `operands`, nested to the left, to the right, or
    split in halves."""
    if len(operands) == 1:
        return operands[0]
    if shape == "left":
        return functools.reduce(k, operands)
    if shape == "right":
        return functools.reduce(lambda rest, x: k(x, rest), reversed(operands))
    half = len(operands) // 2
    return k(grouped(operands[:half], shape, k), grouped(operands[half:], shape, k))


def regrouped(protocol, shape: str, kinds=(GEither,)):
    """`protocol` with each of its spines of the constructors `kinds`
    regrouped as `shape` says."""

    def step(x, new):
        return grouped(new, shape, type(x)) if type(x) in kinds else with_subterms(x, new)

    return fold(protocol, step, lambda x: spine(x) if type(x) in kinds else subterms(x))


def direct_outcome(protocol):
    """The projection against the top continuation, or the kind and detail
    of its error, whose location prints the grouping."""
    try:
        return print_session_env(project_alg(protocol, {r: TEnd() for r in sorted(roles_of(protocol))}))
    except ProjectionError as exc:
        return (exc.kind, exc.detail)


def test_a_spine_projects_alike_however_it_is_grouped():
    """Regrouping every `|` spine of a type (to the left, to the right, or
    in halves) changes neither its direct projection nor the kind and
    detail of its error; `test_every_grouping_projects_and_classifies_alike`
    checks `project_top`, whose `&`-elimination search this leaves out."""
    regroupable = errors = 0
    for i in range(4000):
        protocol = random_global_type(i, max_size=6 + i % 11, role_count=2 + i % 3, star_depth=i % 3)
        variants = {regrouped(protocol, shape) for shape in ("left", "right", "halves")}
        if len(variants) == 1:
            continue
        regroupable += 1
        outcomes = {direct_outcome(v) for v in variants}
        assert len(outcomes) == 1, print_global_type(protocol)
        errors += type(outcomes.pop()) is tuple
    assert regroupable > 400 and 0 < errors < regroupable


def test_every_grouping_projects_and_classifies_alike(monkeypatch):
    """Regrouping every `;`, `|` and `&` spine of a type (to the left, to
    the right, or in halves) changes neither what `project_top` says (the
    environment, or the error's kind and detail with its candidate count)
    nor the category and detail `classify` gives, on the random workload's
    types and their well-formed relaxations.  An error prints the terms it
    names as they are grouped, so here it prints each regrouped to the
    left."""
    printed = projector.print_global_type
    monkeypatch.setattr(projector, "print_global_type", lambda x: printed(regrouped(x, "left", SPINES)))
    regroupable = 0
    for protocol in [*RANDOM_TYPES, *well_formed_relaxations(RANDOM_TYPES)]:
        variants = {regrouped(protocol, shape, SPINES) for shape in ("left", "right", "halves")}
        if len(variants) == 1:
            continue
        regroupable += 1
        assert len({outcome(project_top, v) for v in variants}) == 1, print_global_type(protocol)
        assert len({(c.category, c.detail) for c in map(classify, variants)}) == 1, print_global_type(protocol)
    assert regroupable > 150


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
        for cand in candidates(sample):
            assert roles_of(cand) <= roles


def test_eliminate_and_candidates_stay_within_the_language():
    protocol = g("(p -> q : a ; q -> r : b) & (r -> s : c | s -> r : d)")
    whole = compile_traces(protocol)
    found = candidates(protocol)
    assert found
    for cand in found:
        assert not isinstance(cand, GBoth)
        assert includes(compile_traces(cand), whole) is None


def test_eliminate_and_respects_its_budget():
    protocol = g("(p -> q : a & q -> r : b) & (r -> s : c & s -> p : d)")
    assert len(candidates(protocol, 5)) <= 5


def operands(t) -> list:
    """The operands of the root `;`, `|` or `&` spine of `t`, or else its
    immediate subterms."""
    return spine(t) if type(t) in SPINES else list(subterms(t))


def made(k, ops: list):
    """The `k` spine of `ops`, nested to the left: an operand that is a `k`
    spine gives its operands, a `|` keeps one of each repeated operand, and
    one operand is itself."""
    flat = [y for x in ops for y in (spine(x) if type(x) is k else [x])]
    return functools.reduce(k, list(dict.fromkeys(flat)) if k is GEither else flat)


def rebuilt(t, new: list):
    """`t` with the operands or subterms `operands` lists replaced by `new`."""
    return made(type(t), new) if type(t) in SPINES else with_subterms(t, new)


def normal(protocol):
    """`protocol` with every spine rebuilt by `made`: two terms are one
    type, however their spines are grouped, exactly when their normal
    forms are equal."""
    return fold(protocol, lambda x, new: rebuilt(x, new) if new else x, operands)


def reference_root_rewrites(t) -> list:
    """The rewrites of the normal term `t` at its root.  Of an `&` spine:
    each operand taken first and taken last, before the `&` of the others
    and after it, then for each operand in turn the others distributed
    into it, in its place: into each operand of a `|` spine, into each
    operand of a `;` spine in turn, into the body of a `*` unrolled once
    before or after the loop, or into the unfolding of a `loopk`, and a
    `skip` operand dropped.  Of a `|` spine: each maximal set of `;`
    operands with one first operand factored, where its first member
    stood."""
    ops, out = spine(t), []
    if type(t) is GBoth:
        rests = [made(GBoth, ops[:n] + ops[n + 1 :]) for n in range(len(ops))]
        out = list(dict.fromkeys(x for a, rest in zip(ops, rests) for x in (made(GSeq, [a, rest]), made(GSeq, [rest, a]))))
        for n, (a, rest) in enumerate(zip(ops, rests)):

            def both(x):
                return made(GBoth, ops[:n] + [x] + ops[n + 1 :])

            match a:
                case GSkip():
                    out.append(rest)
                case GEither():
                    out.append(made(GEither, [both(x) for x in spine(a)]))
                case GSeq():
                    xs = spine(a)
                    out += [made(GSeq, xs[:m] + [both(x)] + xs[m + 1 :]) for m, x in enumerate(xs)]
                case GStar(x):
                    out += [made(GEither, [made(GSeq, [both(x), a]), rest]), made(GEither, [made(GSeq, [a, both(x)]), rest])]
                case GKExit(bodies, exits):
                    out.append(both(normal(kexit_unfolding(bodies, exits))))
    elif type(t) is GEither:
        firsts: dict = {}
        for x in ops:
            if type(x) is GSeq:
                firsts.setdefault(spine(x)[0], []).append(x)
        for a, xs in firsts.items():
            if len(xs) > 1:
                factored = made(GSeq, [a, made(GEither, [made(GSeq, spine(x)[1:]) for x in xs])])
                out.append(made(GEither, [factored if x == xs[0] else x for x in ops if x == xs[0] or x not in xs]))
    return out


def reference_rewrites(t) -> list:
    """The single-step rewrites of the normal term `t`, by recursion: those
    at its root, then those inside each of its `operands` in turn, each in
    its place."""
    ops = operands(t)
    inside = [rebuilt(t, ops[:i] + [x] + ops[i + 1 :]) for i, s in enumerate(ops) for x in reference_rewrites(s)]
    return reference_root_rewrites(t) + inside


def reference_serialized(protocol, left_first: bool):
    """`protocol` with every `&` spine made a `;` of its operands, in order
    if `left_first` and else reversed."""

    def step(x, new):
        if type(x) is not GBoth:
            return rebuilt(x, new) if new else x
        return made(GSeq, new if left_first else new[::-1])

    return fold(protocol, step, operands)


def reference_search(protocol, budget: int) -> tuple[list, bool]:
    """The terms the breadth-first search from the normal term `protocol`
    visits, level by level, at most `budget` of them, in order; and
    whether the budget cut a level partway, leaving a new term of it
    unvisited."""
    visited, level, cut = {protocol: None}, [protocol], False
    while level and len(visited) < budget:
        below = []
        for t in level:
            for t2 in reference_rewrites(t):
                if t2 not in visited:
                    cut = len(visited) >= budget
                    if not cut:
                        visited[t2] = None
                        below.append(t2)
        level = below
    return list(visited), cut


def reference_sequential_rewrites(protocol, budget: int) -> list:
    """The search `_sequential_rewrites` describes, on normal terms and
    without a memo or any code of the projector: the two whole-type
    serializations, then the terms of `reference_search`; of these, each
    `&`-free term other than `protocol`, once, in order."""
    protocol = normal(protocol)
    serialized = (reference_serialized(protocol, left_first) for left_first in (True, False))
    visited, _ = reference_search(protocol, budget)
    return list(dict.fromkeys(t for t in (*serialized, *visited) if t != protocol and not has_both(t)))


def normal_candidates(protocol, budget: int = DEFAULT_AND_BUDGET) -> list:
    """The search's candidates of `protocol`, each as its normal term."""
    return [normal(c) for c in candidates(protocol, budget)]


RANDOM_TYPES = [random_global_type(20260814 + i) for i in range(300)]


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 64, 256])
def test_the_rewrite_search_tries_every_term_it_visits(budget):
    for protocol in RANDOM_TYPES:
        assert normal_candidates(protocol, budget) == reference_sequential_rewrites(protocol, budget)


@settings(max_examples=150, deadline=None)
@given(global_types())
def test_the_search_over_ids_builds_the_reference_candidates(sample):
    """On generated types, which hold `loopk` where the random types do
    not, the search over the table builds the candidates of the
    term-level reference, in its order, at budgets 1, 17 and 256: the
    unfolding of a `loopk` beside an `&` is interned as the reference
    builds it."""
    for budget in (1, 17, 256):
        assert normal_candidates(sample, budget) == reference_sequential_rewrites(sample, budget)


def test_the_search_over_ids_builds_the_reference_candidates_beside_a_loop():
    """Beside an `&`, a random k-exit loop whose bodies or exits have
    rewrites of their own is rewritten in context, each rewrite of a body
    or exit in its place among the loop's 2k children; the search over the
    table builds the reference's candidates, in its order, for 200 loops
    at budgets 1, 17 and 256."""
    rewritten_inside = 0
    for seed in range(200):
        loop = random_loop(seed)
        protocol = GBoth(loop, random_global_type(seed, 3, 3, 0))
        rewritten_inside += bool(reference_rewrites(normal(loop)))
        for budget in (1, 17, 256):
            assert normal_candidates(protocol, budget) == reference_sequential_rewrites(protocol, budget)
    assert rewritten_inside > 40


def test_every_grouping_interns_to_one_id():
    """In one table, two terms share an id exactly when their normal forms
    are equal, over every subterm of the random types, of the same with
    every `;` made a `|`, of those with their `|` and `&` spines
    regrouped, and of those with every `|` made a `;` again."""

    def made_of(old, new):
        return lambda x, subs: new(*subs) if type(x) is old else with_subterms(x, subs)

    terms = _Terms()
    ids: dict = {}
    for protocol in RANDOM_TYPES:
        alternatives = fold(protocol, made_of(GSeq, GEither))
        regroupings = [regrouped(alternatives, shape, SPINES) for shape in ("left", "right", "halves")]
        for variant in (protocol, alternatives, *regroupings, *(fold(v, made_of(GEither, GSeq)) for v in regroupings)):
            for t, _ in postorder(variant):
                ids.setdefault(normal(t), set()).add(terms.intern(t))
    assert all(len(i) == 1 for i in ids.values())
    assert len(set().union(*ids.values())) == len(ids) > 2000


SKIP_SAMPLES = [*RANDOM_TYPES, *(random_global_type(5000 + i, 10, 4, 2) for i in range(700))]


def test_no_two_candidates_of_a_search_are_one_type():
    """On the random workload's types, 700 samples with longer bodies and
    nested loops, and the well-formed relaxations of those that are not
    well formed, no two candidates of one search differ only in how their
    spines are grouped or in repeated `|` operands: each takes a place of
    its own in the budget."""
    searches = tried = 0
    for protocol in [*SKIP_SAMPLES, *well_formed_relaxations(SKIP_SAMPLES)]:
        searches += 1
        found = normal_candidates(protocol)
        assert len(set(found)) == len(found), print_global_type(protocol)
        tried += len(found)
    assert searches > 1400 and tried > 10000


@pytest.mark.parametrize("n", [4, 8, 12])
def test_the_budget_bounds_the_table_of_an_and_spine(n):
    """An `&` spine of n interactions has n! serializations, but the search
    expands at most `budget` terms, each adding at most 6n ids (see
    `_sequential_rewrites`): the table stays within n + 1 + 6n ids per
    term expanded, far below n! at n = 8 and 12, and every serialization
    is a candidate when the budget holds them all, as at n = 4."""
    protocol = g(" & ".join(f"a{i} -> b{i} : m" for i in range(n)))
    terms, expanded = _Terms(), []
    rewrites = terms.rewrites
    terms.rewrites = lambda i: expanded.append(i) or rewrites(i)
    found = list(projector._sequential_rewrites(terms, terms.intern(protocol), DEFAULT_AND_BUDGET))
    bound = n + 1 + 6 * n * len(expanded)
    assert len(expanded) <= DEFAULT_AND_BUDGET and len(terms.kind) <= bound
    if n == 4:
        assert len(found) == math.factorial(n)
    else:
        assert bound < math.factorial(n) and len(found) == 2


# Random-workload types whose search reaches its budget partway through a
# level: the terms of that level past the budget's point are tried too.
LEVEL_CUT = {26: 29, 45: 36, 80: 28, 191: 28, 207: 26}


@pytest.mark.parametrize("i", sorted(LEVEL_CUT))
def test_a_search_cut_at_its_budget_tries_the_rest_of_its_level(i):
    assert reference_search(normal(RANDOM_TYPES[i]), DEFAULT_AND_BUDGET)[1]
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
    """The table flags as kept, when it adds a term, exactly the terms
    that have no rewrite: those the reference gives none, and those the
    table's own rewrites leave alone, on every subterm of every random
    type."""
    kept = 0
    for protocol in RANDOM_TYPES:
        terms = _Terms()
        for t, _ in postorder(protocol):
            i = terms.intern(t)
            assert terms.kept[i] == (not reference_rewrites(normal(t))) == (not terms.rewrites(i))
            kept += terms.kept[i]
    assert kept > 1000


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
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, p -> q : g ; r -> s : e ; s -> r : f)",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, p -> q : g ; r -> s : e ; s -> r : f)",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; s -> r : f ; p -> q : g)",
        "loop2 (p -> q : a ; r -> s : b, q -> p : c) exit (p -> q : d, r -> s : e ; p -> q : g ; s -> r : f)",
        "loop2 (r -> s : b ; p -> q : a, q -> p : c) exit (p -> q : d, r -> s : e ; p -> q : g ; s -> r : f)",
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
    found = [print_global_type(c) for c in candidates(g(protocol))]
    assert found == IN_CONTEXT_CANDIDATES[protocol]


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
    """The direct projection fails, and the first candidate projects: it
    is the one candidate the search draws, builds as a term and projects."""
    protocol = g(protocol)
    drawn, built, projected = 0, [], []
    search, term, project = projector._sequential_rewrites, _Terms.term, projector._project_alg

    def counted_search(*args):
        nonlocal drawn
        for cand in search(*args):
            drawn += 1
            yield cand

    def counted_term(terms, i):
        built.append(i)
        return term(terms, i)

    def counted_project(t, cont, ctx):
        projected.append(t)
        return project(t, cont, ctx)

    monkeypatch.setattr(projector, "_sequential_rewrites", counted_search)
    monkeypatch.setattr(_Terms, "term", counted_term)
    monkeypatch.setattr(projector, "_project_alg", counted_project)
    assert project_top(protocol)
    assert drawn == len(built) == 1
    assert len(projected) == 2 and projected[0] is protocol


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


def renaming_first_build(g, roles, exit_envs, body_envs, after, deciders, env, ctx):
    """`_kexit_build` without its check of the merges before renaming: it
    draws the fresh unknowns, renames every role's body projections, and
    only then merges each role's pieces, role by role."""
    k = len(deciders)
    dvar = [ctx.fresh() for _ in range(k)]
    rvar = {r: ctx.fresh() for r in roles}
    renamed = []
    for i in range(k):
        nxt = (i + 1) % k
        names = {after[i][r]: TVar(dvar[nxt] if r == deciders[nxt] else rvar[r]) for r in roles}
        renamed.append({r: projector._subst(body_envs[i][r], names) for r in roles})
    defs = {}
    for i in range(k):
        p = deciders[i]
        go_on, leave = renamed[i][p], exit_envs[i][p]
        defs[dvar[i]] = go_on if go_on == leave else TInternal((go_on, leave))
    for r in roles:
        pieces = [
            t for i in range(k) if deciders[i] != r for t in (exit_envs[i][r], renamed[i][r]) if t != TVar(rvar[r])
        ]
        defs[rvar[r]] = projector._merge_terms(pieces, r, g) if pieces else TEnd()
    result = dict(env)
    for r in roles:
        result[r] = projector._subst(TVar(rvar[r]), defs)
    result[deciders[0]] = projector._subst(TVar(dvar[0]), defs)
    for r in roles:
        if projector._is_closed(result[r]):
            result[r] = projector._normalized(result[r], r, g)
    return result


def located_outcome(protocol):
    """What `project_top` says of `protocol`: the environment, or its
    error's kind, detail and location, or a bound's message."""
    try:
        return print_session_env(project_top(protocol))
    except ProjectionError as exc:
        return (exc.kind, exc.detail, exc.location)
    except BudgetExceededError as exc:
        return str(exc)


def renaming_first_outcome(protocol):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projector, "_kexit_build", renaming_first_build)
        return located_outcome(protocol)


# The exit-only role `a` merges two closed pieces that fail to normalize;
# the later role `z` merges an `end` with an output.  Each role's merge is
# checked in its turn, so `a`'s error is the loop's, as it was when the
# pieces were renamed first.
EXIT_ROLE_FAILS_FIRST = "loop2 (z -> q : b, z -> q : c) exit (q -> a : m ; a -> r : x, q -> a : m ; a -> r : y)"


def test_a_loop_merge_checked_before_renaming_decides_as_after_it(monkeypatch):
    """`_kexit_build` checks each role's merge before it renames any
    piece, and so says what it said when it renamed first: the same
    environment, or an error of the same kind, detail and location, on
    the random workload's types and their well-formed relaxations, and on
    random k-exit loops alone, after a `;`, before one and beside an `&`.
    Among these, many decider assignments fail on root kinds."""
    loops = [random_loop(i) for i in range(300)]
    others = [random_global_type(i, 3, 3, 0) for i in range(300)]
    samples = [
        g(EXIT_ROLE_FAILS_FIRST),
        *RANDOM_TYPES,
        *well_formed_relaxations(RANDOM_TYPES),
        *loops,
        *(GSeq(x, loop) for x, loop in zip(others, loops)),
        *(GSeq(loop, x) for x, loop in zip(others, loops)),
        *(GBoth(loop, x) for x, loop in zip(others, loops)),
    ]
    build, kinds_failed = projector._kexit_build, 0

    def counted_build(*args):
        nonlocal kinds_failed
        try:
            return build(*args)
        except ProjectionError as exc:
            kinds_failed += "would have to follow both" in exc.detail
            raise

    monkeypatch.setattr(projector, "_kexit_build", counted_build)
    for protocol in samples:
        assert located_outcome(protocol) == renaming_first_outcome(protocol), print_global_type(protocol)
    assert kinds_failed > 1000
    kind, detail, _ = located_outcome(g(EXIT_ROLE_FAILS_FIRST))
    assert (kind, detail) == (INCOMPATIBLE_MERGE, "role 'a': cannot merge internal choices offering different outputs")


@settings(max_examples=150, deadline=None)
@given(global_types())
def test_a_loop_merge_checked_before_renaming_decides_as_after_it_on_generated_types(sample):
    assert located_outcome(sample) == renaming_first_outcome(sample)


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
    for cand in candidates(protocol):
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
