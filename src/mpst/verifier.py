"""Conformance checking and diagnosis of global types.

A session environment implements a global type when it is sound (every
session trace is a trace of the global type) and complete (every trace
of the global type is a permutation of some session trace).  Soundness
is decided as a language inclusion of automata; completeness holds when
the inclusion also holds the other way, and is otherwise checked on the
traces up to a length bound.  A report says whether its verdicts are
exact or bounded (by that length or by the session's exploration).

`classify` diagnoses why a global type resists projection, reproducing
the standard failure taxonomy: sequentiality violations (an implicit
ordering between interactions that no participant can enforce), choices
whose outcome some participant cannot learn but could implement by
over-approximation, and choices that admit no covering implementation at
all.  Well-formedness is decided first, and only a well-formed type is
projected; a type that is not well formed is diagnosed by its relaxations
alone.  The diagnosis is a bounded search over candidate implementations,
so inconclusive outcomes are reported as Unclassified rather than
guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import machine as _machine
from .projector import ProjectionError, project_first, project_top
from .runtime import Live, NotLive, Session, Unknown, explore_parts
from .syntax import (
    GAction,
    GBoth,
    GEither,
    GSeq,
    GStar,
    GlobalType,
    Interaction,
    NotSessionTypeError,
    Role,
    SessionEnv,
    SessionType,
    TEnd,
    TExternal,
    TIn,
    TInternal,
    TOut,
    default_max_len,
    fold,
    spine,
    subterms,
    with_subterms,
)
from .tracelang import (
    DEFAULT_AND_BUDGET,
    DEFAULT_BUF_BOUND,
    DEFAULT_DEPTH_BOUND,
    BudgetExceededError,
    TraceAutomaton,
    Word,
    compile_parts,
    first_uncovered,
    includes,
    is_well_formed,
    shuffle_automata,
    swap_closed,
)

PROJECTABLE = "Projectable"
NO_SEQUENTIALITY = "NoSequentiality"
NO_KNOWLEDGE_FOR_CHOICE = "NoKnowledgeForChoice"
NO_KNOWLEDGE_NO_CHOICE = "NoKnowledgeNoChoice"
UNCLASSIFIED = "Unclassified"

DEFAULT_CANDIDATE_CAP = 64


@dataclass(frozen=True, slots=True)
class ConformanceReport:
    """Outcome of a soundness/completeness check; truthy iff both passed.
    `liveness` names the exploration verdict (Live, NotLive or Unknown).
    `basis` is "exact" when both verdicts hold for traces of every length
    under `buf_bound`, else "bounded" (by `max_len` or the exploration)."""

    sound: bool
    sound_counterexample: Word | None
    complete: bool
    completeness_gap: Word | None
    max_len: int
    buf_bound: int
    basis: str
    liveness: str

    def __bool__(self) -> bool:
        return self.sound and self.complete


@dataclass(frozen=True, slots=True)
class Classification:
    category: str
    detail: str


def _has_trace_longer_than(auto: TraceAutomaton, n: int) -> bool:
    """Whether the trim automaton `auto` has a trace longer than `n`.  Every
    path from the start state of a trim automaton leads on to an accepting
    state, so that is whether some path from it takes n + 1 moves."""
    level = {0}
    for _ in range(n + 1):
        level = {target for state in level for _, target in auto.delta[state]}
        if not level:
            return False
    return True


def _conformance(
    auto: TraceAutomaton, verdict: Live | NotLive | Unknown, session_automaton: TraceAutomaton,
    max_len: int, buf_bound: int,
) -> ConformanceReport:
    """Soundness and completeness of the traces of a session, explored with
    `verdict`, for the type compiled to `auto`.  The soundness counterexample
    is the least session trace outside the type's (see `includes`), the gap
    the first trace of the type's listing up to `max_len` whose Parikh
    vector no session trace has (see `first_uncovered`), both in `word_key`
    order.  An `Unknown` exploration under-approximates the session's
    traces, so then only a counterexample is definitive; a gap found after
    a finished one is definitive too (permutations keep length).  When that
    bounded check runs out of budget after an `Unknown` exploration, the
    BudgetExceededError says how many configurations the exploration
    visited.  No gap is definitive too after a finished exploration when
    no trace of the type is longer than `max_len`: every trace of the type
    has then been checked, against every session trace of its length."""
    outside = includes(session_automaton, auto)
    finished = not isinstance(verdict, Unknown)
    missing = None
    complete_exact = includes(auto, session_automaton) is None  # identity is a permutation
    if not complete_exact:
        try:
            missing = first_uncovered(auto, session_automaton, max_len)
        except BudgetExceededError as exc:
            if finished:
                raise
            raise BudgetExceededError(
                f"{exc}; the session exploration stopped at its bound after "
                f"{verdict.explored} configurations"
            ) from None
        complete_exact = finished and (missing is not None or not _has_trace_longer_than(auto, max_len))
    basis = "exact" if complete_exact and (outside is not None or finished) else "bounded"
    return ConformanceReport(
        outside is None, outside, missing is None, missing,
        max_len, buf_bound, basis, type(verdict).__name__,
    )


def check_preorder(
    g: GlobalType,
    env: SessionEnv,
    max_len: int | None = None,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
) -> ConformanceReport:
    """Check that `env` implements `g`: sound and complete.

    The type is compiled by its role groups (`tracelang.compile_parts`)
    and the session explored once, by its components when they decide it
    (`runtime.explore_parts`); see `_check`."""
    if max_len is None:
        max_len = default_max_len(g)
    return _check(compile_parts(g), env, max_len, buf_bound, depth_bound)


def _check(
    groups: dict[frozenset[Role], TraceAutomaton], env: SessionEnv, max_len: int, buf_bound: int, depth_bound: int,
) -> ConformanceReport:
    """`check_preorder` of `env` against the type whose role groups are
    compiled to `groups`.  When the session's parts are several, have the
    groups' roles and each has its group's traces, the report is the whole
    product's: sound, complete, Live and exact (see `runtime.explore_parts`).
    Otherwise the shuffle of the parts is checked against the shuffle of
    the groups; every field of the report depends on the two languages
    alone, so counterexamples and bounds are the product's."""
    verdict, parts = explore_parts(Session(env, buf_bound), depth_bound)
    if len(parts) > 1 and parts.keys() == groups.keys() and all(
        includes(a, groups[roles]) is None and includes(groups[roles], a) is None for roles, a in parts.items()
    ):
        return ConformanceReport(True, None, True, None, max_len, buf_bound, "exact", "Live")
    return _conformance(shuffle_automata(*groups.values()), verdict, shuffle_automata(*parts.values()), max_len, buf_bound)


# --- candidate implementations for diagnosis --------------------------------


def _branches(t: SessionType, leaf: type, choice: type) -> dict | None:
    """Root branches as {(partners, message): continuation} when `t` is a
    `leaf` (TOut or TIn) or a `choice` (TInternal or TExternal) of such
    roots with consistent continuations, else None."""
    match t:
        case leaf(partners, msg, cont):
            return {(partners, msg): cont}
        case choice(branches):
            out: dict = {}
            for b in branches:
                sub = _branches(b, leaf, choice)
                if sub is None:
                    return None
                for k, c in sub.items():
                    if k in out and out[k] != c:
                        return None
                    out[k] = c
            return out
        case _:
            return None


def _build(branches: dict, leaf: type, choice: type) -> SessionType:
    """Inverse of `_branches`: one `leaf` per branch, in partner then
    message order, under a `choice` when there are several."""

    def order(item):
        (partners, msg), _ = item
        return (sorted(partners) if leaf is TIn else partners, msg)

    terms = [leaf(ps, a, c) for (ps, a), c in sorted(branches.items(), key=order)]
    return terms[0] if len(terms) == 1 else choice(tuple(terms))


def forced_join(t: SessionType, s: SessionType) -> SessionType | None:
    """Combine two alternative behaviours of one role into a single type
    covering both, without the compatibility requirements of `merge`.

    Two inputs, or two outputs, union their branches (else None), and a
    common branch joins its continuations.  An output branch found on one
    side only continues with the join of its own continuation and the other
    side's (so the choice is announced and both sides converge), or else
    with its own.  The result over-approximates: it can take either
    alternative's choices but may mix them, so it is a candidate
    implementation to be validated, not a projection."""
    if t == s:
        return t
    for leaf, choice in ((TOut, TInternal), (TIn, TExternal)):
        t_bs, s_bs = _branches(t, leaf, choice), _branches(s, leaf, choice)
        if t_bs is None or s_bs is None:
            continue
        joined: dict = {}
        for k in t_bs.keys() | s_bs.keys():
            if k in t_bs and k in s_bs:
                c = forced_join(t_bs[k], s_bs[k])
                if c is None:
                    return None
            elif leaf is TIn:
                c = t_bs.get(k, s_bs.get(k))
            else:
                own, others = (t_bs[k], s_bs) if k in t_bs else (s_bs[k], t_bs)
                c = _join_all([own, *others.values()]) or own
            joined[k] = c
        return _build(joined, leaf, choice)
    return None


def _join_all(types: list[SessionType]) -> SessionType | None:
    """The forced join of `types`, folded from the left, or None when one
    step fails."""
    acc = types[0]
    for other in types[1:]:
        acc = forced_join(acc, other)
        if acc is None:
            return None
    return acc


def forced_join_env(envs: list[SessionEnv]) -> SessionEnv | None:
    """Role-wise forced join of alternative environments; roles absent
    from an alternative are taken to be ended there."""
    out: dict = {}
    for r in sorted(set().union(*envs)):
        out[r] = _join_all([e.get(r, TEnd()) for e in envs])
        if out[r] is None:
            return None
    try:
        return {r: _machine.normalize_session_type(t) for r, t in out.items()}
    except (_machine.MergeError, NotSessionTypeError):
        return None


def _candidate_envs(g: GlobalType, budget: int) -> list[SessionEnv]:
    """Candidate implementations of an alternative whose projection
    failed: the forced join of the projections of the operands of its root
    `|` spine, when it exists, then those projections, keeping the first of
    equal environments and at most `DEFAULT_CANDIDATE_CAP` of them."""
    if type(g) is not GEither:
        return []
    projections: list[SessionEnv] = []
    for b in spine(g):
        try:
            projections.append(project_top(b, budget))
        except ProjectionError:
            return []
    joined = forced_join_env(projections)
    unique: dict = {}
    for env in ([] if joined is None else [joined]) + projections:
        unique.setdefault(tuple(sorted(env.items())), env)
    return list(unique.values())[:DEFAULT_CANDIDATE_CAP]


def _relaxations(g: GlobalType) -> list[GlobalType] | None:
    """Variants of `g` with sequential compositions relaxed to unordered
    ones: all at once, then one at a time, in the pre-order of the `;`
    nodes.  A type with no `;` node has no variants, and one with more
    than 16 has None: its `;` nodes are counted first, and no variant is
    built."""
    if fold(g, lambda t, counts: (type(t) is GSeq) + sum(counts)) > 16:
        return None
    whole, ones = fold(g, _relaxed)
    return [v for v in [whole, *ones] if v != g]


def _relaxed(t: GlobalType, values: list[tuple]) -> tuple[GlobalType, list[GlobalType]]:
    """`t` with every `;` relaxed, and the variants of `t` with one `;`
    relaxed, in the pre-order of the `;` nodes, given the same of each of
    its subterms."""
    subs = subterms(t)
    whole = [w for w, _ in values]
    ones = [GBoth(*subs)] if type(t) is GSeq else []
    for i, (_, kid_ones) in enumerate(values):
        ones += [with_subterms(t, subs[:i] + (x,) + subs[i + 1 :]) for x in kid_ones]
    return GBoth(*whole) if type(t) is GSeq else with_subterms(t, whole), ones


def classify(
    g: GlobalType,
    max_len: int | None = None,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
    budget: int = DEFAULT_AND_BUDGET,
) -> Classification:
    """Diagnose a global type.

    Projectable: well formed and algorithmically projectable.
    NoSequentiality: not well formed, but relaxing sequential composition
      to unordered composition yields a projectable well-formed variant —
      the specified ordering is the only obstacle.
    NoKnowledgeForChoice: some candidate implementation covers all traces
      of `g` but also exhibits extra ones — participants can implement the
      choice only by over-approximating it.
    NoKnowledgeNoChoice: no candidate covers the traces of `g` at all.
    Unclassified: the bounded search was inconclusive (including the case
      of a sound and complete candidate: then `g` is implementable and only
      the projection algorithm falls short).

    Well-formedness is decided first, and only a well-formed type is
    projected: a type that is not well formed goes straight to the
    relaxations, each of which is projected only when it is well formed,
    all of them sharing one memo of projections (see `project_first`).
    Relaxations are tried only for a type with at most 16 `;` nodes: a
    type that is not well formed and has more goes straight to
    Unclassified, with a detail that says so.  Every projection tried
    along the way uses `budget` (see `project_top`).  Each candidate is
    checked (`_check`) against the automata of the role groups of `g`
    that deciding well-formedness compiled.  A check that runs out of
    budget ends the diagnosis with its BudgetExceededError: a candidate
    left unchecked is no finding.
    """
    groups = compile_parts(g)
    if not all(map(swap_closed, groups.values())):
        variants = _relaxations(g)
        if variants is None:
            return Classification(
                UNCLASSIFIED,
                "not well formed, and relaxations are not tried past 16 `;` nodes",
            )
        if project_first((v for v in variants if is_well_formed(v)), budget) is not None:
            return Classification(
                NO_SEQUENTIALITY,
                "the specified ordering of independent interactions cannot be"
                " enforced; the unordered variant is implementable",
            )
        return Classification(
            UNCLASSIFIED,
            "not well formed, and no sequentiality relaxation is implementable",
        )
    try:
        project_top(g, budget)
    except ProjectionError:
        pass
    else:
        return Classification(PROJECTABLE, "well formed and projectable")
    candidates = _candidate_envs(g, budget)
    if not candidates:
        return Classification(
            UNCLASSIFIED, "projection failed and no candidate implementations arise"
        )
    if max_len is None:
        max_len = default_max_len(g)
    found_complete = False
    for cand in candidates:
        report = _check(groups, cand, max_len, buf_bound, depth_bound)
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


# --- random generation and theorem cross-checking ---------------------------

_ROLE_POOL = ("p", "q", "r", "s", "t", "u", "v", "w")
_MESSAGE_POOL = "abcde"


def random_global_type(
    seed: int,
    max_size: int = 8,
    role_count: int = 4,
    star_depth: int = 1,
) -> GlobalType:
    """A deterministic pseudo-random global type with at most `max_size`
    interactions over at most `role_count` roles, star nesting bounded by
    `star_depth`, and no self-messages."""
    rng = random.Random(seed)
    if role_count < 2:
        raise ValueError("need at least two roles")
    roles = (
        _ROLE_POOL[:role_count]
        if role_count <= len(_ROLE_POOL)
        else tuple(f"p{i}" for i in range(role_count))
    )

    return _random_term(rng, roles, rng.randint(1, max_size), star_depth)


def _random_action(rng: random.Random, roles: tuple[Role, ...]) -> GlobalType:
    receiver = rng.choice(roles)
    rest = [x for x in roles if x != receiver]
    k = 2 if len(rest) >= 2 and rng.random() < 0.15 else 1
    senders = frozenset(rng.sample(rest, k))
    return GAction(Interaction(senders, receiver, rng.choice(_MESSAGE_POOL)))


def _random_term(
    rng: random.Random, roles: tuple[Role, ...], size: int, depth: int
) -> GlobalType:
    if size <= 1:
        return _random_action(rng, roles)
    roll = rng.random()
    if roll < 0.15 and depth > 0:
        return GStar(_random_term(rng, roles, size - 1, depth - 1))
    if roll < 0.45:
        cut = rng.randint(1, size - 1)
        return GSeq(_random_term(rng, roles, cut, depth), _random_term(rng, roles, size - cut, depth))
    if roll < 0.60:
        cut = rng.randint(1, size - 1)
        return GBoth(_random_term(rng, roles, cut, depth), _random_term(rng, roles, size - cut, depth))
    if roll < 0.85:
        cut = rng.randint(1, size - 1)
        return GEither(_random_term(rng, roles, cut, depth), _random_term(rng, roles, size - cut, depth))
    return _random_action(rng, roles)


def cross_check_theorems(
    sample_count: int = 200,
    seed: int = 0,
    max_size: int = 8,
    role_count: int = 4,
    star_depth: int = 1,
    buf_bound: int = DEFAULT_BUF_BOUND,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
) -> dict:
    """Check, over random samples, that every well-formed projectable
    global type has a live projection that is sound and complete.  Each
    checked sample is decided as `check_preorder` decides it (`_check`,
    role-group shortcut included), so `crosscheck` and `verify` agree on
    every sample.  A completeness gap is a violation only when the
    exploration finished: one cut at `depth_bound` (`Unknown`) explored
    part of the session, whose traces may hold the missing word.  Returns
    counters and the list of violations (empty on success)."""
    report = {
        "samples": sample_count,
        "well_formed": 0,
        "projected": 0,
        "checked": 0,
        "violations": [],
    }
    for i in range(sample_count):
        g = random_global_type(seed + i, max_size, role_count, star_depth)
        groups = compile_parts(g)
        wf = all(map(swap_closed, groups.values()))
        if wf:
            report["well_formed"] += 1
        try:
            env = project_top(g)
        except ProjectionError:
            continue
        report["projected"] += 1
        if not wf:
            continue
        report["checked"] += 1
        conformance = _check(groups, env, default_max_len(g), buf_bound, depth_bound)
        if conformance.liveness == "NotLive":
            report["violations"].append((i, "liveness", None))
            continue
        if not conformance.sound:
            report["violations"].append(
                (i, "soundness", conformance.sound_counterexample)
            )
        if not conformance.complete and conformance.liveness != "Unknown":
            report["violations"].append(
                (i, "completeness", conformance.completeness_gap)
            )
    return report
