"""Projection of global types onto per-role session types.

Projection is syntax-directed and runs right-to-left: every rule takes the
environment of continuations describing what each role does *after* the
current subterm, and returns the environment describing what each role does
from the current subterm onward.

Alternatives need one role whose two branch behaviours are both
output-rooted and different — that role's branches are combined into an
internal choice, everyone else's are merged.  Iterations (`*` and `loopk`)
introduce one recursion unknown per decision point and per spectating role;
since a spectator's merge may involve the still-open recursion unknowns,
such merges are deferred (kept as symbolic merge nodes) and resolved by the
state-machine normalizer once the enclosing recursions are closed.  Each
loop body is projected once, against fresh unknowns for what follows it;
every choice of decision roles tried renames those unknowns and assembles
the recursion from the same projections.

Unordered composition has no projection rule of its own: `project_top`
rewrites `&` away (serializations first, then distributing rewrites
breadth-first) and projects the first rewrite that succeeds.  The
candidates are generated lazily and tried in the order they are generated,
so none is built after the first that projects.  Within one elimination
the rewrites of each subterm are computed once, however many candidates
contain it, and so is the projection of each subterm against each
environment of closed types it meets (outside loop bodies): the
candidates share one memo of projections, and `project_first` shares it
across the searches of several types, such as the relaxations one
`classify` tries.  The memo is built only once the direct projection has
failed, so a type that projects directly pays nothing for it.  Before the
search of a type with `&` builds any candidate, the parts of the type that
no rewrite changes are projected: when the tail of its root `;` spine, or
the end of a `*` loop's body, fails there, every candidate fails, and the
search is skipped (see `_kept_failure`).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import reduce

from . import machine
from .syntax import (
    GAction,
    GBoth,
    GEither,
    GKExit,
    GlobalType,
    GSeq,
    GSkip,
    GStar,
    Role,
    SessionEnv,
    SessionType,
    TEnd,
    TIn,
    TInternal,
    TMerge,
    TOut,
    TRec,
    TVar,
    free_type_vars,
    parts,
    print_global_type,
    roles_of,
    spine,
    subterms,
    with_parts,
    with_subterms,
)
from .tracelang import BudgetExceededError, kexit_unfolding

NO_DECISION_MAKER = "NoDecisionMaker"
INCOMPATIBLE_MERGE = "IncompatibleMerge"
OUTPUT_MISMATCH = "OutputMismatch"
UNBOUND_CONTINUATION = "UnboundContinuation"
AND_ELIMINATION_EXHAUSTED = "AndEliminationExhausted"

DEFAULT_AND_BUDGET = 256

_KEXIT_ASSIGNMENT_CAP = 16


class ProjectionError(Exception):
    """A global type (or subterm) that cannot be projected.

    `kind` is one of NoDecisionMaker, IncompatibleMerge, OutputMismatch,
    UnboundContinuation, AndEliminationExhausted; `location` is the subterm
    at fault when known.  The message, which prints `location`, is built
    only when asked for: most errors are caught and dropped unread while
    `&`-elimination candidates are tried."""

    def __init__(self, kind: str, detail: str, location: GlobalType | None = None):
        super().__init__(kind, detail, location)
        self.kind = kind
        self.detail = detail
        self.location = location

    def __str__(self) -> str:
        where = f" in: {print_global_type(self.location)}" if self.location is not None else ""
        return f"{self.kind}: {self.detail}{where}"


class _Ctx:
    """Per-projection state.  `counter` numbers the recursion unknowns; the
    '$' prefix keeps generated names disjoint from anything the source
    syntax can produce.  `memo`, None until an `&`-elimination search
    starts, maps (subterm, environment) to the environment or the error
    fields `(kind, detail, location)` that projecting the subterm gave.
    It is read only where `loops` is 0, i.e. outside loop bodies: there
    every value of the environment is closed, while a loop body's
    environment holds unknowns that are fresh on every call.  Names in a
    memoized result cannot meet the same name later, since one context
    serves every candidate of a search."""

    def __init__(self) -> None:
        self.counter = 0
        self.memo: dict[tuple[GlobalType, frozenset], SessionEnv | tuple] | None = None
        self.loops = 0

    def fresh(self) -> str:
        name = f"${self.counter}"
        self.counter += 1
        return name


def _is_closed(t: SessionType) -> bool:
    return machine.is_canonical(t) or not free_type_vars(t)


def merge(t: SessionType, s: SessionType) -> SessionType:
    """The least behaviour that follows both `t` and `s` (both closed):
    pointwise on outputs, branch-wise on inputs with exclusive branches
    kept when they cannot be confused.  Raises ProjectionError
    (IncompatibleMerge) when no such behaviour exists."""
    try:
        return machine.normalize_session_type(TMerge(t, s))
    except ValueError as exc:
        raise ProjectionError(INCOMPATIBLE_MERGE, str(exc)) from None


def _normalized(t: SessionType, role: Role, loc: GlobalType | None) -> SessionType:
    try:
        return machine.normalize_session_type(t)
    except ValueError as exc:
        raise ProjectionError(INCOMPATIBLE_MERGE, f"role {role!r}: {exc}", loc) from None


def _merge_terms(
    t: SessionType,
    s: SessionType,
    role: Role,
    loc: GlobalType | None,
) -> SessionType:
    """Merge two (possibly open) behaviour terms, eagerly when both are
    closed, deferring to a symbolic merge node otherwise."""
    if t == s:
        return t
    kt = machine.root_kind(t)
    ks = machine.root_kind(s)
    if kt is not None and ks is not None and kt != ks:
        raise ProjectionError(
            INCOMPATIBLE_MERGE,
            f"role {role!r} would have to follow both a {kt!r}-rooted and "
            f"a {ks!r}-rooted behaviour",
            loc,
        )
    if _is_closed(t) and _is_closed(s):
        return _normalized(TMerge(t, s), role, loc)
    return TMerge(t, s)


# ---------------------------------------------------------------------------
# The projection rules
# ---------------------------------------------------------------------------


def _project(g: GlobalType, env: SessionEnv, ctx: _Ctx) -> SessionEnv:
    # the memo is read and written here, not in a wrapper, which would
    # cost a frame per level of `g`
    key = None
    if ctx.memo is not None and not ctx.loops:
        key = (g, frozenset(env.items()))
        hit = ctx.memo.get(key)
        if type(hit) is tuple:
            raise ProjectionError(*hit)
        if hit is not None:
            return hit
    try:
        match g:
            case GSkip():
                out = env
            case GAction(i):
                out = dict(env)
                for s in i.senders:
                    out[s] = TOut(i.receiver, i.message, env[s])
                out[i.receiver] = TIn(i.senders, i.message, env[i.receiver])
            case GSeq():
                # the whole `;` spine, right to left, in this one frame
                out = env
                for x in reversed(spine(g)):
                    out = _project(x, out, ctx)
            case GEither(l, r):
                out = _alternative(g, _project(l, env, ctx), _project(r, env, ctx))
            case GStar(b):
                out = _kexit(g, (b,), (GSkip(),), env, ctx)
            case GKExit(bodies, exits):
                out = _kexit(g, bodies, exits, env, ctx)
            case GBoth(_, _):
                raise ProjectionError(
                    AND_ELIMINATION_EXHAUSTED,
                    "unordered composition has no direct projection rule",
                    g,
                )
            case _:
                raise TypeError(f"not a global type: {g!r}")
    except ProjectionError as exc:
        # the fields, not the error: its traceback would hold these frames
        if key is not None:
            ctx.memo[key] = (exc.kind, exc.detail, exc.location)
        raise
    if key is not None:
        ctx.memo[key] = out
    return out


def _alternative(g: GlobalType, e1: SessionEnv, e2: SessionEnv) -> SessionEnv:
    roles = sorted(e1)
    diff = [r for r in roles if e1[r] != e2[r]]
    if not diff:
        return e1
    deciders = [
        r
        for r in diff
        if machine.root_kind(e1[r]) == "out" and machine.root_kind(e2[r]) == "out"
    ]
    if len(deciders) > 1:
        raise ProjectionError(
            NO_DECISION_MAKER,
            f"roles {', '.join(map(repr, deciders))} could all signal which "
            "branch was taken; the choice must rest with exactly one role",
            g,
        )
    if not deciders:
        if len(diff) == 1:
            r = diff[0]
            raise ProjectionError(
                OUTPUT_MISMATCH,
                f"role {r!r} behaves differently in the two branches but "
                "does not start with outputs in both, so it cannot signal "
                "the choice",
                g,
            )
        raise ProjectionError(
            NO_DECISION_MAKER,
            f"no role starts with outputs in both branches; differing roles: "
            f"{', '.join(map(repr, diff))}",
            g,
        )
    d = deciders[0]
    out: SessionEnv = {}
    for r in roles:
        if r == d:
            out[r] = TInternal((e1[r], e2[r]))
        else:
            out[r] = _merge_terms(e1[r], e2[r], r, g)
    return out


def _kexit(
    g: GlobalType,
    bodies: tuple[GlobalType, ...],
    exits: tuple[GlobalType, ...],
    env: SessionEnv,
    ctx: _Ctx,
) -> SessionEnv:
    k = len(bodies)
    roles = sorted(roles_of(g))
    if not roles:
        # no interactions at all: the loop can only be exited immediately
        return _project(exits[0], env, ctx)
    exit_envs = [_project(exits[i], env, ctx) for i in range(k)]

    exit_outs: list[list[Role]] = []
    for i in range(k):
        diffs = [r for r in roles if exit_envs[i][r] != env[r]]
        outs = [r for r in diffs if machine.root_kind(exit_envs[i][r]) == "out"]
        if diffs and not outs:
            raise ProjectionError(
                NO_DECISION_MAKER,
                f"no role can signal the exit of phase {i + 1}: roles "
                f"{', '.join(map(repr, diffs))} act in the exit but none "
                "starts with an output",
                g,
            )
        exit_outs.append(outs)

    # each body once, against a fresh unknown for what each role does after
    # it; every decider assignment renames these unknowns its own way
    after = [{r: ctx.fresh() for r in roles} for _ in range(k)]
    ctx.loops += 1
    try:
        body_envs = [
            _project(bodies[i], env | {r: TVar(after[i][r]) for r in roles}, ctx)
            for i in range(k)
        ]
    finally:
        ctx.loops -= 1
    # a phase whose exit does not discriminate (e.g. skip) is decided by the
    # roles that open its body with outputs, or by any role if none does
    candidates = [
        outs
        or [r for r in roles if machine.root_kind(body_envs[i][r]) == "out"]
        or roles
        for i, outs in enumerate(exit_outs)
    ]

    # one assignment past the cap, to tell a loop with more from one with
    # exactly as many
    assignments = list(
        itertools.islice(itertools.product(*candidates), _KEXIT_ASSIGNMENT_CAP + 1)
    )
    # the error of the last assignment tried is the one reported
    for deciders in assignments[:-1]:
        try:
            return _kexit_build(g, roles, exit_envs, body_envs, after, deciders, env, ctx)
        except ProjectionError:
            continue
    if len(assignments) > _KEXIT_ASSIGNMENT_CAP:
        raise BudgetExceededError(
            f"more than {_KEXIT_ASSIGNMENT_CAP} assignments of deciding roles to the phases of a loop"
        )
    return _kexit_build(g, roles, exit_envs, body_envs, after, assignments[-1], env, ctx)


def _kexit_build(
    g: GlobalType,
    roles: list[Role],
    exit_envs: list[SessionEnv],
    body_envs: list[SessionEnv],
    after: list[dict[Role, str]],
    deciders: tuple[Role, ...],
    env: SessionEnv,
    ctx: _Ctx,
) -> SessionEnv:
    k = len(deciders)
    dvar = [ctx.fresh() for _ in range(k)]
    rvar = {r: ctx.fresh() for r in roles}

    # body i continues into phase i + 1, which that phase's decider opens
    renamed: list[SessionEnv] = []
    for i in range(k):
        nxt = (i + 1) % k
        names: dict[str, SessionType] = {
            after[i][r]: TVar(dvar[nxt] if r == deciders[nxt] else rvar[r]) for r in roles
        }
        renamed.append({r: _subst(body_envs[i][r], names, frozenset()) for r in roles})

    defs: dict[str, SessionType] = {}
    for i in range(k):
        p = deciders[i]
        go_on, leave = renamed[i][p], exit_envs[i][p]
        defs[dvar[i]] = go_on if go_on == leave else TInternal((go_on, leave))
    for r in roles:
        pieces = []
        for i in range(k):
            if deciders[i] != r:
                pieces.extend((exit_envs[i][r], renamed[i][r]))
        pieces = [t for t in pieces if t != TVar(rvar[r])]
        if not pieces:
            defs[rvar[r]] = TEnd()  # r decides every phase; never referenced
            continue
        combined = pieces[0]
        for t in pieces[1:]:
            combined = _merge_terms(combined, t, r, g)
        defs[rvar[r]] = combined

    result = dict(env)
    for r in roles:
        result[r] = _close(rvar[r], defs, frozenset())
    result[deciders[0]] = _close(dvar[0], defs, frozenset())

    for r in roles:
        if _is_closed(result[r]):
            result[r] = _normalized(result[r], r, g)
    return result


def _close(name: str, defs: dict[str, SessionType], stack: frozenset[str]) -> SessionType:
    """The definition of the unknown `name` with every unknown it uses
    substituted in turn, bound by `rec` where it refers back to itself.
    `stack` holds the unknowns being closed around it."""
    body = _subst(defs[name], defs, stack | {name})
    if name in free_type_vars(body):
        return TRec(name, body)
    return body


def _subst(t: SessionType, defs: dict[str, SessionType], stack: frozenset[str]) -> SessionType:
    if type(t) is TVar and t.name in defs:
        return t if t.name in stack else _close(t.name, defs, stack)
    subs = map(_subst, parts(t), itertools.repeat(defs), itertools.repeat(stack))
    return with_parts(t, tuple(subs))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def project_alg(g: GlobalType, cont: SessionEnv) -> SessionEnv:
    """Project `g` against the continuation environment `cont` (which must
    bind every role of `g` to a closed session type).  Returns one session
    type per role of `cont`, each fully resolved and normalized."""
    missing = sorted(roles_of(g) - set(cont))
    if missing:
        raise ProjectionError(
            UNBOUND_CONTINUATION,
            f"no continuation for roles {', '.join(map(repr, missing))}",
            g,
        )
    return _project_alg(g, cont, _Ctx())


def _project_alg(g: GlobalType, cont: SessionEnv, ctx: _Ctx) -> SessionEnv:
    # `cont` binds every role of `g`: `_project_top` builds it from the roles
    # of the type, and no `&`-elimination rewrite adds a role
    env = _project(g, dict(cont), ctx)
    out: SessionEnv = {}
    for role in sorted(env):
        t = env[role]
        assert _is_closed(t), f"projection left {role!r} open"
        out[role] = _normalized(t, role, g)
    return out


def project_top(g: GlobalType, budget: int = DEFAULT_AND_BUDGET) -> SessionEnv:
    """Project `g` with every role ending afterwards.  When `g` contains
    unordered composition, or plain projection fails, the sequential
    rewrites of `g` are tried in the order they are generated and the first
    success wins; the candidates after it are never built.  The candidates
    share one memo of the projections of their subterms.  A search that
    parts of `g` no rewrite changes prove hopeless builds no candidate, and
    its error says "0 candidates tried"."""
    return _project_top(g, budget, _Ctx())


def project_first(gs: Iterable[GlobalType], budget: int = DEFAULT_AND_BUDGET) -> SessionEnv | None:
    """The projection, as `project_top` gives it, of the first of `gs` that
    projects, or None if none does.  The searches of all of `gs` share one
    memo of projections, so types that differ in one place reuse the
    projections of what they have in common."""
    ctx = _Ctx()
    for g in gs:
        try:
            return _project_top(g, budget, ctx)
        except ProjectionError:
            continue
    return None


def _project_top(g: GlobalType, budget: int, ctx: _Ctx) -> SessionEnv:
    cont = {r: TEnd() for r in sorted(roles_of(g))}
    try:
        return _project_alg(g, cont, ctx)
    except ProjectionError as direct_error:
        # the search runs inside the handler, which unbinds `direct_error`
        # when it ends: this frame, held by the error's traceback, must not
        # hold the error too, or the two would form a reference cycle
        if ctx.memo is None:
            ctx.memo = {}
        rewrites: dict[GlobalType, list[GlobalType]] = {}
        both = _contains_both(g)
        kept = _kept_failure(g, cont, rewrites, ctx) if both else None
        if kept is not None:
            raise ProjectionError(
                AND_ELIMINATION_EXHAUSTED,
                f"no sequential rewrite projects (0 candidates tried): {kept}; "
                f"plain projection says: {direct_error}",
                g,
            ) from None
        tried = 0
        for cand in _sequential_rewrites(g, budget, rewrites):
            tried += 1
            try:
                return _project_alg(cand, cont, ctx)
            except ProjectionError:
                continue
        if not both:
            raise
        raise ProjectionError(
            AND_ELIMINATION_EXHAUSTED,
            f"no sequential rewrite projects ({tried} candidates tried); "
            f"plain projection says: {direct_error}",
            g,
        ) from None


def _kept_failure(
    g: GlobalType,
    cont: SessionEnv,
    rewrites: dict[GlobalType, list[GlobalType]],
    ctx: _Ctx,
) -> str | None:
    """Why no sequential rewrite of `g` projects against `cont`, found
    from the parts of `g` that no rewrite changes, or None when these
    parts prove nothing.  When `g` has a `;` root or a `*` loop, it
    enters each kept subterm of `g` in `rewrites`, mapped to no rewrite,
    as `_rewrites` would for the search that follows; it computes no
    other rewrite.  Without either, no part is kept that every candidate
    projects, and it returns None at once.

    A term is *kept* when `_rewrites` gives it no rewrite: when neither it
    nor any of its subterms has a root rewrite (`_root_rewrites`), so it
    holds no `&`, and no `|` whose sides are equal or are two `;` with
    equal left sides; nothing inside a kept term is ever rewritten.
    The *kept suffix* of a term is the term itself when it is kept, and
    otherwise the longest run of kept operands that ends its root `;`
    spine (`spine`; empty when the root is not a `;`).  The candidates
    are the two serializations and the terms the search reaches from `g`
    by single rewrites, each at one node of the term.

    (A) Kept tail.  Every candidate's root spine ends with the kept
    suffix K of `g`.  No rewrite acts at a `;` node, so one that acts
    inside the root spine acts inside one operand, which is not kept and
    so lies before K; the new operand's own spine takes the old one's
    place and K still ends the spine.  A serialization turns each `&`
    into a `;`, which adds operands in place of one that is not kept.
    `_project` folds a root spine from its right end, starting from the
    environment it is given, and `_project_alg` gives every candidate
    `cont`: so each candidate first projects K against `cont`, and if
    that raises, so does the candidate.

    (B) Dead loop.  Let L be a `*` loop in `g` and K the kept suffix of
    its body.  Every candidate holds a `*` loop whose body ends with K.
    A rewrite inside L's body keeps K as (A) shows; no rewrite acts at a
    `*`; and every rewrite at a node above L, or beside it, keeps each of
    its subterms whole in the term it builds, L included: a
    serialization or distribution of `&` (an unrolling of a `*` operand
    keeps the `*` beside its unrolled body, and a `loopk` operand
    unfolds into a term that holds each of its bodies and exits), and
    the merge or factoring of a `|`.  `_project` visits every subterm
    of a candidate, short of the bodies of loops with no roles, whose
    projection never fails.  At the loop, `_kexit` projects the body
    against fresh unknowns for the loop's roles, whatever follows the
    loop, without the memo; the body's projection folds K first, and
    projecting K depends only on the entries of its roles, which are
    fresh unknowns, and on which of them are equal, not on their names.
    So if K raises against fresh unknowns here, every candidate raises.
    A `loopk` gives no such proof, since an `&` above it unfolds it into
    a different loop with other bodies.

    Only `ProjectionError` is caught: a bound raised while checking
    propagates, and is never taken for a proof."""
    order = _postorder(g, ())
    # by first discovery from the root, each loop before the loops inside it
    loops = dict.fromkeys(t for t, _ in reversed(order) if type(t) is GStar)
    if type(g) is not GSeq and not loops:
        return None  # no kept tail, and no loop
    kept: set[GlobalType] = set()
    for t, subs in order:
        # only `&` and `|` have root rewrites, and an `&` always has
        k = type(t)
        if k is not GBoth and (k is not GEither or not _root_rewrites(t)) and kept.issuperset(subs):
            kept.add(t)
    rewrites.update((t, []) for t in kept)
    tail = _kept_suffix(g, kept)
    if tail is not None:
        try:
            _project(tail, dict(cont), ctx)
        except ProjectionError as exc:
            return f"every rewrite ends with {print_global_type(tail)}, whose projection says: {exc}"
    ctx.loops += 1
    try:
        for loop in reversed(loops):  # inner loops first
            tail = _kept_suffix(loop.body, kept)
            if tail is None:
                continue
            unknowns = {r: TVar(ctx.fresh()) for r in sorted(roles_of(loop))}
            try:
                _project(tail, unknowns, ctx)
            except ProjectionError as exc:
                if tail is loop.body:
                    return f"every rewrite keeps the loop {print_global_type(loop)}, whose body's projection says: {exc}"
                return (
                    f"every rewrite keeps {print_global_type(tail)} at the end of the body of the loop "
                    f"{print_global_type(loop)}, whose projection there says: {exc}"
                )
    finally:
        ctx.loops -= 1
    return None


def _kept_suffix(g: GlobalType, kept: set[GlobalType]) -> GlobalType | None:
    """`g` when it is in `kept`; else the longest run of operands in `kept`
    ending its root `;` spine, as one `;` term, or None when there is
    none."""
    if g in kept:
        return g
    if type(g) is not GSeq:
        return None
    ops = spine(g)
    n = len(ops)
    while n and ops[n - 1] in kept:
        n -= 1
    return reduce(GSeq, ops[n:]) if n < len(ops) else None


def _contains_both(g: GlobalType) -> bool:
    work = [g]
    while work:
        t = work.pop()
        if type(t) is GBoth:
            return True
        work += subterms(t)
    return False


# ---------------------------------------------------------------------------
# Rewriting unordered composition away
# ---------------------------------------------------------------------------


def _sequential_rewrites(
    g: GlobalType,
    budget: int,
    rewrites: dict[GlobalType, list[GlobalType]] | None = None,
) -> Iterator[GlobalType]:
    """`&`-free rewrites of `g` other than `g` itself, built one at a time,
    each yielded once, each denoting a sublanguage of (or the same language
    as) `g`'s traces: the two whole-type serializations first, then every
    `&`-free term of the breadth-first search from `g` under the
    distributing rewrites, in the order the search visits them.  The search
    visits at most `budget` terms, `g` included: once it has, it stops
    expanding, and the terms it has visited are still yielded.  The
    rewrites of a subterm are computed once and shared by every term of the
    search that contains it, in `rewrites` when it is given."""
    seen: set[GlobalType] = {g}
    if rewrites is None:
        rewrites = {}

    def fresh(t: GlobalType) -> bool:
        if t in seen or _contains_both(t):
            return False
        seen.add(t)
        return True

    for left_first in (True, False):
        t = _serialize_all(g, left_first)
        if fresh(t):
            yield t

    queue = [g]  # the visited terms, in the order visited; grows as it is read
    visited: set[GlobalType] = {g}
    for t in queue:
        if fresh(t):
            yield t
        if len(queue) >= budget:
            continue
        for t2 in _rewrites(t, rewrites):
            if t2 not in visited:
                visited.add(t2)
                queue.append(t2)
                if len(queue) >= budget:
                    break


def _serialize_all(g: GlobalType, left_first: bool) -> GlobalType:
    """`g` with every `&` made a `;`, its left operand first if
    `left_first`, rebuilt in the order `_postorder` lists its subterms."""
    built: dict[int, GlobalType] = {}  # by the id of the subterm rebuilt
    for t, subs in _postorder(g, ()):
        new = [built[id(x)] for x in subs]
        if type(t) is GBoth:
            a, b = new
            built[id(t)] = GSeq(a, b) if left_first else GSeq(b, a)
        else:
            built[id(t)] = with_subterms(t, new)
    return built[id(g)]


def _rewrites(g: GlobalType, memo: dict[GlobalType, list[GlobalType]]) -> list[GlobalType]:
    """All single-step rewrites of `g`: at the root, the serializations and
    distributions of `&` plus factoring of a common alternative prefix; in
    context, the rewrites of every immediate subterm.  `memo` holds the
    rewrites of the terms seen so far; those of the others are filled in
    in the order `_postorder` lists them."""
    for t, subs in _postorder(g, memo):
        out = memo[t] = _root_rewrites(t)  # a term listed twice is filled twice, alike
        for i, x in enumerate(subs):
            for x2 in memo[x]:
                out.append(with_subterms(t, subs[:i] + (x2,) + subs[i + 1 :]))
    return memo[g]


def _postorder(g: GlobalType, done) -> list[tuple[GlobalType, tuple[GlobalType, ...]]]:
    """Each subterm of `g` that is not in `done`, with its immediate
    subterms, listed after its own subterms and once per occurrence.  The
    walk takes subterms off one explicit stack, so a term of any depth
    is listed, and it enters no subterm of a term in `done`."""
    order, work = [], [g]
    while work:
        t = work.pop()
        if t not in done:
            subs = subterms(t)
            order.append((t, subs))
            work += subs
    order.reverse()
    return order


def _root_rewrites(g: GlobalType) -> list[GlobalType]:
    """The rewrites of `g` at its root: the serializations and distributions
    of an `&`, and the merge or factoring of a `|` whose sides are equal or
    are two `;` with equal left sides."""
    out: list[GlobalType] = []
    match g:
        case GBoth(l, r):
            out.append(GSeq(l, r))
            out.append(GSeq(r, l))
            for a, b, flip in ((l, r, False), (r, l, True)):
                def both(x: GlobalType, y: GlobalType) -> GlobalType:
                    return GBoth(y, x) if flip else GBoth(x, y)

                match a:
                    case GSkip():
                        out.append(b)
                    case GEither(x, y):
                        out.append(GEither(both(x, b), both(y, b)))
                    case GSeq(x, y):
                        out.append(GSeq(both(x, b), y))
                        out.append(GSeq(x, both(y, b)))
                    case GStar(x):
                        out.append(GEither(GSeq(both(x, b), GStar(x)), b))
                        out.append(GEither(GSeq(GStar(x), both(x, b)), b))
                    case GKExit(bodies, exits):
                        out.append(both(kexit_unfolding(bodies, exits), b))
        case GEither(l, r) if l == r:
            out.append(l)
        case GEither(GSeq(a, b), GSeq(a2, c)) if a == a2:
            out.append(GSeq(a, GEither(b, c)))
    return out
