"""Projection of global types onto per-role session types.

Projection is syntax-directed and runs right-to-left: every rule takes the
environment of continuations describing what each role does *after* the
current subterm, and returns the environment describing what each role does
from the current subterm onward.

An alternative is a whole `|` spine (`spine`), however it is grouped,
projected in one frame: of the roles whose branches differ, exactly one
must start with outputs in every branch, and its distinct branches form
one internal choice; every other role's branches are merged in one step.
A merge is a set and the decider must open every operand, so no grouping
of the spine projects differently.  Iterations (`*` and `loopk`)
introduce one recursion unknown per decision point and per spectating role;
since a spectator's merge may involve the still-open recursion unknowns,
such merges are deferred (kept as symbolic merge nodes) and resolved by the
state-machine normalizer once the enclosing recursions are closed.  Each
loop body is projected once, against fresh unknowns for what follows it;
every choice of decision roles tried takes some of those unknowns as its
recursion unknowns, renames the others to them (a `*` loop renames none),
and assembles the recursion from the same projections.  Each role's merge
of what it does on leaving and on going round is checked first, on the
projections as they are, so a choice whose merge fails, as most failing
choices do on the root kinds of the pieces, is rejected before any piece
is renamed (see `_kexit_build`).

Unordered composition has no projection rule of its own: `project_top`
rewrites `&` away (serializations first, then distributing rewrites
breadth-first) and projects the first rewrite that succeeds.  The
candidates are generated lazily and tried in the order they are generated,
so none is built after the first that projects.  The search runs over
hash-consed terms (`_Terms`) in which a `;`, `|` or `&` node is a whole
spine: each distinct term is one integer id in a table of its context,
however its spines are grouped, so comparing and deduplicating terms is
comparing ints, whether a term holds `&` is a flag of its id, and
rebuilding a node is one dict lookup; only the candidates projected become
`GlobalType`s, built from shared subterm objects.  The rewrites act on a
spine's operands, so the parentheses of a type change neither the
candidates nor their order, and no two candidates are one type grouped two
ways.  The rewrites of each id are computed once per context, however
many candidates contain it, and so is the projection of each subterm
against each environment of closed types it meets (outside loop bodies):
the candidates share one memo of projections, and `project_first` shares
it, and the table, across the searches of several types, such as the
relaxations one `classify` tries.  The memo and the table are built only
once the direct projection has failed, so a type that projects directly
pays nothing for them.  Before the search of a type with `&` builds any
candidate, the parts of the type that no rewrite changes are projected:
when the tail of its root `;` spine, or the end of a `*` loop's body,
fails there, every candidate fails, and the search is skipped (see
`_kept_failure`).
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
    fold,
    free_type_vars,
    parts,
    postorder,
    print_global_type,
    rebuild,
    roles_of,
    spine,
    subterms,
)
from .tracelang import DEFAULT_AND_BUDGET, BudgetExceededError

NO_DECISION_MAKER = "NoDecisionMaker"
INCOMPATIBLE_MERGE = "IncompatibleMerge"
OUTPUT_MISMATCH = "OutputMismatch"
UNBOUND_CONTINUATION = "UnboundContinuation"
AND_ELIMINATION_EXHAUSTED = "AndEliminationExhausted"

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
    syntax can produce.  `memo` and `terms` are None until an
    `&`-elimination search starts.  `memo` then maps (subterm,
    environment) to the environment or the error fields `(kind, detail,
    location)` that projecting the subterm gave.  It is read only where
    `loops` is 0, i.e. outside loop bodies: there every value of the
    environment is closed, while a loop body's environment holds unknowns
    that are fresh on every call.  Names in a memoized result cannot meet
    the same name later, since one context serves every candidate of a
    search.  `terms` is the table of hash-consed terms (`_Terms`) that
    every search of the context builds its candidates in, so the searches
    share their ids, one per term however its spines are grouped, and the
    rewrites of each."""

    def __init__(self) -> None:
        self.counter = 0
        self.memo: dict[tuple[GlobalType, frozenset], SessionEnv | tuple] | None = None
        self.terms: _Terms | None = None
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
        return machine.normalize_session_type(TMerge((t, s)))
    except ValueError as exc:
        raise ProjectionError(INCOMPATIBLE_MERGE, str(exc)) from None


def _normalized(t: SessionType, role: Role, loc: GlobalType | None) -> SessionType:
    try:
        return machine.normalize_session_type(t)
    except ValueError as exc:
        raise ProjectionError(INCOMPATIBLE_MERGE, f"role {role!r}: {exc}", loc) from None


def _merge_terms(ts: list[SessionType], role: Role, loc: GlobalType | None) -> SessionType:
    """The merge of the (possibly open) behaviour terms `ts` of `role`, in
    one step: duplicates are dropped, root kinds are compared left to
    right, and the merge is normalized once when every term is closed, or
    else kept as one deferred merge node.  A merge is a set of behaviours
    (`TMerge` flattens, and the resolver keys a merge by its operands), so
    the result does not depend on how `ts` was grouped; only which of
    several faults is named depends on their order."""
    ts = list(dict.fromkeys(ts))
    if len(ts) == 1:
        return ts[0]
    kinds = list(dict.fromkeys(k for k in map(machine.root_kind, ts) if k is not None))
    if len(kinds) > 1:
        raise ProjectionError(
            INCOMPATIBLE_MERGE,
            f"role {role!r} would have to follow both a {kinds[0]!r}-rooted and "
            f"a {kinds[1]!r}-rooted behaviour",
            loc,
        )
    if all(map(_is_closed, ts)):
        return _normalized(TMerge(ts), role, loc)
    return TMerge(ts)


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
        k = type(g)
        if k is GAction:
            i = g.interaction
            out = dict(env)
            for s in i.senders:
                out[s] = TOut(i.receiver, i.message, env[s])
            out[i.receiver] = TIn(i.senders, i.message, env[i.receiver])
        elif k is GSeq:
            # the whole `;` spine, right to left, in this one frame
            out = env
            for x in reversed(spine(g)):
                out = _project(x, out, ctx)
        elif k is GEither:
            # the whole `|` spine, however it is grouped, in this one frame
            out = _alternative(g, [_project(x, env, ctx) for x in spine(g)])
        elif k is GSkip:
            out = env
        elif k is GStar:
            out = _kexit(g, (g.body,), (GSkip(),), env, ctx)
        elif k is GKExit:
            out = _kexit(g, g.bodies, g.exits, env, ctx)
        elif k is GBoth:
            raise ProjectionError(
                AND_ELIMINATION_EXHAUSTED,
                "unordered composition has no direct projection rule",
                g,
            )
        else:
            raise TypeError(f"not a global type: {g!r}")
    except ProjectionError as exc:
        # the fields, not the error: its traceback would hold these frames
        if key is not None:
            ctx.memo[key] = (exc.kind, exc.detail, exc.location)
        raise
    if key is not None:
        ctx.memo[key] = out
    return out


def _alternative(g: GlobalType, envs: list[SessionEnv]) -> SessionEnv:
    """The projection of the `|` spine `g` from those of its operands,
    `envs`, in one step.  The roles whose branches are not all equal
    differ; of them exactly one, the decider, must start with outputs in
    every branch, and its distinct branches form one internal choice.  The
    branches of every other differing role are merged in one
    `_merge_terms`.  Both the decider, which must open every operand, and
    the merges, which are sets, read the operands as a set, so `g` projects
    as every grouping of its spine would."""
    roles = sorted(envs[0])
    columns = zip(*[[e[r] for r in roles] for e in envs])
    branches = {r: list(dict.fromkeys(column)) for r, column in zip(roles, columns)}
    diff = [r for r in roles if len(branches[r]) > 1]
    if not diff:
        return envs[0]
    deciders = [r for r in diff if all(machine.root_kind(t) == "out" for t in branches[r])]
    if len(deciders) > 1:
        raise ProjectionError(
            NO_DECISION_MAKER,
            f"roles {', '.join(map(repr, deciders))} could all signal which "
            "branch was taken; the choice must rest with exactly one role",
            g,
        )
    two = len(envs) == 2
    if not deciders:
        if len(diff) == 1:
            r = diff[0]
            raise ProjectionError(
                OUTPUT_MISMATCH,
                f"role {r!r} behaves differently in {'the two' if two else 'the'} branches but "
                f"does not start with outputs in {'both' if two else 'every branch'}, so it "
                "cannot signal the choice",
                g,
            )
        raise ProjectionError(
            NO_DECISION_MAKER,
            f"no role starts with outputs in {'both branches' if two else 'every branch'}; "
            f"differing roles: {', '.join(map(repr, diff))}",
            g,
        )
    d = deciders[0]
    return {r: TInternal(branches[r]) if r == d else _merge_terms(branches[r], r, g) for r in roles}


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
    """The loop `g` with phase i decided by `deciders[i]`, assembled from
    the projections of its exits (`exit_envs`) and of its bodies
    (`body_envs`), body i projected against the unknowns `after[i]`.  Body
    i continues into phase i + 1: into that phase's decider, and into its
    own recursion unknown for every other role.  Each role merges what it
    does on leaving and on going round the phases it does not decide.

    No unknown is drawn: each phase's decider unknown is the unknown for
    what its decider does after the body before it, and each role's
    recursion unknown is the unknown for what it does after the first body
    whose next phase it does not decide.  Only the other body unknowns are
    renamed, each to its role's recursion unknown, so a `*` loop, which
    has one phase, renames nothing.

    The merges are checked, role by role, on the body projections as they
    are, before any piece is renamed, so an assignment whose merge fails,
    most often on root kinds, renames nothing.  The check raises the error
    the renamed merges would.  Renaming replaces unknowns with unknowns: it
    changes neither a piece's root kind (`machine.root_kind` reads no
    unknown) nor whether the piece is closed, and it leaves a closed piece
    equal.  Pieces that it makes equal have one root kind, so the kinds
    named are the same.  A body piece renames to the role's own recursion
    unknown, which is no piece of its merge, exactly when it is the unknown
    for what follows the body and the role does not decide the next phase.
    So each role's merge fails on its kinds, or on normalizing its pieces
    when all are closed, exactly when the renamed merge does, and the merge
    of closed pieces is the renamed one.  When no role fails, only the open
    pieces and the deciders' pieces are renamed."""
    k = len(deciders)

    def pieces(r: Role, names: dict[str, SessionType] | None = None) -> list[SessionType]:
        out = []
        for i in range(k):
            if deciders[i] != r:
                out.append(exit_envs[i][r])
                t = body_envs[i][r]
                if t != TVar(after[i][r]) or r == deciders[(i + 1) % k]:
                    out.append(_subst(t, names) if names else t)
        return out

    merged: dict[Role, SessionType] = {}
    for r in roles:
        ts = pieces(r)
        # with no pieces, r decides every phase, and its recursion unknown
        # is never referenced
        merged[r] = _merge_terms(ts, r, g) if ts else TEnd()

    dvar = [after[i - 1][deciders[i]] for i in range(k)]
    rvar: dict[Role, str] = {}  # no entry for a role that decides every phase
    names: dict[str, SessionType] = {}  # one renaming serves all bodies
    for i in range(k):
        for r in roles:
            if r != deciders[(i + 1) % k]:
                x = rvar.setdefault(r, after[i][r])
                if x != after[i][r]:
                    names[after[i][r]] = TVar(x)
    defs: dict[str, SessionType] = {}
    for i in range(k):
        p = deciders[i]
        go_on = _subst(body_envs[i][p], names) if names else body_envs[i][p]
        leave = exit_envs[i][p]
        defs[dvar[i]] = go_on if go_on == leave else TInternal((go_on, leave))
    for r, x in rvar.items():
        t = merged[r]
        defs[x] = t if not names or _is_closed(t) else _merge_terms(pieces(r, names), r, g)

    result = dict(env)
    for r, x in rvar.items():
        if r != deciders[0]:
            result[r] = _subst(TVar(x), defs)
    result[deciders[0]] = _subst(TVar(dvar[0]), defs)

    # outside loop bodies the environment is closed, and so is every result
    for r in roles:
        if not ctx.loops or _is_closed(result[r]):
            result[r] = _normalized(result[r], r, g)
    return result


def _subst(t: SessionType, defs: dict[str, SessionType]) -> SessionType:
    """`t` with each unknown of `defs` replaced by its definition, in which
    the unknowns are replaced in turn; a definition that refers back to its
    own unknown is bound by `rec` there.  A canonical subterm, being
    closed, is kept as it is.  An unknown whose definition refers to no
    other unknown of `defs` is its definition, bound by `rec` when it
    refers to itself, without a walk that rebuilds it."""
    if type(t) is TVar and t.name in defs:
        body = defs[t.name]
        names = free_type_vars(body)
        if all(x == t.name or x not in defs for x in names):
            return TRec(t.name, body) if t.name in names else body

    def step(node: SessionType, replacing: frozenset, new: list | None):
        # `replacing` holds the unknowns being replaced around `node`
        if type(node) is not TVar:
            return node if machine.is_canonical(node) else (parts(node), replacing)
        if new is not None:
            body = new[0]
            return TRec(node.name, body) if node.name in free_type_vars(body) else body
        if node.name in defs and node.name not in replacing:
            return (defs[node.name],), replacing | {node.name}
        return node

    return rebuild(t, step, frozenset())


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
    share one memo of the projections of their subterms.  Direct
    projection and the search both read each `;`, `|` and `&` spine whole,
    so every grouping of `g` gives the same environment, or an error of
    the same kind and detail, candidate count included; only the terms an
    error prints show their grouping.  A search that parts of `g` no
    rewrite changes prove hopeless builds no candidate, and its error says
    "0 candidates tried"."""
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
            ctx.memo, ctx.terms = {}, _Terms()
        terms = ctx.terms
        root = terms.intern(g)
        both = terms.both[root]
        kept = _kept_failure(terms, root, cont, ctx) if both else None
        if kept is not None:
            raise ProjectionError(
                AND_ELIMINATION_EXHAUSTED,
                f"no sequential rewrite projects (0 candidates tried): {kept}; "
                f"plain projection says: {direct_error}",
                g,
            ) from None
        tried = 0
        for cand in _sequential_rewrites(terms, root, budget):
            tried += 1
            try:
                return _project_alg(terms.term(cand), cont, ctx)
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


def _kept_failure(terms: _Terms, g: int, cont: SessionEnv, ctx: _Ctx) -> str | None:
    """Why no sequential rewrite of the term `g` of `terms` projects
    against `cont`, found from the parts of `g` that no rewrite changes,
    or None when these parts prove nothing.  Without a `;` root or a `*`
    loop, no part is kept that every candidate projects, and it returns
    None at once.

    A term is *kept* (the table's `kept` flag, set when the term is
    added) when `_Terms.rewrites` gives it no rewrite: when neither it nor
    any of its subterms has a root rewrite (`_Terms._root_rewrites`), so
    it holds no `&`, and no `|` two of whose `;` operands share their
    first operand; nothing inside a kept term is ever rewritten.  The
    *kept suffix* of a term is the term itself when it is kept, and
    otherwise the longest run of kept operands that ends its root `;`
    spine (the table's operands of a `;` node; empty when the root is not
    a `;`).  The candidates are the two serializations and the terms the
    search reaches from `g` by single rewrites, each at one node of the
    term.

    (A) Kept tail.  Every candidate's root spine ends with the kept
    suffix K of `g`.  No rewrite acts at a `;` node, so one that acts
    inside the root spine acts inside one operand, which is not kept and
    so lies before K; the new operand takes the old one's place, a new
    `;` spliced in as its operands, and K still ends the spine.  A
    serialization turns each `&` spine into a `;`, which adds operands in
    place of one that is not kept.  `_project` folds a root spine from
    its right end, starting from the environment it is given, and
    `_project_alg` gives every candidate `cont`: so each candidate first
    projects K against `cont`, and if that raises, so does the candidate.

    (B) Dead loop.  Let L be a `*` loop in `g` and K the kept suffix of
    its body.  Every candidate holds a `*` loop whose body ends with K.
    A rewrite inside L's body keeps K as (A) shows; no rewrite acts at a
    `*`; and every rewrite at a node above L, or beside it, keeps each of
    its subterms whole in the term it builds, L included: a
    serialization or distribution of `&` (an unrolling of a `*` operand
    keeps the `*` beside its unrolled body, and a `loopk` operand
    unfolds into a term that holds each of its bodies and exits), and
    the factoring of a `|`.  Splicing a spine into another keeps each
    operand whole, and a `|` that drops a repeated operand keeps one copy
    of it.  `_project` visits every subterm of a candidate, short of the
    bodies of loops with no roles, whose projection never fails.  At the
    loop, `_kexit` projects the body against fresh unknowns for the
    loop's roles, whatever follows the loop, without the memo; the body's
    projection folds K first, and projecting K depends only on the
    entries of its roles, which are fresh unknowns, and on which of them
    are equal, not on their names.  So if K raises against fresh unknowns
    here, every candidate raises.  A `loopk` gives no such proof, since an
    `&` above it unfolds it into a different loop with other bodies.

    Only `ProjectionError` is caught: a bound raised while checking
    propagates, and is never taken for a proof."""
    kind, subs = terms.kind, terms.subs
    # by first discovery from the root, each loop before the loops inside it
    loops = dict.fromkeys(t for t, _ in reversed(postorder(g, subs.__getitem__)) if kind[t] is GStar)
    if kind[g] is not GSeq and not loops:
        return None  # no kept tail, and no loop
    tail = _kept_suffix(terms, g)
    if tail is not None:
        try:
            _project(terms.term(tail), dict(cont), ctx)
        except ProjectionError as exc:
            return f"every rewrite ends with {print_global_type(terms.term(tail))}, whose projection says: {exc}"
    ctx.loops += 1
    try:
        for loop in reversed(loops):  # inner loops first
            (body,) = subs[loop]
            tail = _kept_suffix(terms, body)
            if tail is None:
                continue
            star = terms.term(loop)
            unknowns = {r: TVar(ctx.fresh()) for r in sorted(roles_of(star))}
            try:
                _project(terms.term(tail), unknowns, ctx)
            except ProjectionError as exc:
                if tail == body:
                    return f"every rewrite keeps the loop {print_global_type(star)}, whose body's projection says: {exc}"
                return (
                    f"every rewrite keeps {print_global_type(terms.term(tail))} at the end of the body of the loop "
                    f"{print_global_type(star)}, whose projection there says: {exc}"
                )
    finally:
        ctx.loops -= 1
    return None


def _kept_suffix(terms: _Terms, g: int) -> int | None:
    """`g` when it is kept; else the longest run of kept operands ending
    its root `;` spine, as one `;` term, or None when there is none."""
    if terms.kept[g]:
        return g
    if terms.kind[g] is not GSeq:
        return None
    ops = terms.subs[g]
    n = len(ops)
    while n and terms.kept[ops[n - 1]]:
        n -= 1
    return terms.node((GSeq, *ops[n:])) if n < len(ops) else None


# ---------------------------------------------------------------------------
# Rewriting unordered composition away
# ---------------------------------------------------------------------------


class _Terms:
    """The terms of `&`-elimination searches, hash-consed (Filliâtre and
    Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006) modulo
    the associativity of `;`, `|` and `&`: each distinct term is one
    integer id, so two terms are equal exactly when their ids are.  A node
    is found, or added, by its key: its constructor and its children's ids
    (an interaction's key holds the interaction).  A `;`, `|` or `&` node
    is a whole spine, its children the spine's operands: `node` replaces
    an operand of the node's own kind by its operands, keeps the first of
    each repeated operand of a `|`, and gives a spine of one operand as
    that operand.  So every grouping of a term is one id, and a `|` that
    repeats an operand is the `|` that does not.  The trace semantics
    makes each of these one language (`|` is union and `&` shuffle), and
    a search, which reads ids alone, does the same on each.

    When an id is added, its constructor (`kind`), its children's ids in
    order, a loop's bodies first (`subs`), whether it holds `&` (`both`),
    whether it has a root rewrite (`rooted`: an `&`, or a `|` two of
    whose `;` operands share their first operand) and whether it is kept
    (`kept`, see `_kept_failure`) are stored with it.  Its `GlobalType`
    (`term`) and its rewrites (`rewrites`) are computed when first asked
    for and kept while the table lives, which is one context's life."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.kind: list[type] = []
        self.subs: list[tuple[int, ...]] = []
        self.both: list[bool] = []
        self.kept: list[bool] = []
        self.rooted: list[bool] = []
        self.terms: dict[int, GlobalType] = {}
        self.rewritten: dict[int, list[int]] = {}

    def node(self, key: tuple) -> int:
        """The id of the node whose key is `key`, added if it is new; a
        spine's key is flattened first."""
        i = self.ids.get(key)
        if i is not None:
            return i
        k, kind, subs = key[0], self.kind, self.subs
        if k is GSeq or k is GEither or k is GBoth:
            ops = [y for c in key[1:] for y in (subs[c] if kind[c] is k else (c,))]
            flat = (k, *(dict.fromkeys(ops) if k is GEither else ops))
            if len(flat) == 2:
                return flat[1]
            i = None if flat == key else self.ids.get(flat)
            return self._add(flat) if i is None else i
        return self._add(key)

    def _add(self, key: tuple) -> int:
        """The id of the new node whose key, flattened, is `key`, added."""
        k, kind, subs = key[0], self.kind, self.subs
        i = self.ids[key] = len(kind)
        cs = () if k is GAction else key[1:]
        # a `|` with two `;` operands of one first operand has a factoring
        firsts = [subs[c][0] for c in cs if kind[c] is GSeq] if k is GEither else ()
        rooted = k is GBoth or len(firsts) > 1 and len(set(firsts)) < len(firsts)
        both, kept = k is GBoth, not rooted
        for c in cs:
            both = both or self.both[c]
            kept = kept and self.kept[c]
        kind.append(k)
        subs.append(cs)
        self.both.append(both)
        self.kept.append(kept)
        self.rooted.append(rooted)
        return i

    def intern(self, g: GlobalType) -> int:
        """The id of `g`, each spine of `g` read whole (`spine`); each id it
        adds keeps its subterm of `g` as its term."""

        def step(t: GlobalType, ids: list[int]) -> int:
            k = type(t)
            i = self.node((k, t.interaction) if k is GAction else (k, *ids))
            self.terms.setdefault(i, t)
            return i

        return fold(g, step, lambda t: spine(t) if type(t) in (GSeq, GEither, GBoth) else subterms(t))

    def term(self, i: int) -> GlobalType:
        """The `GlobalType` of id `i`, built from those of its children, a
        spine nested to the left as the parser nests it."""
        terms, kind = self.terms, self.kind
        # every leaf was interned from a term, so only compound nodes are built
        for j, subs in postorder(i, self.subs.__getitem__, done=terms):
            new = [terms[c] for c in subs]
            k = kind[j]
            if k is GKExit:
                n = len(new) // 2
                terms[j] = GKExit(tuple(new[:n]), tuple(new[n:]))
            else:
                terms[j] = GStar(*new) if k is GStar else reduce(k, new)
        return terms[i]

    def serialized(self, i: int, left_first: bool) -> int:
        """Id `i` with every `&` spine made a `;` of its operands, in order
        if `left_first` and else reversed, rebuilt bottom-up (`syntax.fold`)
        where it holds `&`."""
        kind, subs, both = self.kind, self.subs, self.both

        def step(j: int, new: list[int]) -> int:
            if not both[j]:
                return j
            if kind[j] is GBoth:
                return self.node((GSeq, *(new if left_first else reversed(new))))
            return self.node((kind[j], *new))

        return fold(i, step, lambda j: subs[j] if both[j] else ())

    def rewrites(self, i: int) -> list[int]:
        """All single-step rewrites of id `i`: at the root,
        `_root_rewrites`; in context, those of each child in turn, each in
        its place.  A kept id has none.  The rewrites of the ids not seen
        yet are filled in the order `syntax.postorder` lists them."""
        memo, get, add, node, kind, subs, kept, rooted = (
            self.rewritten, self.ids.get, self._add, self.node, self.kind, self.subs, self.kept, self.rooted
        )
        for j, s in postorder(i, lambda j: () if kept[j] else subs[j], done=memo):
            out = memo[j] = self._root_rewrites(j) if rooted[j] else []  # filled alike if listed twice
            k = kind[j]
            spliced = k is GSeq or k is GEither or k is GBoth
            for n, x in enumerate(s):
                head, tail = (k, *s[:n]), s[n + 1 :]
                for x2 in memo[x]:
                    # a spine takes a new child of its own kind as operands
                    flat = spliced and kind[x2] is k
                    key = (*head, *subs[x2], *tail) if flat else (*head, x2, *tail)
                    new = get(key)
                    if new is None:
                        # where a `|` may hold an operand twice, `node` drops it
                        new = node(key) if k is GEither and (flat or x2 in s) else add(key)
                    out.append(new)
        return memo[i]

    def _root_rewrites(self, i: int) -> list[int]:
        """The rewrites of the rooted id `i` at its root.  Of an `&`
        spine: each operand taken first and taken last (`a ; (the rest)`
        and `(the rest) ; a`), then, for each operand in turn, the `&` of
        the others distributed into it, in its place: into each operand of
        a `|`, into each operand of a `;` in turn, into the body of a `*`
        unrolled once before or after the loop, or into the unfolding of a
        `loopk`; a `skip` operand is dropped.  Of a `|` spine: each maximal
        set of `;` operands that share their first operand factored, as one
        operand where its first member stood."""
        node, kind, subs = self.node, self.kind, self.subs
        ops = subs[i]
        if kind[i] is GEither:
            firsts: dict[int, list[int]] = {}
            for x in ops:
                if kind[x] is GSeq:
                    firsts.setdefault(subs[x][0], []).append(x)
            out = []
            for a, xs in firsts.items():
                if len(xs) > 1:
                    factored = node((GSeq, a, node((GEither, *(node((GSeq, *subs[x][1:])) for x in xs)))))
                    out.append(node((GEither, *(factored if x == xs[0] else x for x in ops if x == xs[0] or x not in xs))))
            return out
        rests = [node((GBoth, *ops[:n], *ops[n + 1 :])) for n in range(len(ops))]
        out = list(dict.fromkeys(x for a, rest in zip(ops, rests) for x in (node((GSeq, a, rest)), node((GSeq, rest, a)))))
        for n, (a, rest) in enumerate(zip(ops, rests)):

            def both(x: int) -> int:
                return node((GBoth, *ops[:n], x, *ops[n + 1 :]))

            k = kind[a]
            if k is GSkip:
                out.append(rest)
            elif k is GEither:
                out.append(node((GEither, *map(both, subs[a]))))
            elif k is GSeq:
                xs = subs[a]
                out += (node((GSeq, *xs[:m], both(x), *xs[m + 1 :])) for m, x in enumerate(xs))
            elif k is GStar:
                (x,) = subs[a]
                out.append(node((GEither, node((GSeq, both(x), a)), rest)))
                out.append(node((GEither, node((GSeq, a, both(x))), rest)))
            elif k is GKExit:
                out.append(both(self._unfolding(a)))
        return out

    def _unfolding(self, i: int) -> int:
        """The id of `(B1;..;Bk)* ; (E1 | B1;E2 | .. | B1;..;B(k-1);Ek)`,
        which has the traces of the loop `i`, `loopk (B1..Bk) exit
        (E1..Ek)`: each arm one `;` spine."""
        node, subs = self.node, self.subs[i]
        bodies, exits = subs[: len(subs) // 2], subs[len(subs) // 2 :]
        arms = (node((GSeq, *bodies[:n], e)) for n, e in enumerate(exits))
        return node((GSeq, node((GStar, node((GSeq, *bodies)))), node((GEither, *arms))))


def _sequential_rewrites(terms: _Terms, g: int, budget: int) -> Iterator[int]:
    """`&`-free rewrites of the term `g` of `terms` other than `g`
    itself, built one at a time, each yielded once, each denoting a
    sublanguage of (or the same language as) `g`'s traces: the two
    whole-type serializations first, then every `&`-free term of the
    breadth-first search from `g` under the distributing rewrites, in the
    order the search visits them.  The search visits at most `budget`
    terms, `g` included: once it has, it stops expanding, and the terms it
    has visited are still yielded.  The rewrites of a term are computed
    once per table and shared by every term of every search that contains
    it.

    The budget bounds the search's work, not only the terms it keeps.  An
    `&` spine of n operands has n! serializations, but the search reaches
    each as a term of its own, one rewrite at a time, and each term it
    reaches takes a place in the budget.  It expands (asks `rewrites` of)
    a term only while fewer than `budget` are visited, so it expands at
    most `budget` terms.  The rewrites of a term t are the root rewrites
    of its nodes, each in its place.  A spine of n operands, which have m
    operands of their own in all, has at most 4n + m root rewrites: an
    `&` at most 2n serializations and, for each operand, one
    distribution, two for a `*`, or one per operand of a `;`; a `|` at
    most one factoring per operand.  Any other node has none.  A root
    rewrite at a node v builds at most as many ids as v has operands and
    operands' operands, or as a `loopk` operand has arms, and it is one
    entry, one id, in the list of each node above v.  So a term of s
    child places, counted once per place, has at most 5s rewrites, and
    expanding it adds O(s^2) ids to the table, however many orderings its
    `&` spines have.  For an `&` spine of n interactions, every term the
    search visits is a `;` of interactions and `&` spines of them, and an
    expansion adds at most 6n ids: an `&` of k interactions has at most 2k
    serializations, each adding at most the `&` of the rest, the `;` and
    its key at the root."""
    both = terms.both
    seen: set[int] = {g}

    def fresh(t: int) -> bool:
        if t in seen or both[t]:
            return False
        seen.add(t)
        return True

    for left_first in (True, False):
        t = terms.serialized(g, left_first)
        if fresh(t):
            yield t

    queue = [g]  # the visited terms, in the order visited; grows as it is read
    visited: set[int] = {g}
    for t in queue:
        if fresh(t):
            yield t
        if len(queue) >= budget:
            continue
        for t2 in terms.rewrites(t):
            if t2 not in visited:
                visited.add(t2)
                queue.append(t2)
                if len(queue) >= budget:
                    break
