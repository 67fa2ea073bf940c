"""Finite-state resolution of session types.

A closed session type denotes a regular tree of communication actions.  This
module elaborates a type term (possibly containing deferred merges) into a
finite state machine, checks the session-type sanity conditions on it,
minimizes it, and reads back a canonical term.  Everything else in the
package (equality, merging, input-compatibility, the session simulator)
works on top of this.

States of the machine are hash-consed expressions over term nodes:

* ``("p", i)`` — the behaviour of the term node with object id ``i``;
* ``("j", K)`` — the join of the behaviours in the key set ``K``
  (distribution of a prefix over the branches of a choice);
* ``("m", K)`` — the merge of the behaviours in the key set ``K``:
  pointwise on outputs (which must offer identical choices), pointwise on
  shared inputs with exclusive inputs kept, provided each exclusive input
  is compatible with each part that lacks it.

States are keyed by node identity, so resolution keeps the sharing of
the term it is given: a subterm that several parents share is one state,
however many paths reach it, and a term whose continuations are shared
resolves in the states of its graph, not of the tree it unfolds to.  A
`rec` node is keyed as its body and a variable as its binder's body
(`_Resolver._pkey`), so a variable is its binder's state and never a
second state of the behaviour it names; a walk from a variable that
meets only binders and variables has come round an unguarded loop, and
keys the variable itself, whose closure finds no prefix and raises as
before.
Freshening (`_freshen`), which gives each `rec` binder a name of its own
so that a variable names one binder, renames only on a clash: a term
whose distinct `rec` nodes have distinct names and whose variables are
all bound is resolved as it is, and only a term with two `rec` nodes of
one name is rebuilt, with every binder renamed.

One constructor, `_Resolver._key`, builds both composite keys.  It
replaces a part that has the key's own tag by that part's parts, and a
set of one part is that part, so no join has a join part and no merge a
merge part.  The parts of a key are kept in the order first met.

Flattening keeps what a merge of two keys decides, since that merge,
``x ⊓ y``, is associative, commutative and idempotent in its verdicts
wherever each exclusive input is from one role (the case of several
roles follows the proof):

* Kinds.  ``x ⊓ y`` has a kind only when ``x`` and ``y`` have the same
  one, and, for outputs, the same branch keys.  Its branch keys are the
  union of theirs.  Equality and union are associative, commutative and
  idempotent, so every grouping of the same parts has a kind iff all the
  parts have one (and one output set), and then the same kind and keys.
* Successors.  The successor of ``x ⊓ y`` by a branch key is the merge
  of the successors of the parts that have that key.  So the state that
  any grouping reaches by a path is a grouping of the states its parts
  reach by it, and, by the point above and coinduction, every grouping
  has the same branches everywhere and minimizes to the same machine.
* Compatibility.  Each state on a path from ``x ⊓ y`` offers the union
  of what its parts offer, so a path from ``x ⊓ y`` is a path from ``x``
  or from ``y``, and a message ``a`` from ``p`` is compatible with ``x ⊓
  y`` iff it is with ``x`` and with ``y``.  An exclusive input from one role ``p`` of a
  grouping ``L ⊓ R`` is then compatible with ``R`` iff it is with each
  part of ``R``.  Each ordered pair of distinct parts is split by some
  grouping node, between a side that has the input and one that lacks
  it, so a grouping passes iff every ordered pair of parts does, which
  is what `prepare` checks.

The last point needs inputs from one role.  An input from partners
``{p, q}`` is compatible with a behaviour when it is for ``p`` or for
``q``.  A grouping asks for one role that serves every part of ``R`` at
once, where the pairs ask for one role per part, so a grouping that
passes implies that the pairs pass, but not the other way.  With ``x =
p?b.q?a.end``, ``y = q?b.p?a.end`` and ``z = {p,q}?a.end``, the binary
``(x ⊓ y) ⊓ z`` fails while ``x ⊓ (y ⊓ z)`` and the set ``{x, y, z}``
merge.  So the binary merge is not associative there, and no set of
parts can give the verdict of each of its groupings.  Every merge is
one set, whether it is written as a term or reached as a successor, and
the set passes wherever some grouping does.  A merge term holds no merge
(`syntax.TMerge` replaces such an operand by its operands), and `_close`
keys its operands as one set, so ``merge(merge(x, y), z)``,
``merge(x, merge(y, z))`` and ``merge(x, y, z)`` are one term and one
state; a successor of a merge that is again a merge, below a prefix or
round a loop, flattens in `_key`, and `_close` keys an operand that is a
merge under `rec` binders by that merge's operands.

Where a merge has several faults, only which one is named depends on
the grouping.  Kinds and output sets are compared left to right over the
parts in the order first met, each part's kind found as it is compared,
and compatibility one ordered pair at a time in that order, where a
binary grouping met them in its nesting order.  So the set of an `out`,
an `end` and an `in` part, met in that order, names "a 'out' behaviour
with a 'end' behaviour", as the left-nested grouping ``(out ⊓ end) ⊓
in`` does, where the grouping ``out ⊓ (end ⊓ in)`` named "a 'end'
behaviour with a 'in' behaviour".

A state's successors come from one pass: the pass of `kind_keys` that
reads a key's closure (its atoms and sub-merges), or a merge's parts, to
find its kind also groups them by branch key, and `target` computes each
successor from its group, once per state and branch key, where it
rescanned every atom and part for each key.  The groups keep the order of
the parts, and each successor is first computed when the rescan first
computed it, so every key is built from the same parts in the same order.

Merge compatibility is decided by index (`_Resolver._merge_passes`), and
only a merge that fails runs the ordered pairwise scan, which names the
fault.  By the proof above the set passes iff every ordered pair ``(x,
y)`` does: every input ``(ps, a)`` of ``x`` that ``y`` lacks is
compatible with ``y`` for some role of ``ps``.  Let ``C(y, r)`` be the
messages that ``y`` can consume from ``r``, the inputs from partners that
include ``r`` on a path from ``y`` that takes no such input (so ``a``
from ``r`` is compatible with ``y`` iff ``a`` is not in ``C(y, r)``).  A
pair fails iff some input ``(ps, a)`` of ``x`` that ``y`` lacks has ``a``
in ``C(y, r)`` for every ``r`` of ``ps``, and an input that ``y`` lacks
is another part's as soon as any part has it.  So the set fails iff a
part ``y`` lacks an input that another part has and can consume its
message from each of its partners.  `_merge_passes` walks each part once
per partner role of the inputs some part lacks, and looks up only the
inputs whose message a walk found, so a merge of n parts costs O(n) walks
where the scan made n(n-1) checks.

Merges are evaluated coinductively: the memo table realizes the greatest
fixpoint, so recursive types whose merge only closes through a loop (the
deferred merges produced when projecting nested iterations) resolve here.
A merge whose kind depends on itself before crossing a prefix cannot be
resolved and fails conservatively.  Resolution is budgeted by its work as
well as by its size: past `_STATE_CAP` states or `_STEP_CAP` successor
computations (one per state and branch key) it raises
`tracelang.BudgetExceededError`, a bound and not a finding about the type.
So does a read-back past `_READBACK_CAP` term nodes: a canonical term
reads a state back once per path to it, and can be exponentially larger
than its machine.  It visits branch keys in canonical order and the
parts of a join or a merge in the order first met, so the fault it
reports for a type with several does not depend on hash order.

A canonical term is never resolved again.  `normalize_session_type` keeps
on the term it returns the minimized machine it read that term back from,
and a canonical term is its own canonical form: normalizing it returns it
unchanged, and `type_machine` returns the machine it keeps.  A prefix
chain (outputs and inputs down to ``end``) is canonical when it is built,
since it counts its prefixes from its continuation's count; its machine is
the chain itself, read off in one pass without the resolver and kept on it
too.  No two states of a chain are bisimilar, as their distances to
``end`` differ, and a state with one branch is input-deterministic.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .syntax import (
    NotSessionTypeError,
    Role,
    SessionType,
    TEnd,
    TExternal,
    TIn,
    TInternal,
    TMerge,
    TOut,
    TRec,
    TVar,
    UnguardedRecursionError,
    parts,
    rebuild,
)
from .tracelang import BudgetExceededError, minimal_form

END, OUT, IN = "end", "out", "in"

_STATE_CAP = 20000
# Successor computations one resolution may make.  A merge of merges is
# one set, but a join of merges of joins still nests the two tags, so new
# states can grow ever more costly to reach while their number stays small,
# and the state count alone does not bound the work.
_STEP_CAP = 10 * _STATE_CAP
# Term nodes one read-back may build.  A canonical term reads a state back
# once per path to it, so its size can be exponential in its machine's.
_READBACK_CAP = 50 * _STATE_CAP


class MergeError(NotSessionTypeError):
    """Two behaviours that cannot be merged into one session type."""


def _check_size(states: int) -> None:
    if states > _STATE_CAP:
        raise BudgetExceededError(
            "session type is too large to resolve "
            f"(more than {_STATE_CAP} states)"
        )


@dataclass(frozen=True, slots=True)
class Machine:
    """A minimized session-type automaton.

    `kinds[s]` is one of "end"/"out"/"in"; `branches[s]` maps branch keys
    ``("out", partner, message)`` / ``("in", partners, message)`` to
    successor states.  State 0 is the root, and the other states are
    numbered depth-first from it.  Every `branches[s]` iterates in canonical
    order: outputs before inputs, then by message, then by partners.  End
    states have no branches; out/in states have at least one.  The machine
    of a canonical term is shared by every caller that asks for it, so no
    caller may change it.
    """

    kinds: tuple[str, ...]
    branches: tuple[dict, ...]


def _bk_order(bk: tuple):
    if bk[0] == "out":
        return (0, bk[2], (bk[1],))
    return (1, bk[2], tuple(sorted(bk[1])))


@dataclass(slots=True)
class _State:
    kind: str
    branches: dict


def _freshen(t: SessionType) -> tuple[SessionType, dict]:
    """`t` with each `rec` binder named apart, and the binder map name ->
    TRec node.  When the distinct `rec` nodes of `t` have distinct names
    and every variable is bound, that is `t` itself, its sharing kept: one
    walk over its distinct nodes finds each node's free variables once,
    from its parts', so a shared subterm is walked once.  Otherwise
    `_renamed` rebuilds it."""
    binders: dict[str, TRec] = {}
    free: dict[int, frozenset] = {}  # id of each node walked -> its free variables
    work = [t]
    while work:
        node = work[-1]
        if id(node) in free:
            work.pop()
            continue
        # a prefix chain down to `end` has no variables and no binders
        kids = () if getattr(node, "_chain", 0) else parts(node)
        todo = [kid for kid in kids if id(kid) not in free]
        if todo:
            work += todo
            continue
        work.pop()
        k = type(node)
        if k is TVar:
            names = frozenset((node.name,))
        elif k is TRec:
            if binders.setdefault(node.var, node) is not node:
                return _renamed(t)
            names = free[id(node.body)] - {node.var}
        else:
            names = frozenset().union(*[free[id(kid)] for kid in kids])
        free[id(node)] = names
    if free[id(t)]:
        return _renamed(t)  # which raises, naming the variable it meets first
    return t, binders


def _renamed(t: SessionType) -> tuple[SessionType, dict]:
    """`t` rebuilt with its binders named r0, r1, ... in preorder, and the
    binder map name -> TRec node of the new term; a variable that no `rec`
    binds raises ValueError."""
    binders: dict[str, TRec] = {}
    numbers = itertools.count()

    def step(node: SessionType, names: dict, new: list | None):
        # `names` maps each variable bound above `node` to its new name
        k = type(node)
        if k is TVar:
            if node.name not in names:
                raise ValueError(f"unbound recursion variable {node.name!r}")
            return TVar(names[node.name])
        if k is TEnd:
            return node
        if k is not TRec:
            return parts(node), names
        if new is None:
            return (node.body,), names | {node.var: f"r{next(numbers)}"}
        rec = binders[names[node.var]] = TRec(names[node.var], new[0])
        return rec

    return rebuild(t, step, {}), binders


class _Resolver:
    def __init__(self, t: SessionType):
        self.term, self.binders = _freshen(t)
        self.nodes: dict[int, SessionType] = {}
        self.flavors: list[tuple] = []  # (kind, branch keys) of each choice met, in order
        self.kk: dict[tuple, tuple] = {}  # key -> (kind, frozenset of branch keys)
        self.kk_busy: set[tuple] = set()
        self.parts: dict[tuple, tuple] = {}  # merge or join key -> its parts, first seen order
        self.merges: list[tuple] = []  # merge keys, in the order their kinds resolved
        self.states: dict[tuple, _State] = {}
        self.index: dict[tuple, dict] = {}  # key -> its index, made with its kind (see kind_keys)
        self.moves: dict[tuple, dict] = {}  # key -> branch key -> successor key, as computed
        self.steps = 0  # successor computations, budgeted by _STEP_CAP
        self.consumed: dict[tuple, set] = {}  # (role, built key) -> what the key can consume from it
        self.root_key = self._pkey(self.term)

    # -- state expression keys ------------------------------------------

    def _pkey(self, node: SessionType) -> tuple:
        """The key of the behaviour of `node`.  A `rec` is its body, and a
        variable its binder's body, so neither is a state of its own.  A
        walk that passes each binder and each variable once without meeting
        another node has come round an unguarded loop (`rec X . X`): it
        keys `node` itself, whose closure finds no prefix and raises."""
        start = node
        for _ in range(2 * len(self.binders) + 1):
            k = type(node)
            if k is TRec:
                node = node.body
            elif k is TVar:
                node = self.binders[node.name]
            else:
                break
        else:
            node = start
        self.nodes[id(node)] = node
        return ("p", id(node))

    def _key(self, tag: str, parts: Iterable[tuple]) -> tuple:
        """The key of the merge (`tag` "m") or the join ("j") of `parts`.
        A part with the same tag stands for its own parts, so the key is
        the set of the parts that have another tag, and one part is its
        own key."""
        flat: dict[tuple, None] = {}
        for p in parts:
            if p[0] == tag:
                flat.update(dict.fromkeys(self.parts[p]))
            else:
                flat[p] = None
        if len(flat) == 1:
            return next(iter(flat))
        key = (tag, frozenset(flat))
        self.parts.setdefault(key, tuple(flat))
        return key

    # -- epsilon closure --------------------------------------------------

    def _close(self, key: tuple) -> tuple[list, list]:
        """What the behaviour `key` offers without crossing a prefix: its
        atoms, each a prefix's (branch key, continuation) or ``((END,),
        None)``, and its opaque sub-behaviours (merges), each in the order
        met.  The choice nodes it crosses join `self.flavors`."""
        atoms: list = []
        subs: list = []
        seen: set = set()
        # State keys (tuples) and term nodes still to visit, next one last:
        # a depth-first walk in the order of the branches.
        work: list = [key]
        while work:
            item = work.pop()
            if type(item) is tuple:
                if item in seen:
                    continue
                seen.add(item)
                if item[0] == "m":
                    subs.append(item)
                elif item[0] == "j":
                    work.extend(reversed(self.parts[item]))
                else:
                    work.append(self.nodes[item[1]])
                continue
            nid = ("n", id(item))
            if nid in seen:
                continue
            seen.add(nid)
            k = type(item)
            if k is TOut:
                atoms.append(((OUT, item.partner, item.message), item.cont))
            elif k is TIn:
                atoms.append(((IN, item.partners, item.message), item.cont))
            elif k is TEnd:
                atoms.append(((END,), None))
            elif k is TInternal or k is TExternal:
                bs = item.branches
                self.flavors.append((OUT if k is TInternal else IN, tuple(map(self._pkey, bs))))
                work.extend(reversed(bs))
            elif k is TRec:
                work.append(item.body)
            elif k is TVar:
                work.append(self.binders[item.name])
            elif k is TMerge:
                # an operand that is a merge under `rec` binders stands
                # for the operands of that merge
                ops, todo = [], list(reversed(item.branches))
                while todo:
                    b = inner = todo.pop()
                    while type(inner) is TRec:
                        inner = inner.body
                    if type(inner) is TMerge:
                        todo += reversed(inner.branches)
                    else:
                        ops.append(b)
                subs.append(self._key("m", map(self._pkey, ops)))
            else:
                raise TypeError(f"not a session type: {item!r}")
        return atoms, subs

    # -- kinds and branch keys ---------------------------------------------

    def kind_keys(self, key: tuple) -> tuple:
        cached = self.kk.get(key)
        if cached is not None:
            return cached
        if key in self.kk_busy:
            raise MergeError(
                "merge cannot be resolved: its result depends on itself "
                "before any prefix"
            )
        self.kk_busy.add(key)
        # per branch key, what the successor by it is made of: the parts of
        # the atoms' continuations, then the parts or sub-merges that have it
        index: dict[tuple, tuple] = {}
        try:
            if key[0] == "m":
                # a part's kind is found only when it is compared, so the first
                # fault met left to right is named, as a left-nested grouping does
                kind = None
                for p in self.parts[key]:
                    k, ks = self.kind_keys(p)
                    if kind is None:
                        kind, keys = k, ks
                    elif k != kind:
                        raise MergeError(
                            f"cannot merge a {kind!r} behaviour with a {k!r} behaviour"
                        )
                    elif kind == OUT and ks != keys:
                        raise MergeError(
                            "cannot merge internal choices offering different outputs"
                        )
                    for bk in ks:
                        index.setdefault(bk, ([], []))[1].append(p)
            else:
                atoms, subs = self._close(key)
                kinds: set[str] = set()
                for bk, c in atoms:
                    kinds.add(bk[0])
                    if c is not None:  # `end` has no successor
                        index.setdefault(bk, ([], []))[0].append(self._pkey(c))
                for sub in subs:
                    ks, sks = self.kind_keys(sub)
                    kinds.add(ks)
                    for bk in sks:
                        index.setdefault(bk, ([], []))[1].append(sub)
                if not kinds:
                    raise UnguardedRecursionError(
                        "behaviour loops without any input or output"
                    )
                if len(kinds) > 1:
                    raise NotSessionTypeError(
                        f"one state mixes {' and '.join(sorted(kinds))} behaviours"
                    )
                kind = kinds.pop()
        finally:
            self.kk_busy.discard(key)
        result = (kind, frozenset(index))
        self.index[key] = index
        self.kk[key] = result
        if key[0] == "m":
            self.merges.append(key)
        return result

    # -- successor states ---------------------------------------------------

    def target(self, key: tuple, bk: tuple) -> tuple:
        """The successor of `key` by its branch key `bk`, computed once."""
        moves = self.moves.setdefault(key, {})
        t = moves.get(bk)
        if t is not None:
            return t
        self.steps += 1
        if self.steps > _STEP_CAP:
            raise BudgetExceededError(
                "session type is too large to resolve "
                f"(more than {_STEP_CAP} resolution steps)"
            )
        atoms, subs = self.index[key][bk]
        succ = [self.target(sub, bk) for sub in subs]
        t = moves[bk] = self._key("m", succ) if key[0] == "m" else self._key("j", atoms + succ)
        return t

    # -- construction ---------------------------------------------------------

    def _build_from(self, key: tuple) -> None:
        work = [key]
        while work:
            k = work.pop()
            if k in self.states:
                continue
            kind, keys = self.kind_keys(k)
            if len(keys) > 1:
                keys = sorted(keys, key=_bk_order)
            branches = {bk: self.target(k, bk) for bk in keys}
            self.states[k] = _State(kind, branches)
            _check_size(len(self.states))
            work.extend(branches.values())

    def prepare(self) -> None:
        """Build and validate the full state graph.  Each merge is checked
        once, in the order its kind resolved: building its parts may
        resolve more merges, which join the end of `self.merges`.  An input
        merge that fails its index check is scanned pair by pair, which
        names its first failing pair."""
        self._build_from(self.root_key)
        for mk in self.merges:
            ps = self.parts[mk]
            for p in ps:
                self._build_from(p)
            if self.kk[mk][0] == IN and not self._merge_passes(ps):
                for x, y in itertools.permutations(ps, 2):
                    self._check_merge_compat(x, y)
        for key, st in list(self.states.items()):
            self._check_input_determinism(st)
        for flavor, opkeys in list(self.flavors):
            for ok in opkeys:
                k, _ = self.kind_keys(ok)
                if k != flavor:
                    what = (
                        "an internal choice branch must be an output"
                        if flavor == OUT
                        else "an external choice branch must be an input"
                    )
                    raise NotSessionTypeError(what)

    def _check_input_determinism(self, st: _State) -> None:
        """Raises NotSessionTypeError when two inputs of `st` take one
        message from partner sets of which one holds the other, naming the
        first such pair in branch order.  Only inputs of one message can
        clash, so each input is compared only with the later inputs of its
        own message."""
        ins = [bk for bk in st.branches if bk[0] == IN]
        if len(ins) < 2:
            return
        later: dict[str, deque] = {}
        for _, ps, a in ins:
            later.setdefault(a, deque()).append(ps)
        for _, ps1, a1 in ins:
            rest = later[a1]
            rest.popleft()  # ps1 itself
            for ps2 in rest:
                if ps1 <= ps2 or ps2 <= ps1:
                    raise NotSessionTypeError(
                        f"ambiguous external choice: inputs of {a1!r} from "
                        f"{{{','.join(sorted(ps1))}}} and "
                        f"{{{','.join(sorted(ps2))}}} overlap"
                    )

    # -- input compatibility ---------------------------------------------------

    def _check_merge_compat(self, x: tuple, y: tuple) -> None:
        _, skx = self.kind_keys(x)
        _, sky = self.kind_keys(y)
        for bk in sorted(skx - sky, key=_bk_order):
            _, partners, message = bk
            if all(message in self._consumed(p, y) for p in partners):
                raise MergeError(
                    f"input of {message!r} from "
                    f"{{{','.join(sorted(partners))}}} cannot be merged: "
                    "the other behaviour may consume it elsewhere"
                )

    def _merge_passes(self, ps: tuple) -> bool:
        """Whether every ordered pair of the built input parts `ps` passes
        `_check_merge_compat`, decided by index: a part fails iff it lacks
        an input that another part has and can consume its message from
        each of its partners.  Each part is walked once per partner role of
        the inputs that some part lacks, and only what a walk finds is
        looked up, so a merge of n parts costs O(n) walks, not n(n-1)."""
        n = len(ps)
        held: dict[tuple, int] = {}  # input branch key -> parts that have it
        for p in ps:
            for bk in self.kk[p][1]:
                held[bk] = held.get(bk, 0) + 1
        lacked: dict[tuple, list] = {}  # (role, message) -> inputs some part lacks
        for bk, count in held.items():
            if count < n:
                for r in bk[1]:
                    lacked.setdefault((r, bk[2]), []).append(bk)
        if not lacked:
            return True
        roles = {r for r, _ in lacked}
        lacking = sum(count < n for count in held.values())
        for y in ps:
            keys = self.kk[y][1]
            if sum(held[bk] < n for bk in keys) == lacking:
                continue  # `y` has every input that some part lacks
            for r in roles:
                for a in self._consumed(r, y):
                    for bk in lacked.get((r, a), ()):
                        if bk not in keys and all(a in self._consumed(q, y) for q in bk[1]):
                            return False
        return True

    def _consumed(self, p: Role, key: tuple) -> set:
        """The messages that the built state `key` on can consume from `p`:
        those of the inputs from partners that include `p` on a path from
        `key`, where a path follows every branch but those inputs.  One
        depth-first walk over the built states, off an explicit stack, kept
        per role and state."""
        found = self.consumed.get((p, key))
        if found is not None:
            return found
        found = self.consumed[(p, key)] = set()
        seen = {key}
        work = [key]
        while work:
            for bk, t in self.states[work.pop()].branches.items():
                if bk[0] == IN and p in bk[1]:
                    found.add(bk[2])
                elif t not in seen:
                    seen.add(t)
                    work.append(t)
        return found

    # -- minimization and readback ----------------------------------------------

    def minimized(self) -> Machine:
        kinds, branches = minimal_form(
            self.root_key,
            lambda k: self.states[k].kind,
            lambda k: self.states[k].branches.items(),
            _bk_order,
        )
        return Machine(tuple(kinds), tuple(branches))


_NAMES = ("X", "Y", "Z", "W", "V", "U")


def machine_to_type(m: Machine) -> SessionType:
    """Read back the canonical term of a minimized machine.  Recursion
    binders are introduced exactly at states reached by a cycle, named in
    first-use order.  The walk is depth-first in branch order, off an
    explicit stack.  It reads a state back once per path to it, so past
    `_READBACK_CAP` term nodes built it raises BudgetExceededError."""
    names: dict[int, str | None] = {}  # states on the path -> binder name, once used
    counter = 0
    built = 0  # term nodes built, budgeted by _READBACK_CAP
    # Per state on the path, innermost last: the state, its remaining
    # branches, the branch key being read back, and the prefixes read so far.
    frames: list[list] = []
    s = 0
    while True:
        if s in names:
            if names[s] is None:
                names[s] = _NAMES[counter] if counter < len(_NAMES) else f"X{counter}"
                counter += 1
            t: SessionType = TVar(names[s])
        elif m.kinds[s] == END:
            t = TEnd()
        else:
            names[s] = None
            branches = iter(m.branches[s].items())
            bk, target = next(branches)
            frames.append([s, branches, bk, []])
            s = target
            continue
        built += 1
        # `t` continues the branch that the innermost frame reads back
        while frames:
            frame = frames[-1]
            bk = frame[2]
            frame[3].append(TOut(bk[1], bk[2], t) if bk[0] == OUT else TIn(bk[1], bk[2], t))
            built += 1
            step = next(frame[1], None)
            if step is not None:
                frame[2], s = step
                break
            frames.pop()
            state, _, _, prefixes = frame
            if len(prefixes) == 1:
                t = prefixes[0]
            else:
                t = (TInternal if m.kinds[state] == OUT else TExternal)(tuple(prefixes))
                built += 1
            name = names.pop(state)
            if name is not None:
                t = TRec(name, t)
                built += 1
        if built > _READBACK_CAP:
            raise BudgetExceededError(
                "session type is too large to read back "
                f"(more than {_READBACK_CAP} term nodes)"
            )
        if not frames:
            return t


def _chain_length(t: SessionType) -> int | None:
    """The number of prefixes of `t` when it is `end` or a prefix chain
    (TOut/TIn nodes down to `end`), else None.  O(1): prefixes count their
    chain when they are built."""
    k = type(t)
    if k is TEnd:
        return 0
    if (k is TOut or k is TIn) and t._chain:
        return t._chain
    return None


def _chain_machine(t: SessionType, n: int) -> Machine:
    """The minimal machine of the chain `t` of `n` prefixes, read off in one
    pass: state i is the i-th prefix and state n is `end`.  It is minimal
    as it stands, since states at different distances from `end` are not
    bisimilar, and a state with one branch is input-deterministic."""
    _check_size(n + 1)
    kinds: list[str] = []
    branches: list[dict] = []
    for i in range(1, n + 1):
        if type(t) is TOut:
            kinds.append(OUT)
            branches.append({(OUT, t.partner, t.message): i})
        else:
            kinds.append(IN)
            branches.append({(IN, t.partners, t.message): i})
        t = t.cont
    kinds.append(END)
    branches.append({})
    return Machine(tuple(kinds), tuple(branches))


def _kept_machine(t: SessionType) -> Machine | None:
    """The machine that normalization (or an earlier chain read) kept on
    `t`, or None."""
    return getattr(t, "_machine", None)  # `end` and variables have none


def is_canonical(t: SessionType) -> bool:
    """Whether `t` is known to be in canonical form without resolving it:
    `end`, a prefix chain, or a term returned by normalize_session_type.
    A canonical term is closed."""
    return _chain_length(t) is not None or _kept_machine(t) is not None


def type_machine(t: SessionType) -> Machine:
    """Resolve a closed session type (merges allowed) to its minimized
    machine.  Raises NotSessionTypeError/MergeError/UnguardedRecursionError
    when `t` does not denote a session type, and BudgetExceededError past
    the resolver's caps.  A canonical term gives the machine it carries, a
    prefix chain its own chain read off once."""
    m = _kept_machine(t)
    if m is not None:
        return m
    n = _chain_length(t)
    if n is None:
        r = _Resolver(t)
        r.prepare()
        return r.minimized()
    m = _chain_machine(t, n)
    if n:
        object.__setattr__(t, "_machine", m)
    return m


def normalize_session_type(t: SessionType) -> SessionType:
    """Canonical form of `t`: recursion unfolded to the minimal machine and
    read back with sorted branches and deterministic binder names.  Two
    types denote the same behaviour iff their canonical forms are equal.
    The result keeps its machine (see type_machine), and a canonical `t`
    is its own canonical form."""
    n = _chain_length(t)
    if n is not None:
        _check_size(n + 1)
        return t
    if _kept_machine(t) is not None:
        return t
    m = type_machine(t)
    out = machine_to_type(m)
    if type(out) is not TEnd:
        object.__setattr__(out, "_machine", m)
    return out


def session_type_equal(a: SessionType, b: SessionType) -> bool:
    """Behavioural equality (equality of canonical forms)."""
    return normalize_session_type(a) == normalize_session_type(b)


# The root kind of each constructor that has one of its own.
_ROOT_KINDS = {TEnd: END, TOut: OUT, TInternal: OUT, TIn: IN, TExternal: IN}


def root_kind(t: SessionType) -> str | None:
    """The definite root kind of a (possibly open) type term, or None when
    it depends on unresolved variables or merges.  The operands of merges
    and the bodies of `rec` are read off a stack."""
    kinds: set[str] = set()
    work = [t]
    while work:
        t = work.pop()
        k = type(t)
        if k is TVar:
            return None
        if k in _ROOT_KINDS:
            kinds.add(_ROOT_KINDS[k])
        else:
            work += parts(t)  # a merge or a `rec`
    return kinds.pop() if len(kinds) == 1 else None
