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
* ``("m", {x, y})`` — the merge of two behaviours: pointwise on outputs
  (which must offer identical choices), pointwise on shared inputs with
  exclusive inputs kept, provided each exclusive input is compatible with
  the other side.

Merges are evaluated coinductively: the memo table realizes the greatest
fixpoint, so recursive types whose merge only closes through a loop (the
deferred merges produced when projecting nested iterations) resolve here.
A merge whose kind depends on itself before crossing a prefix cannot be
resolved and fails conservatively.  Resolution is budgeted by its work as
well as by its size: past `_STATE_CAP` states or `_STEP_CAP` successor
computations it fails with NotSessionTypeError.  It visits branch keys in
canonical order and the parts of a join in the order they were first
joined, so the fault it reports for a type with several does not depend on
hash order.

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
from dataclasses import dataclass, field
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
    with_parts,
)
from .tracelang import minimal_form

END, OUT, IN = "end", "out", "in"

_STATE_CAP = 20000
# Successor computations one resolution may make.  A merge of merges can
# make new states ever more costly to reach while their number stays small,
# so the state count alone does not bound the work.
_STEP_CAP = 10 * _STATE_CAP


class MergeError(NotSessionTypeError):
    """Two behaviours that cannot be merged into one session type."""


def _check_size(states: int) -> None:
    if states > _STATE_CAP:
        raise NotSessionTypeError(
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
    root: int


def _bk_order(bk: tuple):
    if bk[0] == "out":
        return (0, bk[2], (bk[1],))
    return (1, bk[2], tuple(sorted(bk[1])))


@dataclass(slots=True)
class _Closure:
    """What a state offers without crossing a prefix: immediate atoms,
    opaque sub-behaviours (merges), and the choice nodes crossed."""

    atoms: list = field(default_factory=list)
    subs: list = field(default_factory=list)
    flavors: list = field(default_factory=list)


@dataclass(slots=True)
class _State:
    kind: str
    branches: dict


def _freshen(t: SessionType) -> tuple[SessionType, dict]:
    """Rebuild `t` with globally unique recursion-variable names; return the
    new term and the binder map name -> TRec node.  Binders are numbered in
    preorder, and the term is rebuilt off an explicit stack."""
    binders: dict[str, TRec] = {}
    counter = 0
    built: list[SessionType] = []  # rebuilt subterms, last built last
    # Subterms to rebuild, with the names their free variables get, and
    # nodes whose rebuilt parts are the last `n` of `built`, with their
    # binder's fresh name (None but for a `rec`), to assemble.
    work: list[tuple] = [(t, {})]
    while work:
        item = work.pop()
        node = item[0]
        if len(item) == 3:
            _, n, fresh = item
            new = built[len(built) - n :]
            del built[len(built) - n :]
            if fresh is None:
                built.append(with_parts(node, new))
            else:
                rec = TRec(fresh, new[0])
                binders[fresh] = rec
                built.append(rec)
            continue
        env = item[1]
        k = type(node)
        if k is TVar:
            if node.name not in env:
                raise ValueError(f"unbound recursion variable {node.name!r}")
            built.append(TVar(env[node.name]))
        elif k is TRec:
            fresh = f"r{counter}"
            counter += 1
            work.append((node, 1, fresh))
            work.append((node.body, env | {node.var: fresh}))
        else:
            kids = parts(node)
            if kids:
                work.append((node, len(kids), None))
                work.extend(zip(reversed(kids), itertools.repeat(env)))
            else:
                built.append(node)
    return built[0], binders


class _Resolver:
    def __init__(self, t: SessionType):
        self.term, self.binders = _freshen(t)
        self.nodes: dict[int, SessionType] = {}
        self.closures: dict[tuple, _Closure] = {}
        self.kk: dict[tuple, tuple] = {}  # key -> (kind, frozenset of branch keys)
        self.kk_busy: set[tuple] = set()
        self.mops: dict[tuple, tuple] = {}  # merge key -> (x, y)
        self.merges: list[tuple] = []  # merge keys, in the order their kinds resolved
        self.joins: dict[tuple, tuple] = {}  # join key -> its parts, first seen order
        self.states: dict[tuple, _State] = {}
        self.steps = 0  # calls of `target`, budgeted by _STEP_CAP
        self.root_key = self._pkey(self.term)

    # -- state expression keys ------------------------------------------

    def _pkey(self, node: SessionType) -> tuple:
        self.nodes[id(node)] = node
        return ("p", id(node))

    def _mkey(self, x: tuple, y: tuple) -> tuple:
        if x == y:
            return x
        key = ("m", frozenset((x, y)))
        self.mops.setdefault(key, (x, y))
        return key

    def _jkey(self, parts: Iterable[tuple]) -> tuple:
        flat: dict[tuple, None] = {}
        for p in parts:
            if p[0] == "j":
                flat.update(dict.fromkeys(self.joins[p]))
            else:
                flat[p] = None
        if len(flat) == 1:
            return next(iter(flat))
        key = ("j", frozenset(flat))
        self.joins.setdefault(key, tuple(flat))
        return key

    # -- epsilon closure --------------------------------------------------

    def _close(self, key: tuple) -> _Closure:
        cached = self.closures.get(key)
        if cached is not None:
            return cached
        cl = _Closure()
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
                    cl.subs.append(item)
                elif item[0] == "j":
                    work.extend(reversed(self.joins[item]))
                else:
                    work.append(self.nodes[item[1]])
                continue
            nid = ("n", id(item))
            if nid in seen:
                continue
            seen.add(nid)
            match item:
                case TEnd():
                    cl.atoms.append((END,))
                case TOut(q, a, c):
                    cl.atoms.append((OUT, q, a, c))
                case TIn(ps, a, c):
                    cl.atoms.append((IN, ps, a, c))
                case TInternal(bs):
                    cl.flavors.append((OUT, tuple(self._pkey(b) for b in bs)))
                    work.extend(reversed(bs))
                case TExternal(bs):
                    cl.flavors.append((IN, tuple(self._pkey(b) for b in bs)))
                    work.extend(reversed(bs))
                case TRec(_, b):
                    work.append(b)
                case TVar(x):
                    work.append(self.binders[x])
                case TMerge(l, r):
                    cl.subs.append(self._mkey(self._pkey(l), self._pkey(r)))
                case _:
                    raise TypeError(f"not a session type: {item!r}")
        self.closures[key] = cl
        return cl

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
        try:
            if key[0] == "m":
                x, y = self.mops[key]
                kx, skx = self.kind_keys(x)
                ky, sky = self.kind_keys(y)
                if kx != ky:
                    raise MergeError(
                        f"cannot merge a {kx!r} behaviour with a {ky!r} behaviour"
                    )
                if kx == OUT and skx != sky:
                    raise MergeError(
                        "cannot merge internal choices offering different outputs"
                    )
                result = (kx, skx | sky)
            else:
                cl = self._close(key)
                kinds: set[str] = set()
                keys: set[tuple] = set()
                for atom in cl.atoms:
                    kinds.add(atom[0])
                    if atom[0] == OUT:
                        keys.add((OUT, atom[1], atom[2]))
                    elif atom[0] == IN:
                        keys.add((IN, atom[1], atom[2]))
                for sub in cl.subs:
                    ks, sks = self.kind_keys(sub)
                    kinds.add(ks)
                    keys |= sks
                if not kinds:
                    raise UnguardedRecursionError(
                        "behaviour loops without any input or output"
                    )
                if len(kinds) > 1:
                    raise NotSessionTypeError(
                        f"one state mixes {' and '.join(sorted(kinds))} behaviours"
                    )
                result = (kinds.pop(), frozenset(keys))
        finally:
            self.kk_busy.discard(key)
        self.kk[key] = result
        if key[0] == "m":
            self.merges.append(key)
        return result

    # -- successor states ---------------------------------------------------

    def target(self, key: tuple, bk: tuple) -> tuple:
        self.steps += 1
        if self.steps > _STEP_CAP:
            raise NotSessionTypeError(
                "session type is too large to resolve "
                f"(more than {_STEP_CAP} resolution steps)"
            )
        if key[0] == "m":
            x, y = self.mops[key]
            _, skx = self.kind_keys(x)
            _, sky = self.kind_keys(y)
            if bk in skx and bk in sky:
                return self._mkey(self.target(x, bk), self.target(y, bk))
            if bk in skx:
                return self.target(x, bk)
            return self.target(y, bk)
        cl = self._close(key)
        parts = []
        for atom in cl.atoms:
            if atom[0] == OUT and bk == (OUT, atom[1], atom[2]):
                parts.append(self._pkey(atom[3]))
            elif atom[0] == IN and bk == (IN, atom[1], atom[2]):
                parts.append(self._pkey(atom[3]))
        for sub in cl.subs:
            _, sks = self.kind_keys(sub)
            if bk in sks:
                parts.append(self.target(sub, bk))
        return self._jkey(parts)

    # -- construction ---------------------------------------------------------

    def _build_from(self, key: tuple) -> None:
        work = [key]
        while work:
            k = work.pop()
            if k in self.states:
                continue
            kind, keys = self.kind_keys(k)
            branches = {bk: self.target(k, bk) for bk in sorted(keys, key=_bk_order)}
            self.states[k] = _State(kind, branches)
            _check_size(len(self.states))
            work.extend(branches.values())

    def prepare(self) -> None:
        """Build and validate the full state graph.  Each merge is checked
        once, in the order its kind resolved: building its operands may
        resolve more merges, which join the end of `self.merges`."""
        self._build_from(self.root_key)
        for mk in self.merges:
            x, y = self.mops[mk]
            self._build_from(x)
            self._build_from(y)
            if self.kk[mk][0] == IN:
                self._check_merge_compat(x, y)
                self._check_merge_compat(y, x)
        for key, st in list(self.states.items()):
            self._check_input_determinism(st)
        for cl in list(self.closures.values()):
            for flavor, opkeys in cl.flavors:
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
        ins = [bk for bk in st.branches if bk[0] == IN]
        for i, (_, ps1, a1) in enumerate(ins):
            for _, ps2, a2 in ins[i + 1 :]:
                if a1 == a2 and (ps1 <= ps2 or ps2 <= ps1):
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
            if not any(self._compatible(p, message, y) for p in partners):
                raise MergeError(
                    f"input of {message!r} from "
                    f"{{{','.join(sorted(partners))}}} cannot be merged: "
                    "the other behaviour may consume it elsewhere"
                )

    def _compatible(self, p: Role, a: str, key: tuple) -> bool:
        """Whether a message `a` from `p` cannot be consumed from the built
        state `key` on: no path from `key` reaches an input of `a` from
        partners that include `p`, where a path follows every branch but
        the inputs from partners that include `p`.  One depth-first walk
        over the built states, off an explicit stack, so each question
        costs one pass over what `key` reaches."""
        seen = {key}
        work = [key]
        while work:
            for bk, t in self.states[work.pop()].branches.items():
                if bk[0] == IN and p in bk[1]:
                    if bk[2] == a:
                        return False
                elif t not in seen:
                    seen.add(t)
                    work.append(t)
        return True

    # -- minimization and readback ----------------------------------------------

    def minimized(self) -> Machine:
        kinds, branches = minimal_form(
            self.root_key,
            lambda k: self.states[k].kind,
            lambda k: self.states[k].branches.items(),
            _bk_order,
        )
        return Machine(tuple(kinds), tuple(branches), 0)


_NAMES = ("X", "Y", "Z", "W", "V", "U")


def machine_to_type(m: Machine) -> SessionType:
    """Read back the canonical term of a minimized machine.  Recursion
    binders are introduced exactly at states reached by a cycle, named in
    first-use order.  The walk is depth-first in branch order, off an
    explicit stack."""
    names: dict[int, str | None] = {}  # states on the path -> binder name, once used
    counter = 0
    # Per state on the path, innermost last: the state, its remaining
    # branches, the branch key being read back, and the prefixes read so far.
    frames: list[list] = []
    s = m.root
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
        # `t` continues the branch that the innermost frame reads back
        while frames:
            frame = frames[-1]
            bk = frame[2]
            frame[3].append(TOut(bk[1], bk[2], t) if bk[0] == OUT else TIn(bk[1], bk[2], t))
            step = next(frame[1], None)
            if step is not None:
                frame[2], s = step
                break
            frames.pop()
            state, _, _, prefixes = frame
            if len(prefixes) == 1:
                t = prefixes[0]
            elif m.kinds[state] == OUT:
                t = TInternal(tuple(prefixes))
            else:
                t = TExternal(tuple(prefixes))
            name = names.pop(state)
            if name is not None:
                t = TRec(name, t)
        else:
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
    return Machine(tuple(kinds), tuple(branches), 0)


def _kept_machine(t: SessionType) -> Machine | None:
    """The machine that normalization (or an earlier chain read) kept on
    `t`, or None."""
    k = type(t)
    if k is TOut or k is TIn or k is TInternal or k is TExternal or k is TRec:
        return t._machine
    return None


def is_canonical(t: SessionType) -> bool:
    """Whether `t` is known to be in canonical form without resolving it:
    `end`, a prefix chain, or a term returned by normalize_session_type.
    A canonical term is closed."""
    return _chain_length(t) is not None or _kept_machine(t) is not None


def type_machine(t: SessionType) -> Machine:
    """Resolve a closed session type (merges allowed) to its minimized
    machine.  Raises NotSessionTypeError/MergeError/UnguardedRecursionError
    when `t` does not denote a session type.  A canonical term gives the
    machine it carries, a prefix chain its own chain read off once."""
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


def root_kind(t: SessionType) -> str | None:
    """The definite root kind of a (possibly open) type term, or None when
    it depends on unresolved variables or merges."""
    match t:
        case TEnd():
            return END
        case TOut(_, _, _) | TInternal(_):
            return OUT
        case TIn(_, _, _) | TExternal(_):
            return IN
        case TRec(_, b):
            return root_kind(b)
        case TMerge(l, r):
            kl = root_kind(l)
            return kl if kl == root_kind(r) else None
        case TVar(_):
            return None
    raise TypeError(f"not a session type: {t!r}")
