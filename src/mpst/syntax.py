"""Abstract syntax, concrete syntax, and printers for global and session types.

Two small languages live here:

* global types (``.gt`` files): choreographies built from interactions
  ``{p,q} -> r : msg`` with sequencing ``;``, unordered composition ``&``,
  alternatives ``|``, Kleene iteration ``*``, option sugar ``?``, and
  k-exit iteration ``loopk (B1,...,Bk) exit (E1,...,Ek)``;
* session types (``.mps`` files): per-role behaviours built from outputs
  ``q!a.T``, (join) inputs ``{p,q}?a.T``, internal choice ``(+)``, external
  choice ``+``, ``rec X . T`` and ``end``.

Operator tightness in the global grammar, tightest first: postfix ``*``/``?``,
then ``&``, then ``;``, then ``|``.  ``A?`` is parsed as ``A | skip``.

Which fields of a constructor are subterms is known here only:
``subterms``/``with_subterms`` (global types) and ``parts``/``with_parts``
(session types) list and replace the immediate subterms, so a structural
walk spells out just the constructors it treats specially.  How a term is
walked bottom-up is known here only too, by one walk per language, off an
explicit stack, so a term of any depth is walked.  For global types,
``postorder`` lists the subterms after their children, and ``fold``
computes a value of each from the values of its children by a step per
node.  For session types, ``rebuild`` carries a scope down (such as the
names bound above a node) and asks a step per node what to rebuild it
from and what to build.

Spines are n-ary, as ``;``, ``|`` and ``&`` are associative in the trace
semantics: each is a subclass of ``_Pair``, a tuple of two or more
operands with its own hash tag, and the internal choice, the external
choice and the merge are subclasses of ``_Choice``, each a tuple of two
or more branches.  The constructors of a spine and of a merge splice in
an operand of their own kind, and drop no repeated operand, so every
grouping of a text is one term, printed one way.  A walk tells them
apart by ``type(t) is``.  A spine's ``left`` (all operands but the last)
and ``right`` (the last) only let reference semantics written over
binary nodes match it; no module of the package reads them.

Interactions and compound terms of both languages (every constructor but
``GSkip``, ``TEnd`` and ``TVar``) hash in O(1): each derives from
``_Term``, whose ``_hash`` slot holds the hash computed once, to the
value the generated dataclass hash would give.  The constructor of a
global term or an interaction computes it when it builds the term.  A
compound session term is built with ``None`` there and computes it on its
first ``hash()`` (`_hash_session`), together with the hashes that the
terms below it do not have yet, off an explicit stack, so a term that is built and dropped
unhashed costs no hash.  The elimination of ``&`` keys sets and dicts by
whole terms and the subset steps of trace automata by interactions, so a
lookup walks no tree and rebuilds no field tuple, and hashing a term of
any depth cannot overflow the stack.  Compound terms take their equality from their
language's base, ``_GlobalTerm`` or ``_SessionTerm``: it is structural
and walks both terms with an explicit stack (global types compare their
stored hashes first), so comparing two deep terms cannot overflow it
either; the generated dataclass equality takes about three frames per
level.  The session-type printer takes terms and text off an explicit
stack too.

Both parsers read a text in one linear pass and nest no calls: one regex
pass splits it into parallel lists of token kinds and texts, the global
parser reduces operators by precedence off an operand and an operator
stack, and the session parser folds prefixes, ``rec`` binders and choices
off a stack of open constructs, so inputs parse at any depth.  Where a
token starts, and so the line and column of an error, is worked out only
for an error: a variable that no open ``rec`` binds is noted where it is,
and raised once the text has parsed.  ``free_type_vars`` and ``check_guarded`` walk
off explicit stacks as well.

Compound session terms have two more slots, which equality, hashing,
``repr`` and pattern matching ignore: ``_machine`` (``_SessionTerm``'s),
the minimal machine that ``mpst.machine`` keeps on a canonical term, None
when built, and, on prefixes, ``_chain``, the number of prefixes down to
``end`` (0 when the term is not such a chain), read off the
continuation's when built.

Every constructor with fields builds its term in one step, in its own
``__init__`` (the dataclass is declared ``init=False``): it checks and
converts its arguments, computes ``_hash``, ``_chain`` and ``_machine``
itself, and writes each slot once, through that slot's member descriptor,
bound once per class (the ``_set_*`` names).  A frozen dataclass's
generated ``__init__`` would write each field through
``object.__setattr__`` and leave the derived slots to a
``__post_init__`` that writes them the same way, at about twice the
cost.  The classes stay frozen, slotted dataclasses: ``fields``,
``replace``, ``repr`` and the ``FrozenInstanceError`` of an assignment
are the generated ones, and so is ``__match_args__`` but a spine's.  A
spine takes its operands by position, so ``replace`` does not rebuild
one.  A copy or a pickle of a term is rebuilt through its constructor
(``_Term.__reduce__``), which computes the derived slots again.

Comments run from ``//`` to end of line in both languages.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields
from operator import is_not
from typing import Sequence, Union

Role = str
Message = str


class ParseError(ValueError):
    """Malformed concrete syntax.  Carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SelfMessageError(ValueError):
    """An interaction whose receiver is also one of its senders."""


class UnguardedRecursionError(ValueError):
    """A recursion variable is reachable from its binder without crossing
    an input or output prefix."""


class DuplicateRoleError(ValueError):
    """The same role is bound twice in one session environment."""


class NotSessionTypeError(ValueError):
    """A term that is not a session type: an internal choice whose branches
    are not all outputs, an external choice whose branches are not all
    inputs, or an ambiguous pair of input branches (one partner set
    contained in the other with the same message)."""


# ---------------------------------------------------------------------------
# Global types
# ---------------------------------------------------------------------------


class _Term:
    """A term hashed once: `_hash` is set by the constructor that builds it."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Copy and pickle through the constructor, which computes the
        derived slots again; a slotted dataclass's state has fields only."""
        args = self.operands if isinstance(self, _Pair) else [getattr(self, f.name) for f in fields(self) if f.init]
        return type(self), tuple(args)


_set_hash = _Term._hash.__set__


@dataclass(frozen=True, slots=True, init=False)
class Interaction(_Term):
    """One message exchange: every role in `senders` sends `message`, and
    `receiver` consumes one copy from each sender.

    Invariants: `senders` is a non-empty frozenset; `receiver` is not a
    sender (raises SelfMessageError otherwise).
    """

    senders: frozenset[Role]
    receiver: Role
    message: Message

    def __init__(self, senders, receiver, message):
        senders = frozenset(senders)
        if not senders:
            raise ValueError("interaction needs at least one sender")
        if receiver in senders:
            raise SelfMessageError(f"role {receiver!r} cannot send a message to itself")
        _set_senders(self, senders)
        _set_receiver(self, receiver)
        _set_message(self, message)
        _set_hash(self, hash((senders, receiver, message)))

    # keeps the generated `__eq__`, but not a hash of the fields per call
    __hash__ = _Term.__hash__

    def __str__(self) -> str:
        if len(self.senders) == 1:
            left = next(iter(self.senders))
        else:
            left = "{" + ",".join(sorted(self.senders)) + "}"
        return f"{left} -> {self.receiver} : {self.message}"


_set_senders = Interaction.senders.__set__
_set_receiver = Interaction.receiver.__set__
_set_message = Interaction.message.__set__


def _same_global(self, other) -> bool:
    """Structural equality of global types, pair by pair off a stack."""
    if type(other) is not type(self):
        return NotImplemented
    work: list[tuple] = []
    a, b = self, other
    while True:
        k = type(a)
        if k is GAction:
            if a.interaction != b.interaction:
                return False
        elif k is not GSkip:
            # a loop has as many exits as bodies
            xs, ys = subterms(a), subterms(b)
            if a._hash != b._hash or len(xs) != len(ys):
                return False
            for x, y in zip(xs, ys):
                if x is not y:
                    if type(x) is not type(y):
                        return False
                    work.append((x, y))
        if not work:
            return True
        a, b = work.pop()


class _GlobalTerm(_Term):
    """The compound global types: equal when `_same_global` says so, and
    printed by `repr` as a generated dataclass repr would print them."""

    __slots__ = ()
    __eq__ = _same_global
    __hash__ = _Term.__hash__  # a class that sets `__eq__` alone is unhashable

    def __repr__(self) -> str:
        """`Name(field=value, ...)`, nested, as the generated repr gives it,
        but built off an explicit stack, so a term of any depth prints.
        The stack holds text, and values to print wrapped in a list."""
        out: list[str] = []
        work: list = [[self]]
        while work:
            item = work.pop()
            if type(item) is str:
                out.append(item)
                continue
            (x,) = item
            if isinstance(x, _GlobalTerm):
                todo = [f"{type(x).__qualname__}("]
                for n, f in enumerate(fields(x)):
                    todo += [f"{', ' if n else ''}{f.name}=", [getattr(x, f.name)]]
                todo.append(")")
            elif type(x) is tuple:
                todo = ["("]
                for n, y in enumerate(x):
                    todo += [", " if n else "", [y]]
                todo.append(",)" if len(x) == 1 else ")")
            else:
                out.append(repr(x))
                continue
            work += reversed(todo)
        return "".join(out)


@dataclass(frozen=True, slots=True)
class GSkip:
    """The empty choreography (unit of sequencing)."""


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class GAction(_GlobalTerm):
    """A single interaction."""

    interaction: Interaction

    def __init__(self, interaction):
        _set_interaction(self, interaction)
        _set_hash(self, hash((interaction,)))


_set_interaction = GAction.interaction.__set__


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class _Pair(_GlobalTerm):
    """The shape of `;`, `&` and `|`: two or more operands, given by
    position, one of the spine's own kind spliced in, hashed behind the
    `_TAG` of the constructor, so the three of the same operands hash
    apart."""

    operands: tuple[GlobalType, ...]

    __match_args__ = ("left", "right")

    def __init__(self, *operands):
        k = type(self)
        for x in operands:
            if type(x) is k:
                operands = tuple([z for y in operands for z in (y.operands if type(y) is k else (y,))])
                break
        if len(operands) < 2:
            raise ValueError("a spine needs at least two operands")
        _set_operands(self, operands)
        _set_hash(self, hash((self._TAG, operands)))

    @property
    def left(self) -> GlobalType:
        ops = self.operands
        return ops[0] if len(ops) == 2 else type(self)(*ops[:-1])

    @property
    def right(self) -> GlobalType:
        return self.operands[-1]


_set_operands = _Pair.operands.__set__


class GSeq(_Pair):
    """The operands one after another, in order."""

    __slots__ = ()
    _TAG = 0


class GBoth(_Pair):
    """Every operand happens, in any interleaving."""

    __slots__ = ()
    _TAG = 1


class GEither(_Pair):
    """Exactly one operand happens."""

    __slots__ = ()
    _TAG = 2


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class GStar(_GlobalTerm):
    """`body` happens zero or more times."""

    body: GlobalType

    def __init__(self, body):
        _set_star_body(self, body)
        _set_hash(self, hash((body,)))


_set_star_body = GStar.body.__set__


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class GKExit(_GlobalTerm):
    """k-exit iteration: cycle through `bodies` in order, with the option
    before each round of phase i to leave through `exits[i]` instead.

    Invariant: len(bodies) == len(exits) >= 1.
    """

    bodies: tuple[GlobalType, ...]
    exits: tuple[GlobalType, ...]

    def __init__(self, bodies, exits):
        bodies, exits = tuple(bodies), tuple(exits)
        if not bodies or len(bodies) != len(exits):
            raise ValueError("loopk needs k >= 1 bodies and k exits")
        _set_bodies(self, bodies)
        _set_exits(self, exits)
        _set_hash(self, hash((bodies, exits)))


_set_bodies = GKExit.bodies.__set__
_set_exits = GKExit.exits.__set__


GlobalType = Union[GSkip, GAction, GSeq, GBoth, GEither, GStar, GKExit]


def subterms(g: GlobalType) -> tuple[GlobalType, ...]:
    """The immediate subterms of `g` in field order; a loop's bodies come
    first, then its exits."""
    k = type(g)
    if k is GSeq or k is GBoth or k is GEither:
        return g.operands
    if k is GAction or k is GSkip:
        return ()
    if k is GStar:
        return (g.body,)
    if k is GKExit:
        return g.bodies + g.exits
    raise TypeError(f"not a global type: {g!r}")


def with_subterms(g: GlobalType, new: Sequence[GlobalType]) -> GlobalType:
    """`g` with its immediate subterms replaced by `new`, given in the
    order `subterms` lists them."""
    k = type(g)
    if k is GSeq or k is GBoth or k is GEither:
        return k(*new)
    if k is GAction or k is GSkip:
        return g
    if k is GStar:
        return GStar(new[0])
    if k is GKExit:
        n = len(g.bodies)
        return GKExit(tuple(new[:n]), tuple(new[n:]))
    raise TypeError(f"not a global type: {g!r}")


def postorder(g: GlobalType, children=subterms, done=()) -> list[tuple[GlobalType, Sequence[GlobalType]]]:
    """Each subterm of `g` that is not in `done`, with its children,
    listed after them, left to right, once per occurrence.  The children
    of `t` are `children(t)`, its immediate subterms unless a walk reads
    another structure, such as the `&` search's table of ids.  The walk
    takes terms off one explicit stack, so a term of any depth is listed,
    and it enters no subterm of a term in `done`."""
    order, work = [], [g]
    while work:
        t = work.pop()
        if t not in done:
            subs = children(t)
            order.append((t, subs))
            work += subs
    order.reverse()
    return order


def fold(g: GlobalType, step, children=subterms):
    """The value of `g` computed bottom-up: `step(t, values)` for each
    subterm `t` in `postorder`, given the values of its children in order.
    The values wait on one stack, so a term of any depth folds."""
    values: list = []
    for t, subs in postorder(g, children):
        n = len(values) - len(subs)
        values[n:] = [step(t, values[n:])]
    return values[0]


def roles_of(g: GlobalType) -> frozenset[Role]:
    """All roles that take part in some interaction of `g`."""
    out: set[Role] = set()
    work = [g]
    while work:
        node = work.pop()
        if type(node) is GAction:
            out.update(node.interaction.senders)
            out.add(node.interaction.receiver)
        else:
            work.extend(subterms(node))
    return frozenset(out)


def interaction_count(g: GlobalType) -> int:
    """Number of interaction occurrences in `g`."""
    return fold(g, lambda t, counts: (type(t) is GAction) + sum(counts))


def default_max_len(g: GlobalType) -> int:
    """Default trace-length bound for bounded checks over `g`."""
    return 2 * interaction_count(g) + 4


# ---------------------------------------------------------------------------
# Session types
# ---------------------------------------------------------------------------


def _leaves(t: SessionType) -> tuple:
    """The fields of `t` that are not session types, in field order."""
    k = type(t)
    if k is TOut:
        return (t.partner, t.message)
    if k is TIn:
        return (t.partners, t.message)
    if k is TVar:
        return (t.name,)
    if k is TRec:
        return (t.var,)
    return ()


def _same_session(self, other) -> bool:
    """Structural equality of session types, pair by pair off a stack."""
    if type(other) is not type(self):
        return NotImplemented
    work: list[tuple] = []
    a, b = self, other
    while True:
        xs, ys = parts(a), parts(b)
        if _leaves(a) != _leaves(b) or len(xs) != len(ys):
            return False
        for x, y in zip(xs, ys):
            if x is not y:
                if type(x) is not type(y):
                    return False
                work.append((x, y))
        if not work:
            return True
        a, b = work.pop()


def _chain_above(cont: SessionType) -> int:
    """The `_chain` of a prefix whose continuation is `cont`: the number of
    prefixes down to `end` when the prefix is a prefix chain, 0 when it is
    not, read off `cont` in O(1)."""
    k = type(cont)
    if k is TEnd:
        return 1
    if k is TOut or k is TIn:
        return cont._chain and cont._chain + 1
    return 0


def _hash_session(self) -> int:
    """The stored hash of a compound session term, the generated dataclass
    hash of its fields, computed on first use.  The compound terms below
    it that have none yet get theirs first, off an explicit stack, so that
    each field's hash is stored when its tuple is hashed."""
    h = self._hash
    if h is not None:
        return h
    work = [self]
    while work:
        node = work[-1]
        k = type(node)
        # `end` and variables have no `_hash` slot and hash at once
        if k is TOut or k is TIn:
            kid = node.cont
            if getattr(kid, "_hash", 0) is None:
                work.append(kid)
                continue
            h = hash((node.partner if k is TOut else node.partners, node.message, kid))
        elif k is TRec:
            kid = node.body
            if getattr(kid, "_hash", 0) is None:
                work.append(kid)
                continue
            h = hash((node.var, kid))
        else:
            todo = [kid for kid in node.branches if getattr(kid, "_hash", 0) is None]
            if todo:
                work += todo
                continue
            h = hash((node.branches,))
        work.pop()
        _set_hash(node, h)
    return self._hash


class _SessionTerm(_Term):
    """The compound session types: `_same_session` equality, a hash stored
    on first use, `_machine` slot."""

    __slots__ = ("_machine",)
    __eq__ = _same_session
    __hash__ = _hash_session


_set_machine = _SessionTerm._machine.__set__


@dataclass(frozen=True, slots=True)
class TEnd:
    """Successfully terminated behaviour."""


@dataclass(frozen=True, slots=True, init=False)
class TVar:
    """A recursion variable."""

    name: str

    def __init__(self, name):
        _set_name(self, name)


_set_name = TVar.name.__set__


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TOut(_SessionTerm):
    """Send `message` to `partner`, then continue as `cont`."""

    partner: Role
    message: Message
    cont: SessionType
    _chain: int = field(init=False, repr=False, compare=False)

    def __init__(self, partner, message, cont):
        _set_out_partner(self, partner)
        _set_out_message(self, message)
        _set_out_cont(self, cont)
        _set_out_chain(self, _chain_above(cont))
        _set_machine(self, None)
        _set_hash(self, None)


_set_out_partner = TOut.partner.__set__
_set_out_message = TOut.message.__set__
_set_out_cont = TOut.cont.__set__
_set_out_chain = TOut._chain.__set__


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TIn(_SessionTerm):
    """Receive `message` from every role in `partners` (a join: one copy
    from each), then continue as `cont`."""

    partners: frozenset[Role]
    message: Message
    cont: SessionType
    _chain: int = field(init=False, repr=False, compare=False)

    def __init__(self, partners, message, cont):
        partners = frozenset(partners)
        if not partners:
            raise ValueError("input needs at least one partner")
        _set_in_partners(self, partners)
        _set_in_message(self, message)
        _set_in_cont(self, cont)
        _set_in_chain(self, _chain_above(cont))
        _set_machine(self, None)
        _set_hash(self, None)


_set_in_partners = TIn.partners.__set__
_set_in_message = TIn.message.__set__
_set_in_cont = TIn.cont.__set__
_set_in_chain = TIn._chain.__set__


@dataclass(frozen=True, slots=True, eq=False, init=False)
class _Choice(_SessionTerm):
    """The shape of both choices and of the merge: two or more branches."""

    branches: tuple[SessionType, ...]

    def __init__(self, branches):
        branches = tuple(branches)
        if len(branches) < 2:
            raise ValueError("choice needs at least two branches")
        _set_branches(self, branches)
        _set_machine(self, None)
        _set_hash(self, None)


_set_branches = _Choice.branches.__set__


class TInternal(_Choice):
    """Internal choice between output-rooted branches (this role decides)."""

    __slots__ = ()


class TExternal(_Choice):
    """External choice between input-rooted branches (the context decides)."""

    __slots__ = ()


class TMerge(_Choice):
    """A merge of two or more behaviours whose resolution is deferred until
    the enclosing recursion is closed.  An operand that is itself a merge
    is replaced by its operands, so no merge holds a merge.  Produced only
    by the projector; never written in source and never survives
    normalization."""

    __slots__ = ()

    def __init__(self, branches):
        flat: list[SessionType] = []
        for b in branches:
            flat.extend(b.branches if type(b) is TMerge else (b,))
        _Choice.__init__(self, flat)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TRec(_SessionTerm):
    """Recursive behaviour: `body` may refer back to this point as `var`."""

    var: str
    body: SessionType

    def __init__(self, var, body):
        _set_var(self, var)
        _set_rec_body(self, body)
        _set_machine(self, None)
        _set_hash(self, None)


_set_var = TRec.var.__set__
_set_rec_body = TRec.body.__set__


SessionType = Union[TEnd, TVar, TOut, TIn, TInternal, TExternal, TRec, TMerge]

SessionEnv = dict  # dict[Role, SessionType]


def parts(t: SessionType) -> tuple[SessionType, ...]:
    """The immediate session-type subterms of `t`, in field order."""
    k = type(t)
    if k is TOut or k is TIn:
        return (t.cont,)
    if k is TInternal or k is TExternal or k is TMerge:
        return t.branches
    if k is TEnd or k is TVar:
        return ()
    if k is TRec:
        return (t.body,)
    raise TypeError(f"not a session type: {t!r}")


def with_parts(t: SessionType, new: Sequence[SessionType]) -> SessionType:
    """`t` with its immediate subterms replaced by `new`, given in the
    order `parts` lists them."""
    k = type(t)
    if k is TOut:
        return TOut(t.partner, t.message, new[0])
    if k is TIn:
        return TIn(t.partners, t.message, new[0])
    if k is TInternal or k is TExternal or k is TMerge:
        return k(tuple(new))
    if k is TEnd or k is TVar:
        return t
    if k is TRec:
        return TRec(t.var, new[0])
    raise TypeError(f"not a session type: {t!r}")


def rebuild(t: SessionType, step, scope) -> SessionType:
    """`t` rebuilt bottom-up off one explicit stack, as `step` directs.
    Each node is given to `step(node, scope, None)`, with the scope its
    parent passed on (`scope` at the root), which answers the term the
    node becomes, or `(kids, inner)`: the terms to rebuild, each under the
    scope `inner`, that the node is built from.  A node that passes its own
    scope on gives its parts as its kids and is then rebuilt by
    `with_parts`, or returned as it is when each rebuilt part is the part
    itself, so a rebuild that changes nothing allocates nothing; one that
    opens a new scope, such as a binder, is built by `step(node, inner,
    rebuilt kids)`."""
    built: list[SessionType] = []  # rebuilt terms, last built last
    # Terms to rebuild, with their scopes, and nodes to build, with their
    # inner scopes, their kids, and whether they passed their own scope on.
    work: list[tuple] = [(t, scope)]
    while work:
        item = work.pop()
        if len(item) == 4:
            node, inner, kids, same = item
            n = len(built) - len(kids)
            new = built[n:]
            if not same:
                node = step(node, inner, new)
            elif any(map(is_not, new, kids)):
                node = with_parts(node, new)
            built[n:] = [node]
            continue
        node, outer = item
        out = step(node, outer, None)
        if type(out) is not tuple:
            built.append(out)
            continue
        kids, inner = out
        work.append((node, inner, kids, inner is outer))
        for kid in reversed(kids):
            work.append((kid, inner))
    return built[0]


def free_type_vars(t: SessionType) -> frozenset[str]:
    """Recursion variables of `t` not bound by an enclosing `rec`."""
    out: set[str] = set()
    work: list[tuple] = [(t, frozenset())]  # subterms with the names bound above them
    while work:
        node, bound = work.pop()
        if type(node) is TVar and node.name not in bound:
            out.add(node.name)
        elif type(node) is TRec:
            bound = bound | {node.var}
        for x in parts(node):
            work.append((x, bound))
    return frozenset(out)


def check_guarded(t: SessionType) -> None:
    """Raise UnguardedRecursionError if some recursion variable occurs
    without an input/output prefix between it and its binder; the first
    such occurrence in preorder is reported."""
    # subterms with the variables bound since the last prefix, next one last
    work: list[tuple] = [(t, frozenset())]
    while work:
        node, exposed = work.pop()
        k = type(node)
        if k is TVar and node.name in exposed:
            raise UnguardedRecursionError(
                f"recursion variable {node.name!r} is not guarded by a prefix"
            )
        if k is TRec:
            exposed = exposed | {node.var}
        elif k is TOut or k is TIn:
            exposed = frozenset()
        for x in reversed(parts(node)):
            work.append((x, exposed))


# ---------------------------------------------------------------------------
# Tokenizer (shared by both languages)
# ---------------------------------------------------------------------------

# One match per token: the whitespace and comments before it, then the
# token in group 1 (an identifier or an operator), or a character that
# starts no token, or the end of the text (both with group 1 empty).
_TOKEN_RE = re.compile(
    r"""
    \s* (?: //[^\n]* \s* )*
    (?: ( [A-Za-z_][A-Za-z0-9_]* | \(\+\) | -> | [;&|*?(){},:!+.] ) | \S | \Z )
    """,
    re.VERBOSE,
)
# The kind of each token text that is not an identifier: an operator is its
# own kind, and the empty text ends the tokens.
_KINDS = {op: op for op in ("(+)", "->", *";&|*?(){},:!+.")}
_KINDS[""] = "eof"


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Tokens:
    """The tokens of a text, read in one pass of `_TOKEN_RE`, as parallel
    lists: `kinds` (an operator's spelling, "ident", or "eof" for the end
    marker that closes the lists) and `texts` ("" for the end marker).
    Where a token starts is worked out only for an error, by matching the
    text again up to that token."""

    __slots__ = ("text", "kinds", "texts")

    def __init__(self, text: str):
        self.text = text
        # After a newline the last match always runs to the end of the text
        # and one more, empty, match follows it: drop that one.
        self.texts = texts = _TOKEN_RE.findall(text + "\n")
        texts.pop()
        self.kinds = list(map(_KINDS.get, texts, itertools.repeat("ident")))
        bad = texts.index("")
        if bad < len(texts) - 1:
            offset = self.offset(bad)
            raise ParseError(
                f"unexpected character {text[offset]!r}", *_position(text, offset)
            )

    def offset(self, i: int) -> int:
        """Where token `i` starts in the text."""
        if i == len(self.texts) - 1:
            return len(self.text)
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None))
        # a character that starts no token is the last of its match
        return m.start(1) if m.group(1) else m.end() - 1

    def where(self, i: int) -> str:
        """The "line:col" of token `i` that a located message starts with."""
        return "%d:%d" % _position(self.text, self.offset(i))

    def error(self, i: int, message: str) -> ParseError:
        return ParseError(message, *_position(self.text, self.offset(i)))

    def expected(self, i: int, kind: str) -> ParseError:
        return self.error(
            i, f"expected {kind!r}, found {self.texts[i] or 'end of input'!r}"
        )

    def role_set(self, i: int) -> tuple[frozenset[Role], int]:
        """`{r1, ..., rn}` from token `i` (a "{"), the senders of a join or
        the partners of an input; and the index of the token after it."""
        kinds, texts = self.kinds, self.texts
        names = []
        while True:
            i += 1
            if kinds[i] != "ident":
                raise self.expected(i, "ident")
            names.append(texts[i])
            i += 1
            if kinds[i] != ",":
                break
        if kinds[i] != "}":
            raise self.expected(i, "}")
        return frozenset(names), i + 1


# ---------------------------------------------------------------------------
# Global-type parsing
# ---------------------------------------------------------------------------

_LOOP_RE = re.compile(r"loop([0-9]+)$")
# Each binary operator's constructor and how tightly it binds.  The
# operator stack holds, for each open spine, such a pair and where the
# spine's first operand is on the operand stack; `_OPEN` marks where a
# group opens on it, and nothing reduces past it.
_BINARY = {"|": (GEither, 0), ";": (GSeq, 1), "&": (GBoth, 2)}
_OPEN = (None, -1)


class _LoopGroup:
    """An open group of `loopk (..) exit (..)`: `k` parts are due, `bodies`
    holds the loop group's once the exit group is open."""

    __slots__ = ("k", "items", "bodies")

    def __init__(self, k: int):
        self.k = k
        self.items: list[GlobalType] = []
        self.bodies: tuple[GlobalType, ...] | None = None


def parse_global_type(text: str) -> GlobalType:
    """Parse the body of a ``.gt`` file.

    Operators are reduced by precedence off two explicit stacks, one of
    operands and one of operators, so nesting costs no stack frames.  A
    parenthesis or a loop group pushes `_OPEN` on the operator stack and is
    closed by reducing down to it.  An operator equal to the one on top
    of the stack adds an operand to its open spine, and a spine is built
    once, by one constructor call on all its operands, when a looser
    operator or the end of its group closes it.  A spine that ends a
    parenthesis is kept open when neither the operator before the
    parenthesis nor the token after it binds more tightly: the parenthesis
    is dropped, and the spine joins one of its kind around it, so a chain
    parenthesized to the left or to the right is built once too."""
    toks = _Tokens(text)
    kinds, texts = toks.kinds, toks.texts
    operands: list[GlobalType] = []
    ops: list[tuple] = [_OPEN]
    groups: list = []  # open groups, innermost last: None for "(", else a _LoopGroup
    i = 0
    while True:
        # an operand starts at token i
        kind = kinds[i]
        if kind == "(":
            groups.append(None)
            ops.append(_OPEN)
            i += 1
            continue
        if kind == "ident" and texts[i] == "skip":
            operands.append(GSkip())
            i += 1
        elif kind == "ident" or kind == "{":
            at = i
            if kind == "{":
                senders, i = toks.role_set(i)
            else:
                name = texts[i]
                if kinds[i + 1] == "(" and (m := _LOOP_RE.match(name)):
                    k = int(m.group(1))
                    if k < 1:
                        raise toks.error(i, "loopk needs k >= 1")
                    groups.append(_LoopGroup(k))
                    ops.append(_OPEN)
                    i += 2
                    continue
                senders = frozenset((name,))
                i += 1
            if kinds[i] != "->":
                raise toks.expected(i, "->")
            if kinds[i + 1] != "ident":
                raise toks.expected(i + 1, "ident")
            if kinds[i + 2] != ":":
                raise toks.expected(i + 2, ":")
            if kinds[i + 3] != "ident":
                raise toks.expected(i + 3, "ident")
            try:
                operands.append(GAction(Interaction(senders, texts[i + 1], texts[i + 3])))
            except SelfMessageError as exc:
                raise SelfMessageError(f"{toks.where(at)}: {exc}") from None
            i += 4
        else:
            raise toks.error(
                i, f"expected a global type, found {texts[i] or 'end of input'!r}"
            )
        # an operand ends before token i
        while True:
            kind = kinds[i]
            if kind == "*":
                operands[-1] = GStar(operands[-1])
                i += 1
                continue
            if kind == "?":
                operands[-1] = GEither(operands[-1], GSkip())
                i += 1
                continue
            op = _BINARY.get(kind)
            tight = -1 if op is None else op[1]
            while ops[-1][1] > tight:
                if kind == ")" and ops[-2] is _OPEN and groups and groups[-1] is None:
                    # a parenthesized spine that neither neighbour binds
                    # more tightly stays open, and the spine around it
                    # takes its operands in place
                    after = kinds[i + 1]
                    if after != "*" and after != "?" and max(ops[-3][1], _BINARY.get(after, _OPEN)[1]) <= ops[-1][1]:
                        break
                k, _, start = ops.pop()
                operands[start:] = [k(*operands[start:])]
            if op is not None:
                if ops[-1][1] < tight:
                    ops.append((*op, len(operands) - 1))
                i += 1
                break
            # the operand ends the innermost group, or the whole type
            if not groups:
                if kind != "eof":
                    raise toks.error(i, f"unexpected {texts[i]!r} after global type")
                return operands[0]
            group = groups[-1]
            if group is None:
                if kind != ")":
                    raise toks.expected(i, ")")
                groups.pop()
                if ops[-1] is _OPEN:
                    ops.pop()
                else:  # the open spine loses its parentheses
                    del ops[-2]
                    if ops[-2][1] == ops[-1][1]:
                        del ops[-1]  # and joins the spine of its kind around it
                i += 1
                continue
            if kind != "," and kind != ")":
                raise toks.expected(i, ")")
            group.items.append(operands.pop())
            i += 1
            if kind == ",":
                break
            items = group.items
            if len(items) != group.k:
                what = "loop" if group.bodies is None else "exit"
                raise toks.error(
                    i, f"{what} group has {len(items)} parts, expected {group.k}"
                )
            if group.bodies is None:
                if kinds[i] != "ident" or texts[i] != "exit":
                    raise toks.error(i, "expected 'exit'")
                if kinds[i + 1] != "(":
                    raise toks.expected(i + 1, "(")
                group.bodies = tuple(items)
                group.items = []
                i += 2
                break
            groups.pop()
            ops.pop()
            operands.append(GKExit(group.bodies, tuple(items)))


# ---------------------------------------------------------------------------
# Session-type parsing
# ---------------------------------------------------------------------------

_PAREN = (None,)


def _parse_session(text: str, env: bool):
    """Parse one session type, or with `env` the `role : type` bindings of
    a ``.mps`` text into a dict, off one explicit stack of open constructs,
    so nesting costs no stack frames.  The stack holds, innermost last, a
    prefix waiting for its continuation (``(TOut, partner, message)`` or
    ``(TIn, partners, message)``), a ``rec`` waiting for its body
    (``(TRec, var)``), a parenthesis (``_PAREN``), and expressions in
    progress as lists ``[op, branch, ...]``, `op` the choice operator or
    None before the first one.  A prefix takes one unit (an atom, a prefix
    or a parenthesized type) as its continuation; ``rec`` takes a whole
    expression as its body, so it reaches as far right as it can.

    Returns the type (or the bindings) and the error naming its first
    variable that no open ``rec`` binds, if any (or one per role): returned,
    not raised, so that a syntax error after it is the one reported."""
    toks = _Tokens(text)
    kinds, texts = toks.kinds, toks.texts
    bindings: SessionEnv = {}
    unbound: dict[Role, ParseError] = {}
    recs: dict[str, int] = {}  # how many `rec`s of each name are open
    frames: list = []
    i = 0
    while True:
        if not frames:
            # a binding starts at token i, or without `env` the one type
            if env:
                if kinds[i] == "eof":  # only before the first binding
                    raise toks.error(i, "expected at least one 'role : type' binding")
                if kinds[i] != "ident":
                    raise toks.expected(i, "ident")
                if kinds[i + 1] != ":":
                    raise toks.expected(i + 1, ":")
                at = i
                i += 2
            note = None
            frames.append([None])
        # a unit starts at token i
        kind = kinds[i]
        cls = None
        if kind == "ident":
            name = texts[i]
            if name == "end":
                t = TEnd()
                i += 1
            elif name == "rec":
                if kinds[i + 1] != "ident":
                    raise toks.expected(i + 1, "ident")
                if kinds[i + 2] != ".":
                    raise toks.expected(i + 2, ".")
                frames.append((TRec, texts[i + 1]))
                recs[texts[i + 1]] = recs.get(texts[i + 1], 0) + 1
                frames.append([None])
                i += 3
                continue
            elif kinds[i + 1] == "!":
                cls, partners = TOut, name
                i += 2
            elif kinds[i + 1] == "?":
                cls, partners = TIn, frozenset((name,))
                i += 2
            else:
                if note is None and not recs.get(name):
                    note = toks.error(i, f"unbound recursion variable {name!r}")
                t = TVar(name)
                i += 1
        elif kind == "{":
            partners, i = toks.role_set(i)
            if kinds[i] != "?":
                raise toks.expected(i, "?")
            cls = TIn
            i += 1
        elif kind == "(":
            frames.append(_PAREN)
            frames.append([None])
            i += 1
            continue
        else:
            raise toks.error(
                i, f"expected a session type, found {texts[i] or 'end of input'!r}"
            )
        if cls is not None:
            if kinds[i] != "ident":
                raise toks.expected(i, "ident")
            if kinds[i + 1] != ".":
                raise toks.expected(i + 1, ".")
            frames.append((cls, partners, texts[i]))
            i += 2
            continue
        # the unit `t` ends before token i
        while True:
            top = frames[-1]
            if type(top) is tuple:  # a prefix: `t` is its continuation
                frames.pop()
                t = top[0](top[1], top[2], t)
                continue
            # `t` is a branch of the innermost expression
            kind = kinds[i]
            op = top[0]
            if op is None:
                if kind == "(+)" or kind == "+":
                    top[0] = kind
                    top.append(t)
                    i += 1
                    break
            else:
                top.append(t)
                if kind == op:
                    i += 1
                    break
                if kind == "(+)" or kind == "+":
                    raise toks.error(i, "cannot mix '(+)' and '+' without parentheses")
                t = (TInternal if op == "(+)" else TExternal)(tuple(top[1:]))
            # the expression `t` ends before token i
            frames.pop()
            if frames:
                top = frames.pop()
                if top is _PAREN:
                    if kind != ")":
                        raise toks.expected(i, ")")
                    i += 1
                else:
                    t = TRec(top[1], t)
                    recs[top[1]] -= 1
                continue
            if not env:
                if kind != "eof":
                    raise toks.error(i, f"unexpected {texts[i]!r} after session type")
                return t, note
            role = texts[at]
            if role in bindings:
                raise DuplicateRoleError(f"{toks.where(at)}: role {role!r} bound twice")
            bindings[role] = t
            if note is not None:
                unbound[role] = note
            if kind == "eof":
                return bindings, unbound
            break


def parse_session_type(text: str) -> SessionType:
    """Parse a single session type (no role binding)."""
    t, unbound = _parse_session(text, env=False)
    if unbound is not None:
        raise unbound
    _validate(t)
    return t


def parse_session_env(text: str) -> SessionEnv:
    """Parse the body of a ``.mps`` file: one or more `role : type` bindings.

    Every parsed type is validated: closed, guarded, and normalizable.  An
    error of validation, or a bound that normalizing runs past, names the
    role whose type raised it, and keeps its class and fields."""
    from .tracelang import BudgetExceededError

    env, unbound = _parse_session(text, env=True)
    for role, t in env.items():
        try:
            if role in unbound:
                raise unbound[role]
            _validate(t)
        except (ValueError, BudgetExceededError) as exc:
            exc.args = (f"in binding for role {role!r}: {exc}",)
            raise
    return env


def _validate(t: SessionType) -> None:
    from . import machine

    if not machine.is_canonical(t):  # a prefix chain is guarded
        check_guarded(t)
    machine.normalize_session_type(t)  # raises NotSessionTypeError on bad choices


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

_G_PREC = {GEither: 0, GSeq: 1, GBoth: 2, GStar: 3}
_G_OP = {GEither: "|", GSeq: ";", GBoth: "&"}


def print_global_type(g: GlobalType) -> str:
    """Render `g` so that parse_global_type(print_global_type(g)) == g.

    Terms, each with the precedence level it is printed at, and the text
    between them are taken off an explicit stack, so a type of any depth
    prints.  A spine prints its operands between its operators, and none
    of them is a spine of its kind, so a term is parenthesized only where
    it binds more loosely than its place."""
    out: list[str] = []
    work: list = [(g, 0)]  # (term, level) and text, last first
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        p = _G_PREC.get(type(node), 4)
        match node:
            case GSkip():
                pieces: list = ["skip"]
            case GAction(i):
                pieces = [str(i)]
            case _Pair(operands=ops):
                sep = f" {_G_OP[type(node)]} "
                pieces = [piece for x in ops for piece in (sep, (x, p))][1:]
            case GStar(b):
                pieces = [(b, p), "*"]
            case GKExit(bodies, exits):
                pieces = [f"loop{len(bodies)} ("]
                for i, x in enumerate(bodies + exits):
                    if i:
                        pieces.append(") exit (" if i == len(bodies) else ", ")
                    pieces.append((x, 0))
                pieces.append(")")
            case _:
                raise TypeError(f"not a global type: {node!r}")
        if p < level:
            pieces = ["(", *pieces, ")"]
        work.extend(reversed(pieces))
    return "".join(out)


def print_session_type(t: SessionType) -> str:
    """Render `t`; inverse of parse_session_type up to structural equality.

    Terms and the text between them are taken off an explicit stack, so a
    type of any depth prints without running out of stack frames."""
    out: list[str] = []
    work: list = [t]  # session types still to render, and text, last first

    def unit(node: SessionType) -> None:
        if isinstance(node, (_Choice, TRec)):
            work.extend((")", node, "("))
        else:
            work.append(node)

    while work:
        node = work.pop()
        match node:
            case str():
                out.append(node)
            case TEnd():
                out.append("end")
            case TVar(x):
                out.append(x)
            case TOut(q, a, c):
                out.append(f"{q}!{a}.")
                unit(c)
            case TIn(ps, a, c):
                if len(ps) == 1:
                    left = next(iter(ps))
                else:
                    left = "{" + ",".join(sorted(ps)) + "}"
                out.append(f"{left}?{a}.")
                unit(c)
            case _Choice(bs):
                if type(node) is TMerge:
                    out.append("merge(")
                    work.append(")")
                sep = {TInternal: " (+) ", TExternal: " + ", TMerge: ", "}[type(node)]
                for i, b in enumerate(reversed(bs)):
                    if i:
                        work.append(sep)
                    unit(b)
            case TRec(x, b):
                out.append(f"rec {x} . ")
                work.append(b)
            case _:
                raise TypeError(f"not a session type: {node!r}")
    return "".join(out)


def print_session_env(env: SessionEnv) -> str:
    """Render an environment in ``.mps`` form, one binding per line, roles
    sorted."""
    return "\n".join(
        f"{role} : {print_session_type(env[role])}" for role in sorted(env)
    )
