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
then ``&``, then ``;``, then ``|``.  Binary operators associate to the left.
``A?`` is parsed as ``A | skip``.

Which fields of a constructor are subterms is known here only:
``subterms``/``with_subterms`` (global types) and ``parts``/``with_parts``
(session types) list and replace the immediate subterms, so a structural
walk spells out just the constructors it treats specially.  Walks recurse
through ``map`` or a ``for`` loop, not a comprehension: on Python 3.11 a
comprehension is a frame of its own and would halve the nesting depth a
walk survives.

Interactions and compound terms of both languages (every constructor but
``GSkip``, ``TEnd`` and ``TVar``) hash in O(1): each hashes its fields
once, when it is built, to the value the generated dataclass hash would
give, and keeps it.  The elimination of ``&`` keys sets and dicts by whole
terms and the subset steps of trace automata by interactions, so a lookup
walks no tree and rebuilds no field tuple, and hashing a term of any depth
cannot overflow the stack.  Equality of terms in either language is
structural and walks both terms with an explicit stack (global types
compare their stored hashes first), so comparing two deep terms cannot
overflow it either; the generated dataclass equality takes about three
frames per level.  The session-type printer takes terms and text off an
explicit stack too.

Compound session terms have two more slots, which equality, hashing,
``repr`` and pattern matching ignore: ``_machine``, the minimal machine
that ``mpst.machine`` keeps on a term in canonical form, and, on prefixes,
``_chain``, the number of prefixes down to ``end`` (0 when the term is not
such a chain), set from the continuation's count when the prefix is built.

Comments run from ``//`` to end of line in both languages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


def _stored_hash(self) -> int:
    """The hash a constructor computed when it built `self`."""
    return self._hash


@dataclass(frozen=True, slots=True)
class Interaction:
    """One message exchange: every role in `senders` sends `message`, and
    `receiver` consumes one copy from each sender.

    Invariants: `senders` is a non-empty frozenset; `receiver` is not a
    sender (raises SelfMessageError otherwise).
    """

    senders: frozenset[Role]
    receiver: Role
    message: Message
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "senders", frozenset(self.senders))
        if not self.senders:
            raise ValueError("interaction needs at least one sender")
        if self.receiver in self.senders:
            raise SelfMessageError(
                f"role {self.receiver!r} cannot send a message to itself"
            )
        object.__setattr__(self, "_hash", hash((self.senders, self.receiver, self.message)))

    __hash__ = _stored_hash

    def __str__(self) -> str:
        if len(self.senders) == 1:
            left = next(iter(self.senders))
        else:
            left = "{" + ",".join(sorted(self.senders)) + "}"
        return f"{left} -> {self.receiver} : {self.message}"


def _same_global(self, other) -> bool:
    """Structural equality of global types, pair by pair off a stack."""
    if type(other) is not type(self):
        return NotImplemented
    work: list[tuple] = []
    a, b = self, other
    while True:
        k = type(a)
        # the sides of `;`, `|` and `&` go on the stack without a
        # `subterms` call, and a pair of children built by different
        # constructors never does
        if k is GSeq or k is GEither or k is GBoth:
            if a._hash != b._hash:
                return False
            x, y = a.left, b.left
            if x is not y:
                if type(x) is not type(y):
                    return False
                work.append((x, y))
            x, y = a.right, b.right
            if x is not y:
                if type(x) is not type(y):
                    return False
                work.append((x, y))
        elif k is GAction:
            if a.interaction != b.interaction:
                return False
        elif k is not GSkip:
            if a._hash != b._hash or k is GKExit and len(a.bodies) != len(b.bodies):
                return False
            for x, y in zip(subterms(a), subterms(b)):
                if x is not y:
                    if type(x) is not type(y):
                        return False
                    work.append((x, y))
        if not work:
            return True
        a, b = work.pop()


# The tag each binary constructor hashes with its two sides, so that `;`,
# `|` and `&` of the same two sides hash apart.
_SEQ, _BOTH, _EITHER = range(3)


@dataclass(frozen=True, slots=True)
class GSkip:
    """The empty choreography (unit of sequencing)."""


@dataclass(frozen=True, slots=True)
class GAction:
    """A single interaction."""

    interaction: Interaction
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.interaction,)))

    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class GSeq:
    """`left` then `right`."""

    left: GlobalType
    right: GlobalType
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((_SEQ, self.left, self.right)))

    __eq__ = _same_global
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class GBoth:
    """Both sides happen, in any interleaving."""

    left: GlobalType
    right: GlobalType
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((_BOTH, self.left, self.right)))

    __eq__ = _same_global
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class GEither:
    """Exactly one side happens."""

    left: GlobalType
    right: GlobalType
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((_EITHER, self.left, self.right)))

    __eq__ = _same_global
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class GStar:
    """`body` happens zero or more times."""

    body: GlobalType
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.body,)))

    __eq__ = _same_global
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class GKExit:
    """k-exit iteration: cycle through `bodies` in order, with the option
    before each round of phase i to leave through `exits[i]` instead.

    Invariant: len(bodies) == len(exits) >= 1.
    """

    bodies: tuple[GlobalType, ...]
    exits: tuple[GlobalType, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        object.__setattr__(self, "exits", tuple(self.exits))
        if not self.bodies or len(self.bodies) != len(self.exits):
            raise ValueError("loopk needs k >= 1 bodies and k exits")
        object.__setattr__(self, "_hash", hash((self.bodies, self.exits)))

    __eq__ = _same_global
    __hash__ = _stored_hash


GlobalType = Union[GSkip, GAction, GSeq, GBoth, GEither, GStar, GKExit]


def subterms(g: GlobalType) -> tuple[GlobalType, ...]:
    """The immediate subterms of `g` in field order; a loop's bodies come
    first, then its exits."""
    k = type(g)
    if k is GSeq or k is GBoth or k is GEither:
        return (g.left, g.right)
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
        return k(new[0], new[1])
    if k is GAction or k is GSkip:
        return g
    if k is GStar:
        return GStar(new[0])
    if k is GKExit:
        n = len(g.bodies)
        return GKExit(tuple(new[:n]), tuple(new[n:]))
    raise TypeError(f"not a global type: {g!r}")


def roles_of(g: GlobalType) -> frozenset[Role]:
    """All roles that take part in some interaction of `g`."""
    out: set[Role] = set()

    def walk(node: GlobalType) -> None:
        if type(node) is GAction:
            out.update(node.interaction.senders)
            out.add(node.interaction.receiver)
        for x in subterms(node):
            walk(x)

    walk(g)
    return frozenset(out)


def interaction_count(g: GlobalType) -> int:
    """Number of interaction occurrences in `g`."""
    if type(g) is GAction:
        return 1
    return sum(map(interaction_count, subterms(g)))


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


def _mark_chain(t) -> None:
    """Set the two slots a prefix `t` gets when it is built: `_chain`, the
    number of prefixes down to `end` when `t` is a prefix chain (0 when it
    is not), read off its continuation in O(1); and `_machine`, which
    `mpst.machine` fills in when it knows the minimal machine of `t`."""
    c = t.cont
    k = type(c)
    if k is TEnd:
        n = 1
    elif k is TOut or k is TIn:
        n = c._chain + 1 if c._chain else 0
    else:
        n = 0
    object.__setattr__(t, "_chain", n)
    object.__setattr__(t, "_machine", None)


@dataclass(frozen=True, slots=True)
class TEnd:
    """Successfully terminated behaviour."""


@dataclass(frozen=True, slots=True)
class TVar:
    """A recursion variable."""

    name: str


@dataclass(frozen=True, slots=True)
class TOut:
    """Send `message` to `partner`, then continue as `cont`."""

    partner: Role
    message: Message
    cont: SessionType
    _hash: int = field(init=False, repr=False, compare=False)
    _chain: int = field(init=False, repr=False, compare=False)
    _machine: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.partner, self.message, self.cont)))
        _mark_chain(self)

    __eq__ = _same_session
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class TIn:
    """Receive `message` from every role in `partners` (a join: one copy
    from each), then continue as `cont`."""

    partners: frozenset[Role]
    message: Message
    cont: SessionType
    _hash: int = field(init=False, repr=False, compare=False)
    _chain: int = field(init=False, repr=False, compare=False)
    _machine: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partners", frozenset(self.partners))
        if not self.partners:
            raise ValueError("input needs at least one partner")
        object.__setattr__(self, "_hash", hash((self.partners, self.message, self.cont)))
        _mark_chain(self)

    __eq__ = _same_session
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class TInternal:
    """Internal choice between output-rooted branches (this role decides)."""

    branches: tuple[SessionType, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _machine: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(self.branches) < 2:
            raise ValueError("choice needs at least two branches")
        object.__setattr__(self, "_hash", hash((self.branches,)))
        object.__setattr__(self, "_machine", None)

    __eq__ = _same_session
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class TExternal:
    """External choice between input-rooted branches (the context decides)."""

    branches: tuple[SessionType, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _machine: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(self.branches) < 2:
            raise ValueError("choice needs at least two branches")
        object.__setattr__(self, "_hash", hash((self.branches,)))
        object.__setattr__(self, "_machine", None)

    __eq__ = _same_session
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class TRec:
    """Recursive behaviour: `body` may refer back to this point as `var`."""

    var: str
    body: SessionType
    _hash: int = field(init=False, repr=False, compare=False)
    _machine: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.var, self.body)))
        object.__setattr__(self, "_machine", None)

    __eq__ = _same_session
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class TMerge:
    """A merge of two behaviours whose resolution is deferred until the
    enclosing recursion is closed.  Produced only by the projector; never
    written in source and never survives normalization."""

    left: SessionType
    right: SessionType
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    __eq__ = _same_session
    __hash__ = _stored_hash


SessionType = Union[TEnd, TVar, TOut, TIn, TInternal, TExternal, TRec, TMerge]

SessionEnv = dict  # dict[Role, SessionType]


def parts(t: SessionType) -> tuple[SessionType, ...]:
    """The immediate session-type subterms of `t`, in field order."""
    k = type(t)
    if k is TOut or k is TIn:
        return (t.cont,)
    if k is TInternal or k is TExternal:
        return t.branches
    if k is TEnd or k is TVar:
        return ()
    if k is TRec:
        return (t.body,)
    if k is TMerge:
        return (t.left, t.right)
    raise TypeError(f"not a session type: {t!r}")


def with_parts(t: SessionType, new: Sequence[SessionType]) -> SessionType:
    """`t` with its immediate subterms replaced by `new`, given in the
    order `parts` lists them."""
    k = type(t)
    if k is TOut:
        return TOut(t.partner, t.message, new[0])
    if k is TIn:
        return TIn(t.partners, t.message, new[0])
    if k is TInternal or k is TExternal:
        return k(tuple(new))
    if k is TEnd or k is TVar:
        return t
    if k is TRec:
        return TRec(t.var, new[0])
    if k is TMerge:
        return TMerge(new[0], new[1])
    raise TypeError(f"not a session type: {t!r}")


def free_type_vars(t: SessionType) -> frozenset[str]:
    """Recursion variables of `t` not bound by an enclosing `rec`."""
    out: set[str] = set()

    def walk(node: SessionType, bound: frozenset[str]) -> None:
        if type(node) is TVar and node.name not in bound:
            out.add(node.name)
        elif type(node) is TRec:
            bound = bound | {node.var}
        for x in parts(node):
            walk(x, bound)

    walk(t, frozenset())
    return frozenset(out)


def check_guarded(t: SessionType) -> None:
    """Raise UnguardedRecursionError if some recursion variable occurs
    without an input/output prefix between it and its binder."""

    def walk(node: SessionType, exposed: frozenset[str]) -> None:
        k = type(node)
        if k is TVar and node.name in exposed:
            raise UnguardedRecursionError(
                f"recursion variable {node.name!r} is not guarded by a prefix"
            )
        if k is TRec:
            exposed = exposed | {node.var}
        elif k is TOut or k is TIn:
            exposed = frozenset()
        for x in parts(node):
            walk(x, exposed)

    walk(t, frozenset())


# ---------------------------------------------------------------------------
# Tokenizer (shared by both languages)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<op>\(\+\)|->|[;&|*?(){},:!+.])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # an operator spelling, "ident", or "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "op":
            toks.append(_Token(lexeme, lexeme, line, col))
        elif m.lastgroup == "ident":
            toks.append(_Token("ident", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def eat(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def role_set(self) -> frozenset[Role]:
        """`{r1, ..., rn}`: the senders of a join, the partners of an input."""
        self.eat("{")
        names = [self.eat("ident").text]
        while self.peek().kind == ",":
            self.next()
            names.append(self.eat("ident").text)
        self.eat("}")
        return frozenset(names)


# ---------------------------------------------------------------------------
# Global-type parsing
# ---------------------------------------------------------------------------

_LOOP_RE = re.compile(r"loop([0-9]+)$")


class _GlobalParser(_Parser):
    def parse(self) -> GlobalType:
        g = self.either()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after global type")
        return g

    def either(self) -> GlobalType:
        g = self.seq()
        while self.peek().kind == "|":
            self.next()
            g = GEither(g, self.seq())
        return g

    def seq(self) -> GlobalType:
        g = self.both()
        while self.peek().kind == ";":
            self.next()
            g = GSeq(g, self.both())
        return g

    def both(self) -> GlobalType:
        g = self.postfix()
        while self.peek().kind == "&":
            self.next()
            g = GBoth(g, self.postfix())
        return g

    def postfix(self) -> GlobalType:
        g = self.atom()
        while True:
            if self.peek().kind == "*":
                self.next()
                g = GStar(g)
            elif self.peek().kind == "?":
                self.next()
                g = GEither(g, GSkip())
            else:
                return g

    def atom(self) -> GlobalType:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            g = self.either()
            self.eat(")")
            return g
        if tok.kind == "{":
            senders = self.role_set()
            return self.interaction_tail(senders, tok)
        if tok.kind == "ident":
            if tok.text == "skip":
                self.next()
                return GSkip()
            m = _LOOP_RE.match(tok.text)
            if m and self.peek(1).kind == "(":
                return self.loopk(int(m.group(1)))
            self.next()
            return self.interaction_tail(frozenset({tok.text}), tok)
        self.fail(f"expected a global type, found {tok.text or 'end of input'!r}")
        raise AssertionError  # unreachable

    def interaction_tail(self, senders: frozenset[Role], at: _Token) -> GAction:
        self.eat("->")
        receiver = self.eat("ident").text
        self.eat(":")
        message = self.eat("ident").text
        try:
            return GAction(Interaction(senders, receiver, message))
        except SelfMessageError as exc:
            raise SelfMessageError(f"{at.line}:{at.col}: {exc}") from None

    def loopk(self, k: int) -> GKExit:
        if k < 1:
            self.fail("loopk needs k >= 1")
        self.next()  # the loopN ident
        bodies = self.group(k, "loop")
        if not self.at_ident("exit"):
            self.fail("expected 'exit'")
        self.next()
        exits = self.group(k, "exit")
        return GKExit(tuple(bodies), tuple(exits))

    def group(self, k: int, what: str) -> list[GlobalType]:
        self.eat("(")
        items = [self.either()]
        while self.peek().kind == ",":
            self.next()
            items.append(self.either())
        self.eat(")")
        if len(items) != k:
            self.fail(f"{what} group has {len(items)} parts, expected {k}")
        return items


def parse_global_type(text: str) -> GlobalType:
    """Parse the body of a ``.gt`` file."""
    return _GlobalParser(text).parse()


# ---------------------------------------------------------------------------
# Session-type parsing
# ---------------------------------------------------------------------------


class _SessionParser(_Parser):
    def parse_type(self) -> SessionType:
        t = self.expr()
        if self.peek().kind != "eof":
            self.fail(f"unexpected {self.peek().text!r} after session type")
        return t

    def parse_env(self) -> SessionEnv:
        env: SessionEnv = {}
        while self.peek().kind != "eof":
            at = self.peek()
            role = self.eat("ident").text
            self.eat(":")
            t = self.expr()
            if role in env:
                raise DuplicateRoleError(
                    f"{at.line}:{at.col}: role {role!r} bound twice"
                )
            env[role] = t
        if not env:
            self.fail("expected at least one 'role : type' binding")
        return env

    def expr(self) -> SessionType:
        if self.at_ident("rec"):
            return self.rec()
        first = self.unit()
        op = self.peek().kind
        if op not in ("(+)", "+"):
            return first
        branches = [first]
        while self.peek().kind == op:
            self.next()
            branches.append(self.unit())
        if self.peek().kind in ("(+)", "+"):
            self.fail("cannot mix '(+)' and '+' without parentheses")
        if op == "(+)":
            return TInternal(tuple(branches))
        return TExternal(tuple(branches))

    def rec(self) -> TRec:
        self.next()  # 'rec'
        var = self.eat("ident").text
        self.eat(".")
        return TRec(var, self.expr())

    def unit(self) -> SessionType:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            t = self.expr()
            self.eat(")")
            return t
        if tok.kind == "{":
            partners = self.role_set()
            self.eat("?")
            return self.prefix_tail(partners, is_input=True)
        if tok.kind == "ident":
            if tok.text == "end":
                self.next()
                return TEnd()
            if tok.text == "rec":
                return self.rec()
            name = self.next().text
            if self.peek().kind == "!":
                self.next()
                return self.prefix_tail(frozenset({name}), is_input=False)
            if self.peek().kind == "?":
                self.next()
                return self.prefix_tail(frozenset({name}), is_input=True)
            return TVar(name)
        self.fail(f"expected a session type, found {tok.text or 'end of input'!r}")
        raise AssertionError  # unreachable

    def prefix_tail(self, partners: frozenset[Role], is_input: bool) -> SessionType:
        message = self.eat("ident").text
        self.eat(".")
        cont = self.rec() if self.at_ident("rec") else self.unit()
        if is_input:
            return TIn(partners, message, cont)
        if len(partners) != 1:
            self.fail("an output has exactly one partner")
        return TOut(next(iter(partners)), message, cont)


def parse_session_type(text: str) -> SessionType:
    """Parse a single session type (no role binding)."""
    t = _SessionParser(text).parse_type()
    _validate(t)
    return t


def parse_session_env(text: str) -> SessionEnv:
    """Parse the body of a ``.mps`` file: one or more `role : type` bindings.

    Every parsed type is validated: closed, guarded, and normalizable."""
    env = _SessionParser(text).parse_env()
    for role, t in env.items():
        try:
            _validate(t)
        except ValueError as exc:
            raise type(exc)(f"in binding for role {role!r}: {exc}") from None
    return env


def _validate(t: SessionType) -> None:
    from . import machine

    if not machine.is_canonical(t):  # a prefix chain is closed and guarded
        free = free_type_vars(t)
        if free:
            raise ParseError(
                f"unbound recursion variable {sorted(free)[0]!r}", 1, 1
            )
        check_guarded(t)
    machine.normalize_session_type(t)  # raises NotSessionTypeError on bad choices


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

_G_PREC = {GEither: 0, GSeq: 1, GBoth: 2, GStar: 3}
_G_OP = {GEither: "|", GSeq: ";", GBoth: "&"}


def print_global_type(g: GlobalType) -> str:
    """Render `g` so that parse_global_type(print_global_type(g)) == g."""

    def prec(node: GlobalType) -> int:
        return _G_PREC.get(type(node), 4)

    def render(node: GlobalType, level: int, right: bool = False) -> str:
        p = prec(node)
        match node:
            case GSkip():
                s = "skip"
            case GAction(i):
                s = str(i)
            case GSeq(l, r) | GBoth(l, r) | GEither(l, r):
                op = _G_OP[type(node)]
                s = f"{render(l, p)} {op} {render(r, p, right=True)}"
            case GStar(b):
                s = f"{render(b, p)}*"
            case GKExit(bodies, exits):
                bs = ", ".join(render(b, 0) for b in bodies)
                es = ", ".join(render(e, 0) for e in exits)
                s = f"loop{len(bodies)} ({bs}) exit ({es})"
            case _:
                raise TypeError(f"not a global type: {node!r}")
        if p < level or (p == level and right):
            return f"({s})"
        return s

    return render(g, 0)


def print_session_type(t: SessionType) -> str:
    """Render `t`; inverse of parse_session_type up to structural equality.

    Terms and the text between them are taken off an explicit stack, so a
    type of any depth prints without running out of stack frames."""
    out: list[str] = []
    work: list = [t]  # session types still to render, and text, last first

    def unit(node: SessionType) -> None:
        if isinstance(node, (TInternal, TExternal, TRec, TMerge)):
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
            case TInternal(bs) | TExternal(bs):
                sep = " (+) " if type(node) is TInternal else " + "
                for i, b in enumerate(reversed(bs)):
                    if i:
                        work.append(sep)
                    unit(b)
            case TRec(x, b):
                out.append(f"rec {x} . ")
                work.append(b)
            case TMerge(l, r):
                work.extend((")", r, ", ", l, "merge("))
            case _:
                raise TypeError(f"not a session type: {node!r}")
    return "".join(out)


def print_session_env(env: SessionEnv) -> str:
    """Render an environment in ``.mps`` form, one binding per line, roles
    sorted."""
    return "\n".join(
        f"{role} : {print_session_type(env[role])}" for role in sorted(env)
    )
