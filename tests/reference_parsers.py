"""The recursive-descent parsers that `mpst.syntax` used before its
explicit-stack parsers, kept as the reference the differential tests in
tests/test_syntax.py compare against.

They build the same terms from the same classes and raise the same errors
with the same texts and positions; only they recurse once per level of
nesting, so they give up (RecursionError) on deep inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from mpst.syntax import (
    DuplicateRoleError,
    GAction,
    GEither,
    GKExit,
    GlobalType,
    GBoth,
    GSeq,
    GSkip,
    GStar,
    Interaction,
    ParseError,
    Role,
    SelfMessageError,
    SessionEnv,
    SessionType,
    TEnd,
    TExternal,
    TIn,
    TInternal,
    TOut,
    TRec,
    TVar,
)

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



def parse_global_type(text: str) -> GlobalType:
    """The term of a ``.gt`` text, as the recursive-descent parser read it."""
    return _GlobalParser(text).parse()


def parse_session_type(text: str) -> SessionType:
    """The term of one session type, not validated."""
    return _SessionParser(text).parse_type()


def parse_session_env(text: str) -> SessionEnv:
    """The bindings of a ``.mps`` text, not validated."""
    return _SessionParser(text).parse_env()
