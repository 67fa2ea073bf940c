"""Parsing and printing of global types and session environments."""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import pickle
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parsers
from mpst import syntax
from mpst.syntax import (
    DuplicateRoleError,
    GAction,
    GBoth,
    GEither,
    GKExit,
    GSeq,
    GSkip,
    GStar,
    Interaction,
    ParseError,
    SelfMessageError,
    TEnd,
    TExternal,
    TIn,
    TInternal,
    TMerge,
    TOut,
    TRec,
    TVar,
    UnguardedRecursionError,
    default_max_len,
    interaction_count,
    parse_global_type,
    parse_session_env,
    parse_session_type,
    parts,
    postorder,
    print_global_type,
    print_session_env,
    print_session_type,
    roles_of,
    subterms,
    with_parts,
    with_subterms,
)
from mpst.projector import ProjectionError, project_top
from mpst.verifier import random_global_type
from test_machine import CORPUS_GLOBAL
from test_projector import grouped
from test_tracelang import loopk_text


def test_single_interaction_parses_to_action():
    g = parse_global_type("p -> q : a")
    assert g == GAction(Interaction(frozenset({"p"}), "q", "a"))


def test_multi_sender_interaction_parses_to_join():
    g = parse_global_type("{q1, q2} -> q : b")
    assert g == GAction(Interaction(frozenset({"q1", "q2"}), "q", "b"))


def test_receiver_must_not_send_to_itself():
    with pytest.raises((SelfMessageError, ParseError)):
        parse_global_type("p -> p : a")
    with pytest.raises((SelfMessageError, ParseError)):
        parse_global_type("{p, q} -> p : a")


def test_star_binds_tighter_than_shuffle_than_seq_than_alternative():
    g = parse_global_type("p -> q : a ; q -> r : b & r -> q : c | p -> q : d *")
    # `|` at the top, `;` above `&`, `*` on the last atom
    assert isinstance(g, GEither)
    assert isinstance(g.left, GSeq)
    assert isinstance(g.left.right, GBoth)
    assert isinstance(g.right, GStar)


def test_option_sugar_expands_to_either_skip():
    g = parse_global_type("(p -> q : a)?")
    assert isinstance(g, GEither)
    assert g.right == GSkip() or g.left == GSkip()


def test_loop_syntax_round_trips():
    src = "loop2 (p -> q : h, q -> p : h) exit (p -> q : b, q -> p : b)"
    g = parse_global_type(src)
    assert isinstance(g, GKExit)
    assert len(g.bodies) == 2 and len(g.exits) == 2
    assert parse_global_type(print_global_type(g)) == g


def test_loop_requires_matching_counts():
    with pytest.raises(ParseError):
        parse_global_type("loop2 (p -> q : a) exit (p -> q : b, q -> p : b)")


def test_comments_and_whitespace_are_ignored():
    g = parse_global_type("// greeting\np -> q : a ; // then\n  q -> p : b\n")
    assert interaction_count(g) == 2


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_global_type("p -> q :\n")
    assert err.value.line == 2 or err.value.line == 1


def test_global_roles_and_counts():
    g = parse_global_type("(p -> q : a ; {q, r} -> s : b)*")
    assert roles_of(g) == {"p", "q", "r", "s"}
    assert interaction_count(g) == 2
    assert default_max_len(g) == 2 * 2 + 4


def test_subterm_helpers_round_trip_every_constructor():
    a, b, c = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "abc")
    loop = GKExit((a, b), (c, GSkip()))
    for g in [GSkip(), a, GSeq(a, b), GBoth(a, b), GEither(a, b), GStar(a), loop]:
        assert with_subterms(g, subterms(g)) == g
    assert subterms(loop) == (a, b, c, GSkip())
    assert with_subterms(loop, (b, a, GSkip(), c)) == GKExit((b, a), (GSkip(), c))
    out, into = TOut("q", "a", TVar("X")), TIn(frozenset({"p", "r"}), "b", TEnd())
    for t in [
        TEnd(),
        TVar("X"),
        out,
        into,
        TInternal((out, TOut("q", "c", TEnd()))),
        TExternal((into, TIn(frozenset({"p"}), "c", TEnd()))),
        TRec("X", out),
        TMerge((out, into)),
    ]:
        assert with_parts(t, parts(t)) == t
    assert with_parts(TRec("X", out), (into,)) == TRec("X", into)
    for helper in (subterms, parts):
        with pytest.raises(TypeError):
            helper("p -> q : a")
    with pytest.raises(TypeError):
        with_subterms(TEnd(), ())
    with pytest.raises(TypeError):
        with_parts(GSkip(), ())


def test_spine_lists_the_same_operands_however_parenthesized():
    """`;`, `|` and `&` are associative: a spine built nested to the left,
    to the right or both ways is one term with the same operands, in
    order, and a subterm built by another constructor is one operand.
    Repeated operands stay, as written."""
    a, b, c, d = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "abcd")
    for op in (GSeq, GEither, GBoth):
        other = GBoth(b, c) if op is GSeq else GSeq(b, c)
        built = [op(op(op(a, other), c), d), op(a, op(other, op(c, d))), op(op(a, op(other, c)), d), op(a, other, c, d)]
        for g in built:
            assert g.operands == (a, other, c, d) and type(g.operands) is tuple
            assert g == built[0] and hash(g) == hash(built[0])
        assert op(op(a, a), a).operands == (a, a, a)
    assert parse_global_type("p -> q : a ; (p -> q : b ; p -> q : c) | p -> q : d").operands == (
        parse_global_type("p -> q : a ; p -> q : b ; p -> q : c"),
        d,
    )


def test_spine_of_any_other_root_is_the_term_itself():
    """An operand of another constructor is kept whole: only an operand of
    the spine's own kind is spliced in."""
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    for g in (GSkip(), a, GStar(GSeq(a, b)), GKExit((GSeq(a, b),), (b,)), GBoth(a, b), GEither(a, b)):
        assert GSeq(g, a).operands == (g, a) and GSeq(a, g).operands == (a, g)
    assert GSeq(GSeq(a, b)).operands == (a, b)


def test_spine_of_a_deep_chain_needs_no_stack():
    """A chain of 20,000 operands is one term, whichever way its text
    nests; built by one constructor call, it copies its operands once."""
    links = [GAction(Interaction(frozenset({"p"}), "q", f"m{i}")) for i in range(20000)]
    chain = GSeq(*links)
    assert chain.operands == tuple(links)
    texts = [str(x.interaction) for x in links]
    assert parse_global_type(" ; ".join(texts)) == chain
    assert parse_global_type(" ; (".join(texts) + ")" * (len(texts) - 1)) == chain
    assert interaction_count(GEither(*links)) == 20000


def test_every_grouping_of_a_text_is_one_term():
    """For `;`, `|` and `&`, every parenthesization of one text parses to
    one term, with one hash and one printed form, which parses back to
    it; a subterm of another operator stays one operand, and a
    parenthesized spine of the same operator is spliced in."""
    operands = ["p -> q : a", "(q -> r : b | r -> q : c)", "r -> p : d*", "p -> q : a", "(q -> p : e & r -> p : f ; p -> r : g)"]
    for op in ";|&":
        terms = [parse_global_type(grouped(operands, shape, f" {op} ")) for shape in ("left", "right", "halves", "flat")]
        printed = {print_global_type(t) for t in terms}
        assert all(t == terms[0] and hash(t) == hash(terms[0]) for t in terms)
        assert len(printed) == 1 and parse_global_type(printed.pop()) == terms[0]
        # the second operand is a `|` spine and the last a `;` spine
        assert len(terms[0].operands) == {";": 6, "|": 6, "&": 5}[op]
    assert print_global_type(parse_global_type("p -> q : a ; (q -> r : b ; (r -> p : c | skip))")) == (
        "p -> q : a ; q -> r : b ; (r -> p : c | skip)"
    )


def test_parsing_a_chain_builds_its_spine_once(monkeypatch):
    """The parser collects the operands of a spine and calls its
    constructor once, when the spine closes: the corpus's 500-interaction
    chain is one `;` call, however its text nests."""
    calls = []
    built = GSeq.__init__

    def counted(self, *operands):
        calls.append(len(operands))
        built(self, *operands)

    monkeypatch.setattr(GSeq, "__init__", counted)
    chain = parse_global_type(CORPUS_GLOBAL[-1])
    assert calls == [500] and len(chain.operands) == 500
    for shape in ("left", "right", "halves"):
        calls.clear()
        assert parse_global_type(grouped(CORPUS_GLOBAL[-1].split(" ; "), shape, " ; ")) == chain and calls == [500]


def test_a_parenthesized_spine_joins_only_where_the_parser_would():
    """A spine that ends a parenthesis joins the spine around it only
    where dropping the parenthesis parses alike: not under a postfix
    operator, and not next to an operator that binds more tightly."""
    texts = [
        "p -> q : a ; (q -> p : b ; p -> q : c)*",
        "p -> q : a ; (q -> p : b ; p -> q : c)? ; p -> q : d",
        "p -> q : a & (q -> p : b ; p -> q : c) ; p -> q : d",
        "p -> q : a ; (q -> p : b ; p -> q : c) & p -> q : d",
        "(p -> q : a ; q -> p : b) & p -> q : c",
        "p -> q : e | (p -> q : a ; q -> p : b) ; p -> q : c",
        "(p -> q : a | q -> p : b) ; (p -> q : c | q -> p : d) | p -> q : e",
        "((p -> q : a | (q -> p : b)) | p -> q : c) ; (p -> q : d)",
        "loop1 ((p -> q : a ; q -> p : b)) exit ((p -> q : c ; (q -> p : d)))",
    ]
    for text in texts:
        g = parse_global_type(text)
        assert g == reference_parsers.parse_global_type(text), text
        assert parse_global_type(print_global_type(g)) == g


def test_repr_of_the_corpus_chain_does_not_recurse():
    """A spine is one level, and `repr` walks off a stack besides: the
    500-interaction chain prints at the default recursion limit."""
    chain = parse_global_type(CORPUS_GLOBAL[-1])
    text = repr(chain)
    assert text.startswith("GSeq(operands=(GAction(") and text.count("GAction(") == 500


def generated_repr(t) -> str:
    """The repr that plain dataclasses of the same names and fields, built
    like `t`, generate: `Name(field=value, ...)`, recursing once per
    level."""
    mirrors: dict = {}

    def mirror(x):
        if type(x) is tuple:
            return tuple([mirror(y) for y in x])
        if not isinstance(x, syntax._GlobalTerm):
            return x
        names = [f.name for f in dataclasses.fields(x)]
        cls = mirrors.setdefault(type(x), dataclasses.make_dataclass(type(x).__qualname__, names))
        return cls(*[mirror(getattr(x, name)) for name in names])

    return repr(mirror(t))


def alternating(depth: int):
    """`p -> q : a ; (p -> q : a ; (.. | r -> s : c) | r -> s : c)`, `;` and
    `|` alternating `depth` levels deep, so that no spine flattens."""
    a, c = parse_global_type("p -> q : a"), parse_global_type("r -> s : c")
    t = a
    for i in range(depth):
        t = GSeq(a, t) if i % 2 else GEither(t, c)
    return t


def nested_loops(depth: int):
    t = parse_global_type("p -> q : a")
    for _ in range(depth):
        t = GKExit((t,), (GSkip(),))
    return t


@pytest.mark.parametrize(
    "protocol",
    [
        "p -> q : a",
        "p -> q : a ; (r -> s : b | skip)* & {p,r} -> q : c",
        loopk_text(1),
        loopk_text(3),
        "loop2 (p -> q : a, skip) exit (q -> p : b & r -> s : c, p -> q : d | skip)",
    ],
)
def test_repr_of_a_global_term_is_the_generated_one(protocol):
    g = parse_global_type(protocol)
    assert repr(g) == generated_repr(g)


@pytest.mark.parametrize(
    "deep",
    [parse_global_type("p -> q : a" + "*" * 400), alternating(300), nested_loops(300)],
    ids=["stars", "alternating", "loopk"],
)
def test_repr_of_a_deep_global_term_does_not_recurse(deep):
    """400 stacked `*`, 300 alternating `;` and `|`, and 300 nested
    `loopk` print at the default recursion limit, as the generated repr
    prints them with the limit raised."""
    text = repr(deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        assert text == generated_repr(deep)
    finally:
        sys.setrecursionlimit(limit)


def test_copies_keep_their_derived_slots():
    """A copy, a deep copy or a pickle of a term is rebuilt through its
    constructor, so its stored hash, its chain length and its empty
    machine slot are computed again: for a spine, a `loopk`, an
    interaction and each session constructor."""
    end = TEnd()
    out = TOut("q", "a", end)
    terms = [
        parse_global_type("p -> q : a ; q -> p : b"),
        parse_global_type("p -> q : a | (q -> p : b & p -> q : c)*"),
        parse_global_type(loopk_text(2)),
        parse_global_type("{p, r} -> q : a").interaction,
        out,
        TIn({"q", "r"}, "a", out),
        TInternal((out, TOut("q", "b", end))),
        TExternal((TIn({"q"}, "a", end), TIn({"q"}, "b", end))),
        TMerge((out, end)),
        TRec("X", TOut("q", "a", TVar("X"))),
        TVar("X"),
        end,
        GSkip(),
    ]
    for t in terms:
        for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(again) is type(t) and again == t and hash(again) == hash(t)
            if isinstance(t, (TOut, TIn)):
                assert again._chain == t._chain
            if hasattr(t, "_machine"):
                assert again._machine is None


def test_global_terms_hash_as_their_field_tuples():
    """A term's stored hash is the hash of its field tuple, behind a tag of
    its own for `;`, `|` and `&` (the generated dataclass hash, for the
    other terms); repr is the generated one, and so is replace but for a
    spine, whose constructor takes its operands by position."""
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    cases = [
        (
            lambda: Interaction(frozenset({"p"}), "q", "a"),
            (frozenset({"p"}), "q", "a"),
            "Interaction(senders=frozenset({'p'}), receiver='q', message='a')",
        ),
        (lambda: GSkip(), (), "GSkip()"),
        (
            lambda: GAction(Interaction(frozenset({"p"}), "q", "a")),
            (a.interaction,),
            "GAction(interaction=Interaction(senders=frozenset({'p'}), receiver='q', message='a'))",
        ),
        (lambda: GSeq(a, b), (GSeq._TAG, (a, b)), f"GSeq(operands=({a!r}, {b!r}))"),
        (lambda: GBoth(a, b, a), (GBoth._TAG, (a, b, a)), f"GBoth(operands=({a!r}, {b!r}, {a!r}))"),
        (lambda: GEither(a, b), (GEither._TAG, (a, b)), f"GEither(operands=({a!r}, {b!r}))"),
        (lambda: GStar(a), (a,), f"GStar(body={a!r})"),
        (lambda: GKExit([a], [b]), ((a,), (b,)), f"GKExit(bodies=({a!r},), exits=({b!r},))"),
    ]
    for build, fields, text in cases:
        term, twin = build(), build()
        assert term is not twin and term == twin
        assert hash(term) == hash(fields) == hash(twin)
        assert repr(term) == text
        if not isinstance(term, PAIRS):
            assert dataclasses.replace(term) == term
    with pytest.raises(TypeError):
        dataclasses.replace(GSeq(a, b))
    assert dataclasses.replace(GKExit((a,), (b,)), exits=[a]) == GKExit((a,), (a,))
    assert GSeq.__match_args__ == ("left", "right")
    assert Interaction.__match_args__ == ("senders", "receiver", "message")
    assert GKExit.__match_args__ == ("bodies", "exits")


def test_hashing_a_deep_sequence_needs_no_stack():
    """A term 20,000 levels deep, `;` and `|` alternating, each level
    built on the one below it."""
    steps = [GAction(Interaction(frozenset({"p"}), "q", f"m{k % 3}")) for k in range(20000)]
    chain = steps[0]
    for k, x in enumerate(steps[1:]):
        chain = (GSeq if k % 2 else GEither)(chain, x)
    assert hash(chain) == hash((GEither._TAG, chain.operands))
    assert chain in {chain}


def test_sequence_parallel_and_choice_of_the_same_sides_hash_apart():
    """Sets of terms next to their `&` -> `;` rewrites then need no
    equality walk to tell them apart."""
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    for left, right in ((a, b), (b, a), (a, a), (GSeq(a, b), GBoth(a, b))):
        terms = [GSeq(left, right), GBoth(left, right), GEither(left, right)]
        assert len({hash(t) for t in terms}) == 3
        assert len(set(terms)) == 3


def assert_equal_when_built_alike(builds, deep):
    """Every two terms from `builds`, and `deep` of them, each built apart,
    are equal exactly when they come from the same build."""
    left = [(build(), deep(build)) for build in builds]
    right = [(build(), deep(build)) for build in builds]
    for (i, (x, deep_x)), (j, (y, deep_y)) in itertools.product(enumerate(left), enumerate(right)):
        assert (x == y) == (i == j) != (x != y)
        assert (deep_x == deep_y) == (i == j) != (deep_x != deep_y)


def test_equal_global_terms_compare_at_any_depth():
    """Terms built apart are equal exactly when they are built alike, also
    at the bottom of a 1,000-deep `;` chain: the generated dataclass
    equality overflowed the stack at about 335 levels."""
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    bottoms = [
        lambda: GSkip(),
        lambda: a,
        lambda: b,
        lambda: GSeq(a, b),
        lambda: GSeq(b, a),
        lambda: GBoth(a, b),
        lambda: GEither(a, b),
        lambda: GStar(a),
        lambda: GStar(b),
        lambda: GKExit([a], [b]),
        lambda: GKExit([a], [a]),
        lambda: GKExit([a, b], [b, a]),
    ]

    def deep(bottom):
        return functools.reduce(lambda t, x: GSeq(GStar(t), x), [a] * 1000, bottom())

    assert_equal_when_built_alike(bottoms, deep)
    assert a != "p -> q : a" and GSeq(a, b) != (a, b)


def test_global_equality_does_not_stop_at_equal_hashes():
    """Terms that differ in an interaction, in a subterm's hash or in a
    loop's arity stay unequal when their stored hashes are made equal."""
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    cases = [
        (GSeq(a, b), GSeq(a, a)),
        (GStar(a), GStar(b)),
        (GKExit([a], [a]), GKExit([a, a], [a, a])),
        (GSeq(GSeq(a, b), a), GSeq(GSeq(a, a), a)),
        (GSeq(a, b), GSeq(a, b, a)),
        (GEither(a, b, a), GEither(a, b)),
    ]
    for x, y in cases:
        object.__setattr__(y, "_hash", x._hash)
        assert hash(x) == hash(y)
        assert x != y and y != x


def test_equal_session_terms_compare_at_any_depth():
    """As above, for session types under 1,000 outputs."""
    end = TEnd()
    bottoms = [
        lambda: end,
        lambda: TVar("X"),
        lambda: TVar("Y"),
        lambda: TOut("q", "a", end),
        lambda: TOut("q", "b", end),
        lambda: TOut("r", "a", end),
        lambda: TOut("q", "a", TVar("X")),
        lambda: TIn({"q"}, "a", end),
        lambda: TIn({"q", "r"}, "a", end),
        lambda: TIn({"q"}, "b", end),
        lambda: TInternal((TOut("q", "a", end), TOut("q", "b", end))),
        lambda: TInternal((TOut("q", "b", end), TOut("q", "a", end))),
        lambda: TInternal((TOut("q", "a", end), TOut("q", "b", end), TOut("r", "c", end))),
        lambda: TExternal((TIn({"q"}, "a", end), TIn({"q"}, "b", end))),
        lambda: TExternal((TOut("q", "a", end), TOut("q", "b", end))),
        lambda: TRec("X", TOut("q", "a", TVar("X"))),
        lambda: TRec("Y", TOut("q", "a", TVar("X"))),
        lambda: TMerge((TOut("q", "a", end), end)),
        lambda: TMerge((end, TOut("q", "a", end))),
    ]

    def deep(bottom):
        t = bottom()
        for _ in range(1000):
            t = TOut("p", "m", t)
        return t

    assert_equal_when_built_alike(bottoms, deep)
    assert end != "end" and TVar("X") != ("X",)
    # the two choices over the same branches differ only in their class
    branches = (TOut("q", "a", end), TOut("q", "b", end))
    assert hash(TInternal(branches)) == hash(TExternal(branches))


GLOBAL_CONSTRUCTORS = (GSkip, GAction, GSeq, GBoth, GEither, GStar, GKExit)
SESSION_CONSTRUCTORS = (TEnd, TVar, TOut, TIn, TInternal, TExternal, TRec, TMerge)
PAIRS = (GSeq, GBoth, GEither)
# frozen dataclasses with the compared fields of each constructor and of
# interactions, and the generated hash; the twin of `;`, `&` or `|` takes
# its constructor's `_TAG` first, as a field that repr leaves out, since
# the stored hash of the three includes it
GENERATED = {
    k: dataclasses.make_dataclass(
        k.__name__,
        [("_TAG", int, dataclasses.field(repr=False))] * (k in PAIRS)
        + [f.name for f in dataclasses.fields(k) if f.compare],
        frozen=True,
    )
    for k in (Interaction, *GLOBAL_CONSTRUCTORS, *SESSION_CONSTRUCTORS)
}


def test_terms_of_every_constructor_hold_no_attribute_dict():
    """Every constructor, also one that shares its definition with others,
    keeps its instances in slots: no `__dict__`, no field that can be
    assigned and no attribute that can be added."""
    a = GAction(Interaction(frozenset({"p"}), "q", "a"))
    out = TOut("q", "a", TEnd())
    terms = [
        GSkip(), a, GSeq(a, a), GBoth(a, a), GEither(a, a), GStar(a), GKExit([a], [a]),
        TEnd(), TVar("X"), out, TIn({"q"}, "a", TEnd()), TInternal((out, out)), TExternal((out, out)),
        TRec("X", out), TMerge((out, out)),
    ]
    assert {type(t) for t in terms} == {*GLOBAL_CONSTRUCTORS, *SESSION_CONSTRUCTORS}
    for t in terms:
        assert not hasattr(t, "__dict__"), type(t)
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, getattr(t, f.name))
        with pytest.raises((AttributeError, TypeError)):
            t.extra = None


def test_no_term_takes_an_assigned_hash_or_machine():
    """Assigning the stored hash of an interaction or a term of any
    constructor is refused, and so is assigning the kept machine of a
    session term: as a frozen field, or as a slot of a frozen dataclass's
    base, which Python 3.11 refuses with a TypeError."""
    a = GAction(Interaction(frozenset({"p"}), "q", "a"))
    out = TOut("q", "a", TEnd())
    globals_ = [a.interaction, GSkip(), a, GSeq(a, a), GBoth(a, a), GEither(a, a), GStar(a), GKExit([a], [a])]
    sessions = [
        TEnd(), TVar("X"), out, TIn({"q"}, "a", TEnd()), TInternal((out, out)), TExternal((out, out)),
        TRec("X", out), TMerge((out, out)),
    ]
    assert {type(t) for t in globals_ + sessions} == {Interaction, *GLOBAL_CONSTRUCTORS, *SESSION_CONSTRUCTORS}
    refused = (dataclasses.FrozenInstanceError, TypeError)
    for t in globals_ + sessions:
        before = hash(t)
        with pytest.raises(refused):
            t._hash = 0
        assert hash(t) == before
    for t in sessions:
        with pytest.raises(refused):
            t._machine = None


def generated_twin(value):
    """`value` rebuilt from the classes of GENERATED, so that its hash is
    the one the generated dataclass hash gives the original."""
    if isinstance(value, tuple):
        return tuple(map(generated_twin, value))
    twin = GENERATED.get(type(value))
    if twin is None:
        return value
    return twin(*(generated_twin(getattr(value, f.name)) for f in dataclasses.fields(twin)))


def test_session_terms_hash_as_generated_on_random_projections():
    """A session term's stored hash is the generated dataclass hash, so
    sets and dicts of terms behave as before; repr is untouched."""
    end = TEnd()
    terms = [
        TVar("X"),
        TIn({"q", "r"}, "a", end),
        TRec("X", TInternal((TOut("q", "a", TVar("X")), TOut("q", "b", end)))),
        TExternal((TIn({"q"}, "a", end), TIn({"q"}, "b", end))),
        TMerge((TOut("q", "a", end), end)),
    ]
    projected = 0
    seed = 20261018
    while projected < 300:
        try:
            env = project_top(random_global_type(seed, max_size=6, role_count=4, star_depth=2))
        except ProjectionError:
            env = {}
        seed += 1
        projected += bool(env)
        terms += env.values()
    for t in terms:
        assert hash(t) == hash(generated_twin(t))
        assert repr(t) == repr(generated_twin(t))
    assert {type(t) for t in terms} >= {TOut, TIn, TInternal, TExternal, TRec}


def test_global_terms_and_interactions_are_built_as_generated():
    """A global term or an interaction built by its constructor's own
    `__init__` hashes and prints as its generated twin, and so does every
    subterm of it; built again from its fields (`dataclasses.replace`, or
    a spine's constructor on its operands), it is equal, with an equal
    twin."""
    texts = [*CORPUS_GLOBAL, loopk_text(3), "(p -> q : a)? ; skip", "p -> q : a & {p, r} -> q : b"]
    types = [parse_global_type(text) for text in texts]
    types += [random_global_type(seed, max_size=10, role_count=4, star_depth=2) for seed in range(200)]
    terms = {t for g in types for t, _ in postorder(g)}
    terms |= {t.interaction for t in terms if type(t) is GAction}
    assert {type(t) for t in terms} == {Interaction, *GLOBAL_CONSTRUCTORS}
    for t in terms:
        twin = generated_twin(t)
        assert hash(t) == hash(twin) and repr(t) == repr(twin)
        again = type(t)(*t.operands) if isinstance(t, PAIRS) else dataclasses.replace(t)
        assert again == t and again is not t and generated_twin(again) == twin


def test_a_prefix_counts_the_prefixes_down_to_end():
    """`_chain` is the number of prefixes down to `end`, and 0 down to a
    variable, a choice, a merge or a `rec`, on chains that mix outputs and
    inputs."""
    end = TEnd()
    out = TOut("q", "a", end)
    bottoms = [
        (end, True),
        (TVar("X"), False),
        (TInternal((out, TOut("q", "b", end))), False),
        (TExternal((TIn({"q"}, "a", end), TIn({"q"}, "b", end))), False),
        (TMerge((out, end)), False),
        (TRec("X", TOut("q", "a", TVar("X"))), False),
    ]
    for bottom, counted in bottoms:
        t = bottom
        for k in range(1, 40):
            t = TOut("q", f"m{k}", t) if k % 3 else TIn({"q", "r"}, f"m{k}", t)
            assert t._chain == (k if counted else 0)


def test_a_session_term_is_built_with_no_machine_and_no_hash():
    """A compound session term keeps no machine when built, and stores its
    hash, the generated one, only once it is first hashed."""
    end = TEnd()
    out = TOut("q", "a", end)
    for build in (
        lambda: TOut("q", "a", out),
        lambda: TIn({"q", "r"}, "a", out),
        lambda: TInternal((out, TOut("q", "b", end))),
        lambda: TExternal((TIn({"q"}, "a", end), TIn({"q"}, "b", end))),
        lambda: TMerge((out, end)),
        lambda: TRec("X", TOut("q", "a", TVar("X"))),
    ):
        t = build()
        assert t._machine is None and t._hash is None
        assert hash(t) == t._hash == hash(generated_twin(t))
        assert t._machine is None


def test_every_constructor_refuses_as_before():
    """Each refusal of a constructor keeps its exception type and message,
    whether the term is built by position, by keyword or by `replace`; a
    merge and a spine flatten their operands before they count them."""
    p = frozenset({"p"})
    a = GAction(Interaction(p, "q", "a"))
    out = TOut("q", "a", TEnd())
    refused = [
        (lambda: Interaction(frozenset(), "q", "a"), ValueError, "interaction needs at least one sender"),
        (lambda: Interaction(senders=[], receiver="q", message="a"), ValueError, "interaction needs at least one sender"),
        (lambda: Interaction(p, "p", "a"), SelfMessageError, "role 'p' cannot send a message to itself"),
        (lambda: Interaction({"p", "q"}, "q", "a"), SelfMessageError, "role 'q' cannot send a message to itself"),
        (lambda: dataclasses.replace(a.interaction, receiver="p"), SelfMessageError, "role 'p' cannot send a message to itself"),
        (lambda: TIn(frozenset(), "a", TEnd()), ValueError, "input needs at least one partner"),
        (lambda: TIn(partners=(), message="a", cont=TEnd()), ValueError, "input needs at least one partner"),
        (lambda: TInternal((out,)), ValueError, "choice needs at least two branches"),
        (lambda: TExternal(()), ValueError, "choice needs at least two branches"),
        (lambda: TMerge([out]), ValueError, "choice needs at least two branches"),
        (lambda: dataclasses.replace(TInternal((out, out)), branches=(out,)), ValueError, "choice needs at least two branches"),
        (lambda: GKExit([a], [a, a]), ValueError, "loopk needs k >= 1 bodies and k exits"),
        (lambda: GKExit([a, a], [a]), ValueError, "loopk needs k >= 1 bodies and k exits"),
        (lambda: GKExit((), ()), ValueError, "loopk needs k >= 1 bodies and k exits"),
        (lambda: GKExit(bodies=[a], exits=[]), ValueError, "loopk needs k >= 1 bodies and k exits"),
        (lambda: GSeq(a), ValueError, "a spine needs at least two operands"),
        (lambda: GBoth(), ValueError, "a spine needs at least two operands"),
        (lambda: GEither(a), ValueError, "a spine needs at least two operands"),
    ]
    for build, kind, message in refused:
        with pytest.raises(kind) as caught:
            build()
        assert type(caught.value) is kind and str(caught.value) == message
    merged = TMerge((TMerge((out, TEnd())),))
    assert merged.branches == (out, TEnd()) and type(merged.branches) is tuple
    assert GKExit(iter([a]), iter([a])).bodies == (a,)
    assert GSeq(GSeq(a, a)).operands == (a, a)
    assert TIn(["q", "q"], "a", TEnd()).partners == frozenset({"q"})


def test_hashing_a_deep_session_type_needs_no_stack():
    chain = TEnd()
    for k in range(20000):
        chain = TOut("q", f"m{k % 3}", chain)
    assert hash(chain) == hash((chain.partner, chain.message, chain.cont))
    assert chain in {chain}


def test_a_session_term_hashes_on_first_use_without_recursing():
    """A term of every compound constructor, 1,500 levels deep and sharing
    its continuations, is built unhashed and hashes on first use, each
    node to the hash of its fields."""
    ty, built = TVar("X"), []
    for k in range(1500):
        shared = TIn(frozenset("p"), f"m{k % 3}", ty)
        ty = [
            TExternal((shared, TIn(frozenset("q"), "b", ty))),
            TRec("X", TOut("q", "a", ty)),
            TMerge((shared, TIn(frozenset("r"), "c", ty))),
            TInternal((TOut("q", "a", ty), TOut("q", "b", ty))),
        ][k % 4]
        built.append(ty)
    assert all(t._hash is None for t in built)
    assert hash(ty) == hash((ty.branches,))  # the first hash walks all 1,500 levels
    assert all(hash(t) == hash(fields_of(t)) for t in built)


def fields_of(t) -> tuple:
    """The fields of the compound session term `t`, in field order."""
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t) if f.compare)


def test_print_parse_round_trip_on_nested_type():
    src = "((p -> q : a | q -> p : b) ; (r -> s : c & s -> r : d))*"
    g = parse_global_type(src)
    assert parse_global_type(print_global_type(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_print_parse_round_trip_on_random_types(seed):
    g = random_global_type(seed, max_size=6, role_count=4, star_depth=2)
    reparsed = parse_global_type(print_global_type(g))
    assert reparsed == g
    assert print_global_type(reparsed) == print_global_type(g)


def test_session_type_parses_prefixes_and_choices():
    t = parse_session_type("p!a.q?b.end")
    assert t == TOut("p", "a", TIn(frozenset({"q"}), "b", TEnd()))
    join = parse_session_type("{p,q}?b.end")
    assert join == TIn(frozenset({"p", "q"}), "b", TEnd())


def test_session_choice_operators_do_not_mix_unparenthesized():
    parse_session_type("p?a.end + p?b.end + p?c.end")
    parse_session_type("p!a.end (+) p!b.end")
    with pytest.raises(ParseError):
        parse_session_type("p?a.end + p!b.end (+) p!c.end")


def test_recursion_binds_maximally_and_round_trips():
    t = parse_session_type("rec X . p!a.X (+) p!b.end")
    assert isinstance(t, TRec)
    assert parse_session_type(print_session_type(t)) == t


def test_unguarded_recursion_is_rejected():
    with pytest.raises((UnguardedRecursionError, ParseError)):
        parse_session_type("rec X . X")


def test_free_variable_is_rejected():
    with pytest.raises(ParseError):
        parse_session_type("p!a.X")


def test_an_unbound_variable_is_reported_where_it_is():
    """At its own line and column: the first in the text that no open `rec`
    binds, a `rec` closing where its expression does."""
    with pytest.raises(ParseError) as err:
        parse_session_type("(rec X . q!a.X) (+) q!b.X")
    assert (err.value.line, err.value.col, str(err.value)) == (1, 25, "1:25: unbound recursion variable 'X'")
    with pytest.raises(ParseError, match="^1:5: unbound recursion variable 'Y'$"):
        parse_session_type("q!a.Y (+) q!b.X")
    # an inner `rec` of the same name leaves the outer one open
    assert parse_session_type("rec X . q!a.((rec X . q!b.X) (+) q!c.X)")
    with pytest.raises(ParseError) as err:
        parse_session_env("p : q!a.end\nq : p?a.X\n")
    assert (err.value.line, err.value.col) == (2, 9)
    assert str(err.value) == "in binding for role 'q': 2:9: unbound recursion variable 'X'"


def test_environment_round_trip_and_duplicate_roles():
    env = parse_session_env("p : q!a.end\nq : p?a.end\n")
    assert set(env) == {"p", "q"}
    assert parse_session_env(print_session_env(env)) == env
    with pytest.raises((DuplicateRoleError, ParseError)):
        parse_session_env("p : q!a.end\np : q!b.end\n")


def test_environment_allows_comments():
    env = parse_session_env("// roles\np : q!a.end // sender\nq : p?a.end\n")
    assert set(env) == {"p", "q"}


def test_session_var_equality_is_structural():
    assert parse_session_type("rec X . p!a.X") == TRec("X", TOut("p", "a", TVar("X")))


# ---------------------------------------------------------------------------
# The explicit-stack parsers against the recursive-descent reference
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"
LEXEME = re.compile(r"\(\+\)|->|[;&|*?(){},:!+.]|\w+")
# tokens a mutation may insert: every operator, the keywords of both
# languages, names, and characters that start no token
INSERTABLE = [*";&|*?(){},:!+.", "(+)", "->", "skip", "loop0", "loop1", "loop2", "exit",
              "rec", "end", "p", "q", "X", "#", "1", "/", "-", "// note\n"]
SEPARATORS = ["", " ", "\n", "\t", "  // c\n", "\r\n"]

senders = st.sampled_from(["p", "q", "{p, q}", "{q,r}", "{p}"])
interactions = st.builds("{} -> {} : {}".format, senders, st.sampled_from("pqr"), st.sampled_from("ab"))


def extend_global(inner):
    groups = st.lists(inner, min_size=1, max_size=3).map(", ".join)
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from(";&|"), inner),
        st.builds("{}{}".format, inner, st.sampled_from("*?")),
        inner.map("({})".format),
        st.builds("loop{} ({}) exit ({})".format, st.integers(0, 3), groups, groups),
    )


global_texts = st.recursive(interactions | st.just("skip"), extend_global, max_leaves=10)


def extend_session(inner):
    prefixes = st.sampled_from(["q!", "r!", "p?", "{p,q}?", "{q}?"])
    return st.one_of(
        st.builds("{}{}.{}".format, prefixes, st.sampled_from("ab"), inner),
        st.builds("rec {} . {}".format, st.sampled_from("XY"), inner),
        inner.map("({})".format),
        st.builds(
            lambda op, branches: f" {op} ".join(branches),
            st.sampled_from(["(+)", "+"]),
            st.lists(inner, min_size=2, max_size=3),
        ),
    )


session_texts = st.recursive(st.sampled_from(["end", "X", "Y"]), extend_session, max_leaves=8)
env_texts = st.lists(
    st.builds("{} : {}".format, st.sampled_from("pqr"), session_texts), min_size=1, max_size=3
).map("\n".join)


@st.composite
def mutated(draw, texts):
    """A text from `texts`, or one of its tokens deleted, a token inserted
    or two tokens swapped, laid out with random whitespace and comments."""
    tokens = LEXEME.findall(draw(texts))
    edit = draw(st.sampled_from(["none", "delete", "insert", "swap"]))
    if edit == "delete" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif edit == "insert":
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(INSERTABLE + tokens)))
    elif edit == "swap" and len(tokens) > 1:
        i, j = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    gaps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    return "".join(map(str.__add__, tokens, gaps))


def outcome(parse, text):
    """What `parse` makes of `text`: the term, or the class, message and
    position of the error; None when the text nests too deeply for it."""
    try:
        return parse(text)
    except RecursionError:
        return None
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


PARSERS = {
    "global": (parse_global_type, reference_parsers.parse_global_type),
    "type": (lambda text: syntax._parse_session(text, env=False)[0], reference_parsers.parse_session_type),
    "env": (lambda text: syntax._parse_session(text, env=True)[0], reference_parsers.parse_session_env),
}


def assert_parsed_as_by_reference(language, text):
    new, reference = PARSERS[language]
    expected = outcome(reference, text)
    if expected is None:
        return
    assert outcome(new, text) == expected, text


@settings(max_examples=400, deadline=None)
@given(mutated(global_texts))
def test_global_parser_agrees_with_recursive_descent(text):
    assert_parsed_as_by_reference("global", text)


@settings(max_examples=300, deadline=None)
@given(mutated(session_texts))
def test_session_type_parser_agrees_with_recursive_descent(text):
    assert_parsed_as_by_reference("type", text)


@settings(max_examples=300, deadline=None)
@given(mutated(env_texts))
def test_session_env_parser_agrees_with_recursive_descent(text):
    assert_parsed_as_by_reference("env", text)


def test_parsers_agree_with_recursive_descent_on_the_readme():
    """Every code block of the README, and each of its lines, read as each
    of the three inputs."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    texts = blocks + [line for block in blocks for line in block.splitlines()]
    assert "seller -> buyer : descr ; seller -> buyer : price ;" in texts
    assert "p : rec X . (q!a.X (+) q!b.end)" in texts
    for text in texts:
        for language in PARSERS:
            assert_parsed_as_by_reference(language, text)


def test_deep_inputs_parse_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < 5000
    g = parse_global_type("(" * 5000 + "p -> q : a" + ")" * 5000 + "*")
    assert g == GStar(GAction(Interaction(frozenset({"p"}), "q", "a")))
    env = parse_session_env("p : " + "q!a.q?b." * 2500 + "end\nq : " + "(p?a.p!b." * 2500 + "end" + ")" * 2500)
    assert print_session_env(env) == "p : " + "q!a.q?b." * 2500 + "end\nq : " + "p?a.p!b." * 2500 + "end"
    # not a chain: validation walks it, resolves it and reads it back
    loop = "p : rec X . " + "q!a.q!b." * 2500 + "X"
    assert print_session_env(parse_session_env(loop)) == loop
