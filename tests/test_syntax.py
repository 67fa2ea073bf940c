"""Parsing and printing of global types and session environments."""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
    print_global_type,
    print_session_env,
    print_session_type,
    roles_of,
    spine,
    subterms,
    with_parts,
    with_subterms,
)
from mpst.projector import ProjectionError, project_top
from mpst.verifier import random_global_type


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
    """`;`, `|` and `&` are associative: a spine nested to the left, to the
    right or both ways has the same operands, in order, and a subterm
    built by another constructor is one operand."""
    a, b, c, d = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "abcd")
    for op in (GSeq, GEither, GBoth):
        other = GBoth(b, c) if op is GSeq else GSeq(b, c)
        for g in (
            op(op(op(a, other), c), d),
            op(a, op(other, op(c, d))),
            op(op(a, op(other, c)), d),
        ):
            assert spine(g) == [a, other, c, d]
    assert spine(parse_global_type("p -> q : a ; (p -> q : b ; p -> q : c) | p -> q : d")) == [
        parse_global_type("p -> q : a ; (p -> q : b ; p -> q : c)"),
        d,
    ]


def test_spine_of_any_other_root_is_the_term_itself():
    a, b = (GAction(Interaction(frozenset({"p"}), "q", m)) for m in "ab")
    for g in (GSkip(), a, GStar(GSeq(a, b)), GKExit((GSeq(a, b),), (b,))):
        assert spine(g) == [g]


def test_spine_of_a_deep_chain_needs_no_stack():
    links = [GAction(Interaction(frozenset({"p"}), "q", f"m{i}")) for i in range(20000)]
    assert spine(functools.reduce(GSeq, links)) == links
    assert spine(functools.reduce(lambda rest, x: GSeq(x, rest), reversed(links))) == links
    assert interaction_count(functools.reduce(GEither, links)) == 20000


def test_global_terms_hash_as_their_field_tuples():
    """A term's stored hash is the hash of its field tuple, behind a tag of
    its own for `;`, `|` and `&` (the generated dataclass hash, for the
    other terms); repr and replace are untouched."""
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
        (lambda: GSeq(a, b), (GSeq._TAG, a, b), f"GSeq(left={a!r}, right={b!r})"),
        (lambda: GBoth(a, b), (GBoth._TAG, a, b), f"GBoth(left={a!r}, right={b!r})"),
        (lambda: GEither(a, b), (GEither._TAG, a, b), f"GEither(left={a!r}, right={b!r})"),
        (lambda: GStar(a), (a,), f"GStar(body={a!r})"),
        (lambda: GKExit([a], [b]), ((a,), (b,)), f"GKExit(bodies=({a!r},), exits=({b!r},))"),
    ]
    for build, fields, text in cases:
        term, twin = build(), build()
        assert term is not twin and term == twin
        assert hash(term) == hash(fields) == hash(twin)
        assert repr(term) == text
        assert dataclasses.replace(term) == term
    replaced = dataclasses.replace(GSeq(a, b), right=a)
    assert replaced == GSeq(a, a) and hash(replaced) == hash((GSeq._TAG, a, a))
    assert dataclasses.replace(GKExit((a,), (b,)), exits=[a]) == GKExit((a,), (a,))
    assert GSeq.__match_args__ == ("left", "right")
    assert Interaction.__match_args__ == ("senders", "receiver", "message")
    assert GKExit.__match_args__ == ("bodies", "exits")


def test_hashing_a_deep_sequence_needs_no_stack():
    steps = [GAction(Interaction(frozenset({"p"}), "q", f"m{k % 3}")) for k in range(20000)]
    chain = functools.reduce(GSeq, steps)
    assert hash(chain) == hash((GSeq._TAG, chain.left, chain.right))
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
        return functools.reduce(GSeq, [bottom()] + [a] * 1000)

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
# frozen dataclasses with the compared fields of each session-type
# constructor and the generated hash
GENERATED = {
    k: dataclasses.make_dataclass(
        k.__name__, [f.name for f in dataclasses.fields(k) if f.compare], frozen=True
    )
    for k in SESSION_CONSTRUCTORS
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
