"""Resolution of session types to minimized machines and type equality."""

from __future__ import annotations

import functools
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpst import machine, tracelang
from mpst.machine import (
    _bk_order,
    machine_to_type,
    normalize_session_type,
    root_kind,
    session_type_equal,
    type_machine,
)
from mpst.projector import INCOMPATIBLE_MERGE, ProjectionError, merge, project_top
from mpst.syntax import (
    NotSessionTypeError,
    TEnd,
    TExternal,
    TIn,
    TInternal,
    TMerge,
    TOut,
    TRec,
    TVar,
    UnguardedRecursionError,
    check_guarded,
    free_type_vars,
    parse_global_type,
    parse_session_env,
    parse_session_type,
    parts,
    print_global_type,
    print_session_type,
    roles_of,
    with_parts,
)
from mpst.tracelang import BudgetExceededError
from mpst.verifier import check_preorder, classify, random_global_type


def t(src: str):
    return parse_session_type(src)


def test_equality_ignores_recursion_unfolding():
    assert session_type_equal(t("rec X . p!a.X"), t("p!a.rec X . p!a.X"))
    assert session_type_equal(
        t("rec X . p!a.p!b.X"), t("p!a.rec Y . p!b.p!a.Y")
    )


def test_equality_ignores_binder_names_and_branch_order():
    assert session_type_equal(t("rec X . p?a.X + p?b.end"), t("rec Y . p?b.end + p?a.Y"))
    assert session_type_equal(t("p!a.end (+) p!b.end"), t("p!b.end (+) p!a.end"))


def test_distinct_behaviours_are_not_equal():
    assert not session_type_equal(t("p!a.end"), t("p!b.end"))
    assert not session_type_equal(t("p!a.end"), t("p?a.end"))
    assert not session_type_equal(t("rec X . p!a.X"), t("p!a.end"))


def test_normalization_is_idempotent_and_canonical():
    for src in [
        "rec X . q!a.X (+) q!b.end",
        "p?b.end + p?a.q!c.end",
        "rec X . p?a.(q!b.X (+) q!c.end) + p?d.end",
    ]:
        n1 = normalize_session_type(t(src))
        n2 = normalize_session_type(n1)
        assert n1 == n2
        assert print_session_type(n1) == print_session_type(n2)


def test_normalization_orders_choice_branches():
    n = normalize_session_type(t("p?b.end + p?a.end"))
    assert print_session_type(n) == "p?a.end + p?b.end"


def test_machine_branches_iterate_in_canonical_order():
    """Every state of the machines of the projected criterion-8 samples,
    and of a few hand-written choices, lists its branches sorted."""
    types = [
        t("p?b.end + p?a.end"),
        t("q!b.end (+) p!b.end (+) p!a.end"),
        t("rec X . (q?c.X + {p,q}?a.X + p?b.end)"),
    ]
    for i in range(200):
        try:
            types.extend(project_top(random_global_type(20260814 + i)).values())
        except ProjectionError:
            pass
    choices = 0
    for ty in types:
        for branches in type_machine(ty).branches:
            assert list(branches) == sorted(branches, key=_bk_order)
            choices += len(branches) > 1
    assert choices > 5


def test_end_machine_is_single_state():
    m = type_machine(t("end"))
    assert m.kinds[0] == "end"
    assert m.branches[0] == {}


def test_recursive_machine_folds_back():
    m = type_machine(t("rec X . q!a.X (+) q!b.end"))
    assert m.kinds[0] == "out"
    targets = dict(m.branches[0])
    assert targets[("out", "q", "a")] == 0
    assert m.kinds[targets[("out", "q", "b")]] == "end"


def test_join_input_machine_keeps_partner_set():
    m = type_machine(t("{p,q}?b.end"))
    (key,) = m.branches[0]
    assert key == ("in", frozenset({"p", "q"}), "b")


def test_overlapping_input_partner_sets_same_message_rejected():
    with pytest.raises(NotSessionTypeError):
        type_machine(t("p?a.end + {p,q}?a.end"))


def test_an_ambiguous_choice_names_its_first_overlapping_pair():
    """Of the inputs of `m`, in branch order {p,q}, {p,r}, {p,r,s}, {q},
    two pairs overlap: the first and the last, and the two in between.
    The error names the pair met first when each input is compared with
    every later one, whatever order the branches are written in.  The
    two inputs of `n`, which overlap too, come later in branch order."""
    branches = ["{p,q}?m.end", "{p,r}?m.end", "{p,r,s}?m.end", "q?m.end", "q?n.end", "{p,q}?n.end"]
    first = r"^ambiguous external choice: inputs of 'm' from \{p,q\} and \{q\} overlap$"
    for written in (branches, branches[::-1], branches[1::2] + branches[::2]):
        with pytest.raises(NotSessionTypeError, match=first):
            type_machine(t(" + ".join(written)))


def test_overlapping_partner_sets_different_messages_allowed():
    m = type_machine(t("p?a.end + {p,q}?b.end"))
    assert m.kinds[0] == "in"
    assert len(m.branches[0]) == 2


def test_root_kind_of_plain_terms():
    assert root_kind(t("end")) == "end"
    assert root_kind(t("p!a.end")) == "out"
    assert root_kind(t("p?a.end + p?b.end")) == "in"


def test_minimization_identifies_equivalent_states():
    # both branches continue identically, so the machine needs one such state
    m = type_machine(t("p?a.q!c.end + p?b.q!c.end"))
    succ = set(m.branches[0].values())
    assert len(succ) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_projected_types_normalize_idempotently(seed):
    g = random_global_type(seed, max_size=5, role_count=3, star_depth=1)
    try:
        env = project_top(g)
    except ProjectionError:
        return
    for ty in env.values():
        n1 = normalize_session_type(ty)
        assert n1 == normalize_session_type(n1)
        assert session_type_equal(ty, n1)


# --- canonical terms and the chain reader, against the resolver ------------


def resolved(ty):
    """The minimized machine of `ty` by the resolver alone, which knows no
    canonical terms and no chains."""
    r = machine._Resolver(ty)
    r.prepare()
    return r.minimized()


def rows(m):
    """A machine with the order of every state's branches."""
    return m.kinds, [list(b.items()) for b in m.branches], 0


def rebuilt(ty):
    """A structurally equal copy of `ty` that carries no machine (a prefix
    chain is a chain again)."""
    return with_parts(ty, tuple(map(rebuilt, parts(ty))))


def assert_agrees_with_resolver(ty) -> bool:
    """`type_machine` and `normalize_session_type` give what the resolver
    gives, or fail as it fails; the canonical form is its own canonical
    form and carries the resolver's machine.  Returns whether `ty` is a
    session type."""
    try:
        ref = resolved(ty)
    except (ValueError, BudgetExceededError) as exc:
        for f in (type_machine, normalize_session_type):
            with pytest.raises(type(exc)) as info:
                f(ty)
            assert str(info.value) == str(exc)
        return False
    assert rows(type_machine(ty)) == rows(ref)
    n = normalize_session_type(ty)
    assert n == machine_to_type(ref)
    assert print_session_type(n) == print_session_type(machine_to_type(ref))
    assert machine.is_canonical(n)
    assert normalize_session_type(n) is n
    if type(n) is not TEnd:  # `end` keeps nothing: its machine is one state
        assert type_machine(n) is type_machine(n)
    assert rows(type_machine(n)) == rows(ref)
    assert rows(resolved(n)) == rows(ref)
    return True


ROLE_SETS = (frozenset("p"), frozenset("q"), frozenset("pq"))


def outputs(kid):
    return st.builds(TOut, st.sampled_from("pq"), st.sampled_from("abc"), kid)


def inputs(kid):
    return st.builds(TIn, st.sampled_from(ROLE_SETS), st.sampled_from("abc"), kid)


def chains():
    return st.recursive(st.just(TEnd()), lambda kid: outputs(kid) | inputs(kid), max_leaves=12)


def session_terms(depth: int = 4, bound: tuple = ()):
    """Closed terms over every constructor.  About a third are session
    types; the rest have a choice with a branch of the wrong kind, an
    ambiguous input choice, unguarded recursion or a failing merge."""
    leaves = [st.just(TEnd())] + ([st.sampled_from([TVar(x) for x in bound])] if bound else [])
    if depth == 0:
        return st.one_of(leaves)
    kid = session_terms(depth - 1, bound)
    var = f"X{depth}"
    outs, ins = outputs(kid), inputs(kid)
    rec = st.builds(functools.partial(TRec, var), session_terms(depth - 1, bound + (var,)))
    internal = st.builds(TInternal, st.lists(outs, min_size=2, max_size=3))
    external = st.builds(TExternal, st.lists(ins, min_size=2, max_size=3))
    # A merge's operands may use an enclosing rec's variable: a merge that
    # its own recursion reaches again repeats as the set of the keys it
    # merges, so it resolves or ends at a cap.
    faulty = st.one_of(st.builds(TMerge, st.lists(kid, min_size=2, max_size=3)), st.builds(TInternal, st.lists(kid, min_size=2, max_size=2)))
    return st.one_of(*leaves, outs, ins, rec, rec, internal, internal, external, external, faulty)


@settings(max_examples=300, deadline=None)
@given(st.one_of(chains(), session_terms()))
def test_generated_terms_agree_with_the_resolver(ty):
    assert_agrees_with_resolver(ty)
    assert_agrees_with_resolver(rebuilt(ty))


def test_projected_random_role_types_agree_with_the_resolver():
    """Every role type of the projectable `random_global_type(i)`, i < 700
    (307 of them), as projected and as a copy that carries no machine."""
    projected = 0
    for i in range(700):
        try:
            env = project_top(random_global_type(i))
        except ProjectionError:
            continue
        projected += 1
        for ty in env.values():
            assert machine.is_canonical(ty)
            assert normalize_session_type(ty) is ty
            assert assert_agrees_with_resolver(ty)
            assert assert_agrees_with_resolver(rebuilt(ty))
    assert projected >= 300


def ring(k: int) -> str:
    """A loop passing `m` once round k roles, then `t` once round them."""
    body = " ; ".join(f"n{i} -> n{(i + 1) % k} : m" for i in range(k))
    stop = " ; ".join(f"n{i} -> n{(i + 1) % k} : t" for i in range(k))
    return f"({body})* ; {stop}"


CORPUS_GLOBAL = [
    "seller -> buyer : descr ; seller -> buyer : price ; (buyer -> seller : accept | buyer -> seller : quit)",
    "(p -> q : a)* ; p -> q : b",
    "loop2 (p -> q : handover, q -> p : handover) exit (p -> q : bailout, q -> p : bailout)",
    "p -> q : a ; r -> s : b",
    "(p -> q1 : a & p -> q2 : a) ; {q1,q2} -> q : b",
    "(p -> q1 : a & p -> q2 : a) ; (q1 -> q : b & q2 -> q : b)",
    *map(ring, range(3, 14)),
    " ; ".join(f"n{j % 4} -> n{(j + 1) % 4} : {'abc'[j % 3]}" for j in range(500)),
]
CORPUS_SESSIONS = [
    "p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)",
    "p : rec X . q!a.X\nq : rec Y . p?a.Y",
    "p : rec X . q!a.q!b.X\nq : rec Y . (p?a.p?b.Y + p?b.r!c.end)\nr : q?c.end",
    *(
        "\n".join(f"a{i} : b{i}!m.b{i}?k.b{i}!z.end\nb{i} : a{i}?m.a{i}!k.a{i}?z.end" for i in range(n))
        for n in range(2, 6)
    ),
]


def test_corpus_role_types_agree_with_the_resolver():
    """The role types of the benchmark corpus's protocols (its ring loops
    of 3 to 13 roles and its 500-interaction chain among them), projected
    and parsed from `.mps` text."""
    types = []
    for src in CORPUS_GLOBAL:
        types.extend(project_top(parse_global_type(src)).values())
    for src in CORPUS_SESSIONS:
        types.extend(parse_session_env(src).values())
    assert max(machine._chain_length(ty) or 0 for ty in types) == 250
    for ty in types:
        assert assert_agrees_with_resolver(ty)
        assert assert_agrees_with_resolver(rebuilt(ty))


def test_a_chain_past_the_state_cap_fails_as_the_resolver_fails(monkeypatch):
    monkeypatch.setattr(machine, "_STATE_CAP", 8)

    def chain(n):
        ty = TEnd()
        for k in range(n):
            ty = TOut("q", "a", ty) if k % 2 else TIn(frozenset("p"), "b", ty)
        return ty

    assert assert_agrees_with_resolver(chain(7))  # 8 states
    too_long = chain(8)
    assert machine.is_canonical(too_long)
    for f in (resolved, type_machine, normalize_session_type):
        with pytest.raises(BudgetExceededError) as info:
            f(too_long)
        assert str(info.value) == "session type is too large to resolve (more than 8 states)"


def test_projecting_and_verifying_a_long_chain_resolves_nothing(monkeypatch):
    """A two-role chain of 800 interactions projects to one prefix chain
    per role, which is canonical when it is built."""
    g = parse_global_type(" ; ".join("p -> q : a" if i % 2 else "q -> p : b" for i in range(800)))

    def no_resolver(ty):
        raise AssertionError("a chain was resolved")

    monkeypatch.setattr(machine, "_Resolver", no_resolver)
    env = project_top(g)
    assert {machine._chain_length(ty) for ty in env.values()} == {800}
    report = check_preorder(g, env)
    assert report.sound and report.complete


def test_a_resolver_is_freed_without_the_cycle_collector(monkeypatch):
    """Resolving builds no reference cycle that holds the resolver, so it
    is freed when `type_machine` returns."""
    refs = []

    class Recorded(machine._Resolver):
        def __init__(self, ty):
            super().__init__(ty)
            refs.append(weakref.ref(self))

    loop = parse_session_type("rec X . (p?a.(q!b.X (+) q!c.end) + p?d.end)")
    merged = TMerge((parse_session_type("p?a.end + p?b.q!c.end"), parse_session_type("p?a.end")))
    monkeypatch.setattr(machine, "_Resolver", Recorded)
    gc.disable()
    try:
        for ty in (loop, merged):
            type_machine(ty)
            assert refs[-1]() is None
    finally:
        gc.enable()
    assert len(refs) == 2


def _fails_to_project(g) -> None:
    """Project `g`, which must fail, and drop the error."""
    try:
        project_top(g)
    except ProjectionError:
        return
    raise AssertionError("expected a projection error")


def test_walks_leave_no_garbage_for_the_cycle_collector():
    """The walks over terms and machines keep their state on explicit
    stacks or in module-level functions, not in closures that refer to
    themselves, and no frame keeps a caught projection error that holds
    the frame, so a call leaves no reference cycle behind."""
    ty = parse_session_type("rec X . (q!a.X (+) q!b.rec Y . (p?c.Y + p?d.end))")
    m = type_machine(ty)
    loop = parse_global_type("(p -> q : a ; q -> r : b)* ; r -> p : c")
    starred = parse_global_type("(p -> q : a & p -> r : b)* ; p -> q : c ; p -> r : c")
    unordered = parse_global_type("p -> q : a ; r -> s : b")
    failing_loop = parse_global_type("(p -> q : a | r -> s : b)* ; p -> q : c")
    calls = [
        lambda: free_type_vars(ty),
        lambda: check_guarded(ty),
        lambda: machine._freshen(ty),
        lambda: machine_to_type(m),
        lambda: roles_of(loop),
        lambda: print_global_type(loop),
        lambda: project_top(starred),
        lambda: _fails_to_project(failing_loop),
        lambda: classify(unordered),
        lambda: random_global_type(7),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


# A type with several faults; which one the resolver met first used to
# depend on the order of string hashes.
SEVERAL_FAULTS = (
    "r : p?b.q!c.(p!b.(p!b.end (+) q!c.end) (+) p!b.end) + {p,q}?c.(p!a.end (+) "
    "p!a.((p?a.end + {p,q}?a.end + q?c.end) (+) {p,q}?a.end) (+) p!c.({p,q}?c.(p!a.end "
    "(+) q!c.end (+) p!a.end) + p?c.end + q?b.p!c.end)) + {p,q}?c.q!a.(q!c.(q!a.end "
    "(+) p!b.end) (+) q!c.({p,q}?b.end + {p,q}?a.end))\n"
)


def test_a_type_with_several_faults_reports_one_under_every_hash_seed(tmp_path):
    path = tmp_path / "faults.mps"
    path.write_text(SEVERAL_FAULTS)
    errors = set()
    for seed in range(6):
        result = subprocess.run(
            [sys.executable, "-m", "mpst.cli", "simulate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert result.returncode == 2
        errors.add(result.stderr)
    assert len(errors) == 1
    (error,) = errors
    assert error.startswith("error: in binding for role 'r': one state mixes ")
    assert len(error.splitlines()) == 1


def test_a_merge_that_never_repeats_runs_out_of_steps(monkeypatch):
    """Each successor of `rec X . merge(p!a.X, p!a.p!a.X)` is a merge of
    merges.  As the set of the keys it merges, it repeats after one step,
    so the type resolves to `rec X . p!a.X`.  The step budget still
    stands, and a resolution past it fails with its message."""

    def looped():
        x = TVar("X")
        return TRec("X", TMerge((TOut("p", "a", x), TOut("p", "a", TOut("p", "a", x)))))

    assert print_session_type(normalize_session_type(looped())) == "rec X . p!a.X"
    monkeypatch.setattr(machine, "_STEP_CAP", 2)
    with pytest.raises(BudgetExceededError) as info:
        type_machine(looped())
    assert str(info.value) == (
        f"session type is too large to resolve (more than {machine._STEP_CAP} resolution steps)"
    )


def test_every_grouping_of_a_merge_is_one_term():
    """A merge term holds no merge, so the three groupings of x, y and z
    are one term.  For this input from two roles the binary grouping
    `(x ⊓ y) ⊓ z` fails, and the set merges (see the `machine`
    docstring)."""
    x, y, z = t("p?b.q?a.end"), t("q?b.p?a.end"), t("{p,q}?a.end")
    groupings = [TMerge((TMerge((x, y)), z)), TMerge((x, TMerge((y, z)))), TMerge((x, y, z))]
    assert groupings[0] == groupings[1] == groupings[2]
    assert all(g.branches == (x, y, z) for g in groupings)
    assert print_session_type(groupings[0]) == "merge(p?b.q?a.end, q?b.p?a.end, {p,q}?a.end)"
    for g in groupings:
        assert print_session_type(normalize_session_type(g)) == "{p,q}?a.end + p?b.q?a.end + q?b.p?a.end"


def test_a_merge_under_rec_joins_the_merge_it_is_an_operand_of():
    """An operand that is a merge under a `rec` binder stands for that
    merge's operands in the resolver's set, so every grouping of x, y and
    z, with a `rec` around the inner merge or without, resolves alike."""
    x, y, z = t("p?b.q?a.end"), t("q?b.p?a.end"), t("{p,q}?a.end")
    groupings = [
        TMerge((TRec("X", TMerge((x, y))), z)),
        TMerge((x, TRec("X", TMerge((y, z))))),
        TMerge((x, y, z)),
        TMerge((TRec("X", TRec("Y", TMerge((x, TRec("Z", TMerge((y, z))))))), x)),
    ]
    for g in groupings:
        assert print_session_type(normalize_session_type(g)) == "{p,q}?a.end + p?b.q?a.end + q?b.p?a.end"


class BinaryMerges(machine._Resolver):
    """The resolver with binary merge keys, the reference for flattening:
    a merge of merges keeps its two parts as they are, so `merge(merge(x,
    y), z)` and `merge(x, merge(y, z))` are two states, and a merge term
    of n operands is keyed as its left-nested binary grouping.  Joins
    still flatten."""

    def _key(self, tag, parts):
        if tag == "j":
            return super()._key(tag, parts)
        return functools.reduce(self._pair, parts)

    def _pair(self, x, y):
        if x == y:
            return x
        key = ("m", frozenset((x, y)))
        self.parts.setdefault(key, (x, y))
        return key


@example(TMerge((t("p?b.q?a.end"), t("q?b.p?a.end"), t("{p,q}?a.end"))))
@settings(max_examples=300, deadline=None)
@given(session_terms())
def test_flat_merges_decide_as_binary_merges_do(ty):
    """Wherever the binary keys decide within the caps, the flat ones give
    the same machine, or fail with the same class of error.  They differ
    only on an input from several roles that a grouping of a merge rejects
    and the set merges (see the `machine` docstring), as in the example:
    a merge term of three operands is drawn, and grouped by the
    reference."""
    reference = BinaryMerges(ty)
    try:
        reference.prepare()
    except BudgetExceededError:
        return
    except ValueError as exc:
        try:
            resolved(ty)
        except ValueError as error:
            assert type(error) is type(exc)
        else:
            assert type(exc) is machine.MergeError
            assert re.fullmatch(r"input of '\w+' from \{\w+(,\w+)+\} cannot be merged: .*", str(exc))
        return
    assert rows(resolved(ty)) == rows(reference.minimized())


def reference_compatible(resolver, p, a, key, seen) -> bool:
    """The recursive compatibility walk over a built resolver: a state with
    no input of `a` from `p` reachable by any branch is compatible; an
    output state is when every successor is; an input state is not when it
    takes `a` from partners that include `p`, and is when every successor
    by an input without `p` is."""
    if key in seen:
        return True
    seen.add(key)
    if not reference_occurs(resolver, p, a, key):
        return True
    st = resolver.states[key]
    if st.kind == machine.OUT:
        return all(reference_compatible(resolver, p, a, t, seen) for t in st.branches.values())
    if st.kind == machine.IN:
        for (_, partners, message), t in st.branches.items():
            if p in partners:
                if message == a:
                    return False
            elif not reference_compatible(resolver, p, a, t, seen):
                return False
    return True


def reference_occurs(resolver, p, a, key) -> bool:
    """Whether any state reachable from `key` has an input of `a` from
    partners that include `p`."""
    seen, work = set(), [key]
    while work:
        k = work.pop()
        if k not in seen:
            seen.add(k)
            for bk, t in resolver.states[k].branches.items():
                if bk[0] == machine.IN and bk[2] == a and p in bk[1]:
                    return True
                work.append(t)
    return False


def test_the_compatibility_walk_agrees_with_the_recursive_one(monkeypatch):
    """Every compatibility walk made while projecting
    `random_global_type(i, 10, 4, 2)`, i < 1000, and classifying the 300
    random-workload types gives the recursive walk's answer for each
    message that an input of the resolver takes: a message from a role is
    found consumable iff the recursive walk finds it incompatible."""
    answers = []
    walk = machine._Resolver._consumed

    def compared(self, p, key):
        first = (p, key) not in self.consumed
        found = walk(self, p, key)
        if first:
            messages = {bk[2] for st in self.states.values() for bk in st.branches if bk[0] == machine.IN}
            for a in sorted(messages):
                answers.append((a not in found, reference_compatible(self, p, a, key, set())))
        return found

    monkeypatch.setattr(machine._Resolver, "_consumed", compared)
    for i in range(1000):
        try:
            project_top(random_global_type(i, 10, 4, 2))
        except ProjectionError:
            pass
    for i in range(300):
        classify(random_global_type(20260814 + i))
    assert all(answer == expected for answer, expected in answers)
    assert len(answers) > 500 and sum(not answer for answer, _ in answers) > 100


def test_a_merge_past_a_long_input_chain_is_refused_without_recursing():
    """The compatibility walk takes one loop, however long the chain
    before the confusable input."""
    chain = ".".join(f"q?c{i}" for i in range(3000))
    with pytest.raises(ProjectionError) as err:
        merge(t("p?a.end"), t(f"{chain}.p?a.end"))
    assert err.value.kind == INCOMPATIBLE_MERGE
    assert "input of 'a' from {p} cannot be merged: " in str(err.value)


# --- freshening: the term itself unless its binders clash ------------------


def rebuilding_freshen(ty):
    """The freshening that copied every term whole: each binder renamed
    r0, r1, ... in preorder, every variable renamed with it, and a
    variable that no `rec` binds refused.  The copy unshares every
    subterm that two parents share."""
    binders, numbers = {}, itertools.count()

    def copy(node, names):
        if type(node) is TVar:
            if node.name not in names:
                raise ValueError(f"unbound recursion variable {node.name!r}")
            return TVar(names[node.name])
        if type(node) is TRec:
            name = f"r{next(numbers)}"
            rec = binders[name] = TRec(name, copy(node.body, names | {node.var: name}))
            return rec
        return with_parts(node, [copy(x, names) for x in parts(node)])

    return copy(ty, {}), binders


def test_freshening_keeps_a_term_whose_binders_are_distinct_and_bound():
    loop = TRec("X", TOut("p", "a", TVar("X")))
    inner = TRec("Y", TInternal((TOut("q", "b", TVar("X")), TOut("q", "c", TVar("Y")))))
    nested = TRec("X", TOut("p", "a", inner))
    shared = TInternal((TOut("q", "a", loop), TOut("q", "b", loop)))
    for ty in (loop, nested, shared):
        assert machine._freshen(ty)[0] is ty
    assert machine._freshen(nested)[1] == {"X": nested, "Y": inner}
    # one `rec` node reached twice is one binder
    assert machine._freshen(shared)[1]["X"] is loop


def test_freshening_renames_binders_that_two_rec_nodes_share():
    ty = TInternal((TOut("q", "a", t("rec X . p!a.X")), TOut("q", "b", t("rec X . p!b.X"))))
    fresh, binders = machine._freshen(ty)
    assert fresh is not ty
    assert print_session_type(fresh) == "q!a.(rec r0 . p!a.r0) (+) q!b.(rec r1 . p!b.r1)"
    assert sorted(binders) == ["r0", "r1"]
    assert (fresh, binders) == rebuilding_freshen(ty)


# bound on the first path to it, free on the second
SHARED_OPEN = TOut("p", "a", TVar("X"))


@pytest.mark.parametrize(
    "ty",
    [
        TOut("p", "a", TVar("X")),
        TInternal((TOut("q", "a", TRec("X", SHARED_OPEN)), TOut("q", "b", SHARED_OPEN))),
        TInternal((TOut("q", "a", t("rec X . p!a.X")), TOut("q", "b", TVar("Y")))),
    ],
)
def test_freshening_refuses_an_unbound_variable_as_the_copy_did(ty):
    with pytest.raises(ValueError) as expected:
        rebuilding_freshen(ty)
    with pytest.raises(ValueError) as refused:
        machine._freshen(ty)
    assert str(refused.value) == str(expected.value)
    assert str(refused.value).startswith("unbound recursion variable")


def normalized_outcome(ty):
    try:
        return print_session_type(normalize_session_type(ty))
    except (ValueError, BudgetExceededError) as exc:
        return type(exc), str(exc)


def assert_normalizes_as_the_copy_did(ty):
    """`normalize_session_type(ty)` is what it was when freshening copied
    the term: the same canonical form, or the same error."""
    kept = normalized_outcome(ty)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine, "_freshen", rebuilding_freshen)
        assert normalized_outcome(ty) == kept, print_session_type(ty)


@settings(max_examples=300, deadline=None)
@given(st.one_of(chains(), session_terms()))
def test_generated_terms_normalize_as_with_a_copying_freshening(ty):
    assert_normalizes_as_the_copy_did(ty)


def test_projected_terms_normalize_as_with_a_copying_freshening(monkeypatch):
    """Every term that projection normalizes, on the random workload's
    types, their well-formed relaxations and the corpus, normalizes as it
    did when freshening copied it."""
    from test_projector import RANDOM_TYPES, well_formed_relaxations

    normalize, seen = machine.normalize_session_type, []

    def kept(ty):
        seen.append(ty)
        return normalize(ty)

    monkeypatch.setattr(machine, "normalize_session_type", kept)
    for protocol in [*RANDOM_TYPES, *well_formed_relaxations(RANDOM_TYPES), *map(parse_global_type, CORPUS_GLOBAL)]:
        try:
            project_top(protocol)
        except (ProjectionError, BudgetExceededError):
            pass
    monkeypatch.undo()
    resolved_terms = [ty for ty in seen if not machine.is_canonical(ty)]
    assert len(resolved_terms) > 400
    for ty in resolved_terms:
        assert_normalizes_as_the_copy_did(ty)


@pytest.mark.parametrize("choice, prefix", [(TInternal, functools.partial(TOut, "q")), (TMerge, functools.partial(TIn, frozenset("q")))])
def test_choices_that_share_a_continuation_resolve_in_linear_states(choice, prefix):
    """n choices in a row, both branches of each going on to the next
    choice, are one term of 3n + 3 nodes that unfolds to a tree of 2**n
    leaves.  States are keyed by node, so n = 40 resolves in O(n) states,
    far below the cap that the unfolded tree would pass."""
    n = 40
    ty = TRec("X", prefix("z", TVar("X")))
    for _ in range(n):
        ty = choice((prefix("a", ty), prefix("b", ty)))
    assert machine._freshen(ty)[0] is ty
    r = machine._Resolver(ty)
    r.prepare()
    assert len(r.states) <= 3 * n + 2
    assert len(type_machine(ty).kinds) == n + 1


# --- one state per behaviour, one pass per state, merges by index ----------

VAR_X, VAR_Y = TVar("X"), TVar("Y")


@pytest.mark.parametrize(
    "ty",
    [
        TRec("X", VAR_X),
        TRec("X", TRec("Y", VAR_X)),
        TRec("X", TRec("Y", VAR_Y)),
        TMerge((TRec("X", VAR_X), t("p?a.end"))),
        TMerge((t("p?a.end"), TRec("X", TRec("Y", VAR_X)))),
    ],
)
def test_unguarded_loops_raise_as_before(ty):
    """A variable is keyed as its binder's body, so a loop that meets no
    prefix would key a variable as itself; the walk stops there, and the
    type fails with the error it failed with when every variable was a
    state of its own."""
    for f in (resolved, type_machine, normalize_session_type):
        with pytest.raises(UnguardedRecursionError) as info:
            f(ty)
        assert str(info.value) == "behaviour loops without any input or output"


def test_a_variable_is_no_state_of_its_own():
    """In `rec X . merge(p?t.q!t.end, p?m.q!m.X)` neither `X` nor its `rec`
    is a state: the loop closes on the merge."""
    ty = TRec("X", TMerge((t("p?t.q!t.end"), TIn(frozenset("p"), "m", TOut("q", "m", VAR_X)))))
    r = machine._Resolver(ty)
    r.prepare()
    kinds = [type(r.nodes[key[1]]) for key in r.states if key[0] == "p"]
    assert TVar not in kinds and TRec not in kinds
    assert len(r.states) == 6  # the merge, its two parts, q!t.end, end and q!m.X
    assert print_session_type(normalize_session_type(ty)) == "rec X . p?m.q!m.X + p?t.q!t.end"


def spine(n: int):
    """`p -> q : m{i} ; q -> r : m{i}`, i < n, joined by `|`: `q` and `r`
    each merge n inputs that no other part takes."""
    return parse_global_type(" | ".join(f"p -> q : m{i} ; q -> r : m{i}" for i in range(n)))


def resolver_work(monkeypatch, call):
    """The successor computations and compatibility walks of every resolver
    that `call()` makes, and its `_check_merge_compat` calls."""
    resolvers, scans = [], []

    class Counted(machine._Resolver):
        def __init__(self, ty):
            super().__init__(ty)
            resolvers.append(self)

        def _check_merge_compat(self, x, y):
            scans.append((x, y))
            return super()._check_merge_compat(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(machine, "_Resolver", Counted)
        call()
    return sum(r.steps for r in resolvers), sum(map(len, (r.consumed for r in resolvers))), len(scans)


def test_merges_on_a_long_spine_take_linear_work(monkeypatch):
    """Each part of a merge is walked once per partner role, and each state
    computes each successor once, so a spine four times as long takes four
    times the work; its merges pass, so no pairwise scan runs."""
    short = resolver_work(monkeypatch, lambda: project_top(spine(300)))
    long = resolver_work(monkeypatch, lambda: project_top(spine(1200)))
    assert short[1] == 600 and short[2] == 0
    assert long == (4 * short[0], 4 * short[1], 0)


def test_only_a_failing_merge_scans_its_pairs(monkeypatch):
    """A merge that fails names its fault from the ordered pairwise scan,
    which stops at the first pair that fails."""
    x, y = t("p?a.end"), t("q?c.p?a.end")
    assert resolver_work(monkeypatch, lambda: pytest.raises(machine.MergeError, type_machine, TMerge((x, y))))[2] == 1
    with pytest.raises(machine.MergeError) as info:
        type_machine(TMerge((x, y)))
    assert str(info.value) == (
        "input of 'a' from {p} cannot be merged: the other behaviour may consume it elsewhere"
    )


def moore_minimal_form(root, kind, edges, order):
    """The reference for `tracelang.minimal_form`: the states that `root`
    reaches, split from one block by Moore refinement into blocks of
    (kind, {(letter, block of successor)}) until no block splits, then
    numbered depth-first from the root's block, letters in `order`."""
    states, seen = [], {root}
    work = [root]
    while work:
        s = work.pop()
        states.append(s)
        for _, t in edges(s):
            if t not in seen:
                seen.add(t)
                work.append(t)
    block, count = dict.fromkeys(states, 0), 1
    while True:
        sigs: dict = {}
        split = {s: sigs.setdefault((kind(s), frozenset((a, block[t]) for a, t in edges(s))), len(sigs)) for s in states}
        if len(sigs) == count:
            break
        block, count = split, len(sigs)
    rep = {}
    for s in states:
        rep.setdefault(block[s], s)
    number: dict = {}
    stack = [block[root]]
    while stack:
        b = stack.pop()
        if b not in number:
            number[b] = len(number)
            stack.extend(block[t] for _, t in sorted(edges(rep[b]), key=lambda m: order(m[0]), reverse=True))
    rows = [{a: number[block[t]] for a, t in sorted(edges(rep[b]), key=lambda m: order(m[0]))} for b in number]
    return [kind(rep[b]) for b in number], rows


def random_machine(seed: int):
    """1-14 states over the letters a, b, c.  Every other seed draws each
    state's kind and letters from one or two signatures, so that many
    states share one and only refinement tells them apart."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    if seed % 2:
        pool = [(rng.choice(("out", "in")), tuple(rng.sample("abc", rng.randint(1, 2)))) for _ in range(rng.randint(1, 2))]
        pool.append(("end", ()))
    else:
        pool = [(k, tuple(rng.sample("abc", rng.randint(1, 3)))) for k in ("out", "in")] + [("end", ())] * 2
    kinds, edges = [], []
    for _ in range(n):
        k, letters = rng.choice(pool)
        kinds.append(k)
        edges.append({a: rng.randrange(n) for a in letters})
    return kinds, edges


def test_minimal_form_agrees_with_moore_on_random_machines(monkeypatch):
    """Seeding the blocks by (kind, letters), and not refining when every
    block holds one state, gives Moore's blocks and numbering."""
    refined = []
    refine = tracelang._refine
    monkeypatch.setattr(tracelang, "_refine", lambda labels, moves: refined.append(len(labels)) or refine(labels, moves))
    for seed in range(600):
        kinds, edges = random_machine(seed)
        args = (0, kinds.__getitem__, lambda s: edges[s].items(), str)
        assert tracelang.minimal_form(*args) == moore_minimal_form(*args)
    assert 100 < len(refined) < 600
