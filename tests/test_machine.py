"""Resolution of session types to minimized machines and type equality."""

from __future__ import annotations

import functools
import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst import machine
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
    assert m.kinds[m.root] == "end"
    assert m.branches[m.root] == {}


def test_recursive_machine_folds_back():
    m = type_machine(t("rec X . q!a.X (+) q!b.end"))
    assert m.kinds[m.root] == "out"
    targets = dict(m.branches[m.root])
    assert targets[("out", "q", "a")] == m.root
    assert m.kinds[targets[("out", "q", "b")]] == "end"


def test_join_input_machine_keeps_partner_set():
    m = type_machine(t("{p,q}?b.end"))
    (key,) = m.branches[m.root]
    assert key == ("in", frozenset({"p", "q"}), "b")


def test_overlapping_input_partner_sets_same_message_rejected():
    with pytest.raises(NotSessionTypeError):
        type_machine(t("p?a.end + {p,q}?a.end"))


def test_overlapping_partner_sets_different_messages_allowed():
    m = type_machine(t("p?a.end + {p,q}?b.end"))
    assert m.kinds[m.root] == "in"
    assert len(m.branches[m.root]) == 2


def test_root_kind_of_plain_terms():
    assert root_kind(t("end")) == "end"
    assert root_kind(t("p!a.end")) == "out"
    assert root_kind(t("p?a.end + p?b.end")) == "in"


def test_minimization_identifies_equivalent_states():
    # both branches continue identically, so the machine needs one such state
    m = type_machine(t("p?a.q!c.end + p?b.q!c.end"))
    succ = set(m.branches[m.root].values())
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
    return m.kinds, [list(b.items()) for b in m.branches], m.root


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
    except ValueError as exc:
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
    # A merge's operands are closed: a merge that its own recursion reaches
    # again can unfold into ever larger states until memory runs out.
    closed = session_terms(depth - 1)
    faulty = st.one_of(st.builds(TMerge, closed, closed), st.builds(TInternal, st.lists(kid, min_size=2, max_size=2)))
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
        with pytest.raises(NotSessionTypeError) as info:
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
    merged = TMerge(parse_session_type("p?a.end + p?b.q!c.end"), parse_session_type("p?a.end"))
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


def test_a_merge_that_never_repeats_runs_out_of_steps():
    """Each state of `rec X . merge(p!a.X, p!a.p!a.X)` is a merge of merges
    that never repeats, and each costs more to reach than the last, so the
    resolver gives up on its step budget long before the state cap.  It
    runs in a process of its own, which a resolver without that budget
    would not leave."""
    code = (
        "from mpst.machine import type_machine\n"
        "from mpst.syntax import NotSessionTypeError, TMerge, TOut, TRec, TVar\n"
        "x = TVar('X')\n"
        "try:\n"
        "    type_machine(TRec('X', TMerge(TOut('p', 'a', x), TOut('p', 'a', TOut('p', 'a', x)))))\n"
        "except NotSessionTypeError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert result.stdout.strip() == (
        f"session type is too large to resolve (more than {machine._STEP_CAP} resolution steps)"
    )


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
    """Every compatibility question asked while projecting
    `random_global_type(i, 10, 4, 2)`, i < 1000, and classifying the 300
    random-workload types gets the recursive walk's answer."""
    answers = []
    walk = machine._Resolver._compatible

    def compared(self, p, a, key):
        answer = walk(self, p, a, key)
        answers.append((answer, reference_compatible(self, p, a, key, set())))
        return answer

    monkeypatch.setattr(machine._Resolver, "_compatible", compared)
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
