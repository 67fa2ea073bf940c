"""Resolution of session types to minimized machines and type equality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst.machine import (
    _bk_order,
    normalize_session_type,
    root_kind,
    session_type_equal,
    type_machine,
)
from mpst.projector import ProjectionError, project_top
from mpst.syntax import (
    NotSessionTypeError,
    parse_session_type,
    print_session_type,
)
from mpst.verifier import random_global_type


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
