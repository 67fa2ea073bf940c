"""Known answers for the random workload, from the reference semantics in
`tests/oracles.py` (imported read-only) and from how the commands relate.

Per sample, with g the protocol:
- `check`: on a star-free sample whose language has at most 500 traces, the
  verdict equals the brute-force swap-closure oracle.  Otherwise a swap
  violation among the traces of length <= 6 forces NotWellFormed.  Every
  NotWellFormed witness must replay: it is a trace, its two letters at
  `position` are independent, and the swapped word is not a trace.
- `classify`: Projectable exactly when g is well formed and `project`
  succeeds; otherwise a category that fits the failure.
- `verify`: sound and complete on every well-formed projectable sample; the
  projection error of `project` otherwise.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

SMALL_LEN = 6
FULL_CAP = 500
WITNESS_CAP = 8

_NOT_WF_CATEGORIES = {"NoSequentiality", "Unclassified"}
_NOT_PROJECTED_CATEGORIES = {"NoKnowledgeForChoice", "NoKnowledgeNoChoice", "Unclassified"}


def _to_ast(tree):
    from mpst.syntax import GAction, GBoth, GEither, GSeq, GStar, Interaction

    match tree:
        case ("act", senders, receiver, msg):
            return GAction(Interaction(frozenset(senders), receiver, msg))
        case ("star", body):
            return GStar(_to_ast(body))
        case (kind, left, right):
            node = {"seq": GSeq, "both": GBoth, "either": GEither}[kind]
            return node(_to_ast(left), _to_ast(right))
    raise ValueError(f"not a protocol tree: {tree!r}")


def _size(tree) -> int:
    return 1 if tree[0] == "act" else sum(_size(t) for t in tree[1:])


def _star_free(tree) -> bool:
    return tree[0] == "act" or (tree[0] != "star" and all(_star_free(t) for t in tree[1:]))


def _parts(letter: str) -> tuple[set[str], str]:
    """(senders, receiver) of a printed interaction `p -> q : a` or
    `{p,r} -> q : a`."""
    left, rest = letter.split(" -> ", 1)
    return set(left.strip("{}").split(",")), rest.split(" : ", 1)[0]


def _independent(first: str, second: str) -> bool:
    senders, receiver = _parts(second)
    return _parts(first)[1] not in senders | {receiver}


def random_wrong_verdicts(ops, reports: dict, root: Path) -> tuple[dict[str, str], Counter]:
    """(op id -> what is wrong, how many verdicts each check covered), for
    the random workload's finished ops.  `reports` maps op ids to parsed
    `--json` reports (absent if failed)."""
    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)

    def words(g, n):
        return {tuple(map(str, w)) for w in oracles.trace_set(g, n)}

    samples: dict[str, dict] = {}
    for op in ops:
        samples.setdefault(op.id.rsplit(".", 1)[0], {})[op.command] = op
    wrong: dict[str, str] = {}
    checked: Counter = Counter()
    for group in samples.values():
        tree = next(iter(group.values())).meta["tree"]
        g = _to_ast(tree)
        rep = {cmd: reports.get(op.id) for cmd, op in group.items()}

        wf = None
        if "check" in group and rep["check"] is not None:
            wf = rep["check"]["well_formed"]
            exact = None
            if _star_free(tree):
                full = oracles.trace_set(g, _size(tree))
                if len(full) <= FULL_CAP:
                    exact = not oracles.swap_violations(full)
            if exact is not None:
                checked["check: exact oracle"] += 1
            elif oracles.swap_violations(oracles.trace_set(g, SMALL_LEN)):
                exact = False
                checked["check: refuted at small length"] += 1
            problem = None
            if exact is not None and wf != exact:
                problem = f"well_formed {wf}, oracle says {exact}"
            elif not wf:
                w, i = tuple(rep["check"]["witness"]), rep["check"]["position"]
                if not (0 <= i < len(w) - 1 and _independent(w[i], w[i + 1])):
                    problem = "witness position does not swap independent letters"
                elif len(w) <= WITNESS_CAP:
                    checked["check: witness replayed"] += 1
                    traces = words(g, len(w))
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if w not in traces or swapped in traces:
                        problem = "witness does not replay"
            if problem:
                wrong[group["check"].id] = problem
            wf = exact if exact is not None else wf

        projected = rep.get("project") and rep["project"]["projected"]
        if wf is None or rep.get("project") is None:
            continue
        if rep.get("classify") is not None:
            cat = rep["classify"]["category"]
            allowed = (
                {"Projectable"} if wf and projected
                else _NOT_WF_CATEGORIES if not wf
                else _NOT_PROJECTED_CATEGORIES
            )
            checked["classify"] += 1
            if cat not in allowed:
                wrong[group["classify"].id] = f"category {cat}, expected one of {sorted(allowed)}"
        if rep.get("verify") is not None:
            v = rep["verify"]
            checked["verify"] += 1
            if not projected and (v.get("projected") is not False or v.get("error") != rep["project"]["error"]):
                wrong[group["verify"].id] = "projection outcome differs from project"
            elif projected and wf and not (v.get("sound") and v.get("complete")):
                wrong[group["verify"].id] = "well-formed projectable sample not sound and complete"
    return wrong, checked
