"""Inputs and known answers of the benchmark's three workloads.

Every workload is a list of ops: one CLI command on one generated input
file, with the answer the command must give.  The seed renames roles and
messages of the generated families, to names of the same length, and fixes
the order of the ops; it never changes which protocols are run, so runs
with different seeds do the same work.  Probes are ops that fail today on purpose because they show a
known defect; they run in their own process (see run.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GT_COMMANDS = ("check", "project", "trace", "classify", "verify")

# Time of one pass over a workload's ops at nominal speed (see speed.py),
# from which a run's number of passes is planned.
PASS_SECONDS = {"corpus": 6.0, "pairs": 3.4, "random": 10.0}

# Random workload: the pool behind `mpst crosscheck`, sampled from a fixed
# base so that every seed runs the same 300 protocols (up to renaming).
RANDOM_BASE = 20260814
RANDOM_TYPES = 300
RANDOM_COMMANDS = ("check", "project", "classify", "verify")
# The classify tail: sample 202 of crosscheck seed 777.
RANDOM_TAIL = 777 + 202


@dataclass
class Op:
    """One CLI command on one input, with its known answer.

    `expect` holds the fields of the `--json` report the command must
    produce; `meta` holds the width of a pairs op or the protocol tree of a
    random one."""

    id: str
    command: str
    files: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    probe: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.files, "--json"]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files into `workdir` and return its ops in
    the seed's order, probes last."""
    rng = random.Random(seed)
    ops = {"corpus": _corpus, "pairs": _pairs, "random": _random}[workload](rng, workdir)
    regular = [op for op in ops if not op.probe]
    rng.shuffle(regular)
    return regular + [op for op in ops if op.probe]


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text + "\n", encoding="utf-8")
    return name


# --- expected reports --------------------------------------------------------


def _well_formed() -> dict:
    return {"well_formed": True}


def _projected(environment: dict | None = None) -> dict:
    out: dict = {"projected": True}
    if environment is not None:
        out["environment"] = environment
    return out


def _conforms() -> dict:
    return {"sound": True, "complete": True}


def _gt_ops(name: str, path: str, answers: dict, probe: bool = False) -> list[Op]:
    return [
        Op(f"{name}.{cmd}", cmd, (path,), answers[cmd], probe)
        for cmd in GT_COMMANDS
        if cmd in answers
    ]


def _sound_protocol(traces: int, environment: dict | None = None) -> dict:
    """Answers for a well-formed, projectable protocol with `traces` traces
    up to the default length bound."""
    return {
        "check": _well_formed(),
        "project": _projected(environment),
        "trace": {"count": traces},
        "classify": {"category": "Projectable"},
        "verify": _conforms(),
    }


# --- corpus ------------------------------------------------------------------

SALE = (
    "seller -> buyer : descr ; seller -> buyer : price ;"
    " (buyer -> seller : accept | buyer -> seller : quit)"
)
STARRED = "(p -> q : a)* ; p -> q : b"
LOOP2 = (
    "loop2 (p -> q : handover, q -> p : handover)"
    " exit (p -> q : bailout, q -> p : bailout)"
)
HIDDEN_ORDER = "p -> q : a ; r -> s : b"
UNKNOWABLE_CHOICE = (
    "(p -> q : a ; q -> r : a ; r -> p : a) | (p -> q : b ; q -> r : a ; r -> p : b)"
)
UNCOVERABLE_CHOICE = "p -> q : a | q -> p : a"
JOIN = "(p -> q1 : a & p -> q2 : a) ; {q1,q2} -> q : b"
NO_JOIN = "(p -> q1 : a & p -> q2 : a) ; (q1 -> q : b & q2 -> q : b)"
LIVE_LOOP = "p : rec X . (q!a.X (+) q!b.end)\nq : rec Y . (p?a.Y + p?b.end)"
NEVER_ENDS = "p : rec X . q!a.X\nq : rec Y . p?a.Y"
STARVING = (
    "p : rec X . q!a.q!b.X\n"
    "q : rec Y . (p?a.p?b.Y + p?b.r!c.end)\n"
    "r : q?c.end"
)

# Ring loops of 3 to 13 roles.  Beyond the acceptance sizes 3, 5 and 8, the
# other sizes give the corpus 103 distinct ops, so that ten distinct ops lie
# beyond op_p90_ms, with the ring verify times close together around it.
RING_SIZES = range(3, 14)
CHAIN_LENGTH = 500
CHAIN_PROBE_LENGTH = 1500
NESTING_PROBE_DEPTH = 1200


def _ring(roles: list[str], msg: str, stop: str) -> str:
    """A loop passing `msg` once round the ring of `roles`; the first role
    decides, and the exit passes `stop` round the ring once."""
    k = len(roles)
    body = " ; ".join(f"{roles[i]} -> {roles[(i + 1) % k]} : {msg}" for i in range(k))
    out = " ; ".join(f"{roles[i]} -> {roles[(i + 1) % k]} : {stop}" for i in range(k))
    return f"({body})* ; {out}"


def _ring_traces(k: int) -> int:
    """Traces of a k-role ring loop up to its default bound 2·(2k) + 4: one
    per number of rounds j with k·(j + 1) <= 4k + 4."""
    return (4 * k + 4) // k


def _chain(roles: list[str], msgs: list[str], length: int) -> str:
    """`length` interactions round the ring of `roles`, each sent by the
    receiver of the one before, so no two neighbours commute."""
    k = len(roles)
    return " ; ".join(
        f"{roles[j % k]} -> {roles[(j + 1) % k]} : {msgs[j % len(msgs)]}"
        for j in range(length)
    )


def _corpus(rng: random.Random, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    sale = {
        **_sound_protocol(2),
        "project": _projected({
            "buyer": "seller?descr.seller?price.(seller!accept.end (+) seller!quit.end)",
            "seller": "buyer!descr.buyer!price.(buyer?accept.end + buyer?quit.end)",
        }),
    }
    ops += _gt_ops("sale", _write(workdir, "sale.gt", SALE), sale)
    # a^k b for k = 0..7 within the default bound 2·2 + 4
    starred = {
        **_sound_protocol(8),
        "project": _projected({
            "p": "rec X . q!a.X (+) q!b.end",
            "q": "rec X . p?a.X + p?b.end",
        }),
    }
    ops += _gt_ops("starred", _write(workdir, "starred.gt", STARRED), starred)
    # the pinned environment of the two-phase loop, in canonical branch order
    loop2 = {
        # (h h)^j then either exit, j = 0..5, within the default bound 12
        **_sound_protocol(12),
        "project": _projected({
            "p": "rec X . q!bailout.end (+) q!handover.(q?bailout.end + q?handover.X)",
            "q": "rec X . p?bailout.end + p?handover.(p!bailout.end (+) p!handover.X)",
        }),
    }
    ops += _gt_ops("loop2", _write(workdir, "loop2.gt", LOOP2), loop2)
    hidden = {
        "check": {
            "well_formed": False,
            "witness": ["p -> q : a", "r -> s : b"],
            "position": 0,
        },
        "project": _projected(),
        "trace": {"count": 1},
        "classify": {"category": "NoSequentiality"},
        "verify": {"sound": False, "complete": True},
    }
    ops += _gt_ops("hidden-order", _write(workdir, "hidden_order.gt", HIDDEN_ORDER), hidden)
    for name, text, category in (
        ("unknowable-choice", UNKNOWABLE_CHOICE, "NoKnowledgeForChoice"),
        ("uncoverable-choice", UNCOVERABLE_CHOICE, "NoKnowledgeNoChoice"),
    ):
        flawed = {
            "check": _well_formed(),
            "project": {"projected": False},
            "trace": {"count": 2},
            "classify": {"category": category},
            "verify": {"projected": False},
        }
        ops += _gt_ops(name, _write(workdir, f"{name}.gt", text), flawed)
    ops += _gt_ops("join", _write(workdir, "join.gt", JOIN), _sound_protocol(2))
    # Every session trace has the letters of a global one, so the
    # projection is complete, but q1 may answer before q2 hears from p.
    ops += _gt_ops("no-join", _write(workdir, "no_join.gt", NO_JOIN), {
        "check": {
            "well_formed": False,
            "witness": ["p -> q1 : a", "p -> q2 : a", "q1 -> q : b", "q2 -> q : b"],
            "position": 1,
        },
        "project": _projected(),
        "trace": {"count": 4},
        "classify": {"category": "NoSequentiality"},
        "verify": {"sound": False, "complete": True},
    })
    for name, text, verdict in (
        ("live-loop", LIVE_LOOP, "Live"),
        ("never-ends", NEVER_ENDS, "NotLive"),
        ("starving", STARVING, "NotLive"),
    ):
        path = _write(workdir, f"{name}.mps", text)
        ops.append(Op(f"{name}.simulate", "simulate", (path,), {"verdict": verdict}))

    prefix = rng.choice(["n", "v", "w", "x"])
    msg, stop = rng.sample(["m", "t", "p", "s", "d", "h"], 2)
    for k in RING_SIZES:
        roles = [f"{prefix}{i}" for i in range(k)]
        path = _write(workdir, f"ring{k}.gt", _ring(roles, msg, stop))
        ops += _gt_ops(f"ring{k}", path, _sound_protocol(_ring_traces(k)))
    roles = [f"{prefix}{i}" for i in range(4)]
    msgs = rng.sample(["a", "b", "c", "d", "e"], 3)
    path = _write(workdir, "chain.gt", _chain(roles, msgs, CHAIN_LENGTH))
    ops += _gt_ops(f"chain{CHAIN_LENGTH}", path, _sound_protocol(1))

    # Probes: deep inputs that overflow the interpreter stack today.
    path = _write(workdir, "chain_probe.gt", _chain(roles, msgs, CHAIN_PROBE_LENGTH))
    ops += _gt_ops(f"chain{CHAIN_PROBE_LENGTH}", path, _sound_protocol(1), probe=True)
    nested = "(" * NESTING_PROBE_DEPTH + f"{roles[0]} -> {roles[1]} : {msgs[0]}" + ")" * NESTING_PROBE_DEPTH
    path = _write(workdir, "nesting_probe.gt", nested)
    ops += _gt_ops(f"nesting{NESTING_PROBE_DEPTH}", path, _sound_protocol(1), probe=True)
    return ops


# --- pairs -------------------------------------------------------------------

PAIRS_WIDTHS = {
    2: ("check", "project", "trace", "classify", "verify", "simulate"),
    3: ("check", "project", "trace", "classify", "verify", "simulate"),
    4: ("check", "project", "classify"),
    5: ("check", "classify"),
}
PAIRS_PROBES = {4: ("trace", "simulate", "verify")}


def _pairs(rng: random.Random, workdir: Path) -> list[Op]:
    """The width-n family &_{i<n} (a_i -> b_i : m ; b_i -> a_i : k ; a_i -> b_i : z)."""
    a, b = rng.choice([("a", "b"), ("c", "d"), ("u", "v"), ("x", "y")])
    m, k, z = rng.sample(["m", "k", "z", "r", "q", "f"], 3)
    ops: list[Op] = []
    for n in sorted(PAIRS_WIDTHS.keys() | PAIRS_PROBES.keys()):
        pairs = [(f"{a}{i}", f"{b}{i}") for i in range(n)]
        text = " & ".join(f"({x} -> {y} : {m} ; {y} -> {x} : {k} ; {x} -> {y} : {z})" for x, y in pairs)
        env = {x: f"{y}!{m}.{y}?{k}.{y}!{z}.end" for x, y in pairs}
        env |= {y: f"{x}?{m}.{x}!{k}.{x}?{z}.end" for x, y in pairs}
        # every trace interleaves the n three-letter words: (3n)! / (3!)^n
        traces = math.factorial(3 * n) // 6**n
        answers = {
            **_sound_protocol(traces, env),
            "simulate": {"verdict": "Live", "trace_count": traces},
        }
        gt = _write(workdir, f"pairs{n}.gt", text)
        mps = _write(workdir, f"pairs{n}.mps", "\n".join(f"{r} : {t}" for r, t in sorted(env.items())))
        for cmd in PAIRS_WIDTHS.get(n, ()) + PAIRS_PROBES.get(n, ()):
            ops.append(Op(
                f"pairs{n}.{cmd}",
                cmd,
                (mps if cmd == "simulate" else gt,),
                answers[cmd],
                probe=cmd in PAIRS_PROBES.get(n, ()),
                meta={"width": n},
            ))
    return ops


# --- random ------------------------------------------------------------------

_ROLE_POOL = ("p", "q", "r", "s")
_MESSAGE_POOL = "abcde"


def random_tree(seed: int):
    """The protocol `mpst.verifier.random_global_type(seed)` draws with the
    crosscheck defaults (size <= 8, star depth <= 1), with the same random
    choices, as a tree of tuples: ("act", senders, receiver, message),
    ("seq"|"both"|"either", left, right) or ("star", body)."""
    rng = random.Random(seed)

    def action():
        receiver = rng.choice(_ROLE_POOL)
        rest = [x for x in _ROLE_POOL if x != receiver]
        k = 2 if rng.random() < 0.15 else 1
        senders = tuple(sorted(rng.sample(rest, k)))
        return ("act", senders, receiver, rng.choice(_MESSAGE_POOL))

    def gen(size: int, depth: int):
        if size <= 1:
            return action()
        roll = rng.random()
        if roll < 0.15 and depth > 0:
            return ("star", gen(size - 1, depth - 1))
        for bound, kind in ((0.45, "seq"), (0.60, "both"), (0.85, "either")):
            if roll < bound:
                cut = rng.randint(1, size - 1)
                return (kind, gen(cut, depth), gen(size - cut, depth))
        return action()

    return gen(rng.randint(1, 8), 1)


def rename(tree, roles: dict, msgs: dict):
    if tree[0] == "act":
        _, senders, receiver, msg = tree
        return ("act", tuple(sorted(roles[s] for s in senders)), roles[receiver], msgs[msg])
    return (tree[0], *(rename(t, roles, msgs) for t in tree[1:]))


_OPS = {"seq": ";", "both": "&", "either": "|"}


def tree_text(tree) -> str:
    """Fully parenthesized `.gt` text of a tree."""
    match tree:
        case ("act", senders, receiver, msg):
            left = senders[0] if len(senders) == 1 else "{" + ",".join(senders) + "}"
            return f"{left} -> {receiver} : {msg}"
        case ("star", body):
            return f"({tree_text(body)})*"
        case (kind, left, right):
            return f"({tree_text(left)} {_OPS[kind]} {tree_text(right)})"
    raise ValueError(f"not a protocol tree: {tree!r}")


def _random(rng: random.Random, workdir: Path) -> list[Op]:
    roles = dict(zip(_ROLE_POOL, rng.sample("pqrstuvw", 4)))
    msgs = dict(zip(_MESSAGE_POOL, rng.sample("abcdefgh", 5)))
    ops: list[Op] = []
    for i in range(RANDOM_TYPES + 1):
        probe = i == RANDOM_TYPES
        seed = RANDOM_TAIL if probe else RANDOM_BASE + i
        tree = rename(random_tree(seed), roles, msgs)
        name = "tail" if probe else f"rand{i:03d}"
        path = _write(workdir, f"{name}.gt", tree_text(tree))
        for cmd in ("classify",) if probe else RANDOM_COMMANDS:
            ops.append(Op(f"{name}.{cmd}", cmd, (path,), {}, probe, {"tree": tree}))
    return ops
