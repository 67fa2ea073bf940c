"""Benchmark of the `mpst` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): `corpus` (desk use: the acceptance protocols,
ring loops of 3 to 13 roles and a 500-interaction chain through every
command), `pairs` (the width-n parallel-pairs scaling family) and `random`
(300 small protocols from the crosscheck generator).  One client drives the real CLI entry point
in-process, in a closed loop, one op at a time, repeating passes over the
workload's ops; the number of passes is fixed per workload so that they
take at least `--seconds` at nominal speed.  Every verdict is checked against its
known answer.  Probes (ops that fail today because of a known defect) run
one at a time, each as a fresh `python -m mpst.cli` process, and count only
in `failed_share`.

Times are measured per op and scaled to a nominal machine speed (see
speed.py), so that runs on a loaded shared machine compare; an op whose
scaled time passes the limit (ops.LIMIT_S) fails as over the limit.  The
unscaled times are kept in the record.  With `--trace 0` the last output
line carries the end-to-end metrics:

    wall_s          median over passes of one pass's time; a failed op
                    counts at the limit, a finished one at its time
    op_p50_ms       median time to verdict per op (failed ops rank above
    op_p90_ms       every finished op); 90th percentile
    failed_share    failed ops / attempted ops, probes included
    wrong_verdicts  ops whose verdict differs from the known answer; printed
                    in the summary (it is 0 on a passing run, so it is not
                    a bounded metric) and carried by "correct"; the run
                    exits 1 unless it is 0
    peak_rss_mb     peak RSS of the process that runs the non-probe ops
    setup_s         fresh interpreter to the exit of a first `check` on a
                    trivial input, median of several starts

With `--trace 1` the run times some passes untraced, then installs the
wrappers of tracing.py and reports per-layer metrics (medians over traced
passes) and the tracing overhead, the difference in wall_s between the
traced and the untraced passes.  Every run writes its full record
(per-op digests of the `--json` output, failure ledger, scaling rows) to
`.perfbench/BENCH_<workload>_seed<seed>[_trace].json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops as oplib
import workloads
from ops import LIMIT_S, OVER_LIMIT
from speed import NOMINAL_S, Speedometer

SETUP_RUNS = 7
MIN_PASSES = 2
# Keeps at least ten op samples beyond op_p90_ms.  In pairs they are
# repeats: its 17 distinct ops leave two or three of them beyond op_p90_ms,
# each timed once per pass.
MIN_OP_SAMPLES = 110
# A probe may grow without bound; its address space is capped so that it
# fails with MemoryError instead of exhausting the machine.
PROBE_ADDRESS_SPACE = 2 * 1024**3
TRACE_RECURSION_LIMIT = 4000  # the wrappers add a frame per traced call
TRIVIAL = "p -> q : a"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "pairs", "random"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _unit(name: str) -> str:
    suffixes = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_share", "ratio"), ("_ratio", "ratio"), ("_bytes", "bytes"))
    return next((unit for suffix, unit in suffixes if name.endswith(suffix)), "count")


# --- measuring ----------------------------------------------------------------


def _program_env(root: Path) -> dict:
    """The environment for a child process that imports the checkout's mpst."""
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def measure_setup(root: Path, work: Path, speed: Speedometer) -> list[float]:
    """Scaled times of fresh `python -m mpst.cli check trivial.gt --json`
    runs, the reference sampled around each."""
    env = _program_env(root)
    scaled = []
    for _ in range(SETUP_RUNS):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mpst.cli", "check", "trivial.gt", "--json"],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        end = time.perf_counter()
        speed.sample()
        if proc.returncode != 0 or json.loads(proc.stdout).get("well_formed") is not True:
            raise SystemExit(f"error: set-up check failed: {proc.stderr.strip()}")
        scaled.append((end - start) * speed.scale(start, end))
    return scaled


class Record:
    """Every outcome of one op across passes."""

    def __init__(self, op):
        self.op = op
        self.samples: list[tuple[float, float, bool]] = []  # (start, end, failed) per pass
        self.reason: str | None = None  # first failure
        self.wrong: str | None = None
        self.digest: str | None = None
        self.report: dict | None = None

    def add(self, outcome: oplib.Outcome, start: float = 0.0) -> None:
        reason, wrong = oplib.judge(self.op, outcome)
        if self.digest is None:
            self.digest, self.report = outcome.digest, outcome.report()
        elif outcome.digest != self.digest and reason is None:
            reason, wrong = "wrong verdict: output differs between passes", True
        self.fail(reason, wrong)
        self.samples.append((start, start + outcome.elapsed, reason is not None))

    def fail(self, reason: str | None, wrong: bool = False) -> None:
        self.reason = self.reason or reason
        if wrong:
            self.wrong = self.wrong or reason

    def apply_limit(self, speed: Speedometer) -> None:
        """Fail every pass whose time at nominal speed is past the limit."""
        for k, (start, end, failed) in enumerate(self.samples):
            if not failed and (end - start) * speed.scale(start, end) > LIMIT_S:
                self.samples[k] = (start, end, True)
                self.fail(OVER_LIMIT)

    def charged(self, speed: Speedometer | None = None) -> list[float]:
        """Time per pass: the limit for a failed op (or any op with a wrong
        verdict), else the time, scaled by `speed` if given."""
        return [
            LIMIT_S if failed or self.wrong
            else (end - start) * (speed.scale(start, end) if speed else 1.0)
            for start, end, failed in self.samples
        ]


def planned_passes(workload: str, seconds: float, ops: int) -> int:
    """Passes enough to measure `seconds` at nominal speed, at least
    MIN_PASSES and MIN_OP_SAMPLES op samples.  A fixed count, so that
    every run of a workload does the same work."""
    by_time = math.ceil(seconds / workloads.PASS_SECONDS[workload])
    return max(MIN_PASSES, math.ceil(MIN_OP_SAMPLES / ops), by_time)


def run_passes(runner, records, passes, speed, tracer=None):
    """Closed loop: `passes` whole passes over `records`, timing the
    reference before each op.  Returns each pass's (start, end) and, when
    tracing, its layer metrics."""
    windows, layers = [], []
    for _ in range(passes):
        # Keep the benchmark's own objects out of the collector's scans, so
        # that a collection inside an op costs what it costs in a fresh CLI.
        gc.collect()
        gc.freeze()
        mark = tracer.mark() if tracer else None
        t0 = time.perf_counter()
        for rec in records:
            speed.sample()
            if tracer:
                tracer.op = rec.op.id
            start = time.perf_counter()
            rec.add(runner.run(rec.op.argv), start)
        speed.sample()
        t1 = time.perf_counter()
        windows.append((t0, t1))
        if tracer:
            scale = speed.scale(t0, t1)
            layers.append({
                name: value * scale if name.endswith("_s") else value
                for name, value in tracer.layer_metrics(mark).items()
            })
    return windows, layers


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = PROBE_ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(hard, PROBE_ADDRESS_SPACE)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_probe(argv: list[str], work: Path, env: dict) -> oplib.Outcome:
    """Run one probe op as a fresh `python -m mpst.cli` process.  Probes are
    not timed, so the limit is on wall time; the raise type is the last
    line of a traceback on stderr."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mpst.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=LIMIT_S, preexec_fn=_cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return oplib.Outcome(time.perf_counter() - start, None, "", OVER_LIMIT)
    elapsed = time.perf_counter() - start
    error = None
    if proc.returncode < 0:
        error = f"killed by signal {-proc.returncode}"
    elif "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        error = "raise " + last.split(":", 1)[0].rsplit(".", 1)[-1]
    return oplib.Outcome(elapsed, proc.returncode, proc.stdout, error)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- reporting ----------------------------------------------------------------


def timings(charged: list[list[float]], passes: range) -> dict:
    """wall_s, op_p50_ms and op_p90_ms of the given passes, from each
    record's charged times."""
    walls = [sum(times[k] for times in charged) for k in passes]
    samples = [times[k] for times in charged for k in passes]
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * percentile(samples, 0.5),
        "op_p90_ms": 1000 * percentile(samples, 0.9),
    }


def op_rows(records, speed):
    return [
        {
            "id": rec.op.id,
            "command": rec.op.command,
            "probe": rec.op.probe,
            "width": rec.op.meta.get("width"),
            "outcome": rec.reason or "ok",
            "raw_ms": [1000 * (end - start) for start, end, _ in rec.samples],
            "ms": [1000 * t for t in rec.charged(None if rec.op.probe else speed)],
            "windows": [(start, end) for start, end, _ in rec.samples],
            "digest": rec.digest,
        }
        for rec in records
    ]


def workload_digest(records) -> str:
    lines = sorted(f"{rec.op.id} {rec.digest}" for rec in records if rec.digest)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mpst" / "cli.py").is_file():
        print("error: run from the root of an mpst checkout (src/mpst/cli.py is missing)", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    all_ops = workloads.build(args.workload, args.seed, work)
    (work / "trivial.gt").write_text(TRIVIAL + "\n")
    regular = [Record(op) for op in all_ops if not op.probe]
    probes = [Record(op) for op in all_ops if op.probe]

    speed = Speedometer()
    speed.sample()
    setup = [] if args.trace else measure_setup(root, work, speed)
    sys.path.insert(0, str(root / "src"))
    os.chdir(work)
    runner = oplib.Runner()
    runner.run(["verify", "trivial.gt", "--json"])  # warm-up, untimed

    passes = planned_passes(args.workload, args.seconds, len(regular))
    if args.trace:
        passes = max(MIN_PASSES, passes // 2)  # untraced, then as many traced
    windows, _ = run_passes(runner, regular, passes, speed)
    untraced = range(len(windows))
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        sys.setrecursionlimit(TRACE_RECURSION_LIMIT)
        traced_windows, per_pass = run_passes(runner, regular, passes, speed, tracer)
        tracer.uninstall()
        tracer.dump(out_dir / f"spans_{args.workload}_seed{args.seed}.tsv.gz")
    for rec in regular:
        rec.apply_limit(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    os.chdir(root)

    if args.workload == "random":
        import oracle

        reports = {rec.op.id: rec.report for rec in regular if rec.reason is None}
        wrong_ids, oracle_checks = oracle.random_wrong_verdicts([r.op for r in regular], reports, root)
        for rec in regular:
            if rec.op.id in wrong_ids:
                rec.fail(f"wrong verdict: {wrong_ids[rec.op.id]}", wrong=True)
    else:
        oracle_checks = {}
    if args.trace:
        probes = []
    for rec in probes:
        rec.add(run_probe(rec.op.argv, work, _program_env(root)))

    everything = regular + probes
    failed = sum(rec.reason is not None for rec in everything)
    wrong = sum(rec.wrong is not None for rec in everything)
    charged = [rec.charged(speed) for rec in regular]
    if args.trace:
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        traced = range(len(windows), len(windows) + len(traced_windows))
        values["trace.overhead_s"] = timings(charged, traced)["wall_s"] - timings(charged, untraced)["wall_s"]
    else:
        values = timings(charged, untraced) | {
            "failed_share": failed / len(everything),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}

    rows = op_rows(everything, speed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "limit_s": LIMIT_S,
        "passes": len(windows),
        "op_samples": len(windows) * len(regular),
        "ops": len(regular),
        "probes": len(probes),
        "setup_runs": len(setup),
        "metrics": metrics,
        "reference": {
            "nominal_s": NOMINAL_S,
            "samples": len(speed.durations),
            "median_s": statistics.median(speed.durations),
            "times": speed.times,
            "durations": speed.durations,
        },
        "wrong_verdict_count": wrong,
        "oracle_checks": oracle_checks,
        "workload_digest": workload_digest(regular),
        "failures": [
            {"id": rec.op.id, "command": rec.op.command, "probe": rec.op.probe, "reason": rec.reason}
            for rec in everything if rec.reason
        ],
        "wrong_verdicts": [{"id": rec.op.id, "reason": rec.wrong} for rec in everything if rec.wrong],
        "scaling": sorted(
            ({"median_ms": statistics.median(row["ms"])} | {k: row[k] for k in ("width", "command", "probe", "outcome")}
             for row in rows if row["width"] is not None),
            key=lambda row: (row["width"], row["command"]),
        ),
        "per_op": rows,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(regular)} ops x {len(windows)} passes"
          f" = {record['op_samples']} op samples"
          + (f", then {len(traced_windows)} traced passes" if args.trace else f", {len(probes)} probes")
          + f"; limit {LIMIT_S:g} s")
    for metric, entry in metrics.items():
        print(f"  {metric:34} {_fmt(entry['value']):>12} {entry['unit']}")
    if not args.trace:
        print(f"  {'wrong_verdicts':34} {wrong:>12} count")
        print(f"  (op_p50_ms/op_p90_ms over {record['op_samples']} op samples;"
              f" setup_s is the median of {len(setup)} starts)")
    print(f"  reference median {_fmt(record['reference']['median_s'] * 1000)} ms"
          f" against {_fmt(NOMINAL_S * 1000)} ms nominal")
    for f in record["failures"]:
        print(f"  failed{' probe' if f['probe'] else ''}: {f['id']}: {f['reason']}")
    print(f"  record: {(out_dir / name).relative_to(root)}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
