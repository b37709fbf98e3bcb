#!/usr/bin/env python3
"""Benchmark of `templearn` on seeded, locally generated workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload learn-lasso --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

`--trace 0` measures the end-to-end metrics; `--trace 1` runs a fixed batch
of the workload's inputs alternately plain and with spans at every layer
boundary, and reports the per-layer metrics.  `all` runs every workload in
its own fresh process.  The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
human-readable report.  See bench/README.md for the metric definitions.

The package is imported from `src/` next to this directory; nothing else
on the path is used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100         # so that ten samples lie beyond the 90th percentile
SETUPS = 9            # set-ups timed per run; setup_s is their median
HARD_LIMIT_S = 150.0  # stop starting cycles after this, whatever --seconds
MAX_REPORTED_FAILURES = 5

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_p90_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("models.load_sample_s", "s"),
    ("formulas.parse_s", "s"),
    ("formulas.print_s", "s"),
    ("learner.learn_s", "s"),
    ("learner.verify_s", "s"),
    ("learner.self_s", "s"),
    ("learner.candidates_generated", "count"),
    ("learner.distinct_signatures", "count"),
    ("learner.distinct_ratio", "ratio"),
    ("learner.candidates_per_s", "1/s"),
    ("semantics.ltl_op_calls", "count"),
    ("semantics.ltl_op_s", "s"),
    ("semantics.ctl_op_calls", "count"),
    ("semantics.ctl_op_s", "s"),
    ("semantics.domain_builds", "count"),
    ("semantics.domain_build_s", "s"),
    ("semantics.evaluate_calls", "count"),
    ("semantics.evaluate_s", "s"),
    ("reductions.reduce_s", "s"),
    ("reductions.extract_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


def import_fresh():
    """Drop the package from `sys.modules` and import it again, so that
    every timed set-up pays for the import."""
    for name in [n for n in sys.modules
                 if n == "templearn" or n.startswith("templearn.")]:
        del sys.modules[name]
    return importlib.import_module("templearn")


class Run:
    """One workload in this process: set-up, ops, checks and results."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tl = None
        self.setups: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def setup(self, cycle) -> list:
        """Timed set-up: import the package afresh, generate the inputs of
        `cycle` and run its first op once, uncounted.  Later ops use this
        import."""
        t0 = perf_counter()
        tl = import_fresh()
        inputs = self.workload.inputs(tl, self.seed, cycle, self.workdir)
        self.workload.op(tl, inputs[0])
        self.setups.append(perf_counter() - t0)
        self.tl = tl
        return inputs

    def inputs(self, cycle) -> list:
        return self.workload.inputs(self.tl, self.seed, cycle, self.workdir)

    def one(self, inp, tracer=None):
        """Time one op, then check it; returns (seconds, verdict)."""
        w, tl = self.workload, self.tl
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out = w.op(tl, inp)
            else:
                with tracer.op():
                    out = w.op(tl, inp)
        except Exception:
            seconds = perf_counter() - t0
            self._fail(inp, traceback.format_exc())
            return seconds, f"error:{inp['kind']}"
        seconds = perf_counter() - t0
        try:
            ok, verdict = w.check(tl, inp, out)
        except Exception:
            ok, verdict = False, f"check-error:{inp['kind']}"
            self._fail(inp, traceback.format_exc())
        else:
            if not ok:
                self._fail(inp, f"output failed the reference check: "
                                f"{verdict}")
        return seconds, verdict

    def _fail(self, inp, detail):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            where = inp.get("path") or inp.get("text", "")
            self.failures.append(f"{inp['kind']} {where}: {detail}")

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self, seconds) -> tuple:
        """Whole cycles until the cycle boundary nearest to `seconds`, and
        at least MIN_OPS ops.

        The SETUPS set-ups are spread over the run, at the first cycle
        boundary past each SETUPS-th of `seconds`: the host's speed drifts
        over seconds, and set-ups taken back to back would all catch the
        same moment.  For the same reason `ops_per_s` is taken from the
        median latency of each kind of op: every cycle holds the same mix
        of kinds, and a median drops the ops that a slow phase caught."""
        latencies, verdicts = [], []
        by_kind: dict = {}
        start = perf_counter()
        cycle = 0
        inputs = self.setup(cycle)
        while True:
            t0 = perf_counter()
            for inp in inputs:
                dt, verdict = self.one(inp)
                latencies.append(dt)
                verdicts.append(verdict)
                by_kind.setdefault(inp["kind"], []).append(dt)
            cycle += 1
            now = perf_counter()
            elapsed = now - start
            if ((_nearest_end(elapsed, now - t0, seconds)
                 and len(latencies) >= MIN_OPS)
                    or elapsed >= HARD_LIMIT_S):
                break
            if (len(self.setups) < SETUPS
                    and elapsed >= len(self.setups) * seconds / SETUPS):
                inputs = self.setup(cycle)
            else:
                inputs = self.inputs(cycle)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": statistics.median(self.setups),
            "ops_per_s": _typical_throughput(inputs, by_kind),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": rss_kib / 1024.0,
        }, {"ops": len(latencies), "cycles": cycle,
            "wall_s": perf_counter() - start, "digest": _digest(verdicts)}

    def traced(self, seconds, trace_path) -> tuple:
        """Plain and traced passes over one fixed batch, alternating until
        the pair boundary nearest to `seconds`; counts come from the batch
        and must repeat exactly on every pass."""
        batch = self.setup(0)
        for c in range(1, self.workload.trace_cycles):
            batch += self.inputs(c)
        plain_s, traced_s, layers = [], [], []
        counts = digest = None
        repeat_ok = True
        start = perf_counter()
        while True:
            t0 = perf_counter()
            plain_s.append(sum(self.one(inp)[0] for inp in batch))
            tracer = Tracer()
            with tracer.instrument(self.tl):
                results = [self.one(inp, tracer) for inp in batch]
            traced_s.append(sum(dt for dt, _ in results))
            totals = tracer.totals()
            learned = dict(tracer.learn_stats)
            pass_counts = ({k: v for k, v in totals.items()
                            if k.endswith(".count")}, learned)
            pass_digest = _digest([v for _, v in results])
            if counts is None:
                counts, digest = pass_counts, pass_digest
                tracer.write(trace_path)
            elif (pass_counts, pass_digest) != (counts, digest):
                repeat_ok = False
            layers.append(totals)
            now = perf_counter()
            if _nearest_end(now - start, now - t0, seconds):
                break
        metrics = _layer_metrics(layers, counts[1])
        metrics["bench.trace_overhead"] = (statistics.median(traced_s)
                                           / statistics.median(plain_s))
        return metrics, {"ops": len(batch), "passes": len(plain_s),
                         "digest": digest, "counts_repeat": repeat_ok}


def _typical_throughput(cycle, by_kind) -> float:
    """Ops per second of one cycle in which every op takes the median
    latency of its kind over the run."""
    return len(cycle) / sum(statistics.median(by_kind[inp["kind"]])
                            for inp in cycle)


def _nearest_end(elapsed, step_s, seconds) -> bool:
    """Whether to stop after a step of `step_s` that ended at `elapsed`:
    one more step of the same length would end further from `seconds`."""
    return elapsed + step_s / 2 >= seconds


def _layer_metrics(layers, learned) -> dict:
    def seconds(key):
        return statistics.median(t.get(key, 0.0) for t in layers)

    def count(key):
        return layers[0].get(key, 0)

    learn_s = seconds("learner.learn.s")
    generated = learned["candidates_generated"]
    distinct = learned["distinct_signatures"]
    return {
        "models.load_sample_s": seconds("models.load_sample.s"),
        "formulas.parse_s": seconds("formulas.parse.s"),
        "formulas.print_s": seconds("formulas.print.s"),
        "learner.learn_s": learn_s,
        "learner.verify_s": seconds("learner.verify.s"),
        "learner.self_s": seconds("learner.self.s"),
        "learner.candidates_generated": generated,
        "learner.distinct_signatures": distinct,
        "learner.distinct_ratio": distinct / generated if generated else 0.0,
        "learner.candidates_per_s": generated / learn_s if learn_s else 0.0,
        "semantics.ltl_op_calls": count("semantics.ltl_op.count"),
        "semantics.ltl_op_s": seconds("semantics.ltl_op.s"),
        "semantics.ctl_op_calls": count("semantics.ctl_op.count"),
        "semantics.ctl_op_s": seconds("semantics.ctl_op.s"),
        "semantics.domain_builds": count("semantics.domain_build.count"),
        "semantics.domain_build_s": seconds("semantics.domain_build.s"),
        "semantics.evaluate_calls": count("semantics.evaluate.count"),
        "semantics.evaluate_s": seconds("semantics.evaluate.s"),
        "reductions.reduce_s": seconds("reductions.reduce.s"),
        "reductions.extract_s": seconds("reductions.extract.s"),
    }


def _digest(verdicts) -> str:
    return hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]


def run_workload(args) -> int:
    if not (SRC / "templearn" / "__init__.py").is_file():
        print(f"error: no templearn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(workload, args.seed, str(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics, info = run.traced(args.seconds, trace_path)
            table = PER_LAYER
            correct = run.failed == 0 and info["counts_repeat"]
        else:
            metrics, info = run.end_to_end(args.seconds)
            table = END_TO_END
            correct = run.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    print(f"  setups_s {' '.join(f'{s:.4f}' for s in run.setups)}")
    share = run.failed / run.attempted
    print(f"  attempted {run.attempted}  failed {run.failed}  "
          f"failed_share {share:.4f}")
    for line in run.failures:
        print(f"  FAILED {line}", file=sys.stderr)
    for name, unit in table:
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
