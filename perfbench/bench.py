"""Passes over a workload: timed ops, digest checks, metrics."""

import json
import os
import resource
import statistics
import sys
import traceback

from srcpath import ROOT
from tracing import Tracer
from speed import clock
from workloads import WORKLOADS, expected_digest, pool_seed, prepare_op, report_op, spec_plan

REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
# inclusive spans printed per algebra by a traced run: the rows of the
# per-layer Baseline table in ROADMAP.md
TABLE_ROWS = (
    ("analyze", "pipeline.analyze"),
    ("amplify", "amplify.amplify"),
    ("model-map verify", "pipeline.ModelIsomorphism"),
    ("spread", "amplify.spread"),
    ("invariance", "algebra.is_invariant"),
    ("coassociativity", "algebra.check_coassociativity"),
    ("rank", "algebra.delta_rank"),
    ("counit oracle", "amplify.counit_solution_space"),
)


class WorkloadRun:
    """Runs a workload's ops and checks each output against its digest."""

    def __init__(self, workload, reference: dict, pool: int):
        self.workload = workload
        self.reference = reference
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.refusals: list = []

    def check(self, key: str, label: str, got: str, exc) -> bool:
        """Count the op; True when its output matches the reference."""
        self.attempted += 1
        try:
            want = expected_digest(self.reference[key], label, self.pool)
        except (KeyError, IndexError):
            want = None
        if got == want:
            return True
        self.failed += 1
        print(f"MISMATCH {key} [{label}]: digest {got}, reference {want}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
        return False

    def one_pass(self, entries, rounds: int, times: list, tracer=None) -> float:
        """`prepare` on every algebra, each followed by `rounds` `run_spec` calls
        on it; returns the summed `prepare` seconds and appends run times to
        `times`.  Prepare and run calls alternate, so both sample the whole
        pass.  Round r on algebra idx uses subset datum (r + idx) mod 13, so
        every round mixes all kinds of subset data."""
        prepare_s, live, self.refusals = 0.0, [], []
        for idx, (key, alg) in enumerate(entries):
            if tracer is not None:
                tracer.label = key
            ctx, dt, got, exc = prepare_op(alg)
            prepare_s += dt
            matched = self.check(key, "prepare", got, exc)
            if ctx is None:
                if matched:
                    self.refusals.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            # every context lives to the end of the pass, so that peak_rss_mb
            # adds up what each one holds rather than following the collector
            live.append(ctx)
            plan = spec_plan(ctx, idx, self.workload.spec_labels, self.pool)
            for r in range(rounds):
                label, spec = plan[(r + idx) % len(plan)]
                dt, got, exc = report_op(ctx, spec)
                times.append(dt)
                self.check(key, label, got, exc)
        return prepare_s


def end_to_end(run: WorkloadRun, import_s: float, seconds: float) -> dict:
    """Input builds around one pass that prepares every algebra and runs
    all its rounds right after it.

    The work is fixed by the workload and `seconds`, so two commits do the
    same work: `seconds / round_s` rounds of one `run_spec` per algebra.
    The pass follows the first build and the other build follows the
    pass, so that `setup_s` samples the whole run.
    """
    workload = run.workload
    rounds = max(1, round(seconds / workload.round_s))
    gen_s, times = [], []
    for b in range(workload.builds):
        entries = None  # drop the previous copy before building the next
        t0 = clock()
        entries = workload.generate()
        gen_s.append(clock() - t0)
        if b == 0:
            t0 = clock()
            prepare_s = run.one_pass(entries, rounds, times)
            work_s = clock() - t0

    ms = sorted(t * 1000 for t in times)
    print(
        f"{workload.name}: {len(entries)} algebras, {len(gen_s)} set-ups,"
        f" {rounds} rounds, {len(ms)} runs",
        file=sys.stderr,
    )
    rss_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {
        "setup_s": (import_s + statistics.median(gen_s), "s"),
        "work_s": (work_s, "s"),
        "prepare_s": (prepare_s, "s"),
        "runs_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "run_p50_ms": (statistics.median(ms), "ms"),
        # mean of the slowest 5%: a sum over many calls is steadier than
        # any single order statistic of the sparse tail
        "run_tail_ms": (statistics.fmean(ms[-max(1, round(len(ms) / 20)):]), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced(run: WorkloadRun):
    """An untraced pass, then the same pass traced twice.

    Returns (per-layer metrics, list of problems).  The two traced passes
    must give identical work counts, and every wrapped function must be
    called: each workload goes through every layer.
    """
    entries = run.workload.generate()

    def timed_pass(tracer=None) -> float:
        t0 = clock()
        run.one_pass(entries, 1, [], tracer)
        return clock() - t0

    plain_s = timed_pass()
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            passes.append((tracer, timed_pass(tracer)))
    (tracer, traced_s), (again, _) = passes
    problems = []
    first, second = tracer.work_counts(), again.work_counts()
    for name in first:
        if first[name] != second[name]:
            problems.append(f"{name} differs between passes: {first[name]} vs {second[name]}")
        if name.endswith(".calls") and first[name] == 0:
            problems.append(f"no calls reached {name[:-len('.calls')]}")
    print_table(tracer, [key for key, _ in entries])
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return metrics, problems


def print_table(tracer, keys):
    """Inclusive seconds per algebra for the Baseline table's layers."""
    print("algebra | " + " | ".join(row for row, _ in TABLE_ROWS), file=sys.stderr)
    for key in keys:
        cells = [f"{tracer.inclusive.get((key, name), 0.0):.3f}" for _, name in TABLE_ROWS]
        print(f"{key} | " + " | ".join(cells), file=sys.stderr)


def measure(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload_name]
    run = WorkloadRun(WORKLOADS[workload_name], reference, pool_seed(seed))
    problems = []
    if trace:
        metrics, problems = traced(run)
    else:
        metrics = end_to_end(run, import_s, seconds)
    for line in run.refusals:
        print(f"refused (reference output): {line}", file=sys.stderr)
    for line in problems:
        print(f"TRACE CHECK FAILED: {line}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
