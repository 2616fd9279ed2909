"""Benchmark of spanforge: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload span-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one workload as a closed loop: a single caller issues the
jobs one after another and repeats full passes until the time is used up.
``--workload all`` runs each workload in a fresh process of its own and
prints one table.  The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics.  NOTES.md explains the
workloads and the metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spantrace import Tracer
from workloads import BUILDERS, WORKLOADS, Api, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
MIN_SAMPLES = 100        # job samples per run, so p90 has 10 beyond it
LAST_PASS_START_S = 150  # never start a pass later than this into a run

UNITS = {"pass_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources() -> None:
    for need in ("src/spanforge/__init__.py", "tests/corpus.py",
                 "tests/test_acceptance.py", "tests/data"):
        if not (ROOT / need).exists():
            fail(f"{need} is missing under {ROOT}; run from a spanforge checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    pass_s: float            # summed wall time of the pass's calls
    job_s: list[float]
    failed: int
    violations: int
    layers: dict | None = None


def run_pass(workload, fingerprints: dict, notes: list[str]) -> PassResult:
    clock = time.perf_counter
    job_s: list[float] = []
    failed = violations = 0
    index = 0
    for group in workload.groups:
        ctx: dict = {}
        for job in group:
            start = clock()
            try:
                result, error = job.call(ctx), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, exc
            job_s.append(clock() - start)
            if error is not None:
                outcome = Outcome(False, note=f"raised {error!r}")
            else:
                try:
                    outcome = job.check(result)
                except Exception as exc:
                    outcome = Outcome(False, note=f"check raised {exc!r}")
            if outcome.fingerprint is not None:
                first = fingerprints.setdefault(index, outcome.fingerprint)
                if first != outcome.fingerprint and outcome.ok:
                    outcome = Outcome(False, outcome.violations, None,
                                      "output differs from the first pass")
            violations += outcome.violations
            if not outcome.ok:
                failed += 1
                notes.append(f"{job.name}: {outcome.note}")
            index += 1
    return PassResult(sum(job_s), job_s, failed, violations)


def run_passes(workload, seconds: float, traced, tracer=None) -> list[PassResult]:
    """Full passes until the time is used up and MIN_SAMPLES jobs ran.
    ``traced(i)`` says whether pass i runs under the tracer."""
    notes: list[str] = []
    fingerprints: dict = {}
    results: list[PassResult] = []
    here = os.getcwd()
    begin = time.perf_counter()
    try:
        if workload.cwd:
            os.chdir(workload.cwd)
        while True:
            gc.collect()
            tracing = traced(len(results))
            if tracing:
                tracer.install()
                since = tracer.mark()
            try:
                result = run_pass(workload, fingerprints, notes)
            finally:
                if tracing:
                    tracer.uninstall()
            if tracing:
                result.layers = tracer.summary(since)
            results.append(result)
            now = time.perf_counter() - begin
            samples = sum(len(r.job_s) for r in results)
            need_more = samples < MIN_SAMPLES or (
                tracer is not None and len(results) < 2)
            estimate = max(r.pass_s for r in results[-2:])
            if now > LAST_PASS_START_S:
                break
            if not need_more and now + estimate > seconds:
                break
    finally:
        os.chdir(here)
    for note in notes[:20]:
        print(f"perfbench: failed job {note}", file=sys.stderr)
    return results


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    setup_s = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        workload = api = None
        gc.collect()
        start = time.perf_counter()
        api = Api()
        workload = BUILDERS[name](api, seed, OUT)
        setup_s.append(time.perf_counter() - start)
    try:
        passes = run_passes(workload, seconds, lambda i: False)
    finally:
        workload.cleanup()
    samples = [s for p in passes for s in p.job_s]
    metrics = {
        # the mean over the whole run: the host's speed drifts in spells of
        # seconds to a minute, and a mean weighs every spell of the run
        "pass_s": statistics.fmean(p.pass_s for p in passes),
        "job_p50_ms": 1000.0 * statistics.median(samples),
        # interpolated between the two samples around the 90% rank
        "job_p90_ms": 1000.0 * statistics.quantiles(
            samples, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_s),
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    extra = {"setup_runs_s": setup_s, "pass_runs_s": [p.pass_s for p in passes],
             "jobs_per_pass": workload.job_count,
             "violations_per_pass": [p.violations for p in passes]}
    return metrics, passes, extra


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    tracer = Tracer()
    api = Api()
    tracer.install()
    since = tracer.mark()
    try:
        workload = BUILDERS[name](api, seed, OUT)
    finally:
        tracer.uninstall()
    setup = tracer.summary(since)
    try:
        # untraced and traced passes alternate, so both see the same machine
        passes = run_passes(workload, seconds, lambda i: i % 2 == 1, tracer)
    finally:
        workload.cleanup()
    traced = [p for p in passes if p.layers is not None]
    plain = [p for p in passes if p.layers is None]
    first = traced[0].layers
    repeats = all(p.layers["calls"] == first["calls"]
                  and p.layers["counts"] == first["counts"]
                  and p.violations == traced[0].violations for p in traced)

    def med(key, layer):
        return statistics.median(p.layers[key][layer] for p in traced)

    metrics: dict = {}
    for layer in tracer.names:
        metrics[f"{layer}.self_s"] = (med("self_s", layer), "s")
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count")
    counts = first["counts"]
    span_calls = first["calls"]["spans.build_span"]
    metrics["fincat.product_category.square_morphisms"] = (
        counts["fincat.product_category.square_morphisms"], "count")
    metrics["spans.build_span.distinct_ratio"] = (
        counts["spans.build_span.distinct_inputs"] / span_calls
        if span_calls else 0.0, "ratio")
    metrics["check.violations"] = (traced[0].violations, "count")
    for key in ("docs.bytes_in", "docs.bytes_out", "cli.exit_0", "cli.exit_1",
                "cli.exit_2"):
        metrics[key] = (counts[key], "B" if key.startswith("docs.") else "count")
    metrics["unattributed.self_s"] = (
        statistics.median(p.pass_s - p.layers["root_s"] for p in traced), "s")
    for layer in ("fincat.functor_category", "spans.end_monoidal",
                  "fincat.product_category"):
        metrics[f"setup.{layer}.self_s"] = (setup["self_s"][layer], "s")
        metrics[f"setup.{layer}.calls"] = (setup["calls"][layer], "count")
    untraced_s = statistics.fmean(p.pass_s for p in plain)
    traced_s = statistics.fmean(p.pass_s for p in traced)
    metrics["trace.pass_s_untraced"] = (untraced_s, "s")
    metrics["trace.pass_s_traced"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "share")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.json"
    extra = {"span_file": str(span_file.relative_to(ROOT)),
             "spans": tracer.write(span_file),
             "traced_passes": len(traced), "untraced_passes": len(plain),
             "counts_repeat": repeats, "jobs_per_pass": workload.job_count}
    return metrics, passes, extra


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spanforge").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit_id(),
            "src_sha256": source_digest()}


def single(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    run = traced_run if trace else timed_run
    metrics, passes, extra = run(name, seed, seconds)
    attempted = sum(len(p.job_s) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and extra.get("counts_repeat", True)
    meta = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "passes": len(passes),
            "job_samples": attempted, "failed_share": failed / attempted,
            **extra, **environment()}
    for key, metric in metrics.items():
        print(f"{name:17s} {key:48s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{name:17s} {'failed_share':48s} {failed / attempted:>16.6f} share "
          f"({failed} of {attempted} jobs)")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"meta": meta, **result}, handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, so set-up and memory are its own.
    Returns the combined result, its metric names prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            fail(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="span-corpus, laxator-pastings, cli-docs or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace)),
                         sort_keys=True))
        return 0
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    return single(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
