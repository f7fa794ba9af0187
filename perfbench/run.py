"""The repository benchmark: one command per workload, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6_qarma --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (see perfbench/README.md). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` of the
same checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import util
from tracer import ENTRY_POINTS, Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

WORKLOADS = {
    "fig6_qarma": ("fig6", "Fig6"),
    "fig9_qarma": ("fig9", "Fig9"),
    "campaign": ("campaign", "Campaign"),
}
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 30

#: Every workload measures every one of these; the result line holds
#: exactly these with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "request_tail_s": "s",
    "peak_rss_mib": "MiB",
}
#: Figures printed on the line before the result, outside the gate:
#: the median request, whose run-to-run spread on campaign is wider than
#: any bound the gate allows, and figures only some workloads have.
WORKLOAD_FIGURES = {
    "request_p50_s": "s",
    "sim_acc_per_s": "1/s",
    "lines_per_s": "1/s",
    "sim_slowdown_pct": "%",
    "opt_slowdown_pct": "%",
    "correction_rate": "ratio",
    "mpki_err_pct": "%",
}

SELF_TIME_LAYERS = tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS))
#: Per-layer counts (per iteration) read straight from Iteration.counts.
PLAIN_COUNTS = (
    "cpu.core.mem_ops", "cache.llc_misses", "cache.writebacks",
    "mac.computations", "guard.mac_checks", "guard.identifier_filtered",
    "correction.calls", "correction.guesses", "mmu.walks", "mmu.tlb_misses",
    "os.page_faults", "mem.reads", "mem.pte_reads", "mem.writes",
    "dram.accesses", "dram.activations", "fabric.cells", "wal.appends",
)
#: Counts taken at the wrapped boundary: metric -> (layer, tracer counter).
BOUNDARY_COUNTS = {
    "cpu.trace.records": ("cpu.trace", "records"),
    "cache.fill_calls": ("cache", "fill_calls"),
    "mac.batch_blocks": ("mac", "batch_blocks"),
    "boot.cold": ("boot", "cold"),
    "boot.restores": ("boot", "restores"),
}


def pin_environment(cache_dir: pathlib.Path) -> None:
    """Clear every REPRO_* knob (REPRO_BATCH, REPRO_BOOT_SNAPSHOT,
    REPRO_VALIDATE, REPRO_JOB_BATCH, REPRO_BACKEND, REPRO_WORKERS,
    REPRO_SCALE, REPRO_CHAOS, REPRO_JOURNAL_FLUSH, REPRO_WAL_FLUSH, ...)
    so every path runs at its default, and give the run its own cache."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    sys.path.insert(0, str(SRC))


def load(workload: str):
    module_name, _ = WORKLOADS[workload]
    return importlib.import_module(module_name)


# -- set-up probes -----------------------------------------------------------


def probe_main(workload: str, seed: int, cache_dir: pathlib.Path) -> None:
    """One set-up sample in a fresh interpreter: import the program and
    build what the workload builds before it can serve its first request."""
    pin_environment(cache_dir)
    started = time.perf_counter()
    load(workload).probe(seed)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def measure_setup(workload: str, seed: int, cache_dir: pathlib.Path) -> List[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", workload,
             "--seed", str(seed), "--cache-dir", str(cache_dir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- measurement -------------------------------------------------------------


def keep_going(started: float, passes: int, seconds: float) -> bool:
    """Start another pass only if one more of average length still ends
    within the measurement window."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds * 1.05


def measure(bench, seconds: float):
    iterations = []
    started = time.perf_counter()
    while True:
        iterations.append(bench.iterate())
        if len(iterations) >= bench.min_iterations and not keep_going(
            started, len(iterations), seconds
        ):
            return iterations


def measure_traced(bench, seconds: float):
    tracer = Tracer()
    # One untraced pass first, so the one-time costs of a process's first
    # iteration (lazy imports, first pool start) fall on neither side of
    # a pair and do not bias trace.overhead.
    warmup = bench.iterate()
    pairs = []
    started = time.perf_counter()
    while True:
        untraced = bench.iterate()
        tracer.iteration += 1
        tracer.reset_totals()
        tracer.install()
        try:
            traced = bench.iterate()
        finally:
            tracer.uninstall()
        pairs.append((untraced, traced, tracer.self_seconds(), tracer.counts()))
        if not keep_going(started, len(pairs), seconds):
            return warmup, pairs, tracer


def consistency_failures(iterations) -> List[str]:
    """Outputs and StatGroup counts repeat exactly across iterations."""
    first = iterations[0]
    failures = []
    for number, iteration in enumerate(iterations[1:], start=1):
        if iteration.outputs != first.outputs:
            failures.append(f"iteration {number}: outputs differ from iteration 0")
        if iteration.counts != first.counts:
            failures.append(f"iteration {number}: layer counts differ from iteration 0")
    return failures


def end_to_end(bench, iterations, setup_samples) -> Dict[str, float]:
    median = util.median
    requests = [r for iteration in iterations for r in iteration.requests]
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": median([it.wall_s for it in iterations]),
        "requests_per_s": median([len(it.requests) / it.wall_s for it in iterations]),
        "request_tail_s": util.percentile(requests, bench.tail_percentile),
        "peak_rss_mib": util.peak_rss_mib(),
    }
    return metrics


def per_layer(pairs) -> Dict[str, float]:
    median, ratio = util.median, util.ratio
    _, traced, _, boundary = pairs[0]
    counts = traced.counts
    metrics = {
        f"{layer}.self_s": median([self_s.get(layer, 0.0) for _, _, self_s, _ in pairs])
        for layer in SELF_TIME_LAYERS
    }
    for name in PLAIN_COUNTS:
        metrics[name] = counts.get(name, 0)
    for name, key in BOUNDARY_COUNTS.items():
        metrics[name] = boundary.get(key, 0)
    metrics["cache.l1_hit_ratio"] = ratio(
        counts.get("cache.l1_hits", 0), counts.get("cache.l1_lookups", 0))
    metrics["cache.l2_hit_ratio"] = ratio(
        counts.get("cache.l2_hits", 0), counts.get("cache.l2_lookups", 0))
    metrics["correction.guesses_per_line"] = ratio(
        counts.get("correction.guesses", 0), counts.get("correction.calls", 0))
    metrics["correction.useful_ratio"] = ratio(
        counts.get("correction.winners", 0), counts.get("correction.guesses", 0))
    metrics["fabric.cache_hit_ratio"] = ratio(
        counts.get("fabric.cache_hits", 0), counts.get("fabric.cells", 0))
    metrics["service.queue_wait_p50_s"] = median(
        [t.extra.get("queue_wait_p50_s", 0.0) for _, t, _, _ in pairs])
    metrics["trace.overhead"] = median([t.wall_s for _, t, _, _ in pairs]) - median(
        [u.wall_s for u, _, _, _ in pairs])
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "trace.overhead":
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run(args) -> Tuple[Dict, List[str]]:
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cache_dir = workdir / "repro_cache"
    try:
        pin_environment(cache_dir)
        print("host:", json.dumps(util.host_fingerprint()))
        setup_samples = (
            [] if args.trace else measure_setup(args.workload, args.seed, cache_dir)
        )
        module = load(args.workload)
        bench = getattr(module, WORKLOADS[args.workload][1])(args.seed, workdir)
        bench.setup()
        try:
            if args.trace:
                warmup, pairs, tracer = measure_traced(bench, args.seconds)
                # Untraced, traced, untraced, ...: the consistency check
                # below also proves tracing did not perturb the model.
                iterations = [warmup] + [it for pair in pairs for it in pair[:2]]
            else:
                iterations = measure(bench, args.seconds)
            failures = consistency_failures(iterations)
            for iteration in iterations:
                failures.extend(iteration.failures)
            attempted = sum(it.attempted for it in iterations)
            verify = getattr(bench, "verify", None)
            if verify is not None:
                failures.extend(verify(iterations))
                attempted += 1
        finally:
            bench.close()
        if args.trace:
            metrics = per_layer(pairs)
            units = {name: layer_unit(name) for name in metrics}
            if tracer.missing:
                print("not traced (entry point missing):", ", ".join(tracer.missing))
            tracer.write(RUNS / f"spans-{args.workload}.jsonl")
            print(f"spans: {len(tracer.spans)} kept, {tracer.spans_dropped} dropped")
            median = util.median
            print(
                f"wall per iteration: untraced {median([u.wall_s for u, *_ in pairs]):.3f} s, "
                f"traced {median([t.wall_s for _, t, *_ in pairs]):.3f} s, of which "
                f"{median([sum(s.values()) for _, _, s, _ in pairs]):.3f} s in traced layers"
            )
        else:
            metrics = end_to_end(bench, iterations, setup_samples)
            units = END_TO_END
            figures = {
                "request_p50_s": util.median(
                    [r for it in iterations for r in it.requests]),
                **bench.metrics(iterations),
            }
            print("workload figures:", ", ".join(
                f"{name} {value:.6g} {WORKLOAD_FIGURES[name]}"
                for name, value in figures.items()
            ))
        requests = len([r for it in iterations for r in it.requests])
        beyond = round(requests * (1.0 - bench.tail_percentile / 100.0))
        print(
            f"{args.workload} seed {args.seed}: {len(iterations)} iterations, "
            f"{requests} requests, tail p{bench.tail_percentile:g} "
            f"({beyond} beyond), "
            f"error_rate {min(attempted, len(failures)) / attempted:.4f}"
        )
        result = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        }
        return {"attempted": attempted, "metrics": result}, failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not in this checkout ({SRC} missing)",
              file=sys.stderr)
        return 2
    if args.probe:
        probe_main(args.probe, args.seed, args.cache_dir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    outcome, failures = run(args)
    for failure in failures:
        print("FAILED:", failure, file=sys.stderr)
    failed = min(outcome["attempted"], len(failures))
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
