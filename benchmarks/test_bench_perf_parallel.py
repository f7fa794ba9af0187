"""Parallel fabric throughput: sweep wall-clock at 1 vs N workers, cold vs warm cache.

Like ``test_bench_perf_hotpath.py`` this measures the *simulator*, not
the simulated machine: the fig6 (25 workloads x 3 configs) + fig7
(8 workloads x 4 latencies x 2 designs + baselines) sweeps run three
ways — serial, fanned out over a process pool, and replayed from a warm
content-addressed cache — and every mode must produce identical rows.

Writes machine-readable ``BENCH_parallel.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time

from conftest import scale

from repro.analysis.perf_eval import run_figure6, run_figure7
from repro.harness.parallel import (
    ResultCache,
    SimJob,
    default_workers,
    register_job_kind,
    run_jobs,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
FIG7_WORKLOADS = ["xalancbmk", "lbm", "mcf", "pr", "bwaves", "xz", "povray", "namd"]


def _sweep(mem_ops: int, warmup: int, workers: int, cache) -> tuple[float, tuple]:
    """One full fig6+fig7 sweep; returns (seconds, results)."""
    start = time.perf_counter()
    fig6 = run_figure6(mem_ops=mem_ops, warmup_ops=warmup, workers=workers, cache=cache)
    fig7 = run_figure7(
        FIG7_WORKLOADS, mem_ops=mem_ops, warmup_ops=warmup, workers=workers, cache=cache
    )
    return time.perf_counter() - start, (fig6, fig7)


# Near-zero-cost cell for the journal-overhead microbench: with nothing
# to simulate, the wall-clock IS the fabric's bookkeeping cost.
register_job_kind("bench_noop", lambda params: params["i"])


def _campaign_sweep(trials: int) -> tuple[float, list]:
    """A cold fault-campaign sweep: 2 seeds x 9 scenarios, serial.

    No result cache (every cell simulates), so the wall-clock is
    boot + trials per cell — exactly the regime the boot-snapshot layer
    targets: all 9 scenario cells of one seed share a boot.
    """
    from repro.analysis.fault_matrix import format_fault_matrix, run_fault_matrix

    start = time.perf_counter()
    reports = [
        format_fault_matrix(
            run_fault_matrix(
                trials_per_cell=trials, seed=seed, workload="xalancbmk", workers=1
            )
        )
        for seed in (11, 12)
    ]
    return time.perf_counter() - start, reports


def _snapshot_sweep_overhead(trials: int) -> dict:
    """Cold campaign sweep with boot snapshots off vs on.

    Each mode gets a pristine cache dir (so the disk tier starts empty)
    and a reset memo — both measurements are genuinely cold; the "on"
    run's wins come only from cells *within* the sweep sharing boots.
    The reports must be byte-identical.
    """
    from repro.harness import snapshot

    timings = {}
    reports = {}
    for mode, enabled in (("off", "0"), ("on", "1")):
        root = tempfile.mkdtemp(prefix=f"ptguard-bench-snap-{mode}-")
        previous_cache = os.environ.get("REPRO_CACHE_DIR")
        previous_snap = os.environ.get("REPRO_BOOT_SNAPSHOT")
        os.environ["REPRO_CACHE_DIR"] = root
        os.environ["REPRO_BOOT_SNAPSHOT"] = enabled
        snapshot.reset()
        try:
            timings[mode], reports[mode] = _campaign_sweep(trials)
        finally:
            for key, value in (
                ("REPRO_CACHE_DIR", previous_cache),
                ("REPRO_BOOT_SNAPSHOT", previous_snap),
            ):
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            snapshot.reset()
            shutil.rmtree(root, ignore_errors=True)
    return {
        "trials_per_cell": trials,
        "cells": 18,
        "cold_boot_sec": timings["off"],
        "snapshot_sec": timings["on"],
        "speedup": timings["off"] / timings["on"],
        "reports_identical": reports["off"] == reports["on"],
    }


def _journal_flush_overhead(jobs_n: int) -> dict:
    """Serial no-op cells against a fresh cache: journal cost isolated.

    ``REPRO_JOURNAL_FLUSH=1`` restores fsync-per-append (the seed
    behaviour); the default (16) bounds fsyncs to one per 16 appends.
    With nothing to simulate, the delta is the journal's dispatch
    overhead.
    """
    seconds = {}
    expected = list(range(jobs_n))
    for interval in (1, 16):
        root = pathlib.Path(tempfile.mkdtemp(prefix="ptguard-bench-journal-"))
        previous = os.environ.get("REPRO_JOURNAL_FLUSH")
        os.environ["REPRO_JOURNAL_FLUSH"] = str(interval)
        try:
            jobs = [SimJob("bench_noop", {"i": i}) for i in range(jobs_n)]
            start = time.perf_counter()
            results = run_jobs(jobs, workers=1, cache=ResultCache(root))
            seconds[interval] = time.perf_counter() - start
        finally:
            if previous is None:
                os.environ.pop("REPRO_JOURNAL_FLUSH", None)
            else:
                os.environ["REPRO_JOURNAL_FLUSH"] = previous
            shutil.rmtree(root, ignore_errors=True)
        assert results == expected, "journal batching reordered or lost results"
    return {
        "jobs": jobs_n,
        "fsync_per_append_sec": seconds[1],
        "fsync_every16_sec": seconds[16],
        "overhead_reduction": seconds[1] / seconds[16],
    }


def test_bench_perf_parallel(once, emit):
    mem_ops = int(20_000 * scale())
    warmup = int(12_000 * scale())
    workers = max(2, min(8, default_workers()))
    cache_root = pathlib.Path(tempfile.mkdtemp(prefix="ptguard-bench-cache-"))

    def experiment():
        serial_sec, serial_rows = _sweep(mem_ops, warmup, workers=1, cache=None)
        cold_cache = ResultCache(cache_root)
        parallel_sec, parallel_rows = _sweep(
            mem_ops, warmup, workers=workers, cache=cold_cache
        )
        warm_cache = ResultCache(cache_root)
        warm_sec, warm_rows = _sweep(mem_ops, warmup, workers=workers, cache=warm_cache)
        return {
            "serial_sec": serial_sec,
            "parallel_sec": parallel_sec,
            "warm_sec": warm_sec,
            "rows_identical": serial_rows == parallel_rows == warm_rows,
            "cold_misses": cold_cache.misses,
            "cold_hits": cold_cache.hits,
            "warm_hits": warm_cache.hits,
            "warm_misses": warm_cache.misses,
            "snapshot_sweep": _snapshot_sweep_overhead(
                trials=max(5, int(15 * scale()))
            ),
            "journal": _journal_flush_overhead(jobs_n=200),
        }

    try:
        result = once(experiment)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    parallel_speedup = result["serial_sec"] / result["parallel_sec"]
    warm_speedup = result["parallel_sec"] / result["warm_sec"]
    cells = result["cold_misses"]
    cpus = os.cpu_count() or 1
    # Pool scaling needs real CPUs under the pool: below 4 cores the
    # workers time-slice one another and the speedup number measures the
    # host, not the fabric. Record the fact instead of asserting on it.
    degraded_host = cpus < 4
    snap = result["snapshot_sweep"]
    journal = result["journal"]

    emit(
        "\n".join(
            [
                f"Parallel fabric — fig6+fig7 sweep, {cells} cells, "
                f"{mem_ops} mem ops/cell (REPRO_SCALE={scale():g})",
                "",
                f"{'mode':<22} {'seconds':>8} {'speedup':>10}",
                f"{'serial (1 worker)':<22} {result['serial_sec']:>8.1f} "
                f"{'1.00x':>10}",
                f"{f'{workers}-worker cold cache':<22} "
                f"{result['parallel_sec']:>8.1f} {f'{parallel_speedup:.2f}x':>10}",
                f"{'warm cache replay':<22} {result['warm_sec']:>8.2f} "
                f"{f'{warm_speedup:.1f}x':>10} (vs cold)",
                "",
                f"host CPUs: {cpus} | pool size: {workers} | "
                f"{cells} unique cells | warm hits {result['warm_hits']} "
                f"(fig6/fig7 share {result['warm_hits'] - cells} cells)"
                + (" | DEGRADED HOST (<4 CPUs)" if degraded_host else ""),
                f"rows identical across serial/parallel/cached: "
                f"{result['rows_identical']}",
                f"boot snapshots (cold campaign sweep, {snap['cells']} cells "
                f"x {snap['trials_per_cell']} trials): "
                f"{snap['cold_boot_sec']:.2f}s off vs "
                f"{snap['snapshot_sec']:.2f}s on = {snap['speedup']:.2f}x, "
                f"reports identical: {snap['reports_identical']}",
                f"journal fsync batching ({journal['jobs']} no-op cells): "
                f"{journal['fsync_per_append_sec']:.2f}s per-append vs "
                f"{journal['fsync_every16_sec']:.2f}s at REPRO_JOURNAL_FLUSH=16 "
                f"({journal['overhead_reduction']:.1f}x less)",
            ]
        )
    )

    payload = {
        "repro_scale": scale(),
        "mem_ops": mem_ops,
        "cells": cells,
        "host_cpus": cpus,
        "degraded_host": degraded_host,
        "workers": workers,
        "boot_snapshots": snap,
        "journal_flush": journal,
        "serial_sec": result["serial_sec"],
        "parallel_cold_sec": result["parallel_sec"],
        "warm_cache_sec": result["warm_sec"],
        "parallel_speedup_vs_serial": parallel_speedup,
        "warm_speedup_vs_cold": warm_speedup,
        "warm_cache_hits": result["warm_hits"],
        "warm_cache_misses": result["warm_misses"],
        "rows_identical": result["rows_identical"],
    }
    (REPO_ROOT / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # Host-independent properties (always asserted).
    assert result["rows_identical"], "execution mode changed a simulated result"
    assert result["warm_misses"] == 0, "warm cache replay re-simulated a cell"
    assert snap["reports_identical"], (
        "boot snapshots changed a campaign report"
    )
    assert warm_speedup >= 10.0, (
        f"warm-cache replay only {warm_speedup:.1f}x faster than cold"
    )
    # Pool scaling needs real CPUs under the pool; bind the acceptance
    # threshold only where the hardware can express it (>= 4 cores, full
    # scale — below that, pool overhead dominates the shrunken cells and
    # the run is recorded as degraded_host instead).
    if not degraded_host and scale() >= 1.0:
        assert parallel_speedup >= 2.5, (
            f"{workers}-worker sweep only {parallel_speedup:.2f}x vs serial"
        )
    if scale() >= 1.0:
        assert snap["speedup"] >= 2.0, (
            f"boot snapshots only {snap['speedup']:.2f}x on the cold "
            "campaign sweep"
        )
