"""Shared helpers: order statistics, digests, host fingerprint, counters."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class Iteration:
    """One measured pass over a workload's fixed, seeded input set."""

    wall_s: float
    #: Program outputs, compared exactly across iterations and between
    #: traced and untraced passes.
    outputs: List[Any]
    #: Per-layer counts read from the program's StatGroups (exact).
    counts: Dict[str, float]
    #: Host seconds of each request (cell, faulty line or sweep).
    requests: List[float]
    #: Workload-specific quantities for the end-to-end metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (p in [0, 100]); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def digest(value: Any) -> str:
    body = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def stat_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def machine_counts(stats: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Per-layer counts from one machine's StatGroup snapshots.

    ``stats`` maps a layer key (l1, l2, hierarchy, controller, guard,
    dram, walker, tlb, kernel) to that StatGroup's counters, plus
    ``engine`` -> {"computations": n}.
    """
    l1, l2 = stats.get("l1", {}), stats.get("l2", {})
    hierarchy = stats.get("hierarchy", {})
    controller = stats.get("controller", {})
    guard = stats.get("guard", {})
    dram = stats.get("dram", {})
    return {
        "cache.l1_hits": l1.get("hits", 0),
        "cache.l1_lookups": l1.get("hits", 0) + l1.get("misses", 0),
        "cache.l2_hits": l2.get("hits", 0),
        "cache.l2_lookups": l2.get("hits", 0) + l2.get("misses", 0),
        "cache.llc_misses": hierarchy.get("llc_misses", 0),
        "cache.writebacks": hierarchy.get("writebacks", 0),
        "mac.computations": stats.get("engine", {}).get("computations", 0),
        "guard.mac_checks": guard.get("mac_computations_read", 0),
        "guard.identifier_filtered": guard.get("identifier_filtered", 0),
        "mmu.walks": stats.get("walker", {}).get("walks", 0),
        "mmu.tlb_misses": stats.get("tlb", {}).get("misses", 0),
        "os.page_faults": stats.get("kernel", {}).get("page_faults", 0),
        "mem.reads": controller.get("reads", 0),
        "mem.pte_reads": controller.get("pte_reads", 0),
        "mem.writes": controller.get("writes", 0),
        "dram.accesses": dram.get("row_hits", 0)
        + dram.get("row_misses", 0)
        + dram.get("row_conflicts", 0),
        "dram.activations": dram.get("activations", 0),
    }


def snapshot_machine(hierarchy, walker=None, kernel=None) -> Dict[str, Dict[str, int]]:
    """StatGroup counters of the machine behind ``hierarchy``."""
    controller = hierarchy.controller
    guard = getattr(controller, "ptguard", None)
    dram = getattr(controller, "dram", None)
    stats = {
        "l1": hierarchy.l1.stats.as_dict(),
        "l2": hierarchy.l2.stats.as_dict(),
        "hierarchy": hierarchy.stats.as_dict(),
        "controller": controller.stats.as_dict(),
        "dram": dram.stats.as_dict() if dram is not None else {},
        "guard": guard.stats.as_dict() if guard is not None else {},
        "engine": {"computations": guard.engine.computations if guard else 0},
    }
    if walker is not None:
        stats["walker"] = walker.stats.as_dict()
        stats["tlb"] = walker.tlb.stats.as_dict()
    if kernel is not None:
        stats["kernel"] = kernel.stats.as_dict()
    return stats


def add_counts(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def fig6_model(rows) -> Dict[str, float]:
    """The modelled Fig-6 figures of ``rows``, a list of
    (workload, (baseline, ptguard, optimized) CoreResults).

    Slowdowns are the program's own Fig-6 summary (arithmetic means over
    workloads, as the paper quotes them). The MPKI error is weighted by
    the target MPKI (sum of absolute errors over sum of targets), so
    workloads that barely touch memory do not dominate it with
    compulsory misses.
    """
    from repro.analysis.perf_eval import Figure6Row, summarize_figure6
    from repro.cpu.workloads import get_workload

    figure = []
    for workload, (base, guarded, opt) in rows:
        profile = get_workload(workload)
        figure.append(Figure6Row(
            workload=workload,
            suite=profile.suite,
            target_mpki=profile.target_mpki,
            measured_mpki=base.llc_mpki,
            baseline_ipc=base.ipc,
            ptguard_ipc=guarded.ipc,
            optimized_ipc=opt.ipc,
        ))
    summary = summarize_figure6(figure)
    errors = sum(abs(row.measured_mpki - row.target_mpki) for row in figure)
    targets = sum(row.target_mpki for row in figure)
    return {
        "sim_slowdown_pct": summary["amean_slowdown_percent"],
        "opt_slowdown_pct": summary.get("optimized_amean_slowdown_percent", 0.0),
        "mpki_err_pct": 100.0 * ratio(errors, targets),
    }


def timing_metrics(iterations: List[Iteration]) -> Dict[str, float]:
    """Workload metrics of the timing-model workloads (fig6, campaign):
    host rates per iteration (median) and the first iteration's modelled
    Fig-6 figures, which every iteration repeats exactly."""
    first = iterations[0]
    return {
        "sim_acc_per_s": median(
            [it.extra["accesses"] / it.wall_s for it in iterations]),
        "lines_per_s": median(
            [it.extra["walk_lines"] / it.wall_s for it in iterations]),
        "sim_slowdown_pct": first.extra["sim_slowdown_pct"],
        "opt_slowdown_pct": first.extra["opt_slowdown_pct"],
        "mpki_err_pct": first.extra["mpki_err_pct"],
    }
