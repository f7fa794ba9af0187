"""campaign: a closed-loop client of the durable campaign service.

Each iteration starts a ``FabricService`` with a durable state directory
(write-ahead log) over a fresh result cache, on the ``process-pool``
backend with one worker per CPU, and one client submits a fixed, seeded
sequence of 3-cell ``workload_run`` sweeps (``mac_algorithm="qarma"``),
waiting for each result before it sends the next. A fresh sweep is one
workload on the baseline, PT-Guard and Optimized PT-Guard machines with a
new trace seed, so it computes and writes the result cache, journal and
WAL. Each fresh sweep is followed by repeats of earlier sweeps of the
same tenant, which only read the cache.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import time
from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.harness import snapshot
from repro.harness.parallel import SimJob, guard_config_params, run_jobs
from repro.service.core import FabricService, ServiceConfig

import util

WORKLOADS = ("povray", "xz", "mcf", "xalancbmk", "lbm")
TENANTS = ("tenant-a", "tenant-b")
#: Each fresh sweep is followed by this many repeats. With one fresh
#: sweep in eight, the median sweep is a repeat (the read path) and the
#: tail a fresh sweep (the write path); an even split would put the
#: median on the gap between the two.
REPEATS_PER_FRESH = 7
#: The cells of ``fig6 --scale 0.25``.
MEM_OPS = 5_000
WARMUP_OPS = 3_000
MAC_LATENCY = 10
RESULT_TIMEOUT_S = 120.0


def _sweep(workload: str, seed: int) -> List[SimJob]:
    configs = (
        ("baseline", None),
        ("ptguard", PTGuardConfig(mac_latency_cycles=MAC_LATENCY)),
        ("optimized", optimized_ptguard_config(MAC_LATENCY)),
    )
    return [
        SimJob(
            kind="workload_run",
            params={
                "workload": workload,
                "config": guard_config_params(config),
                "mem_ops": MEM_OPS,
                "warmup_ops": WARMUP_OPS,
                "seed": seed,
                "mac_algorithm": "qarma",
            },
            label=f"campaign/{workload}/{design}",
        )
        for design, config in configs
    ]


def _service(root: pathlib.Path) -> FabricService:
    config = ServiceConfig(
        backend="process-pool",
        workers=os.cpu_count() or 1,
        # One closed-loop client never has more than one sweep queued;
        # admission limits are not what this workload measures.
        rate_capacity=1e9,
        rate_refill_per_s=1e9,
    )
    return FabricService(
        cache_root=root / "results", config=config, state_dir=root / "state"
    )


def probe(seed: int) -> None:
    """Start (and stop) a durable service over an empty state dir."""
    root = pathlib.Path(os.environ["REPRO_CACHE_DIR"]) / f"probe-{os.getpid()}"
    try:
        with _service(root) as service:
            service.health()
    finally:
        shutil.rmtree(root, ignore_errors=True)


class Campaign:
    name = "campaign"
    #: At least 120 sweeps per run: 12 or more beyond p90, all fresh sweeps.
    tail_percentile = 90.0
    min_iterations = 3

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir
        self.iterations = 0
        # (tenant, jobs, fresh) in submission order
        self.plan: List[Tuple[str, List[SimJob], bool]] = []
        self.sampled: List[SimJob] = []

    def setup(self) -> None:
        # The seed picks the order of the workloads and every trace seed;
        # the mix (each workload once) and the repeat pattern stay fixed:
        # after fresh sweep k, the tenant's sweeps k, k-2, ... cyclically.
        rng = random.Random(f"campaign/{self.seed}")
        order = list(WORKLOADS)
        rng.shuffle(order)
        fresh: List[List[SimJob]] = []
        for index, workload in enumerate(order):
            tenant = TENANTS[index % len(TENANTS)]
            fresh.append(_sweep(workload, rng.getrandbits(31)))
            self.plan.append((tenant, fresh[index], True))
            own = fresh[index::-len(TENANTS)]
            for repeat in range(REPEATS_PER_FRESH):
                self.plan.append((tenant, own[repeat % len(own)], False))
        self.sampled = rng.choice(fresh)

    def close(self) -> None:
        pass

    def iterate(self) -> util.Iteration:
        root = self.workdir / f"campaign-{self.iterations}"
        self.iterations += 1
        # Boot snapshots live under REPRO_CACHE_DIR, which pool workers
        # inherit: a fresh one per iteration keeps every fresh sweep cold.
        os.environ["REPRO_CACHE_DIR"] = str(root / "repro_cache")
        snapshot.reset()
        outputs: List[Tuple[str, str]] = []
        requests: List[float] = []
        failures: List[str] = []
        answers: Dict[str, List] = {}
        accesses = walk_lines = 0
        fresh_results = []
        started = time.perf_counter()
        service = _service(root)
        try:
            for tenant, jobs, fresh in self.plan:
                request_start = time.perf_counter()
                try:
                    ticket = service.submit_sweep(jobs=jobs, tenant=tenant)
                    results = service.results(ticket, timeout=RESULT_TIMEOUT_S)
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    failures.append(f"sweep for {tenant}: {error!r}")
                    continue
                requests.append(time.perf_counter() - request_start)
                key = util.digest([job.key() for job in jobs])
                answer = util.digest([asdict(r) for r in results])
                if fresh:
                    answers[key] = results
                    fresh_results.append((jobs[0].params["workload"], results))
                    accesses += len(results) * (MEM_OPS + WARMUP_OPS)
                    walk_lines += sum(r.walk_dram_reads for r in results)
                elif answers.get(key) != results:
                    failures.append(f"repeat of {key[:12]} for {tenant} differs")
                outputs.append((key, answer))
            health = service.health()
        finally:
            service.close()
        wall = time.perf_counter() - started
        shutil.rmtree(root, ignore_errors=True)
        counters = health["counters"]
        durability = health["durability"]
        if counters.get("degraded_runs") or counters.get("backend_failures"):
            failures.append(f"service degraded: {counters}")
        if durability["mode"] != "durable":
            failures.append(f"service durability {durability['mode']}")
        hits = sum(c["hits"] for c in health["caches"].values())
        lookups = hits + sum(c["misses"] for c in health["caches"].values())
        counts = {
            "fabric.cells": lookups,
            "fabric.cache_hits": hits,
            "wal.appends": durability["wal"]["records_written"],
        }
        return util.Iteration(
            wall_s=wall,
            outputs=outputs,
            counts=counts,
            requests=requests,
            extra={
                "accesses": accesses,
                "walk_lines": walk_lines,
                "queue_wait_p50_s": health["latency"]["queue_wait"]["p50"],
                **util.fig6_model(fresh_results),
            },
            attempted=len(self.plan),
            failures=failures,
        )

    def verify(self, iterations: List[util.Iteration]) -> List[str]:
        """The sampled sweep, re-run in-process without cache or service,
        must give the results the service returned."""
        expected = util.digest([job.key() for job in self.sampled])
        served = next(
            (answer for key, answer in iterations[0].outputs if key == expected),
            None,
        )
        direct = run_jobs(self.sampled, workers=1)
        if served != util.digest([asdict(r) for r in direct]):
            return ["sampled sweep differs from in-process run_jobs"]
        return []

    def metrics(self, iterations: List[util.Iteration]) -> Dict[str, float]:
        return util.timing_metrics(iterations)

