"""fig6_qarma: the Figure-6 grid under QARMA-128, one cold cell at a time.

Each iteration runs povray, xz, mcf, xalancbmk and lbm on the baseline,
PT-Guard and Optimized PT-Guard machines at 10-cycle MAC latency through
``perf_eval.run_workload(..., mac_algorithm="qarma")``, exactly the cells
of a user's ``fig6`` run. The boot-snapshot memo and its disk tier are
emptied before every iteration, so every cell boots cold, as the first
``fig6`` run on a machine does.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.analysis.perf_eval import run_workload
from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.cpu.workloads import get_workload
from repro.harness import snapshot
from repro.harness.parallel import default_cache_dir
from repro.harness.system import System, build_system

import util

WORKLOADS = ("povray", "xz", "mcf", "xalancbmk", "lbm")
DESIGNS = ("baseline", "ptguard", "optimized")
MAC_LATENCY = 10
MEM_OPS = 20_000
WARMUP_OPS = 12_000
DIGESTS = pathlib.Path(__file__).with_name("fig6_digests.json")


def _config(design: str) -> Optional[PTGuardConfig]:
    if design == "baseline":
        return None
    if design == "ptguard":
        return PTGuardConfig(mac_latency_cycles=MAC_LATENCY)
    return optimized_ptguard_config(MAC_LATENCY)


def recorded_digests(seed: int) -> Optional[Dict[str, str]]:
    """Cell digests recorded for ``seed``, or None when not recorded."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if (
        recorded["seed"] != seed
        or recorded["mem_ops"] != MEM_OPS
        or recorded["warmup_ops"] != WARMUP_OPS
    ):
        return None
    return recorded["cells"]


def probe(seed: int) -> None:
    """The set-up a fig6 user pays before the first cell: build one
    QARMA PT-Guard machine and lay out a workload process on it."""
    system = build_system(
        ptguard=_config("ptguard"), mac_algorithm="qarma", seed=seed
    )
    system.workload_process(get_workload(WORKLOADS[0]), seed=seed)


class Fig6:
    name = "fig6_qarma"
    #: 30 cells in two iterations: p66 is the highest percentile with 10 beyond.
    tail_percentile = 66.0
    #: An iteration is over half the window; one iteration fewer would
    #: leave only 5 cells beyond p66.
    min_iterations = 2

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.expected = recorded_digests(seed)
        self._cores: List = []
        self._new_core = System.new_core

    def setup(self) -> None:
        # Every cell builds its own core through System.new_core; keep a
        # handle on it to read the machine's StatGroups after the cell.
        cores = self._cores
        new_core = self._new_core

        def capturing_new_core(system, process):
            core = new_core(system, process)
            cores.append(core)
            return core

        System.new_core = capturing_new_core

    def close(self) -> None:
        System.new_core = self._new_core

    def iterate(self) -> util.Iteration:
        shutil.rmtree(default_cache_dir(), ignore_errors=True)
        snapshot.reset()
        outputs: List[Tuple[str, str]] = []
        requests: List[float] = []
        counts: Dict[str, float] = {}
        results: Dict[Tuple[str, str], object] = {}
        failures: List[str] = []
        accesses = walk_lines = mem_ops = 0
        started = time.perf_counter()
        for workload in WORKLOADS:
            profile = get_workload(workload)
            for design in DESIGNS:
                self._cores.clear()
                cell_start = time.perf_counter()
                try:
                    result = run_workload(
                        profile,
                        _config(design),
                        mem_ops=MEM_OPS,
                        warmup_ops=WARMUP_OPS,
                        seed=self.seed,
                        mac_algorithm="qarma",
                    )
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    failures.append(f"{workload}/{design}: {error!r}")
                    continue
                requests.append(time.perf_counter() - cell_start)
                core = self._cores[-1]
                util.add_counts(counts, util.machine_counts(util.snapshot_machine(
                    core.hierarchy, core.walker, core.kernel
                )))
                results[(workload, design)] = result
                outputs.append((f"{workload}/{design}", util.digest(asdict(result))))
                accesses += MEM_OPS + WARMUP_OPS
                walk_lines += result.walk_dram_reads
                mem_ops += result.mem_ops
        wall = time.perf_counter() - started
        counts["cpu.core.mem_ops"] = mem_ops
        rows = [
            (workload, cells)
            for workload in WORKLOADS
            for cells in [[results.get((workload, design)) for design in DESIGNS]]
            if None not in cells
        ]
        failures.extend(self._check(rows, dict(outputs)))
        model = util.fig6_model(rows)
        return util.Iteration(
            wall_s=wall,
            outputs=outputs,
            counts=counts,
            requests=requests,
            extra={
                "accesses": accesses,
                "walk_lines": walk_lines,
                **model,
            },
            attempted=len(WORKLOADS) * len(DESIGNS),
            failures=failures,
        )

    def _check(self, rows, digests: Dict[str, str]) -> List[str]:
        """Model invariants that hold on every seed, plus the recorded
        digests on the seed they were recorded for."""
        failures = []
        for workload, (base, guarded, opt) in rows:
            if not (base.llc_misses == guarded.llc_misses == opt.llc_misses):
                failures.append(f"{workload}: LLC misses differ across designs")
            if guarded.cycles < base.cycles or opt.cycles < base.cycles:
                failures.append(f"{workload}: a protected design ran faster than baseline")
        if self.expected is not None:
            for cell, expected in self.expected.items():
                if digests.get(cell) != expected:
                    failures.append(f"{cell}: CoreResult digest differs from the record")
        return failures

    def metrics(self, iterations: List[util.Iteration]) -> Dict[str, float]:
        return util.timing_metrics(iterations)
