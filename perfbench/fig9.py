"""fig9_qarma: best-effort correction of faulty walked PTE lines (Fig 9).

Set-up boots one QARMA-128 PT-Guard machine per Figure-9 workload and
draws, from the benchmark seed, a fixed set of walked PTE lines with
uniform bit flips at p_flip 1/512 and 1/128 (the Sec VI-F methodology of
``correction_eval``). Each iteration presents every faulty line to
``PTGuard.process_read(addr, faulty, is_pte=True)``. The cache model is
never touched; the MAC and the correction search carry the time.
"""

from __future__ import annotations

import pathlib
import random
import time
from typing import Dict, List, Tuple

from repro.analysis import correction_eval
from repro.common.config import PTGuardConfig
from repro.core import pattern
from repro.dram.rowhammer import inject_uniform_flips
from repro.harness.system import build_system

import util

WORKLOADS = ("xalancbmk", "mcf", "pr")
#: Faulty lines per machine at each p_flip. About 80 % of 1/128 lines need
#: a full or near-full search (354+ guesses) and most 1/512 lines exit
#: early; with twice as many 1/128 lines the median line sits well inside
#: the full-search cluster, not on the gap between the two.
LINES_PER_P_FLIP = {1 / 512: 40, 1 / 128: 80}


def _boot(workload: str, seed: int):
    system = build_system(
        ptguard=PTGuardConfig(correction_enabled=True),
        mac_algorithm="qarma",
        seed=seed,
    )
    process = correction_eval.workload_process(system, workload, seed)
    return system, correction_eval.walked_pte_lines(system, process)


def probe(seed: int) -> None:
    """Boot one Fig-9 machine, the unit of this workload's set-up."""
    _boot(WORKLOADS[0], seed)


class Fig9:
    name = "fig9_qarma"
    #: At least 360 lines per run: 10 or more beyond p97.
    tail_percentile = 97.0
    min_iterations = 1

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.systems = []
        # (machine, p_flip, line address, stored line, faulty line)
        self.faults: List[Tuple[int, float, int, bytes, bytes]] = []

    def setup(self) -> None:
        rng = random.Random(f"fig9_qarma/{self.seed}")
        for index, workload in enumerate(WORKLOADS):
            system, lines = _boot(workload, self.seed)
            self.systems.append(system)
            for p_flip, count in LINES_PER_P_FLIP.items():
                for _ in range(count):
                    address = rng.choice(lines)
                    stored = system.memory.read_line(address)
                    faulty = stored
                    while faulty == stored:
                        faulty, _ = inject_uniform_flips(stored, p_flip, rng)
                    self.faults.append((index, p_flip, address, stored, faulty))

    def close(self) -> None:
        self.systems.clear()

    def _snapshot(self) -> List[Dict[str, Dict[str, int]]]:
        return [
            util.snapshot_machine(system.hierarchy, kernel=system.kernel)
            for system in self.systems
        ]

    def iterate(self) -> util.Iteration:
        before = self._snapshot()
        outputs: List[Tuple[str, int, str]] = []
        requests: List[float] = []
        failures: List[str] = []
        corrected = searched = guesses = winners = 0
        started = time.perf_counter()
        for index, p_flip, address, stored, faulty in self.faults:
            guard = self.systems[index].guard
            max_phys_bits = guard.config.max_phys_bits
            request_start = time.perf_counter()
            try:
                outcome = guard.process_read(address, faulty, is_pte=True)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                failures.append(f"line {address:#x}: {error!r}")
                continue
            requests.append(time.perf_counter() - request_start)
            original = pattern.mask_unprotected(stored, max_phys_bits)
            if outcome.corrected:
                repaired = pattern.mask_unprotected(
                    pattern.embed_mac(outcome.line, 0), max_phys_bits
                )
                verdict = "corrected" if repaired == original else "miscorrected"
            elif outcome.mac_matched:
                # Flips only in bits outside the MAC's contract: the PTE's
                # protected content must be intact, else it went undetected.
                intact = pattern.mask_unprotected(faulty, max_phys_bits) == original
                verdict = "unprotected_bits" if intact else "undetected"
            else:
                verdict = "detected"
            if verdict in ("corrected", "unprotected_bits"):
                corrected += 1
            elif verdict in ("miscorrected", "undetected"):
                failures.append(f"line {address:#x} p_flip {p_flip:.5f}: {verdict}")
            search = outcome.correction
            if search is not None:
                searched += 1
                guesses += search.guesses_used
                winners += search.corrected_line is not None
            outputs.append((
                verdict,
                search.guesses_used if search is not None else -1,
                search.winning_step if search is not None else "",
            ))
        wall = time.perf_counter() - started
        counts: Dict[str, float] = {}
        for old, new in zip(before, self._snapshot()):
            util.add_counts(counts, util.machine_counts({
                layer: util.stat_delta(new[layer], old[layer]) for layer in new
            }))
        counts.update({
            "correction.calls": searched,
            "correction.guesses": guesses,
            "correction.winners": winners,
        })
        return util.Iteration(
            wall_s=wall,
            outputs=outputs,
            counts=counts,
            requests=requests,
            extra={"lines": len(requests), "corrected": corrected},
            attempted=len(self.faults),
            failures=failures,
        )

    def metrics(self, iterations: List[util.Iteration]) -> Dict[str, float]:
        first = iterations[0]
        return {
            "lines_per_s": util.median(
                [it.extra["lines"] / it.wall_s for it in iterations]),
            "correction_rate": util.ratio(
                first.extra["corrected"], first.extra["lines"]),
        }
