"""Outside-in span recorder: wraps the program's layer entry points.

Nothing in ``src/`` knows about tracing. :class:`Tracer` replaces each
entry point listed in :data:`ENTRY_POINTS` with a timing wrapper at class
(or module) level while a traced iteration runs, and puts the original
back afterwards, so untraced iterations execute the program unmodified.
A process forked while the wrappers are in place (a pool worker) puts
the originals back at once: its spans could not reach this process, so
it runs the program unmodified too.

Every wrapped call is one span: name, start, end, parent span and the
iteration it belongs to. Spans nest per thread. A call that blocks until
another thread has done its work (``FabricService.results``) is the
parent of the spans that thread starts meanwhile. A span's self time is
its duration minus the part of it that its child spans cover; it is
accumulated online per layer, so only a bounded number of raw spans has
to stay in memory. The raw spans are written out once, at the end.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Entry(NamedTuple):
    """One wrapped entry point of a layer."""

    layer: str
    module: str
    qualname: str
    #: Boundary counter fed by this entry point (None: no counter).
    counter: Optional[str] = None
    #: amount(args, kwargs, result) added to the counter (None: 1 per call).
    amount: Optional[Callable[[tuple, dict, Any], int]] = None
    #: The call blocks while another thread does the work.
    waits: bool = False


ENTRY_POINTS: Tuple[Entry, ...] = (
    Entry("cpu.trace", "repro.cpu.trace_vector", "VectorTraceReplayer.next_batch",
          "records", lambda args, kwargs, result: len(result[0])),
    Entry("cpu.core", "repro.cpu.core", "InOrderCore.run"),
    Entry("cache", "repro.cache.cache", "Cache.fill", "fill_calls"),
    Entry("cache", "repro.cache.cache", "Cache.lookup"),
    Entry("cache", "repro.cache.hierarchy", "CacheHierarchy.read"),
    Entry("cache", "repro.cache.hierarchy", "CacheHierarchy.write"),
    Entry("cache", "repro.cache.hierarchy", "CacheHierarchy.read_below_l2"),
    Entry("mac", "repro.core.engine", "MACEngine.compute"),
    Entry("mac", "repro.core.engine", "MACEngine.verify"),
    Entry("mac", "repro.crypto.mac", "QarmaLineMAC.compute"),
    Entry("mac", "repro.crypto.mac", "QarmaLineMAC.compute_batch",
          "batch_blocks", lambda args, kwargs, result: len(result)),
    Entry("guard", "repro.core.guard", "PTGuard.process_read"),
    Entry("guard", "repro.core.guard", "PTGuard.process_write"),
    Entry("correction", "repro.core.correction", "CorrectionEngine.correct"),
    Entry("mmu", "repro.mmu.walker", "PageWalker.translate"),
    Entry("os", "repro.os.kernel", "Kernel.handle_page_fault"),
    Entry("mem", "repro.mem.controller", "MemoryController.read_access"),
    Entry("mem", "repro.mem.controller", "MemoryController.write_access"),
    Entry("dram", "repro.dram.device", "DRAMDevice.access"),
    Entry("boot", "repro.harness.snapshot", "cached_boot"),
    Entry("boot", "repro.harness.snapshot", "fetch",
          "restores", lambda args, kwargs, result: int(result is not None)),
    Entry("boot", "repro.harness.system", "build_system", "cold"),
    Entry("fabric", "repro.harness.parallel", "run_jobs"),
    Entry("fabric", "repro.harness.parallel", "ResultCache.get"),
    Entry("fabric", "repro.harness.parallel", "ResultCache.put"),
    Entry("fabric", "repro.harness.parallel", "SweepJournal.append"),
    Entry("service", "repro.service.core", "FabricService.submit_sweep"),
    Entry("service", "repro.service.core", "FabricService.results", waits=True),
    Entry("wal", "repro.service.wal", "StateLog.append", "appends"),
)


class _ThreadState:
    __slots__ = ("stack", "self_time", "counts")

    def __init__(self):
        # Open spans, innermost last: [child seconds, span id, start].
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` while installed."""

    def __init__(self, span_limit: int = 200_000):
        self.span_limit = span_limit
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.spans_dropped = 0
        self.iteration = 0
        self.names: Dict[str, int] = {}
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._waiting: List[list] = []  # open frames of waiting calls
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def reset_totals(self) -> None:
        """Start a new accounting period (one traced iteration)."""
        with self._states_lock:
            for state in self._states:
                state.self_time.clear()
                state.counts.clear()

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        with self._states_lock:
            for state in self._states:
                for layer, seconds in state.self_time.items():
                    totals[layer] += seconds
        return dict(totals)

    def counts(self) -> Dict[Tuple[str, str], int]:
        totals: Dict[Tuple[str, str], int] = defaultdict(int)
        with self._states_lock:
            for state in self._states:
                for key, value in state.counts.items():
                    totals[key] += value
        return dict(totals)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, entry: Entry) -> Callable:
        name_id = self.names.setdefault(entry.qualname, len(self.names))
        layer, counter, amount, waits = (
            entry.layer, entry.counter, entry.amount, entry.waits
        )
        spans = self.spans
        limit = self.span_limit
        clock = time.perf_counter
        state_of = self._state
        ids = self._ids
        waiting = self._waiting
        tracer = self

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            cause = stack[-1] if stack else None
            start = clock()
            frame = [0.0, next(ids), start]
            stack.append(frame)
            if waits:
                waiting.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if waits:
                    waiting.remove(frame)
                if cause is None and waiting:
                    # A thread's outermost span belongs to the call that
                    # waits on it; only the overlap counts as covered.
                    cause = waiting[-1]
                duration = end - start
                if cause is not None:
                    cause[0] += end - max(start, cause[2])
                state.self_time[layer] += duration - frame[0]
                if len(spans) < limit:
                    spans.append((
                        frame[1], name_id, start, end,
                        -1 if cause is None else cause[1], tracer.iteration,
                    ))
                else:
                    tracer.spans_dropped += 1
            if counter is not None:
                state.counts[(layer, counter)] += (
                    1 if amount is None else amount(args, kwargs, result)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point; modules that imported a wrapped
        function by name get the wrapper too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing.clear()
        for entry in ENTRY_POINTS:
            owner_name, _, attr = entry.qualname.rpartition(".")
            try:
                module = importlib.import_module(entry.module)
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{entry.module}:{entry.qualname}")
                continue
            wrapper = self._wrap(original, entry)
            self._patch(owner, attr, original, wrapper)
            if not owner_name:
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro.")
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        names = {name_id: name for name, name_id in self.names.items()}
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name_id, start, end, parent, iteration in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "name": names[name_id],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "iteration": iteration,
                }) + "\n")
