"""MAC engine: computes and verifies the PTE-line MAC (paper Sec IV-F, VI-C).

Wraps a :class:`repro.crypto.mac.LineMAC` with the PT-Guard specifics:

* the MAC input is the line with unprotected bits masked out
  (:func:`repro.core.pattern.mask_unprotected`), bound to the line address;
* verification supports *soft matching* — accepting a stored MAC within
  Hamming distance ``k`` of the computed one — which tolerates up to ``k``
  bit-flips in the MAC itself (Section VI-C) at a quantified security cost
  (Section VI-E, see :mod:`repro.core.security`).

``computations`` is the simulated MAC-unit invocation count used for
energy accounting (Sec V-E). It counts *logical* MAC computations: each
verification, and each correction guess up to and including the accepted
one. Tags the host computes past the accepted guess of a batched
correction stage (:meth:`MACEngine.first_soft_match`) are not counted,
since the simulated hardware stops at the first match. The batched
execution core may prime *bulk-tag hints*
(:meth:`MACEngine.prime_bulk_tags`) so that in-batch verifications take
their tag from one vectorized pass instead of the scalar path; a hint is
used only while the masked line content still matches, so it replaces
host-side work and never a simulated outcome.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.common.bitops import hamming_distance
from repro.common.errors import InvariantViolation
from repro.common.stats import StatGroup
from repro.crypto.mac import LineMAC
from repro.core import pattern


class VerifyResult(NamedTuple):
    """Outcome of a MAC verification."""

    ok: bool
    distance: int  # Hamming distance between stored and computed MAC
    soft: bool  # True when the match needed the soft-match allowance


class MACEngine:
    """Computes/verifies PTE-line MACs for the memory controller."""

    def __init__(
        self,
        line_mac: LineMAC,
        max_phys_bits: int,
        soft_match_k: int = 0,
    ):
        self.line_mac = line_mac
        self.max_phys_bits = max_phys_bits
        self.soft_match_k = soft_match_k
        self.computations = 0  # MAC-unit invocations (for energy accounting)
        # Differential oracle (repro.faults.invariants): every
        # ``_oracle_period``-th fresh computation is recomputed through an
        # independent reference path and must agree bit-for-bit.
        self._oracle = None
        self._oracle_period = 0
        self._oracle_countdown = 0
        # Bulk-tag hints (batched walk support): address -> (masked line
        # bytes, tag), primed through :meth:`prime_bulk_tags` by the
        # batched execution core. A hint hit still counts a
        # ``computations`` tick and still runs the oracle countdown — the
        # hint replaces only the *host-side* scalar tag computation, never
        # a simulated outcome. ``bulk_hint_hits`` is a plain attribute
        # (not a stats key) so ``stats`` stays identical batched vs
        # scalar.
        self._bulk_tags: "dict[int, tuple[bytes, int]] | None" = None
        self.bulk_hint_hits = 0
        self.stats = StatGroup("mac_engine")

    @property
    def mac_bits(self) -> int:
        return self.line_mac.mac_bits

    def compute(self, line: bytes, address: int) -> int:
        """MAC over the protected bits of ``line``, bound to ``address``."""
        self.computations += 1
        masked = pattern.mask_unprotected(line, self.max_phys_bits)
        tag = None
        bulk = self._bulk_tags
        if bulk is not None:
            hint = bulk.get(address)
            if hint is not None and hint[0] == masked:
                # Hint tags were produced by compute_batch over the same
                # masked bytes, so this IS the scalar tag — a changed
                # protected bit (fault, tamper) misses the content check
                # and falls through to the reference scalar path below.
                tag = hint[1]
                self.bulk_hint_hits += 1
        if tag is None:
            tag = self.line_mac.compute(masked, address)
        if self._oracle is not None:
            self._tick_oracle(masked, address, tag)
        return tag

    def first_soft_match(
        self, lines, address: int, stored_mac: int
    ) -> Optional[Tuple[int, int]]:
        """Check candidate ``lines`` for ``address`` in one pass, in order.

        Returns ``(index, distance)`` of the first candidate whose tag lies
        within ``soft_match_k`` of ``stored_mac``, or ``None``. Outcomes
        and accounting equal a loop of ``verify(line, address, stored_mac,
        soft=True)`` that stops at the first match: ``computations`` and
        the oracle countdown advance once per candidate up to and
        including the accepted one. All tags come from one
        ``compute_batch`` pass when the MAC has it.
        """
        max_phys_bits = self.max_phys_bits
        masked = [pattern.mask_unprotected(line, max_phys_bits) for line in lines]
        compute_batch = getattr(self.line_mac, "compute_batch", None)
        if compute_batch is not None:
            tags = compute_batch(masked, [address] * len(masked))
        else:
            compute = self.line_mac.compute
            tags = [compute(line, address) for line in masked]
        limit = self.soft_match_k
        for index, tag in enumerate(tags):
            self.computations += 1
            if self._oracle is not None:
                self._tick_oracle(masked[index], address, tag)
            distance = hamming_distance(tag, stored_mac)
            if distance <= limit:
                return index, distance
        return None

    def prime_bulk_tags(self, lines, addresses) -> int:
        """Pre-compute tag hints for ``addresses`` in one vectorized pass.

        Used by the batched execution core before a walk-heavy batch:
        page-table lines are gathered and their tags computed through
        ``compute_batch`` so that mid-batch :meth:`compute` calls — which
        are what the inline page walk's PTE-line fills land on — resolve
        from the hint dict instead of paying the scalar tag (for qarma,
        ~100 us each). Refresh-aware: addresses whose existing hint still
        matches the current masked bytes are skipped. Requires a batched
        backend; returns 0 (and primes nothing) when ``line_mac`` has no
        ``compute_batch``, since scalar priming would merely move the
        same host cost earlier.
        """
        compute_batch = getattr(self.line_mac, "compute_batch", None)
        if compute_batch is None:
            return 0
        bulk = self._bulk_tags
        if bulk is None:
            bulk = self._bulk_tags = {}
        fresh_masked = []
        fresh_addresses = []
        for line, address in zip(lines, addresses):
            masked = pattern.mask_unprotected(line, self.max_phys_bits)
            hint = bulk.get(address)
            if hint is not None and hint[0] == masked:
                continue
            fresh_masked.append(masked)
            fresh_addresses.append(address)
        if not fresh_masked:
            return 0
        tags = compute_batch(fresh_masked, fresh_addresses)
        for masked, address, tag in zip(fresh_masked, fresh_addresses, tags):
            bulk[address] = (masked, int(tag))
        return len(fresh_masked)

    def attach_oracle(self, reference_compute, sample_period: int = 64) -> None:
        """Arm the differential oracle (``--validate``).

        ``reference_compute(masked_line, address)`` must be an
        independently constructed MAC (for qarma: the cell-by-cell
        reference path; see :func:`repro.crypto.mac.make_line_mac` with
        ``reference=True``). One in ``sample_period`` fresh computations
        is cross-checked; divergence raises
        :class:`~repro.common.errors.InvariantViolation`.
        """
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self._oracle = reference_compute
        self._oracle_period = sample_period
        self._oracle_countdown = 1  # check the very next computation

    def detach_oracle(self) -> None:
        self._oracle = None
        self._oracle_period = 0
        self._oracle_countdown = 0

    def _tick_oracle(self, masked: bytes, address: int, tag: int) -> None:
        self._oracle_countdown -= 1
        if self._oracle_countdown <= 0:
            self._oracle_countdown = self._oracle_period
            self._check_oracle(masked, address, tag)

    def _check_oracle(self, masked: bytes, address: int, tag: int) -> None:
        expected = self._oracle(masked, address)
        self.stats.increment("oracle_checks")
        if expected != tag:
            self.stats.increment("oracle_divergences")
            raise InvariantViolation(
                f"MAC differential oracle diverged at line {address:#x}: "
                f"fast path {tag:#x} != reference {expected:#x}"
            )

    def invalidate_cached(self, address: int) -> None:
        """Drop the bulk-tag hint for ``address`` (stored contents changed)."""
        bulk = self._bulk_tags
        if bulk is not None:
            bulk.pop(address, None)

    def compute_zero_mac(self) -> int:
        """The pre-computed MAC of an all-zero line *without* address binding.

        Stored on-chip (12 bytes) by the MAC-zero optimisation (Sec V-B) so
        zero cachelines never pay MAC-computation latency.
        """
        return self.line_mac.compute(bytes(64), 0)

    def verify(self, line: bytes, address: int, stored_mac: int, soft: bool = False) -> VerifyResult:
        """Check ``stored_mac`` against the MAC computed over ``line``.

        With ``soft=True`` the check passes when the Hamming distance is at
        most ``soft_match_k`` (fault-tolerant MAC, Sec VI-C).
        """
        computed = self.compute(line, address)
        distance = hamming_distance(computed, stored_mac)
        if distance == 0:
            return VerifyResult(ok=True, distance=0, soft=False)
        if soft and distance <= self.soft_match_k:
            return VerifyResult(ok=True, distance=distance, soft=True)
        return VerifyResult(ok=False, distance=distance, soft=False)


def register_invariants(checker, engine_fn, reference_fn) -> None:
    """Register the MAC differential check with an invariant checker.

    ``engine_fn``/``reference_fn`` are zero-argument callables resolving
    the *current* engine and a fresh reference MAC — callables, not
    objects, because :meth:`PTGuard.rekey` replaces the engine wholesale
    and a captured instance would silently check a retired key.
    """

    def check():
        engine = engine_fn()
        reference = reference_fn()
        probe = bytes(64)
        expected = reference.compute(probe, 0)
        actual = engine.line_mac.compute(probe, 0)
        if expected != actual:
            return [
                f"MAC fast path diverges from reference on the zero line: "
                f"{actual:#x} != {expected:#x}"
            ]
        return []

    checker.register("mac_differential_oracle", check)
