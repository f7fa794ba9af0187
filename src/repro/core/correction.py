"""Best-effort PTE correction (paper Section VI).

On a MAC mismatch during a page-table walk, the memory controller makes a
bounded sequence of *guesses* for the correct PTE-line value, accepting a
guess when its MAC soft-matches the stored MAC. A strong MAC's collision
probability makes mis-correction as improbable as a forgery, so any
accepted guess is the true pre-fault value (Sec VI, "key insight").

Guess schedule (Sec VI-D), ``G_max = 372``:

1.  *Soft match* of the line as stored (1 guess) — corrects MAC-only faults.
2.  *Flip and check*: each protected PFN/flag bit flipped individually
    ((28 + 16) x 8 = 352 guesses) — corrects any single data-bit fault.
3.  *Reset zero-PTEs*: PTEs with <= 4 set bits are guessed to be all-zero
    (1 guess); later steps inherit the zeroed PTEs. (Insight 1: 64% of
    PTEs are zero.)
4.  *Majority vote for flags* among non-zero PTEs (1 guess). (Insight 3:
    >99% of lines have uniform flags.)
5.  *Contiguity in PFNs*: majority vote over the top 20 PFN bits (1
    guess), then 8 guesses each assuming one PFN correct and rebuilding
    the others as a contiguous run. (Insight 2: 24% contiguous PFNs.)
6.  Steps 4 and 5 combined (8 more guesses), for 18 across steps 4-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

from repro.common.bitops import mask, popcount
from repro.core import pattern
from repro.core.engine import MACEngine

FLAG_BITS: Tuple[int, ...] = tuple(
    [b for b in range(12) if b != pattern.ACCESSED_BIT] + [59, 60, 61, 62, 63]
)  # the 16 protected flag bits of Table IV

PFN_CONTIGUITY_LOW_BITS = 8  # bottom PFN bits rebuilt by the contiguity step


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of a correction attempt."""

    corrected_line: Optional[bytes]  # None => uncorrectable
    guesses_used: int
    winning_step: Optional[str]  # which strategy produced the accepted guess
    mac_distance: int  # Hamming distance absorbed by the soft match


class CorrectionEngine:
    """Implements the Section VI-D guess-and-check schedule."""

    def __init__(
        self,
        engine: MACEngine,
        almost_zero_threshold: int = 4,
        identifier: Optional[int] = None,
    ):
        self.engine = engine
        self.almost_zero_threshold = almost_zero_threshold
        self.identifier = identifier
        self._metadata_mask = (
            mask(pattern.MAC_BITS_PER_PTE) << pattern.MAC_FIELD_LOW
        ) | (mask(pattern.ID_BITS_PER_PTE) << pattern.ID_FIELD_LOW)

    # -- public API -----------------------------------------------------------

    @property
    def max_guesses(self) -> int:
        """G_max: 1 + 352 + 1 + 18 = 372 for M = 40."""
        protected = len(pattern.protected_bit_positions(self.engine.max_phys_bits))
        return 1 + protected * 8 + 1 + 18

    def correct(self, stored_line: bytes, address: int) -> CorrectionResult:
        """Attempt to correct a faulty PTE line read from DRAM.

        ``stored_line`` is the raw DRAM content (MAC embedded, possibly
        with bit flips anywhere). Returns the corrected *stored-format*
        line (protected bits corrected, stored MAC refreshed) or ``None``.
        """
        # Identifier bits have a single known value on PTE lines, so flips
        # there are corrected outright, before any guessing (Sec VI intro).
        if self.identifier is not None:
            stored_line = pattern.embed_identifier(stored_line, self.identifier)
        # A narrower MAC leaves the upper stored bits unused; flips there
        # must not count against the soft-match budget (as in the guard).
        stored_mac = pattern.extract_mac(stored_line) & mask(self.engine.mac_bits)

        # Each stage's guesses are checked in one batch; the first match
        # within the first matching stage wins, exactly as guess by guess.
        guesses = 0
        for step, stage in groupby(self._candidates(stored_line), key=itemgetter(0)):
            candidates = [candidate for _, candidate in stage]
            match = self.engine.first_soft_match(candidates, address, stored_mac)
            if match is None:
                guesses += len(candidates)
                continue
            index, distance = match
            return CorrectionResult(
                corrected_line=self._refresh_mac(candidates[index], address),
                guesses_used=guesses + index + 1,
                winning_step=step,
                mac_distance=distance,
            )
        return CorrectionResult(
            corrected_line=None,
            guesses_used=guesses,
            winning_step=None,
            mac_distance=-1,
        )

    # -- guess generation -------------------------------------------------------

    def _candidates(self, line: bytes) -> Iterator[Tuple[str, bytes]]:
        max_phys_bits = self.engine.max_phys_bits
        positions = pattern.protected_bit_positions(max_phys_bits)

        # Step 1: the line as-is (soft match absorbs MAC-only faults).
        yield "soft_match", line

        # Step 2: flip and check every protected bit of every PTE.
        ptes = pattern.split_ptes(line)
        value = int.from_bytes(line, "little")
        for index in range(len(ptes)):
            for bit_position in positions:
                flipped = value ^ (1 << (64 * index + bit_position))
                yield "flip_and_check", flipped.to_bytes(len(line), "little")

        # Step 3: reset almost-zero PTEs; subsequent steps inherit this base.
        base = self._reset_almost_zero(ptes)
        yield "reset_zero_ptes", pattern.join_ptes(base)

        # Step 4: bitwise majority vote for flags across non-zero PTEs.
        flagged = self._apply_flag_majority(base)
        yield "flag_majority", pattern.join_ptes(flagged)

        # Step 5: contiguity in PFNs on the zero-reset base.
        for candidate in self._contiguity_guesses(base, max_phys_bits):
            yield "pfn_contiguity", pattern.join_ptes(candidate)

        # Step 6: flags majority and contiguity together.
        for candidate in self._contiguity_guesses(flagged, max_phys_bits, skip_majority=True):
            yield "flags_plus_contiguity", pattern.join_ptes(candidate)

    def _data_bits(self, pte: int) -> int:
        """PTE content excluding the MAC/identifier metadata fields."""
        return pte & ~self._metadata_mask

    def _reset_almost_zero(self, ptes: List[int]) -> List[int]:
        out = []
        for pte in ptes:
            if popcount(self._data_bits(pte)) <= self.almost_zero_threshold:
                out.append(pte & self._metadata_mask)  # keep stored metadata bits
            else:
                out.append(pte)
        return out

    def _nonzero_indices(self, ptes: List[int]) -> List[int]:
        return [i for i, pte in enumerate(ptes) if self._data_bits(pte)]

    def _apply_flag_majority(self, ptes: List[int]) -> List[int]:
        nonzero = self._nonzero_indices(ptes)
        if len(nonzero) < 2:
            return list(ptes)
        out = list(ptes)
        for bit_position in FLAG_BITS:
            ones = sum((ptes[i] >> bit_position) & 1 for i in nonzero)
            majority = 1 if 2 * ones > len(nonzero) else 0
            for i in nonzero:
                if majority:
                    out[i] |= 1 << bit_position
                else:
                    out[i] &= ~(1 << bit_position)
        return out

    def _contiguity_guesses(
        self, ptes: List[int], max_phys_bits: int, skip_majority: bool = False
    ) -> Iterator[List[int]]:
        """Step 5: top-20-bit majority (1 guess) + 8 contiguous-run rebuilds."""
        nonzero = self._nonzero_indices(ptes)
        if not nonzero:
            return

        # Majority vote over the PFN bits above the contiguity window.
        voted = list(ptes)
        if len(nonzero) >= 2:
            pfn_bits = max_phys_bits - 12
            for offset in range(PFN_CONTIGUITY_LOW_BITS, pfn_bits):
                bit_position = 12 + offset
                ones = sum((ptes[i] >> bit_position) & 1 for i in nonzero)
                majority = 1 if 2 * ones > len(nonzero) else 0
                for i in nonzero:
                    if majority:
                        voted[i] |= 1 << bit_position
                    else:
                        voted[i] &= ~(1 << bit_position)
        if not skip_majority:
            yield list(voted)

        # Assume each PFN in turn is correct; rebuild the others as a
        # contiguous ascending run anchored at it.
        for anchor in range(8):
            if anchor not in nonzero:
                continue
            anchor_pfn = pattern.pfn_of(voted[anchor], max_phys_bits)
            rebuilt = list(voted)
            for i in nonzero:
                target = anchor_pfn + (i - anchor)
                if target < 0:
                    target = 0
                rebuilt[i] = pattern.with_pfn(rebuilt[i], target, max_phys_bits)
            yield rebuilt

    def _refresh_mac(self, candidate: bytes, address: int) -> bytes:
        """Re-embed a freshly computed MAC over the corrected data."""
        tag = self.engine.compute(candidate, address)
        if self.engine.mac_bits < pattern.MAC_BITS_PER_LINE:
            tag &= mask(self.engine.mac_bits)
        return pattern.embed_mac(candidate, tag)
