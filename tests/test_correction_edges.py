"""Edge-case tests for core/correction.py feeding the fault taxonomy:
all-zero lines, the exactly-4-set-bits boundary of the reset-zero-PTE
step, double-bit faults that must land in detected+uncorrectable, MACs
narrower than the 96-bit field, and the known QARMA chunk-swap
mis-correction."""

import pytest

from repro.core import pattern
from repro.core.correction import CorrectionEngine
from repro.core.engine import MACEngine
from repro.crypto.mac import Blake2LineMAC, QarmaLineMAC
from repro.mmu.pte import make_x86_pte

ADDRESS = 0x40000


@pytest.fixture()
def engine():
    return MACEngine(Blake2LineMAC(bytes(range(32))), max_phys_bits=40,
                     soft_match_k=4)


def stored(engine, ptes):
    line = pattern.join_ptes(ptes)
    return pattern.embed_mac(line, engine.compute(line, ADDRESS)), line


def correct(engine, faulty):
    return CorrectionEngine(engine).correct(faulty, ADDRESS)


class TestAllZeroLine:
    def test_clean_zero_line_soft_matches(self, engine):
        faulty, logical = stored(engine, [0] * 8)
        result = correct(engine, faulty)
        assert result.winning_step == "soft_match"
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)

    def test_single_flip_in_zero_line_corrected(self, engine):
        faulty_line, logical = stored(engine, [0] * 8)
        damaged = bytearray(faulty_line)
        damaged[3 * 8 + 2] ^= 0x10  # one PFN bit of PTE 3
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is not None
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)

    def test_three_flips_in_one_zero_pte_reset_to_zero(self, engine):
        """Three set bits <= almost_zero_threshold: reset-zero recovers a
        multi-bit fault flip-and-check cannot."""
        faulty_line, logical = stored(engine, [0] * 8)
        damaged = bytearray(faulty_line)
        for bit in (13, 21, 34):  # three PFN bits of PTE 2
            damaged[2 * 8 + bit // 8] ^= 1 << (bit % 8)
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is not None
        assert result.winning_step == "reset_zero_ptes"
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)


class TestResetZeroBoundary:
    """The reset step zeroes PTEs with popcount(data bits) <= 4."""

    def test_reset_applies_at_exactly_four_set_bits(self, engine):
        correction = CorrectionEngine(engine)
        pte_four = (1 << 13) | (1 << 21) | (1 << 30) | (1 << 38)
        assert correction._reset_almost_zero([pte_four] + [0] * 7)[0] == 0

    def test_reset_skips_five_set_bits(self, engine):
        correction = CorrectionEngine(engine)
        pte_five = (1 << 13) | (1 << 21) | (1 << 30) | (1 << 38) | (1 << 14)
        assert correction._reset_almost_zero([pte_five] + [0] * 7)[0] == pte_five

    def test_metadata_bits_do_not_count_toward_the_threshold(self, engine):
        """Embedded MAC/identifier bits are excluded from the popcount —
        a zero PTE stays 'almost zero' regardless of its metadata."""
        correction = CorrectionEngine(engine)
        pte = (0xFFF << pattern.MAC_FIELD_LOW) | (1 << 13)
        out = correction._reset_almost_zero([pte] + [0] * 7)[0]
        assert out == pte & correction._metadata_mask  # data zeroed, metadata kept

    def test_four_bit_fault_in_zero_pte_corrected_end_to_end(self, engine):
        faulty_line, logical = stored(
            engine, [make_x86_pte(0x2E5F3 + i, user=True) for i in range(4)] + [0] * 4
        )
        damaged = bytearray(faulty_line)
        for bit in (13, 21, 30, 38):  # four PFN bits of zero PTE 6
            damaged[6 * 8 + bit // 8] ^= 1 << (bit % 8)
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is not None
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)

    def test_five_bit_fault_in_zero_pte_uncorrectable(self, engine):
        """One bit past the boundary: no strategy reaches a 5-bit fault."""
        faulty_line, _ = stored(
            engine, [make_x86_pte(0x2E5F3 + 37 * i + 11, user=True)
                     for i in range(4)] + [0] * 4
        )
        damaged = bytearray(faulty_line)
        for bit in (13, 21, 30, 38, 14):  # five PFN bits of zero PTE 6
            damaged[6 * 8 + bit // 8] ^= 1 << (bit % 8)
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is None
        assert result.winning_step is None


class TestDoubleBitUncorrectable:
    def test_two_pfn_bits_across_ptes_uncorrectable(self, engine):
        """Double-bit PFN damage on non-contiguous PFNs exhausts every
        guess — the fault class behind detected+uncorrectable."""
        faulty_line, _ = stored(
            engine, [make_x86_pte(0x2E5F3 + 37 * i + 11, user=True)
                     for i in range(8)]
        )
        damaged = bytearray(faulty_line)
        damaged[1 * 8 + 2] ^= 0x10
        damaged[5 * 8 + 3] ^= 0x40
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is None
        assert result.guesses_used == CorrectionEngine(engine).max_guesses

    def test_double_bit_reaches_os_as_detected_uncorrectable(self):
        """End-to-end: the same fault class through the memory controller
        lands in the taxonomy's detected+uncorrectable bucket and raises
        PTECheckFailed on the response bus — never silent corruption."""
        from repro.faults.campaign import run_campaign_cell

        cell = run_campaign_cell("pte_double", 60, seed=11)
        assert cell.outcome("detected_uncorrectable") >= 1
        assert cell.outcome("silent_corruption") == 0
        assert cell.detected == cell.trials


class TestNarrowMAC:
    """With ``mac_bits < 96`` the stored field's upper bits are unused:
    the guard masks them off before checking, and so must correction."""

    @pytest.mark.parametrize("soft_match_k", [0, 4])
    def test_flips_in_unused_mac_bits_do_not_count(self, soft_match_k):
        engine = MACEngine(Blake2LineMAC(bytes(range(32)), mac_bits=64),
                           max_phys_bits=40, soft_match_k=soft_match_k)
        faulty_line, logical = stored(
            engine, [make_x86_pte(0x2E5F3 + 37 * i + 11, user=True)
                     for i in range(8)]
        )
        damaged = bytearray(faulty_line)
        damaged[1 * 8 + 2] ^= 0x10  # one PFN bit of PTE 1
        unused = 0b111 << 90  # MAC-field bits 90-92, beyond a 64-bit tag
        damaged = pattern.embed_mac(
            bytes(damaged), pattern.extract_mac(bytes(damaged)) ^ unused)
        result = correct(engine, damaged)
        assert result.corrected_line is not None
        assert result.winning_step == "flip_and_check"
        assert result.mac_distance == 0
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)


class TestQarmaChunkSwap:
    @pytest.mark.xfail(strict=True, reason=(
        "known defect: QarmaLineMAC XORs chunk i with address + 16*i, so "
        "two chunks of equal protected content whose chunk addresses "
        "differ in bit 4 swap cipher inputs when bit 4 flips in both; "
        "flip-and-check tries chunk 0's bits first and accepts the swap. "
        "A fix must change every QARMA tag or the first-match rule."))
    def test_equal_chunks_with_bit4_flip_not_miscorrected(self):
        engine = MACEngine(QarmaLineMAC(bytes(range(32))), max_phys_bits=40,
                           soft_match_k=4)
        assert ADDRESS & 16 == 0  # chunk 0 and 1 addresses differ in bit 4
        # Chunks 0 (PTEs 0-1) and 1 (PTEs 2-3) are both empty.
        faulty_line, logical = stored(
            engine, [0] * 4 + [make_x86_pte(0x2E5F3 + i, user=True)
                               for i in range(4)]
        )
        damaged = bytearray(faulty_line)
        damaged[2 * 8] ^= 1 << 4  # bit 4 of PTE 2
        result = correct(engine, bytes(damaged))
        assert result.corrected_line is not None
        assert pattern.mask_unprotected(result.corrected_line, 40) == \
            pattern.mask_unprotected(logical, 40)
