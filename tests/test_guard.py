"""Tests for the PT-Guard mechanism itself (write/read transformations)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import PTGuardConfig, optimized_ptguard_config
from repro.core import pattern
from repro.core.guard import PTGuard
from repro.mmu.pte import make_x86_pte

ADDRESS = 0x7F000


def pte_line(base_pfn=0x2E5F3, present=8):
    return pattern.join_ptes(
        [make_x86_pte(base_pfn + i, user=True) if i < present else 0 for i in range(8)]
    )


def data_line(seed=3):
    """Random data whose metadata fields are non-zero (no pattern match)."""
    rng = random.Random(seed)
    while True:
        line = rng.randbytes(64)
        if not pattern.matches_pattern(line):
            return line


@pytest.fixture()
def guard():
    return PTGuard(PTGuardConfig(), mac_algorithm="blake2")


@pytest.fixture()
def optimized():
    return PTGuard(optimized_ptguard_config(), mac_algorithm="blake2")


@pytest.fixture()
def correcting():
    return PTGuard(PTGuardConfig(correction_enabled=True), mac_algorithm="blake2")


class TestWritePath:
    def test_pte_line_gets_mac(self, guard):
        outcome = guard.process_write(ADDRESS, pte_line())
        assert outcome.embedded
        assert pattern.extract_mac(outcome.stored_line) != 0
        assert pattern.strip_mac(outcome.stored_line) == pte_line()

    def test_zero_line_gets_mac(self, guard):
        outcome = guard.process_write(ADDRESS, bytes(64))
        assert outcome.embedded

    def test_nonmatching_data_unchanged(self, guard):
        line = data_line()
        outcome = guard.process_write(ADDRESS, line)
        assert not outcome.embedded
        assert outcome.stored_line == line

    def test_identifier_embedded_in_optimized(self, optimized):
        outcome = optimized.process_write(ADDRESS, pte_line())
        assert pattern.extract_identifier(outcome.stored_line) == optimized.identifier

    def test_extended_pattern_excludes_id_field_users(self, optimized):
        """A line with non-zero bits 58:52 is not protected by Optimized
        PT-Guard even though its MAC field is zero (Sec V-A)."""
        line = pattern.embed_identifier(bytes(64), 1)
        outcome = optimized.process_write(ADDRESS, line)
        assert not outcome.embedded

    def test_baseline_still_protects_that_line(self, guard):
        line = pattern.embed_identifier(bytes(64), 1)
        assert guard.process_write(ADDRESS, line).embedded


class TestReadPTEPath:
    def test_roundtrip_strips_mac(self, guard):
        stored = guard.process_write(ADDRESS, pte_line()).stored_line
        outcome = guard.process_read(ADDRESS, stored, is_pte=True)
        assert outcome.mac_matched and outcome.stripped
        assert outcome.line == pte_line()
        assert outcome.latency_cycles == guard.config.mac_latency_cycles

    def test_tamper_detected(self, guard):
        stored = bytearray(guard.process_write(ADDRESS, pte_line()).stored_line)
        stored[0] ^= 0x04  # user bit
        outcome = guard.process_read(ADDRESS, bytes(stored), is_pte=True)
        assert outcome.pte_check_failed and not outcome.stripped

    def test_any_single_protected_bit_flip_detected(self, guard):
        """Exhaustively: every protected-bit flip in a PTE line fails the
        MAC check (the Sec IV-G invariant at flip granularity)."""
        stored = guard.process_write(ADDRESS, pte_line()).stored_line
        for index in range(8):
            for bit in pattern.protected_bit_positions(40)[::5]:  # sample
                tampered = bytearray(stored)
                tampered[index * 8 + bit // 8] ^= 1 << (bit % 8)
                outcome = guard.process_read(ADDRESS, bytes(tampered), is_pte=True)
                assert outcome.pte_check_failed

    def test_rewritten_line_verifies_and_tampered_rewrite_fails(self, guard):
        """A rewrite replaces the tag: the new contents verify, and a
        tampered copy of them fails (no tag of the old contents leaks)."""
        first = guard.process_write(ADDRESS, pte_line(0x100)).stored_line
        assert guard.process_read(ADDRESS, first, is_pte=True).mac_matched
        second = guard.process_write(ADDRESS, pte_line(0x200)).stored_line
        assert second != first
        assert guard.process_read(ADDRESS, second, is_pte=True).mac_matched
        tampered = bytes([second[0] ^ 0x10]) + second[1:]
        assert not guard.process_read(ADDRESS, tampered, is_pte=True).mac_matched

    def test_computations_count_every_verification(self, guard):
        """``computations`` (Sec V-E energy accounting) ticks once per
        verification, including repeats of an unchanged line."""
        stored = guard.process_write(ADDRESS, pte_line()).stored_line
        before = guard.engine.computations
        for _ in range(10):
            guard.process_read(ADDRESS, stored, is_pte=True)
        assert guard.engine.computations == before + 10

    def test_wrong_address_detected(self, guard):
        """The MAC binds the line to its physical address: a relocated
        copy (ditto attack) fails verification."""
        stored = guard.process_write(ADDRESS, pte_line()).stored_line
        outcome = guard.process_read(ADDRESS + 64, stored, is_pte=True)
        assert outcome.pte_check_failed

    def test_correction_repairs_single_flip(self, correcting):
        stored = bytearray(correcting.process_write(ADDRESS, pte_line()).stored_line)
        stored[10] ^= 0x40
        outcome = correcting.process_read(ADDRESS, bytes(stored), is_pte=True)
        assert outcome.corrected and not outcome.pte_check_failed
        assert outcome.line == pte_line()
        assert outcome.corrected_stored_line is not None

    def test_corrected_line_reverifies(self, correcting):
        stored = bytearray(correcting.process_write(ADDRESS, pte_line()).stored_line)
        stored[10] ^= 0x40
        outcome = correcting.process_read(ADDRESS, bytes(stored), is_pte=True)
        again = correcting.process_read(
            ADDRESS, outcome.corrected_stored_line, is_pte=True
        )
        assert again.mac_matched and not again.corrected


class TestReadDataPath:
    def test_protected_data_stripped(self, guard):
        stored = guard.process_write(ADDRESS, bytes(64)).stored_line
        outcome = guard.process_read(ADDRESS, stored, is_pte=False)
        assert outcome.stripped and outcome.line == bytes(64)

    def test_unprotected_data_forwarded_with_latency(self, guard):
        line = data_line()
        outcome = guard.process_read(ADDRESS, line, is_pte=False)
        assert not outcome.stripped and outcome.line == line
        # Baseline PT-Guard pays MAC latency on ALL reads (Sec IV-H).
        assert outcome.latency_cycles == guard.config.mac_latency_cycles

    def test_flipped_protected_data_forwarded_as_is(self, guard):
        stored = bytearray(guard.process_write(ADDRESS, pte_line()).stored_line)
        stored[0] ^= 0x01
        outcome = guard.process_read(ADDRESS, bytes(stored), is_pte=False)
        # Sec IV-E: no new failure mode; line forwarded unchanged.
        assert not outcome.stripped and outcome.line == bytes(stored)
        assert not outcome.pte_check_failed


class TestOptimizedReadPath:
    def test_identifier_filter_skips_mac_unit(self, optimized):
        line = data_line()
        outcome = optimized.process_read(ADDRESS, line, is_pte=False)
        assert outcome.latency_cycles == 0
        assert optimized.stats.get("identifier_filtered") == 1

    def test_identifier_match_triggers_check_and_strip(self, optimized):
        stored = optimized.process_write(ADDRESS, pte_line()).stored_line
        outcome = optimized.process_read(ADDRESS, stored, is_pte=False)
        assert outcome.stripped and outcome.line == pte_line()
        assert outcome.latency_cycles == optimized.config.mac_latency_cycles

    def test_zero_line_fast_path_no_latency(self, optimized):
        stored = optimized.process_write(ADDRESS, bytes(64)).stored_line
        outcome = optimized.process_read(ADDRESS, stored, is_pte=False)
        assert outcome.latency_cycles == 0
        assert outcome.line == bytes(64)
        assert optimized.stats.get("zero_line_fastpath") == 1

    def test_never_written_zero_line_fast_path(self, optimized):
        outcome = optimized.process_read(ADDRESS, bytes(64), is_pte=False)
        assert outcome.latency_cycles == 0 and outcome.line == bytes(64)

    def test_pte_walks_always_checked(self, optimized):
        stored = bytearray(optimized.process_write(ADDRESS, pte_line()).stored_line)
        stored[1] ^= 0x10
        outcome = optimized.process_read(ADDRESS, bytes(stored), is_pte=True)
        assert outcome.pte_check_failed


class TestCollisions:
    def _colliding_line(self, guard):
        """Forge a line whose data bits equal its own computed MAC —
        the known-plaintext construction of Sec IV-G."""
        base = bytearray(data_line())
        for index in range(8):
            base[index * 8 + 5] = 0
            base[index * 8 + 6] &= 0xF0
        tag = guard.engine.compute(bytes(base), ADDRESS)
        line = pattern.embed_mac(bytes(base), tag)
        # ensure it does NOT match the write pattern (mac field nonzero)
        assert not pattern.matches_pattern(line)
        return line

    def test_colliding_line_tracked_and_forwarded(self, guard):
        line = self._colliding_line(guard)
        outcome = guard.process_write(ADDRESS, line)
        assert outcome.collision
        read = guard.process_read(ADDRESS, line, is_pte=False)
        assert read.ctb_hit and read.line == line and not read.stripped

    def test_without_ctb_the_line_would_be_mangled(self, guard):
        """Demonstrates why the CTB exists: the MAC compare alone would
        strip data bits from a colliding line."""
        line = self._colliding_line(guard)
        read = guard.process_read(ADDRESS, line, is_pte=False)  # not tracked
        assert read.stripped and read.line != line

    def test_overwrite_clears_ctb_entry(self, guard):
        line = self._colliding_line(guard)
        guard.process_write(ADDRESS, line)
        assert len(guard.ctb) == 1
        guard.process_write(ADDRESS, data_line(99))
        assert len(guard.ctb) == 0


class TestRekey:
    def test_rekey_changes_macs(self, guard):
        stored_old = guard.process_write(ADDRESS, pte_line()).stored_line
        guard.rekey()
        stored_new = guard.process_write(ADDRESS, pte_line()).stored_line
        assert pattern.extract_mac(stored_old) != pattern.extract_mac(stored_new)
        assert guard.epoch == 1

    def test_old_macs_fail_after_rekey(self, guard):
        stored_old = guard.process_write(ADDRESS, pte_line()).stored_line
        guard.rekey()
        outcome = guard.process_read(ADDRESS, stored_old, is_pte=True)
        assert outcome.pte_check_failed

    def test_rekey_clears_ctb(self, guard):
        guard.ctb.insert(64)
        guard.rekey()
        assert len(guard.ctb) == 0


class TestSRAMBudget:
    def test_baseline_52_bytes(self, guard):
        assert guard.sram_bytes == 52

    def test_optimized_71_bytes(self, optimized):
        assert optimized.sram_bytes == 71


class TestReducedMAC:
    def test_64_bit_design_option(self):
        """Sec VII-A: a 64-bit MAC without correction is a valid point."""
        guard = PTGuard(PTGuardConfig(mac_bits=64), mac_algorithm="blake2")
        stored = guard.process_write(ADDRESS, pte_line()).stored_line
        outcome = guard.process_read(ADDRESS, stored, is_pte=True)
        assert outcome.mac_matched and outcome.line == pte_line()
        tampered = bytearray(stored)
        tampered[0] ^= 1
        assert guard.process_read(ADDRESS, bytes(tampered), is_pte=True).pte_check_failed


class TestStatsRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=64, max_size=64))
    def test_write_read_never_corrupts_benign_data(self, line):
        """Property: for ANY line, write-then-read through the guard
        returns the original data (CTB covers collisions)."""
        guard = PTGuard(PTGuardConfig(), mac_algorithm="blake2")
        stored = guard.process_write(ADDRESS, line).stored_line
        read = guard.process_read(ADDRESS, stored, is_pte=False)
        if pattern.matches_pattern(line):
            assert read.line == pattern.strip_mac(line)
        else:
            assert read.line == line
