"""Equivalence guards for the table-driven QARMA hot path.

The table-driven QARMA path trades implementation for speed while
claiming bit-exact behaviour: it must agree with the cell-by-cell
reference path on every block, for both widths and both directions.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.qarma import Qarma, Qarma64, Qarma128

TRIALS = 48


@pytest.mark.parametrize(
    "factory,block_bits,key_bytes",
    [
        pytest.param(Qarma64, 64, 16, id="qarma64"),
        pytest.param(Qarma128, 128, 32, id="qarma128"),
    ],
)
def test_table_path_matches_reference(factory, block_bits, key_bytes):
    """Random keys/tweaks/blocks: tables == reference, both directions."""
    rng = random.Random(0xC0FFEE ^ block_bits)
    for _ in range(TRIALS):
        cipher = factory(rng.randbytes(key_bytes))
        block = rng.getrandbits(block_bits)
        tweak = rng.getrandbits(block_bits)
        ct = cipher.encrypt(block, tweak)
        assert ct == cipher.encrypt_reference(block, tweak)
        assert cipher.decrypt(ct, tweak) == block
        assert cipher.decrypt_reference(ct, tweak) == block


def test_table_path_matches_reference_edge_blocks():
    """All-zero / all-one blocks and tweaks agree on both paths."""
    for factory, block_bits, key_bytes in (
        (Qarma64, 64, 16),
        (Qarma128, 128, 32),
    ):
        cipher = factory(bytes(range(key_bytes)))
        full = (1 << block_bits) - 1
        for block in (0, 1, full):
            for tweak in (0, full):
                assert cipher.encrypt(block, tweak) == cipher.encrypt_reference(
                    block, tweak
                )


def test_use_tables_flag_selects_reference_path():
    """``use_tables=False`` instances run the reference path end to end."""
    key = bytes(range(32))
    fast, slow = Qarma128(key), Qarma128(key, use_tables=False)
    for block in (0, 0x0123_4567_89AB_CDEF, (1 << 128) - 1):
        assert fast.encrypt(block, 7) == slow.encrypt(block, 7)
        assert fast.decrypt(block, 7) == slow.decrypt(block, 7)


def test_reduced_round_variants_agree():
    """The equivalence holds for every round count, not just the defaults."""
    rng = random.Random(99)
    for rounds in (1, 2, 5):
        cipher = Qarma(rng.randbytes(32), cell_bits=8, rounds=rounds)
        block, tweak = rng.getrandbits(128), rng.getrandbits(128)
        assert cipher.encrypt(block, tweak) == cipher.encrypt_reference(block, tweak)

