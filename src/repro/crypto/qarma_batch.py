"""Vectorized QARMA-128 encryption over numpy arrays of blocks.

The scalar table path in :mod:`repro.crypto.qarma` evaluates one block at
a time: each fused round is 16 Python-level table lookups XORed together.
This module lifts the identical mathematics onto numpy: a batch of N
128-bit blocks is carried as an ``(N, 2)`` ``uint64`` array of (low, high)
halves, whose little-endian bytes are the 16 cells. Each fused round
table is materialised once per cipher as a ``(16 * 256, 2)`` array (row
``256 * i + v`` holds the 128-bit contribution of value ``v`` in cell
``i``), so a round is one gather of all 16 cells of every block followed
by one XOR reduction over the cells. The per-round cost is then a handful
of numpy calls whatever the batch size, so small batches (a one-guess
correction stage) stay cheap; batches are processed in chunks of
:data:`CHUNK_BLOCKS` blocks, the fastest chunk size measured.

The batch path is bit-exact against :meth:`Qarma._encrypt_tables` (it
reads the same ``_TableSet`` and the same memoized tweakey schedule), and
property tests in ``tests/test_batch_equivalence.py`` pin that down.

numpy is an optional dependency of the simulator: when it is missing,
``QarmaBatch128`` raises at construction and callers fall back to the
scalar path (see :meth:`repro.crypto.mac.QarmaLineMAC.compute_batch`).
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

HAVE_NUMPY = _np is not None

_M64 = (1 << 64) - 1

#: Blocks per gather-and-reduce pass. Larger passes measured slower:
#: 4096 lines (16384 blocks) took 27-30 ms in 1024-block chunks, 68-96 ms
#: in 2048-block chunks and about 70 ms in one pass (2-CPU host); 512
#: was no faster than 1024.
CHUNK_BLOCKS = 1024


def _cell_table(table):
    """Stack 16 per-cell tables of 128-bit ints as ``(16 * 256, 2)`` u64."""
    out = _np.empty((16 * 256, 2), dtype=_np.uint64)
    for i in range(16):
        row = table[i]
        out[256 * i : 256 * (i + 1), 0] = [v & _M64 for v in row]
        out[256 * i : 256 * (i + 1), 1] = [(v >> 64) & _M64 for v in row]
    return out


def _key(value):
    """A 128-bit round key as a broadcastable (low, high) u64 pair."""
    return _np.array([value & _M64, (value >> 64) & _M64], dtype=_np.uint64)


class QarmaBatch128:
    """Batched encrypt for a :class:`repro.crypto.qarma.Qarma` instance
    with 8-bit cells (QARMA-128). Wraps — never replaces — the scalar
    cipher: tweakeys and whitening keys come from the wrapped instance's
    own memoized schedule, so both paths see identical key material."""

    def __init__(self, cipher):
        if not HAVE_NUMPY:
            raise RuntimeError("QarmaBatch128 requires numpy")
        if cipher.cell_bits != 8:
            raise ValueError("QarmaBatch128 supports 8-bit cells only")
        tables = cipher._tables
        self._tsl = _cell_table(tables.tsl)
        self._tsl_inv = _cell_table(tables.tsl_inv)
        self._sbox_pos = _cell_table(tables.sbox_pos)
        self._sbox_inv_pos = _cell_table(tables.sbox_inv_pos)
        self._reflect = _cell_table(tables.reflect)
        # Row offset of cell i's table within a stacked (4096, 2) table.
        self._cell_rows = _np.arange(16, dtype=_np.intp) * 256
        self._rounds = cipher.rounds
        self._cipher = cipher

    def _apply(self, table, state):
        """One fused table layer over an ``(N, 2)`` state.

        Cell ``i`` of a block is byte ``i`` of its little-endian (low,
        high) pair; the ``astype`` is a no-op on little-endian hosts and
        a byte swap elsewhere. Rows are gathered cell-major so that the
        XOR over the 16 cells reduces over the leading axis.
        """
        cells = state.astype("<u8", copy=False).view(_np.uint8)
        rows = (cells + self._cell_rows).T.reshape(-1)
        # np.take, not table[rows]: several times faster for row gathers.
        gathered = _np.take(table, rows, axis=0).reshape(16, -1, 2)
        return _np.bitwise_xor.reduce(gathered, axis=0)

    def encrypt(self, blocks, tweak: int = 0):
        """Encrypt an ``(N, 2)`` u64 array of (low, high) block halves.

        Returns a new array of the same shape. Mirrors
        ``Qarma._encrypt_tables`` line by line, chunk by chunk.
        """
        if len(blocks) > CHUNK_BLOCKS:
            return _np.concatenate([
                self.encrypt(blocks[start : start + CHUNK_BLOCKS], tweak)
                for start in range(0, len(blocks), CHUNK_BLOCKS)
            ])
        cipher = self._cipher
        tk, ltk, tkb, _ltkd, tweak_last = cipher._tweak_entry(tweak)
        w0, w1 = cipher._w0_int, cipher._w1_int
        apply = self._apply

        x = blocks ^ _key(w0 ^ tk[0])
        for i in range(1, self._rounds):
            x = apply(self._tsl, x)
            x ^= _key(ltk[i])
        x = apply(self._sbox_pos, x)
        x ^= _key(w1 ^ tweak_last)
        x = apply(self._reflect, x)
        x ^= _key(cipher._reflect_const ^ w0 ^ tweak_last)
        for i in range(self._rounds - 1, 0, -1):
            x = apply(self._tsl_inv, x)
            x ^= _key(tkb[i])
        x = apply(self._sbox_inv_pos, x)
        x ^= _key(tkb[0] ^ w1)
        return x
