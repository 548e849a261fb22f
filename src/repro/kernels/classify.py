"""Vectorized Table-2 signal evaluation over packed error vectors.

Every Killi signal is linear in the error vector, so each one reduces
to *"does this bit set intersect that precomputed mask an odd number
of times?"* — a word-wide AND plus a popcount parity.  This module
precomputes, once per line layout, the packed membership masks in the
LV offset space (data | parity | checkbits — see
:class:`repro.core.layout.LineLayout`):

- one mask per parity segment (the segment's data members plus its own
  LV-resident parity bit);
- one mask per SECDED syndrome bit (positions whose Hamming column
  code has that bit set; the global parity bit belongs to none);
- the codeword mask (data + all checkbits) whose weight parity is the
  global-parity signal and whose weight is the codeword fault count;
- the plain data mask for ground-truth corrupt-bit counting.

Given those masks, classifying a million fault patterns is ~30 masked
popcount passes over a ``(n, words)`` uint64 matrix — no per-pattern
Python.  A single line's error vector — the per-access case — is a
Python ``int`` row instead, folded bit by bit through the signature
table (:meth:`LineSignalKernel.signals_row`).  The scalar implementations
(:meth:`repro.core.linestate.LineErrorModel.signals_for_positions`,
:meth:`repro.analysis.montecarlo.CoverageSampler._classify_ok`) are
kept as the pinned references; the equivalence tests in
``tests/ecc/test_batch_kernels.py`` and ``tests/core/test_linestate.py``
hold the two bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.layout import LineLayout
from repro.ecc.secded import SecDedCode
from repro.utils.bitpack import n_words, pack_positions, popcount64

__all__ = ["LineSignalKernel", "RowSignals"]

_ONE = np.uint64(1)


class RowSignals(NamedTuple):
    """Controller-visible signals of one error row (plain scalars)."""

    sp_mismatches: int
    syndrome_zero: bool
    global_parity_ok: bool
    data_error_bits: int


class LineSignalKernel:
    """Precomputed packed masks + batched signal evaluation for one layout.

    Parameters
    ----------
    layout:
        LV bit layout of a protected line.
    secded:
        The SECDED instance whose column codes define the syndrome
        masks; constructed for ``layout.data_bits`` when omitted.
    interleaved:
        Data-bit-to-segment mapping: ``offset % n_segments`` when True
        (the paper's interleaving), ``offset // segment_width``
        otherwise.  Mirrors ``LineErrorModel.interleaved_parity``.
    """

    def __init__(
        self,
        layout: LineLayout | None = None,
        secded: SecDedCode | None = None,
        interleaved: bool = True,
    ):
        self.layout = layout if layout is not None else LineLayout()
        self.secded = (
            secded if secded is not None else SecDedCode(self.layout.data_bits)
        )
        if self.secded.k != self.layout.data_bits:
            raise ValueError("SECDED data width does not match the layout")
        self.interleaved = interleaved
        self.words = n_words(self.layout.total_bits)

        total = self.layout.total_bits
        data_offsets = np.arange(self.layout.data_bits)
        check_offsets = np.arange(self.layout.check_offset, total)
        self.data_mask = pack_positions(data_offsets, total)
        self.checkbit_mask = pack_positions(check_offsets, total)
        self.codeword_mask = self.data_mask | self.checkbit_mask

        # Syndrome bit-slice masks in LV offset space.  LV offset ->
        # codeword position is the identity for data bits and
        # data_bits + i for checkbit i; the global parity bit (the last
        # checkbit) has no column code and joins no mask.
        codes = self.secded.column_codes
        lv_of_codeword = np.concatenate(
            [data_offsets, self.layout.check_offset + np.arange(self.secded.r)]
        )
        self.syndrome_masks = np.zeros((self.secded.r, self.words), dtype=np.uint64)
        for j in range(self.secded.r):
            members = lv_of_codeword[np.nonzero((codes >> j) & 1)[0]]
            self.syndrome_masks[j] = pack_positions(members, total)

        self._segment_masks: dict[int, np.ndarray] = {}
        self._signature_tables: dict[int, np.ndarray] = {}
        self._signature_ints: dict[int, list[int]] = {}
        # The same masks over Python-int rows (bit o = LV offset o), the
        # representation of :class:`repro.core.linestate.LineErrorModel`.
        self.data_row_mask = (1 << self.layout.data_bits) - 1
        self.codeword_row_mask = self.data_row_mask | (
            ((1 << self.layout.check_bits) - 1) << self.layout.check_offset
        )

    # -- mask construction ---------------------------------------------------

    def segment_masks(self, n_segments: int) -> np.ndarray:
        """Packed per-segment membership masks, shape ``(n_segments, words)``.

        Each segment owns its data members plus its own LV-resident
        parity bit, so a flipped parity bit mismatches its segment
        exactly as in hardware.  Parity bits beyond ``n_segments``
        (unused in the stable 4-segment configuration) belong to no
        segment.
        """
        cached = self._segment_masks.get(n_segments)
        if cached is not None:
            return cached
        layout = self.layout
        if layout.data_bits % n_segments:
            raise ValueError("data bits must divide evenly into segments")
        data_offsets = np.arange(layout.data_bits)
        if self.interleaved:
            segment_of = data_offsets % n_segments
        else:
            segment_of = data_offsets // (layout.data_bits // n_segments)
        masks = np.zeros((n_segments, self.words), dtype=np.uint64)
        for segment in range(n_segments):
            members = list(data_offsets[segment_of == segment])
            if segment < layout.max_parity_bits:
                members.append(layout.parity_offset + segment)
            masks[segment] = pack_positions(members, layout.total_bits)
        self._segment_masks[n_segments] = masks
        return masks

    def _signature_int_table(self, n_segments: int) -> list[int]:
        """The :meth:`signature_table` as a plain Python ``int`` list."""
        cached = self._signature_ints.get(n_segments)
        if cached is None:
            cached = [int(s) for s in self.signature_table(n_segments)]
            self._signature_ints[n_segments] = cached
        return cached

    def signature_table(self, n_segments: int) -> np.ndarray:
        """Per-LV-offset signal signature, one uint64 per offset.

        Because every signal is a parity, flipping offset ``o`` XORs a
        fixed *signature* into the signal state.  The signature packs,
        per offset: its segment membership bit (``[0, n_segments)``),
        its syndrome column code (``[n_segments, n_segments + r)``) and
        its codeword-membership bit (``n_segments + r``, whose fold is
        the global-parity mismatch).  XOR-folding the table over an
        offset set yields every parity-style signal in one word.
        """
        cached = self._signature_tables.get(n_segments)
        if cached is not None:
            return cached
        layout = self.layout
        r = self.secded.r
        if n_segments + r + 1 > 64:
            raise ValueError("signature does not fit in 64 bits")
        synd_shift = n_segments
        codeword_bit = 1 << (n_segments + r)
        table = np.zeros(layout.total_bits, dtype=np.uint64)
        codes = self.secded.column_codes
        for offset in range(layout.total_bits):
            signature = 0
            if layout.is_data(offset):
                if self.interleaved:
                    segment = offset % n_segments
                else:
                    segment = offset // (layout.data_bits // n_segments)
                signature |= 1 << segment
                signature |= int(codes[offset]) << synd_shift
                signature |= codeword_bit
            elif layout.is_parity(offset):
                index = layout.parity_index(offset)
                if index < n_segments:
                    signature |= 1 << index
            else:
                position = layout.codeword_position(offset)
                if position < self.secded.n - 1:
                    signature |= int(codes[position]) << synd_shift
                signature |= codeword_bit
            table[offset] = signature
        self._signature_tables[n_segments] = table
        return table

    # -- batched evaluation ---------------------------------------------------

    def codeword_weights(self, packed: np.ndarray) -> np.ndarray:
        """Number of codeword (data + checkbit) flips per packed row."""
        packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
        return popcount64(packed & self.codeword_mask).sum(axis=1, dtype=np.int64)

    def data_weights(self, packed: np.ndarray) -> np.ndarray:
        """Number of flipped *data* bits per packed row (ground truth)."""
        packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
        return popcount64(packed & self.data_mask).sum(axis=1, dtype=np.int64)

    def signals_matrix(
        self, packed: np.ndarray, n_segments: int, use_ecc: bool = True
    ):
        """Evaluate all Table-2 signals for a matrix of packed rows.

        Returns ``(sp_mismatches, syndrome_zero, global_parity_ok,
        data_error_bits)`` as aligned arrays — the batched equivalent
        of :meth:`repro.core.linestate.LineErrorModel.signals_for_positions`.
        Without ECC the syndrome is reported zero and the parity ok,
        exactly like the scalar path for DFH b'00 lines.
        """
        packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
        n = packed.shape[0]
        seg_masks = self.segment_masks(n_segments)
        overlap = popcount64(packed[:, None, :] & seg_masks[None, :, :])
        odd_segments = (overlap.sum(axis=2, dtype=np.uint64) & _ONE) != 0
        sp = odd_segments.sum(axis=1, dtype=np.int64)
        data_errors = self.data_weights(packed)
        if not use_ecc:
            ones = np.ones(n, dtype=bool)
            return sp, ones, ones.copy(), data_errors
        overlap = popcount64(packed[:, None, :] & self.syndrome_masks[None, :, :])
        syndrome_bits = (overlap.sum(axis=2, dtype=np.uint64) & _ONE) != 0
        syndrome_zero = ~syndrome_bits.any(axis=1)
        parity_ok = (self.codeword_weights(packed) & 1) == 0
        return sp, syndrome_zero, parity_ok, data_errors

    def codeword_weights_from_offsets(
        self, offsets: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Codeword fault count per row of an ``(n, k)`` offset matrix."""
        layout = self.layout
        in_parity = (offsets >= layout.parity_offset) & (
            offsets < layout.check_offset
        )
        return (valid & ~in_parity).sum(axis=1, dtype=np.int64)

    def signals_from_offsets(
        self,
        offsets: np.ndarray,
        valid: np.ndarray,
        n_segments: int,
        use_ecc: bool = True,
    ):
        """Table-2 signals for patterns given as offset lists.

        ``offsets`` is ``(n, k_max)`` with per-row validity mask
        ``valid`` (invalid entries must still index the table — use 0).
        One gather + XOR-fold of the :meth:`signature_table` replaces
        the per-mask popcount passes of :meth:`signals_matrix`; the two
        paths are equivalent and both pinned against the scalar
        reference.  Returns the same tuple as :meth:`signals_matrix`.
        """
        table = self.signature_table(n_segments)
        contributions = np.where(valid, table[offsets], np.uint64(0))
        folded = np.bitwise_xor.reduce(contributions, axis=1)
        seg_field = np.uint64((1 << n_segments) - 1)
        sp = popcount64(folded & seg_field).astype(np.int64)
        data_errors = (valid & (offsets < self.layout.data_bits)).sum(
            axis=1, dtype=np.int64
        )
        if not use_ecc:
            ones = np.ones(len(sp), dtype=bool)
            return sp, ones, ones.copy(), data_errors
        r = self.secded.r
        synd_field = np.uint64(((1 << r) - 1) << n_segments)
        syndrome_zero = (folded & synd_field) == 0
        parity_ok = (folded & np.uint64(1 << (n_segments + r))) == 0
        return sp, syndrome_zero, parity_ok, data_errors

    def signals_row(
        self, row: int, n_segments: int, use_ecc: bool = True
    ) -> RowSignals:
        """Signals of one error row via the signature-table fold.

        ``row`` is a Python ``int`` with bit ``o`` set iff LV offset
        ``o`` flipped.  A line access sees a handful of flipped bits,
        so iterating the set bits and XOR-folding their signatures
        beats any per-mask numpy pass (whose per-call overhead dwarfs
        the 539-bit payload).
        """
        table = self._signature_int_table(n_segments)
        data_errors = (row & self.data_row_mask).bit_count()
        folded = 0
        while row:
            low = row & -row
            folded ^= table[low.bit_length() - 1]
            row ^= low
        sp = (folded & ((1 << n_segments) - 1)).bit_count()
        if not use_ecc:
            return RowSignals(sp, True, True, data_errors)
        r = self.secded.r
        syndrome_zero = ((folded >> n_segments) & ((1 << r) - 1)) == 0
        parity_ok = ((folded >> (n_segments + r)) & 1) == 0
        return RowSignals(sp, syndrome_zero, parity_ok, data_errors)
