"""Per-line effective error vectors and the signals derived from them.

The simulator does not materialise 512-bit line contents.  Because all
of Killi's codes (segmented parity, SECDED) are *linear*, every signal
the controller sees — which parity segments mismatch, whether the
syndrome is zero, whether the global parity matches — depends only on
the **error vector** between what was written and what reads back, not
on the data value itself.

For a persistent stuck-at fault the error bit is set iff the stuck
value differs from the written bit, which for random write data is a
fair coin ("masked fault" when the coin lands on equal).  So:

- on every fill / write-through update of a line, the model resamples
  which of the line's active faults are *unmasked*;
- between writes the effective vector is stable, so repeated reads are
  deterministic — exactly the persistence property the paper exploits;
- soft errors XOR extra positions into the vector.

Each line's error vector is one Python ``int`` *row* — bit ``o`` set
iff LV offset ``o`` reads back wrong, 0 for a clean line — held in a
plain list indexed by physical line id.  A line carries a handful of
flipped bits, so every row event (the fill's masking coins, a write
hit's re-roll, soft-error XORs, region counts) is a few integer
operations, and deriving the signals for a read folds the row's set
bits through the signature table of
:class:`repro.kernels.LineSignalKernel` (because the vector only
changes on fills/writes/soft errors, repeated reads hit a per-line
memo).  The scalar set-walking path survives as
:meth:`LineErrorModel.signals_for_positions` — the pinned reference
the equivalence tests compare the row path against.

This is exact with respect to the bit-accurate data path (see
:mod:`repro.core.datapath`, cross-validated in the test suite) and
keeps the per-access cost tiny: a fault-free line never touches any of
this machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import LineLayout
from repro.ecc.secded import SecDedCode
from repro.faults.fault_map import FaultMap
from repro.kernels.classify import LineSignalKernel

__all__ = ["Signals", "LineErrorModel"]


@dataclass(frozen=True)
class Signals:
    """The three controller-visible signals of paper Table 2."""

    sp_mismatches: int
    """Number of parity segments with a mismatch (0, 1, 2+)."""

    syndrome_zero: bool
    """SECDED syndrome is zero."""

    global_parity_ok: bool
    """SECDED global parity matches."""

    data_error_bits: int = 0
    """Ground truth (not controller-visible): flipped *data* bits.
    Used by the harness to count silent data corruptions."""


#: Signals of a line with no effective errors.
_CLEAN = Signals(0, True, True, 0)

# splitmix64 multipliers of the masking coins.
_MIX_POSITION = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _offsets_of(row: int) -> list:
    """The set bits of a row, in increasing order."""
    offsets = []
    while row:
        low = row & -row
        offsets.append(low.bit_length() - 1)
        row ^= low
    return offsets


class LineErrorModel:
    """Tracks effective error vectors for every line of a cache.

    Parameters
    ----------
    fault_map:
        Persistent stuck-at faults (one entry per physical line id).
    voltage:
        Normalized operating voltage of the LV array.
    rng:
        Stream for the masking coin flips.
    layout:
        LV bit layout.
    lv_faults_in_ecc_cache:
        If False, bits stored in the ECC cache (parity bits 4..15 and
        all checkbits) are considered fault-free (the ECC cache runs at
        nominal voltage); if True (default) they fail like everything
        else, matching the paper's analytic model.
    interleaved_parity:
        Segment mapping: interleaved (bit i -> segment i mod n, the
        paper's choice, so adjacent soft-error bursts spread across
        segments) or contiguous (bit i -> segment i div width, the
        ablation).
    """

    def __init__(
        self,
        fault_map: FaultMap,
        voltage: float,
        rng: np.random.Generator,
        layout: LineLayout | None = None,
        lv_faults_in_ecc_cache: bool = True,
        interleaved_parity: bool = True,
    ):
        self.fault_map = fault_map
        # CSR view of the faults active at the operating voltage: an
        # offsets list plus the positions as a plain list.  Pure in the
        # voltage, so built lazily and dropped by the voltage setter.
        # The fill path probes two offsets to detect the (dominant)
        # "no active faults" case.
        self._act_offsets = None
        self._act_positions = None
        self.voltage = voltage
        self.rng = rng
        self.layout = layout if layout is not None else LineLayout()
        self.lv_faults_in_ecc_cache = lv_faults_in_ecc_cache
        self.interleaved_parity = interleaved_parity
        if fault_map.line_bits < self.layout.total_bits:
            raise ValueError(
                f"fault map covers {fault_map.line_bits} bits/line; layout "
                f"needs {self.layout.total_bits}"
            )
        self._secded = SecDedCode(self.layout.data_bits)
        self.kernel = LineSignalKernel(
            self.layout, self._secded, interleaved=interleaved_parity
        )
        # Effective error rows, one int per physical line (0 = clean).
        self._rows = [0] * fault_map.n_lines
        # Read signals are pure in the row: memoise per line until the
        # next mutation (reads vastly outnumber writes).
        # line_id -> {(n_segments, use_ecc) | (n_segments, "observable"): Signals}
        self._signal_cache: dict = {}
        # Called on *external* error-vector edits (set_effective /
        # add_soft_error) so an owning scheme can invalidate memoized
        # hit outcomes; wired up by the scheme's attach().
        self.external_mutation_hook = None
        # LV offset of the boundary below which bits are always resident
        # in the (LV) main cache: data + the 4 stable parity bits.
        self._cache_resident_stop = self.layout.parity_offset + 4

    @property
    def voltage(self) -> float:
        """Operating point; assigning a new one drops the fault memo."""
        return self._voltage

    @voltage.setter
    def voltage(self, value: float) -> None:
        self._voltage = value
        self._act_offsets = None
        self._act_positions = None

    # -- state updates ----------------------------------------------------

    def is_dirty(self, line_id: int) -> bool:
        """Fast check: does the line have a non-empty error vector?"""
        return self._rows[line_id] != 0

    def row(self, line_id: int) -> int:
        """The line's effective error row (bit ``o`` = LV offset ``o``)."""
        return self._rows[line_id]

    #: Probability that a write-through update toggles the masking
    #: state of each individual fault (new data at that bit position).
    mask_flip_probability = 0.1

    def _ensure_active(self) -> list:
        """Build the active-fault CSR for the current voltage."""
        offsets, positions, _ = self.fault_map._active_csr(self._voltage)
        # Offsets past the layout are not LV bits of this line; with the
        # ECC cache at nominal voltage, neither is anything it stores.
        stop = (
            self.layout.total_bits
            if self.lv_faults_in_ecc_cache
            else self._cache_resident_stop
        )
        if self.fault_map.line_bits > stop:
            counts = np.diff(np.asarray(offsets))
            line_of = np.repeat(np.arange(len(counts)), counts)
            keep = positions < stop
            positions = positions[keep]
            counts = np.bincount(line_of[keep], minlength=len(counts))
            offsets = [0] * (len(counts) + 1)
            np.cumsum(counts, out=counts)
            offsets[1:] = counts.tolist()
        self._act_offsets = offsets
        self._act_positions = positions.tolist()
        return offsets

    def _active_positions(self, line_id: int) -> list:
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        return self._act_positions[offsets[line_id] : offsets[line_id + 1]]

    def _active_mask(self, line_id: int) -> int:
        """Row of all the line's active faults, masked or not."""
        mask = 0
        for position in self._active_positions(line_id):
            mask |= 1 << position
        return mask

    def _store_row(self, line_id: int, row: int) -> None:
        self._rows[line_id] = row
        self._signal_cache.pop(line_id, None)

    def _clear_row(self, line_id: int) -> None:
        # A clean row means the signal cache holds (at most)
        # "observable" entries, which are pure in (line, voltage) and
        # stay correct across a clear.
        if self._rows[line_id]:
            self._rows[line_id] = 0
            self._signal_cache.pop(line_id, None)

    def on_fill(self, line_id: int, salt: int = 0) -> None:
        """New data (identified by ``salt``) installed into the line.

        Unmasked faults are determined by the deterministic coins;
        accumulated soft errors are overwritten.
        """
        row = self.predicted_fill_row(line_id, salt)
        if row:
            self._store_row(line_id, row)
        else:
            self._clear_row(line_id)

    def predicted_fill_row(self, line_id: int, salt: int) -> int:
        """The row :meth:`on_fill` *would* store (0 = clean): the line's
        active faults that the data identified by ``salt`` leaves
        unmasked.

        A stuck-at cell is *masked* exactly when the written bit equals
        its stuck value: a deterministic fair coin per (line, data
        identity, fault) — bit 13 of a splitmix64 mix.  Data
        contents are identified by ``salt`` (the cache tag): refilling
        the same address reinstalls the same data, so the same faults
        are masked again — the property that lets Killi's
        classification stabilise on read-mostly data.

        Pure (fills never touch the shared RNG), so the batched replay
        interpreter classifies hypothetically-filled lines with it and
        its commit installs the same row.
        """
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        start = offsets[line_id]
        stop = offsets[line_id + 1]
        if start == stop:
            return 0
        seed = line_id * _MIX_1 ^ (salt + 1) * _MIX_2
        row = 0
        for position in self._act_positions[start:stop]:
            x = (position * _MIX_POSITION ^ seed) & _MASK64
            x ^= x >> 30
            x = x * _MIX_1 & _MASK64
            x ^= x >> 27
            x = x * _MIX_2 & _MASK64
            if (x ^ x >> 31) >> 13 & 1:
                row |= 1 << position
        return row

    def predicted_observable_row(self, line_id: int, row: int) -> int:
        """Observable (original + inverted image) vector for a stored row.

        The result ORs every active fault into ``row``, mirroring
        :meth:`observable_signals` for a hypothetical fill.
        """
        return row | self._active_mask(line_id)

    def on_write_hit(self, line_id: int) -> None:
        """Write-through update of resident data.

        Each fault's masking state toggles independently with
        ``mask_flip_probability`` (the store changed the bit at the
        faulty position); soft errors are overwritten.
        """
        offsets = self._act_offsets
        if offsets is None:
            offsets = self._ensure_active()
        if offsets[line_id] == offsets[line_id + 1]:
            # No active faults: nothing persists and the overwrite
            # drops any accumulated soft errors.
            self._clear_row(line_id)
            return
        self._store_row(line_id, self.rerolled_row(line_id, self._rows[line_id]))

    def rerolled_row(self, line_id: int, row: int) -> int:
        """The row a write hit leaves on a line with active faults.

        ``row`` is the line's current row.  Soft errors are
        overwritten, and each active fault's masking state toggles with
        ``mask_flip_probability`` — one ``rng.random(n_active)`` call on
        the *shared* stream, so callers must make this call at the
        access's turn in the global order.  Mutates nothing else;
        :meth:`on_write_hit` stores the result.
        """
        positions = self._active_positions(line_id)
        flip = self.mask_flip_probability
        active = 0
        toggles = 0
        for position, draw in zip(
            positions, self.rng.random(len(positions)).tolist()
        ):
            bit = 1 << position
            active |= bit
            if draw < flip:
                toggles |= bit
        return (row & active) ^ toggles

    def install_row(self, line_id: int, row: int) -> None:
        """Store ``row`` as a fill or write hit on a line with active
        faults would: the batched replay interpreter's commit of a row
        it already derived (:meth:`predicted_fill_row` or
        :meth:`rerolled_row`)."""
        self._store_row(line_id, row)

    def _row_from_offsets(self, offsets, row: int = 0) -> int:
        """XOR LV ``offsets`` into ``row``, rejecting any off the layout."""
        total = self.layout.total_bits
        for offset in offsets:
            offset = int(offset)
            if not 0 <= offset < total:
                raise IndexError(f"offset {offset} outside the line layout")
            row ^= 1 << offset
        return row

    def set_effective(self, line_id: int, offsets) -> None:
        """Directly install an effective error vector (testing hook).

        Used by the cross-validation tests to mirror a bit-accurate
        data path's observed error vector into the sparse model.
        """
        self._store_row(line_id, self._row_from_offsets(set(offsets)))
        if self.external_mutation_hook is not None:
            self.external_mutation_hook()

    def add_soft_error(self, line_id: int, offsets) -> None:
        """XOR transient bit flips into the line's error vector."""
        self._store_row(
            line_id, self._row_from_offsets(offsets, self._rows[line_id])
        )
        if self.external_mutation_hook is not None:
            self.external_mutation_hook()

    def clear(self, line_id: int) -> None:
        """Forget the line's error state (invalidation)."""
        self._clear_row(line_id)

    def clear_all(self) -> None:
        self._rows[:] = [0] * len(self._rows)
        self._signal_cache.clear()

    # -- signal computation -------------------------------------------------

    def error_positions(self, line_id: int) -> frozenset:
        """The current effective error vector (LV offsets)."""
        return frozenset(_offsets_of(self._rows[line_id]))

    def signals(self, line_id: int, n_segments: int, use_ecc: bool) -> Signals:
        """Controller-visible signals for a read of ``line_id``.

        ``n_segments`` selects the parity configuration in use (16
        during training, 4 afterwards); ``use_ecc`` is False for DFH
        b'00 lines whose ECC-cache entry has been freed.
        """
        row = self._rows[line_id]
        if not row:
            return _CLEAN
        per_line = self._signal_cache.setdefault(line_id, {})
        key = (n_segments, use_ecc)
        cached = per_line.get(key)
        if cached is not None:
            return cached
        signals = Signals(*self.kernel.signals_row(row, n_segments, use_ecc))
        per_line[key] = signals
        return signals

    def has_observable_faults(self, line_id: int) -> bool:
        """Would the inverted-write read pair observe any fault?

        Cheap form of ``observable_fault_positions(line_id) != set()``:
        true when the effective vector is non-empty or the line has
        active (possibly masked) faults.
        """
        if self._rows[line_id]:
            return True
        if not self.fault_map.has_faults(line_id):
            return False
        return len(self._active_positions(line_id)) > 0

    def observable_fault_positions(self, line_id: int) -> set:
        """All positions the inverted-write flow observes.

        Reading both the original and the inverted image exposes every
        active fault (a stuck cell disagrees with exactly one
        polarity) in addition to whatever soft errors are present.
        """
        return set(_offsets_of(self._rows[line_id] | self._active_mask(line_id)))

    def observable_signals(self, line_id: int, n_segments: int) -> Signals:
        """Signals of the inverted-write observation (row fast path).

        Equivalent to ``signals_for_positions(
        observable_fault_positions(line_id), n_segments, use_ecc=True)``
        but folded from one row: the effective row OR-ed with the
        line's active-fault mask.  Memoised like :meth:`signals` (the
        active mask only changes with the voltage, which resets the
        whole model).
        """
        per_line = self._signal_cache.setdefault(line_id, {})
        key = (n_segments, "observable")
        cached = per_line.get(key)
        if cached is not None:
            return cached
        row = self._rows[line_id] | self._active_mask(line_id)
        if not row:
            signals = _CLEAN
        else:
            signals = Signals(*self.kernel.signals_row(row, n_segments, True))
        per_line[key] = signals
        return signals

    def signals_for_positions(
        self, effective, n_segments: int, use_ecc: bool
    ) -> Signals:
        """Signals produced by an explicit error vector.

        This is the scalar reference implementation — it walks the
        sparse offset set one position at a time.  The row path
        (:meth:`signals`, :meth:`observable_signals`) is pinned
        bit-identical to it by the equivalence tests.
        """
        if not effective:
            return _CLEAN
        layout = self.layout

        # Segmented parity: a segment mismatches iff an odd number of
        # its bits (data members + its own parity bit) flipped.
        segment_flips = {}
        data_errors = 0
        codeword_flips = []
        segment_width = layout.data_bits // n_segments
        for offset in effective:
            if layout.is_data(offset):
                if self.interleaved_parity:
                    segment = offset % n_segments
                else:
                    segment = offset // segment_width
                segment_flips[segment] = segment_flips.get(segment, 0) + 1
                data_errors += 1
                codeword_flips.append(offset)
            elif layout.is_parity(offset):
                index = layout.parity_index(offset)
                if index < n_segments:
                    segment_flips[index] = segment_flips.get(index, 0) + 1
            else:  # checkbit region
                if use_ecc:
                    codeword_flips.append(layout.codeword_position(offset))
        sp_mismatches = sum(1 for count in segment_flips.values() if count & 1)

        if not use_ecc:
            return Signals(sp_mismatches, True, True, data_errors)
        syndrome = self._secded.syndrome_of_error_positions(codeword_flips)
        global_parity_ok = (len(codeword_flips) & 1) == 0
        return Signals(sp_mismatches, syndrome == 0, global_parity_ok, data_errors)

    def correction_is_sound(self, line_id: int, correct_t: int = 1) -> bool:
        """Would a ``correct_t``-error-correcting decode (SECDED: 1)
        restore the true data?

        True iff the codeword error vector has weight at most
        ``correct_t`` (the decoder then flips precisely those bits).
        When the controller issues CORRECT_AND_SEND on a heavier vector
        the result is a silent data corruption, which the harness
        counts.
        """
        return self.row_correction_is_sound(self._rows[line_id], correct_t)

    def row_correction_is_sound(self, row: int, correct_t: int = 1) -> bool:
        """:meth:`correction_is_sound` for an explicit row."""
        kernel = self.kernel
        if (row & kernel.codeword_row_mask).bit_count() <= correct_t:
            return True
        # Heavier vectors: sound only if no *data* bit is wrong after
        # the decoder's (mis)correction; conservatively require that
        # no data bits are flipped at all.
        return not row & kernel.data_row_mask

    def has_data_errors(self, line_id: int) -> bool:
        """Ground truth: does the line currently return corrupt data bits?"""
        return self.row_has_data_errors(self._rows[line_id])

    def row_has_data_errors(self, row: int) -> bool:
        """:meth:`has_data_errors` for an explicit row."""
        return (row & self.kernel.data_row_mask) != 0
