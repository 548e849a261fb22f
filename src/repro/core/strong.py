"""Killi with stronger ECC in the ECC cache (paper Sections 5.2 / 5.5).

The paper's Vmin-lowering option: keep Killi's structure — 16-bit
parity during training, 4-bit parity afterwards, on-demand checkbits
in the ECC cache — but store a stronger code (DECTED, or OLSC for the
Table 7 study) in the entry, enabling lines with up to ``t`` faults
instead of one.  DECTED is free (its 21 checkbits fit in the 23-bit
field the 12 freed parity bits leave behind); OLSC costs area per
Table 7 but buys MS-ECC-class capacity at 0.600/0.575xVDD with a
fraction of MS-ECC's storage.

Classification semantics generalise naturally: DFH b'10 now means
"1..t faults, protected by the strong code"; lines with more than
``t`` faults are disabled.  The implementation classifies from the
line's observable codeword error count (the strong code's syndrome
machinery can count errors up to its detection budget; the codes
themselves are implemented bit-for-bit in :mod:`repro.ecc` and their
budgets are enforced there).
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.ecc.registry import correction_capability
from repro.faults.fault_map import FaultMap

__all__ = ["KilliStrongScheme"]


class KilliStrongScheme(KilliScheme):
    """Killi whose ECC cache stores a ``t``-error-correcting code.

    Parameters
    ----------
    code:
        Registry name of the ECC-cache code ("dected", "tecqed",
        "6ec7ed", "olsc-t11", ...).  Sets the per-line fault budget.
    (remaining parameters as :class:`KilliScheme`)
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        config: KilliConfig | None = None,
        rng: np.random.Generator | None = None,
        code: str = "dected",
        soft_injector=None,
    ):
        super().__init__(geometry, fault_map, voltage, config, rng, soft_injector)
        self.code = code
        self.correct_t = correction_capability(code)
        self._codeword_mask = self.errors.kernel.codeword_row_mask
        # Per segment count: the row mask of the parity bits in use.
        layout = self.layout
        self._parity_masks = {
            n_segments: ((1 << min(n_segments, layout.max_parity_bits)) - 1)
            << layout.parity_offset
            for n_segments in (
                self.config.training_segments,
                self.config.stable_segments,
            )
        }

    # -- classification ----------------------------------------------------

    def _codeword_error_count(self, line_id: int) -> int:
        """Errors the strong code sees (data + checkbit regions)."""
        return (self.errors.row(line_id) & self._codeword_mask).bit_count()

    def _parity_only_mismatch(self, line_id: int, n_segments: int) -> bool:
        """Any parity-bit-only error visible at this configuration?"""
        return (self.errors.row(line_id) & self._parity_masks[n_segments]) != 0

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        line_id = self._line_id(set_index, way)
        if self.soft_injector is not None:
            offsets = self.soft_injector.sample_event(self.layout.total_bits)
            if offsets is not None:
                self.errors.add_soft_error(line_id, offsets)
        dfh = self._dfh(line_id)

        if dfh is Dfh.STABLE_0:
            # Parity-only protection.  Unlike base Killi (which
            # disables on a multi-segment mismatch, Table 2 row 3), a
            # strong-code variant re-enters training on *any* detected
            # error: the stronger code may well still protect the line
            # (e.g. 2 faults under DECTED), so permanent disabling
            # would throw capacity away.
            if not self.errors.is_dirty(line_id):
                self.hits_served += 1
                return AccessOutcome.CLEAN
            signals = self.errors.signals(
                line_id, self.config.stable_segments, use_ecc=False
            )
            if signals.sp_mismatches == 0:
                if self.errors.has_data_errors(line_id):
                    self.sdc_events += 1
                self.hits_served += 1
                return AccessOutcome.CLEAN
            self._set_dfh(line_id, dfh, Dfh.INITIAL)
            self.errors.clear(line_id)
            return AccessOutcome.RETRAIN_MISS

        if not self.errors.is_dirty(line_id):
            if dfh in (Dfh.INITIAL, Dfh.STABLE_1):
                self._set_dfh(line_id, dfh, Dfh.STABLE_0)
                self.ecc.remove(set_index, way)
            self.hits_served += 1
            return AccessOutcome.CLEAN

        count = self._codeword_error_count(line_id)
        if count == 0:
            # Only parity bits are wrong: treat as the stuck-parity
            # case — keep strong protection.
            self._set_dfh(line_id, dfh, Dfh.STABLE_1)
            self.hits_served += 1
            if self.ecc.contains(set_index, way):
                self.ecc.touch(set_index, way)
            return AccessOutcome.CLEAN
        if count <= self.correct_t:
            self._set_dfh(line_id, dfh, Dfh.STABLE_1)
            self.hits_served += 1
            if self.ecc.contains(set_index, way):
                self.ecc.touch(set_index, way)
            if self.cache is not None:
                self.cache.stats.bump("ecc_corrections")
            return AccessOutcome.CORRECTED
        # Beyond the budget: disable.
        self._set_dfh(line_id, dfh, Dfh.DISABLED)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)
        return AccessOutcome.DISABLE_MISS

    def on_evict(self, set_index: int, way: int) -> None:
        line_id = self._line_id(set_index, way)
        dfh = self._dfh(line_id)
        if dfh is Dfh.INITIAL and self.config.train_on_evict:
            count = self._codeword_error_count(line_id)
            if count == 0 and not self._parity_only_mismatch(
                line_id, self.config.training_segments
            ):
                self._set_dfh(line_id, dfh, Dfh.STABLE_0)
            elif count <= self.correct_t:
                self._set_dfh(line_id, dfh, Dfh.STABLE_1)
            else:
                self._set_dfh(line_id, dfh, Dfh.DISABLED)
                self.cache.tags.disable(set_index, way)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        line_id = self._line_id(set_index, way)
        dfh = self._dfh(line_id)
        if dfh not in (Dfh.INITIAL, Dfh.STABLE_1):
            raise AssertionError("ECC entry existed for an unprotected line")
        count = self._codeword_error_count(line_id)
        if count == 0 and not self._parity_only_mismatch(
            line_id, self.config.training_segments
        ):
            self._set_dfh(line_id, dfh, Dfh.STABLE_0)
            self.cache.stats.bump("ecc_evict_reclassified_clean")
            return
        if count > self.correct_t:
            self._set_dfh(line_id, dfh, Dfh.DISABLED)
            self.cache.tags.disable(set_index, way)
            self.cache.lru.demote(set_index, way)
            self.cache.stats.bump("ecc_evict_disables")
            self.errors.clear(line_id)
            return
        self._set_dfh(line_id, dfh, Dfh.STABLE_1)
        self.cache.invalidate_line(set_index, way, reason="ecc_evict")
