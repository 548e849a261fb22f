"""Killi with stronger ECC in the ECC cache (paper Sections 5.2 / 5.5).

The paper's Vmin-lowering option: keep Killi's structure — 16-bit
parity during training, 4-bit parity afterwards, on-demand checkbits
in the ECC cache — but store a stronger code (DECTED, or OLSC for the
Table 7 study) in the entry, enabling lines with up to ``t`` faults
instead of one.  DECTED is free (its 21 checkbits fit in the 23-bit
field the 12 freed parity bits leave behind); OLSC costs area per
Table 7 but buys MS-ECC-class capacity at 0.600/0.575xVDD with a
fraction of MS-ECC's storage.

Classification generalises naturally: DFH b'10 now means "1..t
faults, protected by the strong code"; lines with more than ``t``
faults are disabled.  The rule is stated once, as
:func:`repro.core.dfh.classify_strong` and its enumeration
:data:`~repro.core.dfh.STRONG_TABLE`; :class:`KilliScheme`'s hooks and
the batched cluster interpreter look it up from the line's observable
codeword error count (the strong code's syndrome machinery can count
errors up to its detection budget; the codes themselves are
implemented bit-for-bit in :mod:`repro.ecc` and their budgets are
enforced there).  This class only configures the code.
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.core.config import KilliConfig
from repro.core.dfh import EVENT_READ, EVENT_TRAIN, STRONG_TABLE
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
        self.strong_table = STRONG_TABLE
        # Row masks: the codeword the strong code counts (data +
        # checkbits), and per event the parity bits it checks — all of
        # them on a read hit, the training configuration's otherwise.
        layout = self.layout
        self._codeword_mask = self.errors.kernel.codeword_row_mask
        self._parity_masks = {
            event: ((1 << min(n_bits, layout.max_parity_bits)) - 1)
            << layout.parity_offset
            for event, n_bits in (
                (EVENT_READ, layout.max_parity_bits),
                (EVENT_TRAIN, self.config.training_segments),
            )
        }
