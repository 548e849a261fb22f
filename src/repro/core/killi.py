"""Killi protection scheme (paper Section 4).

Glues together the DFH state machine (Table 2), the per-line error
model, and the ECC cache into a :class:`repro.cache.ProtectionScheme`
that the write-through L2 drives.  Responsibilities:

- **Fill** — resample unmasked faults for the new contents; lines in
  DFH b'01 / b'10 allocate an ECC-cache entry, possibly evicting (and
  thereby invalidating) another L2 line's entry — the contention
  mechanism behind Figure 4/5's sensitivity to ECC-cache size.
- **Read hit** — derive the (segmented parity, syndrome, global
  parity) signals, classify per Table 2 (or per the strong-code table,
  :func:`repro.core.dfh.classify_strong`), update DFH, and translate
  the action to a cache outcome (clean hit / corrected hit /
  error-induced miss that invalidates or disables the line).
- **Eviction** — optional training: b'01 lines are classified from
  their evicted contents (Section 4.4), so DFH warmup does not require
  a hit.
- **Victim priority** — invalid lines are filled in DFH order
  b'01 > b'00 > b'10 (Section 4.4).
- **Reset** — voltage change / reboot clears all DFH bits back to
  b'01 and flushes the ECC cache (Section 2.4: Killi relearns the
  fault population of the new voltage).
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import (
    BEHAVIOURAL_HOOKS,
    AccessOutcome,
    ProtectionScheme,
    hooks_unchanged,
)
from repro.core.config import KilliConfig
from repro.core.dfh import (
    EVENT_READ,
    EVENT_TRAIN,
    FILL_PRIORITY,
    Classification,
    Dfh,
    DfhAction,
    classify_cached,
)
from repro.core.ecc_cache import EccCache
from repro.core.layout import LineLayout
from repro.core.linestate import LineErrorModel
from repro.faults.fault_map import FaultMap
from repro.faults.soft_errors import SoftErrorInjector

__all__ = ["KilliScheme"]

# Plain-int DFH values and names for the hot paths (IntEnum lookups
# and constructions are an order of magnitude slower than int compares).
_STABLE_0 = int(Dfh.STABLE_0)
_INITIAL = int(Dfh.INITIAL)
_STABLE_1 = int(Dfh.STABLE_1)
_DISABLED = int(Dfh.DISABLED)
_NAMES = tuple(Dfh(v).name for v in range(4))

#: Table 2 under clean signals, per accessible DFH value: what a
#: fast-clean line classifies to (b'00, send clean).
_CLEAN_CLS = tuple(classify_cached(v, 0, True, True) for v in range(3))

#: The hooks the cluster interpreter replicates: a subclass overriding
#: any of them is refused the interpreter.
_INTERPRETED_HOOKS = BEHAVIOURAL_HOOKS + ("_handle_ecc_eviction",)


class KilliScheme(ProtectionScheme):
    """The Killi mechanism as a cache protection scheme.

    Parameters
    ----------
    geometry:
        Geometry of the protected L2.
    fault_map:
        Persistent LV fault map covering ``geometry.n_lines`` lines of
        :class:`~repro.core.layout.LineLayout` width.
    voltage:
        Normalized LV operating point of the data array.
    config:
        Killi knobs (ECC-cache ratio, segments, policy switches).
    rng:
        Stream for fault-masking coin flips.
    soft_injector:
        Optional transient-error injector exercised on read hits.

    Classification follows Table 2 from the SECDED signals.  A
    strong-code subclass (:class:`repro.core.strong.KilliStrongScheme`)
    sets ``correct_t``, the row masks and ``strong_table`` instead;
    every hook then looks its classification up in that table
    (:func:`repro.core.dfh.classify_strong`).
    """

    #: Errors the ECC-cache code corrects soundly (SECDED: one).
    correct_t = 1
    #: :data:`repro.core.dfh.STRONG_TABLE` for a strong code, else None.
    strong_table = None

    def __init__(
        self,
        geometry: CacheGeometry,
        fault_map: FaultMap,
        voltage: float,
        config: KilliConfig | None = None,
        rng: np.random.Generator | None = None,
        soft_injector: SoftErrorInjector | None = None,
    ):
        super().__init__()
        self.geometry = geometry
        self.config = config if config is not None else KilliConfig()
        self.voltage = voltage
        self.layout = LineLayout(data_bits=geometry.line_bits)
        self.errors = LineErrorModel(
            fault_map,
            voltage,
            rng if rng is not None else np.random.default_rng(0),
            layout=self.layout,
            lv_faults_in_ecc_cache=self.config.lv_faults_in_ecc_cache,
            interleaved_parity=self.config.interleaved_parity,
        )
        self.ecc = EccCache(
            self.config.ecc_entries(geometry.n_lines),
            self.config.ecc_assoc,
            l2_shape=(geometry.n_sets, geometry.associativity),
        )
        self.soft_injector = soft_injector
        self._assoc = geometry.associativity
        # DFH states live in a flat int8 array so vectorized consumers
        # (histograms, the batched classification kernel) can read them
        # wholesale.  Scalar probes/writes — every access path — go
        # through a memoryview over the same buffer: plain-int results
        # at list-indexing speed, where numpy scalar access is
        # severalfold slower.  Entries are always plain ints (0..3).
        self._dfh_np = np.full(geometry.n_lines, _INITIAL, dtype=np.int8)
        self.dfh = memoryview(self._dfh_np)
        # Per-set count of lines in a state other than INITIAL,
        # maintained by _set_dfh: 0 means every way still carries the
        # same fill priority (an O(1) uniformity probe).
        self._off_initial_np = np.zeros(geometry.n_sets, dtype=np.int32)
        self._off_initial_in_set = memoryview(self._off_initial_np)
        # Transition counters as a dense 4x4 (old, new) array; the
        # dict-of-name-tuples shape tests and the harness consume is a
        # property view built on demand.
        self._transitions_np = np.zeros((4, 4), dtype=np.int64)
        self._transitions_mv = memoryview(self._transitions_np)
        self.sdc_events = 0
        self.hits_served = 0
        self._interp = None

    def attach(self, cache) -> None:
        super().attach(cache)
        # External error injections (tests, campaigns) must invalidate
        # the cache's memoized hit outcomes.
        self.errors.external_mutation_hook = cache.bump_epoch

    # -- internals ---------------------------------------------------------

    def _line_id(self, set_index: int, way: int) -> int:
        return set_index * self._assoc + way

    def _dfh(self, line_id: int) -> Dfh:
        return Dfh(int(self.dfh[line_id]))

    def _fast_clean(self, line_id: int, dfh: int) -> bool:
        """May classification trivially conclude "no errors"?

        False when the error vector is non-empty, or when inverted
        write training is on and the line has real (possibly masked)
        faults that the inverted read pair would expose.  ``dfh``
        compares as an int (plain value or IntEnum both work).
        """
        if self.errors.is_dirty(line_id):
            return False
        if (
            dfh == _INITIAL
            and self.config.inverted_write_training
            and self.errors.fault_map.has_faults(line_id)
        ):
            return not self.errors.has_observable_faults(line_id)
        return True

    def _signals(self, line_id: int, dfh: int):
        if dfh == _INITIAL:
            if self.config.inverted_write_training:
                # Section 5.6.2: the original+inverted read pair
                # observes every active fault, masked or not.
                return self.errors.observable_signals(
                    line_id, self.config.training_segments
                )
            return self.errors.signals(
                line_id, self.config.training_segments, use_ecc=True
            )
        if dfh == _STABLE_1:
            return self.errors.signals(
                line_id, self.config.stable_segments, use_ecc=True
            )
        return self.errors.signals(
            line_id, self.config.stable_segments, use_ecc=False
        )

    def _classify(self, line_id: int, value: int, event: int) -> Classification:
        """Classify the line's contents under DFH ``value``.

        Table 2 from the SECDED signals (a fast-clean line skips the
        signal derivation), or the strong-code table from the line's
        error row.  ``event`` (``EVENT_READ`` / ``EVENT_TRAIN``) only
        matters to the strong code.
        """
        if self.strong_table is not None:
            row = self.errors.row(line_id)
            return self.strong_classification(event, value, row)
        if self._fast_clean(line_id, value):
            return _CLEAN_CLS[value]
        signals = self._signals(line_id, value)
        return classify_cached(
            value,
            signals.sp_mismatches,
            signals.syndrome_zero,
            signals.global_parity_ok,
        )

    def strong_classification(
        self, event: int, value: int, row: int
    ) -> Classification:
        """The strong-code table's cell for error ``row`` under DFH
        ``value`` (pure in the row, so the cluster interpreter looks its
        shadow rows up here too).

        A b'00 read hit buckets the 4-bit segmented-parity mismatches;
        every other cell buckets the codeword errors against
        ``correct_t`` and checks the event's parity bits.
        """
        if value == _STABLE_0:
            stable = self.config.stable_segments
            sp = self.errors.kernel.signals_row(row, stable, False)[0] if row else 0
            return self.strong_table[event][value][min(sp, 2)][False]
        count = (row & self._codeword_mask).bit_count()
        bucket = 0 if not count else 1 if count <= self.correct_t else 2
        return self.strong_table[event][value][bucket][
            (row & self._parity_masks[event]) != 0
        ]

    def _set_dfh(self, line_id: int, old: int, new: int) -> None:
        # old/new compare and index as ints (IntEnum callers included).
        if old == new:
            return
        old = int(old)
        new = int(new)
        self.dfh[line_id] = new
        set_index = line_id // self._assoc
        if old == _INITIAL:
            self._off_initial_in_set[set_index] += 1
        elif new == _INITIAL:
            self._off_initial_in_set[set_index] -= 1
        self._transitions_mv[old, new] += 1
        if self.cache is not None:
            # A DFH transition changes this line's classification
            # behaviour: invalidate the memoized hits of its own set.
            # Memoized outcomes elsewhere in the L2 are untouched by a
            # single line retraining, so they stay valid.
            self.cache.bump_set_epoch(set_index)

    def _apply_classification(
        self, set_index: int, way: int, line_id: int, old: int, cls: Classification
    ) -> AccessOutcome:
        """Commit a read-hit classification and map it to a cache outcome."""
        self._set_dfh(line_id, old, cls.next_dfh)
        if cls.free_ecc_entry:
            self.ecc.remove(set_index, way)

        if cls.action is DfhAction.ERROR_MISS:
            # The cache will invalidate or disable the line; drop our
            # per-content state now (the tag store won't call back).
            self.ecc.remove(set_index, way)
            self.errors.clear(line_id)
            if cls.next_dfh is Dfh.DISABLED:
                return AccessOutcome.DISABLE_MISS
            return AccessOutcome.RETRAIN_MISS

        self.hits_served += 1
        if cls.action is DfhAction.CORRECT_AND_SEND:
            if not self.errors.correction_is_sound(line_id, self.correct_t):
                self.sdc_events += 1
            if self.cache is not None:
                self.cache.stats.bump("ecc_corrections")
            # The line still needs its checkbits: promote the entry.
            if self.ecc.contains(set_index, way):
                self.ecc.touch(set_index, way)
            return AccessOutcome.CORRECTED

        # SEND_CLEAN: ground-truth corrupt data slipping through is an SDC
        # (e.g. masked multi-bit faults that unmask in the same segment).
        if self.errors.has_data_errors(line_id):
            self.sdc_events += 1
        if cls.next_dfh in (Dfh.INITIAL, Dfh.STABLE_1) and self.ecc.contains(
            set_index, way
        ):
            self.ecc.touch(set_index, way)
        return AccessOutcome.CLEAN

    # -- ProtectionScheme hooks ---------------------------------------------

    def on_fill(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        value = self.dfh[line_id]
        if value == _DISABLED:
            raise AssertionError("fill into a disabled line")
        tag = self.cache.tags.tag_at(set_index, way)
        self.errors.on_fill(line_id, salt=tag)
        if value == _INITIAL or value == _STABLE_1:
            evicted = self.ecc.insert(set_index, way)
            if evicted is not None:
                self._handle_ecc_eviction(*evicted)

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        """An L2 line just lost its ECC-cache entry to contention.

        The departing entry still holds the line's checkbits, so the
        controller classifies the line on the way out (the same
        hardware path as eviction training).  Lines found fault-free
        transition to b'00 and stay resident — this is the paper's
        "as cache lines are accessed or evicted, Killi discovers lines
        with no errors ... reducing the number of cache misses due to
        ECC cache evictions".  Lines that still need checkbits cannot
        remain protected and are invalidated; lines with multi-bit
        errors are disabled.
        """
        line_id = self._line_id(set_index, way)
        value = int(self.dfh[line_id])
        if value == _STABLE_0:
            # Only the write-back variant protects b'00 (dirty) lines.
            # Losing the checkbits leaves the dirty data parity-only;
            # write it back now (invalidate_line handles the
            # write-back) so a later fault cannot lose it.
            if self.errors.has_data_errors(line_id):
                self.sdc_events += 1  # corrupt dirty data written back
            self.cache.invalidate_line(set_index, way, reason="ecc_evict")
            return
        if value not in (_INITIAL, _STABLE_1):
            raise AssertionError("ECC entry existed for an unprotected line")
        nxt = self._classify(line_id, value, EVENT_TRAIN).next_dfh
        self._set_dfh(line_id, value, nxt)
        if nxt is Dfh.STABLE_0:
            # Fault-free: 4-bit parity suffices; the line stays valid.
            self.cache.stats.bump("ecc_evict_reclassified_clean")
            return
        if nxt is Dfh.DISABLED:
            self.cache.tags.disable(set_index, way)
            self.cache.lru.demote(set_index, way)
            self.cache.stats.bump("ecc_evict_disables")
            self.errors.clear(line_id)
            return
        # Still needs its checkbits (b'01 unresolved or b'10): unprotected
        # data cannot stay resident.
        self.cache.invalidate_line(set_index, way, reason="ecc_evict")

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        line_id = set_index * self._assoc + way
        value = self.dfh[line_id]
        if self.soft_injector is not None:
            offsets = self.soft_injector.sample_event(self.layout.total_bits)
            if offsets is not None:
                self.errors.add_soft_error(line_id, offsets)
        elif self._fast_clean(line_id, value):
            # Fast path for lines whose classification is trivially
            # clean — by far the most common case.  Clean contents
            # classify b'00 as-is and b'01 / b'10 back to b'00
            # (freeing the ECC entry), exactly what the full path
            # would do.
            if value != _STABLE_0:
                self._set_dfh(line_id, value, _STABLE_0)
                self.ecc.remove(set_index, way)
            self.hits_served += 1
            return AccessOutcome.CLEAN
        cls = self._classify(line_id, value, EVENT_READ)
        return self._apply_classification(set_index, way, line_id, value, cls)

    def hit_replay_info(self, set_index: int, way: int):
        """Memoize steady-state b'00 hits (the common case after warmup).

        A STABLE_0 line has no ECC entry and classifies with 4-bit
        parity only; with no soft-error injector its signals — and thus
        the outcome (always CLEAN here, else we would not be asked) and
        the stat deltas — are fixed until the line's contents change
        (fill / write hit, which clear the stamp) or a DFH transition
        bumps the epoch.  Other DFH states touch the ECC cache on hits
        and must take the full path.
        """
        if self.soft_injector is not None:
            return None
        line_id = self._line_id(set_index, way)
        if int(self.dfh[line_id]) != _STABLE_0:
            return None
        # Replays of the SEND_CLEAN path: masked corrupt data slipping
        # through is an SDC on every hit (matches _apply_classification).
        sdc = (
            1
            if self.errors.is_dirty(line_id)
            and self.errors.has_data_errors(line_id)
            else 0
        )
        return (False, 1, sdc)

    def apply_replay(self, info) -> None:
        self.hits_served += info[1]
        self.sdc_events += info[2]

    def apply_replay_bulk(self, info, count: int) -> None:
        self.hits_served += info[1] * count
        self.sdc_events += info[2] * count

    def batch_interpreter(self, cache):
        """Cluster-exact shadow interpreter for the batched engine.

        The interpreter
        (:class:`repro.core.killi_replay.KilliClusterInterpreter`)
        handles *every* set — DFH warmup, classification and ECC-cache
        contention included, under Table 2 or the strong-code table —
        pausing at shared-RNG write hits until the engine resumes it at
        their turn in the global order.  Gated to classes that inherit
        every hook the interpreter replicates from this one (a subclass
        may change their semantics) and to runs without a soft-error
        injector (whose per-hit sampling draws shared RNG).
        """
        if not hooks_unchanged(
            type(self),
            _INTERPRETED_HOOKS,
            owners=dict.fromkeys(_INTERPRETED_HOOKS, KilliScheme),
        ):
            return None
        if self.soft_injector is not None:
            return None
        if cache is not self.cache:
            return None
        if self._interp is None:
            from repro.core.killi_replay import KilliClusterInterpreter

            self._interp = KilliClusterInterpreter(self, cache)
        self._interp.begin_kernel()
        return self._interp

    def on_write_hit(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        self.errors.on_write_hit(line_id)
        if self.ecc.contains(set_index, way):
            # New checkbits were generated and stored: promote.
            self.ecc.touch(set_index, way)

    def on_evict(self, set_index: int, way: int) -> None:
        line_id = set_index * self._assoc + way
        value = self.dfh[line_id]
        if value == _INITIAL and self.config.train_on_evict:
            # Section 4.4: classify the evicted contents so training
            # progresses without waiting for a hit.
            nxt = self._classify(line_id, value, EVENT_TRAIN).next_dfh
            self._set_dfh(line_id, value, nxt)
            if nxt is Dfh.DISABLED:
                self.cache.tags.disable(set_index, way)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)

    def on_invalidated(self, set_index: int, way: int) -> None:
        line_id = self._line_id(set_index, way)
        self.ecc.remove(set_index, way)
        self.errors.clear(line_id)

    def fill_priority(self, set_index: int, way: int) -> int:
        if not self.config.priority_replacement:
            return 0
        line_id = set_index * self.geometry.associativity + way
        return FILL_PRIORITY[int(self.dfh[line_id])]

    def fill_priorities(self, set_index: int, ways) -> list:
        if not self.config.priority_replacement:
            return [0] * len(ways)
        base = set_index * self._assoc
        dfh = self.dfh[base : base + self._assoc]
        return [FILL_PRIORITY[dfh[way]] for way in ways]

    def fill_priority_is_uniform(self, set_index: int) -> bool:
        if not self.config.priority_replacement:
            return True
        return self._off_initial_in_set[set_index] == 0

    def on_reset(self) -> None:
        self._dfh_np[:] = _INITIAL
        self._off_initial_np[:] = 0
        self.ecc.clear()
        self.errors.clear_all()

    def change_voltage(self, voltage: float) -> None:
        """Move the LV array to a new operating point (paper Sec 2.4).

        Flushes the cache, resets every DFH bit to b'01 and relearns
        the (different) fault population of the new voltage — Killi's
        replacement for re-running MBIST.  Previously disabled lines
        become available again (faults are monotonic, so raising the
        voltage can only shrink the fault population).
        """
        if voltage < self.errors.fault_map.floor_voltage:
            raise ValueError(
                f"voltage {voltage} below the fault map floor "
                f"{self.errors.fault_map.floor_voltage}"
            )
        self.voltage = voltage
        self.errors.voltage = voltage
        self.cache.reset()  # invalidates, re-enables, calls on_reset

    # -- diagnostics ----------------------------------------------------------

    @property
    def transitions(self) -> dict:
        """DFH transition counts as ``{(old_name, new_name): count}``.

        A dict view over the dense 4x4 counter array; only transitions
        that occurred appear as keys (matching the historical
        dict-of-tuples accounting).
        """
        t = self._transitions_np
        return {
            (_NAMES[old], _NAMES[new]): int(t[old, new])
            for old in range(4)
            for new in range(4)
            if t[old, new]
        }

    def dfh_histogram(self) -> dict:
        """Count of lines per DFH state."""
        counts = np.bincount(self._dfh_np, minlength=4)
        return {Dfh(v).name: int(c) for v, c in enumerate(counts) if c}

    def disabled_fraction(self) -> float:
        """Fraction of all lines currently in DFH b'11."""
        n = len(self._dfh_np)
        return int(np.count_nonzero(self._dfh_np == _DISABLED)) / n
