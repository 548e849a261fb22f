"""Cluster-exact batched replay interpreter for Killi.

The batched engine's probe path (:func:`repro.cache.soa.replay_clean_set`)
only batches *scheme-inert* sets; for Killi at low voltage that leaves
the busiest part of the kernel — DFH warmup, ECC-cache contention,
faulted-line classification — on the per-access Python path.  This
module batches the *general* case instead: a shadow interpreter that
simulates an arbitrary access subsequence with full Killi semantics
(Table 2 classification, ECC-cache contention, eviction training,
victim priorities) against copy-on-write state, then commits the net
effect to the real cache/scheme structures in bulk.

Why clusters
------------
ECC-cache contention couples L2 sets: an insert into ECC set ``c`` can
evict — and thereby invalidate or disable — a line of any L2 set with
``l2_set % ecc.n_sets == c``.  That is the *only* cross-set coupling in
the scheme, so the L2-bound stream partitions exactly into independent
*clusters* (one per ECC set), each of which can be interpreted as a
unit in its original access order.

Why commits are exact
---------------------
Every event in the model is deterministic except one: a write hit on a
slot with active LV faults re-rolls fault masking with the *shared*
RNG stream (:meth:`~repro.core.linestate.LineErrorModel.on_write_hit`).
The interpreter therefore simulates with pure predictions only — fills
use the deterministic masking coins
(:meth:`~repro.core.linestate.LineErrorModel.predicted_fill_row`) —
and *aborts* when it reaches a shared-RNG write hit, before touching
anything for that access.  Because the simulated prefix is exact, it
is committed rather than discarded; the engine then runs the aborting
access through the real per-access path (consuming the RNG draw at the
correct point of the global order — see the abort min-heap in
:meth:`~repro.gpu.engine.GpuSimulator._run_batched`) and resumes the
cluster right after it.

Commit equivalences (vs the per-access reference path)
------------------------------------------------------
- *LRU*: touched ways are replayed through ``lru.touch`` in final
  recency order — same convention as ``apply_set_replays``; absolute
  clock values differ but the per-set age *order*, which is all the
  replacement policy reads, is identical.  ``demote`` calls are
  skipped: a demoted way is invalid, and ages of invalid ways are
  never consulted until a refill touches them.
- *Hit memo*: instead of replaying per-set epoch bumps, every
  materialized set's hit stamps are cleared.  Re-memoization on the
  next hit reproduces the memoized replay bit-exactly (hit outcomes
  are deterministic), so this only costs one extra dispatch per line.
- *Error rows*: per-slot fill/overwrite effects collapse to the last
  event per slot; the commit replays it through the real
  ``on_fill``/``clear``, reproducing exactly the row the per-access
  sequence would have left (fills are salt-keyed and idempotent).
  Slots whose events are no-ops (no active faults, clean row) are not
  tracked at all.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.cache.soa import export_set_state
from repro.core.dfh import Dfh, DfhAction, classify_cached
from repro.core.linestate import Signals
from repro.testing.invariants import (
    InvariantError,
    check_set_invariants,
    invariants_enabled,
)

__all__ = ["KilliClusterInterpreter"]

_S0 = int(Dfh.STABLE_0)
_INI = int(Dfh.INITIAL)
_S1 = int(Dfh.STABLE_1)
_DIS = int(Dfh.DISABLED)

#: fill priority per DFH value (must match KilliScheme._PRIORITY).
#: INITIAL's priority (2) is the global maximum, so victim scans may
#: stop at the first INITIAL way: first-max tie-breaking cannot prefer
#: a later way once the maximum has been seen.
_PRIORITY = (1, 2, 0, 0)
_PRIO_MAX = 2

_CLEAN_SIG = Signals(0, True, True)

#: Marker distinguishing "memoized as empty" from "not memoized".
_EMPTY = object()


class _SetShadow:
    """Copy-on-write replay state of one L2 set."""

    __slots__ = (
        "resident",
        "way_lines",
        "orig",
        "free",
        "disabled",
        "new_disabled",
        "touched",
        "dfh",
        "off_d",
        "uns_d",
        "dis_d",
        "triv",
        "quiet",
    )


class KilliClusterInterpreter:
    """Shadow interpreter over one ECC-contention cluster at a time.

    Created once per (scheme, cache) pair via
    :meth:`~repro.core.killi.KilliScheme.batch_interpreter`; the engine
    calls :meth:`run` per cluster (and per resume after an abort).
    Each ``run`` is one transaction: simulate from ``start``, commit
    the exact net effect, and return either None (subsequence fully
    consumed) or the offset of the first access that needs the real
    per-access path (a shared-RNG write hit).
    """

    def __init__(self, scheme, cache):
        self._scheme = scheme
        self._cache = cache
        self._errors = scheme.errors
        self._fault_map = scheme.errors.fault_map
        self._ecc = scheme.ecc
        self.ecc_n_sets = scheme.ecc.n_sets
        self._ecc_assoc = scheme.ecc.assoc
        geometry = cache.geometry
        self._assoc = geometry.associativity
        self._n_sets = geometry.n_sets
        self._line_bytes = geometry.line_bytes
        self._dfh_mv = scheme.dfh
        config = scheme.config
        self._iwt = config.inverted_write_training
        self._train_on_evict = config.train_on_evict
        self._prio_repl = config.priority_replacement
        self._train_segs = config.training_segments
        self._stable_segs = config.stable_segments
        self._lat_hit = cache._lat_hit
        self._lat_hit_corrected = cache._lat_hit_corrected
        self._lat_miss = cache._lat_miss
        self._lat_tag = cache._lat_tag
        # Memos pure in (slot, salt[, segments, use_ecc]) at a fixed
        # voltage: predicted fill rows and their signal signatures.
        self._row_memo: dict = {}
        self._sig_memo: dict = {}
        self._memo_voltage = None
        self._act_off = None
        # Per-slot purity bitmap: pure[slot] == 1 iff the slot is
        # STABLE_0 with an empty real error vector, so a read hit on it
        # is a pure LRU touch (serve clean, no classification, no
        # transition).  Kept in sync across kernels: commits refresh
        # exactly the slots whose DFH or error rows they changed,
        # engine-fallback write hits are re-checked via _stale_slots,
        # and external error injections drop the whole map through the
        # chained mutation hook.  Within a transaction the bitmap is
        # only trusted for slots with no shadow row events.
        self._pure = None
        # cluster -> slot whose RNG-abort write the engine replays
        # through the real per-access path before resuming the cluster.
        # The refresh must wait for that resume: other clusters' _begin
        # calls interleave between the abort and the replay, so a global
        # stale set would be drained while the real row is still clean.
        self._stale_slots: dict = {}
        prev_hook = self._errors.external_mutation_hook

        def _on_external_mutation(*args):
            self._pure = None
            if prev_hook is not None:
                prev_hook(*args)

        self._errors.external_mutation_hook = _on_external_mutation
        # Armed invariants (REPRO_CHECK_INVARIANTS): each transaction
        # snapshots the shared RNG stream position at _begin and
        # asserts at _commit that the simulation window drew nothing
        # (RNG-draw-count conservation between the batched and scalar
        # paths), then re-checks every committed set's structure.
        self._check_invariants = invariants_enabled()
        self._rng_mark = None
        self._cluster = -1
        self._begin(-1)

    # -- lifecycle ---------------------------------------------------------

    def begin_kernel(self) -> None:
        """Revalidate the voltage-keyed memos before a kernel runs."""
        errors = self._errors
        offsets = errors._act_offsets
        if offsets is None:
            offsets = errors._ensure_active()
        if errors.voltage != self._memo_voltage or offsets is not self._act_off:
            self._row_memo.clear()
            self._sig_memo.clear()
            self._memo_voltage = errors.voltage
            self._act_off = offsets
            self._pure = None
        if self._pure is None:
            dirty = np.asarray(errors._weights) != 0
            # A plain list, not a numpy array: the hot loop reads one
            # slot per hit and list indexing is the cheapest form.
            self._pure = (
                ((self._scheme._dfh_np == _S0) & ~dirty)
                .astype(np.uint8)
                .tolist()
            )
            self._stale_slots.clear()

    def _begin(self, cluster: int) -> None:
        slot = self._stale_slots.pop(cluster, None)
        if slot is not None:
            # This cluster's aborted write hit has now been replayed by
            # the engine through the real per-access path (it always is
            # before the cluster resumes); re-derive the slot's purity.
            self._pure[slot] = (
                1
                if self._dfh_mv[slot] == _S0 and not self._errors.is_dirty(slot)
                else 0
            )
        self._cluster = cluster
        self._sets: dict = {}
        self._dfh_over: dict = {}
        self._trans = [0] * 16  # flat (old << 2 | new) transition counts
        self._slot_state: dict = {}
        # Shadow ECC keys as flat slot ints (set * assoc + way): the
        # hot paths already have the slot in hand, so membership tests
        # are int compares with no tuple allocation.
        assoc = self._assoc
        self._ecc_entries: list = (
            [key_set * assoc + key_way for key_set, key_way in self._ecc._sets[cluster]]
            if cluster >= 0
            else []
        )
        self._d_ecc_acc = 0
        self._d_ecc_alloc = 0
        self._d_ecc_evict = 0
        self._d_reads = 0
        self._d_read_hits = 0
        self._d_read_misses = 0
        self._d_writes = 0
        self._d_write_hits = 0
        self._d_write_misses = 0
        self._d_evictions = 0
        self._d_fills = 0
        self._d_bypasses = 0
        self._d_error_misses = 0
        self._d_corrected = 0
        self._d_invalidations = 0
        self._d_ecc_evict_inval = 0
        self._d_mem_reads = 0
        self._d_mem_writes = 0
        self._d_hits_served = 0
        self._d_sdc = 0
        self._d_ecc_corrections = 0
        self._d_reclass_clean = 0
        self._d_evict_disables = 0
        if self._check_invariants and cluster >= 0:
            self._rng_mark = repr(self._errors.rng.bit_generator.state)

    # -- shadow state ------------------------------------------------------

    def _materialize(self, set_index: int) -> _SetShadow:
        tags = self._cache.tags
        way_lines, seed, free_ways = export_set_state(
            tags, self._cache.lru, set_index
        )
        st = _SetShadow()
        st.way_lines = list(way_lines)
        st.orig = list(way_lines)
        st.resident = dict(seed)
        st.free = list(free_ways)
        if tags.disabled_in_set[set_index]:
            st.disabled = {
                way
                for way in range(self._assoc)
                if tags.is_disabled(set_index, way)
            }
        else:
            st.disabled = set()
        st.new_disabled = set()
        st.touched = set()
        # Per-way DFH values as a plain list: the overlay dict never
        # holds a slot before its set materializes (every write goes
        # through _set_dfh, which needs the shadow), so the real array
        # is authoritative here; _set_dfh keeps the copy in sync.
        base = set_index * self._assoc
        st.dfh = self._scheme._dfh_np[base : base + self._assoc].tolist()
        st.off_d = 0
        st.uns_d = 0
        st.dis_d = 0
        st.quiet, st.triv = self._probe_set(set_index)
        self._sets[set_index] = st
        return st

    def _probe_set(self, set_index: int):
        """``(quiet, triv)`` micro-fast-path flags of a set.

        ``quiet``: no slot in the set has active LV faults or a dirty
        real error vector.  Both are fixed for the whole transaction
        (the CSR only changes with voltage, real rows only at commit),
        and a quiet set can never acquire shadow row events — every
        track_fill/track_clear on it is a no-op.

        ``triv``: quiet, and additionally every way is STABLE_0 (or
        DISABLED) with no ECC-cache entry pointing at the set.  Such a
        set replays as pure dict-LRU: accesses have no scheme effect
        beyond ``hits_served``.  Trivality is monotone within a
        transaction (fills stay STABLE_0 and insert nothing); a quiet
        set whose last unstable way reclassifies to STABLE_0 mid-run
        is *upgraded* to triv at that transition (see ``_set_dfh``).
        Shadow ECC state is authoritative — the whole servicing ECC
        set belongs to this cluster.
        """
        base = set_index * self._assoc
        stop = base + self._assoc
        act = self._act_off
        quiet = act[stop] <= act[base] and not self._errors.dirty_in_range(
            base, stop
        )
        if not quiet or self._scheme._unstable_in_set[set_index]:
            return quiet, False
        for key in self._ecc_entries:
            if base <= key < stop:
                return quiet, False
        return quiet, True

    def _dfh_at(self, slot: int) -> int:
        value = self._dfh_over.get(slot)
        return self._dfh_mv[slot] if value is None else value

    def _set_dfh(self, st: _SetShadow, slot: int, old: int, new: int) -> None:
        if old == new:
            return
        # Conservative: any transition drops purity; the commit fixup
        # (and the fast-clean hit path) restore it exactly.
        self._pure[slot] = 0
        self._dfh_over[slot] = new
        st.dfh[slot % self._assoc] = new
        if old == _INI:
            st.off_d += 1
        elif new == _INI:
            st.off_d -= 1
        if (old == _INI or old == _S1) != (new == _INI or new == _S1):
            st.uns_d += 1 if (new == _INI or new == _S1) else -1
        if old == _DIS:
            st.dis_d -= 1
        elif new == _DIS:
            st.dis_d += 1
        self._trans[(old << 2) | new] += 1
        if new == _S0 and st.quiet and not st.triv:
            # A quiet set whose last unstable way just stabilised (and
            # that holds no ECC entry) is pure dict-LRU from here on.
            assoc = self._assoc
            set_index = slot // assoc
            if self._scheme._unstable_in_set[set_index] + st.uns_d == 0:
                base = set_index * assoc
                stop = base + assoc
                for key in self._ecc_entries:
                    if base <= key < stop:
                        break
                else:
                    st.triv = True

    # -- shadow ECC cache --------------------------------------------------

    def _ecc_contains(self, set_index: int, way: int) -> bool:
        return set_index * self._assoc + way in self._ecc_entries

    def _ecc_touch(self, set_index: int, way: int) -> None:
        self._d_ecc_acc += 1
        entries = self._ecc_entries
        key = set_index * self._assoc + way
        entries.remove(key)
        entries.insert(0, key)

    def _ecc_insert(self, set_index: int, way: int):
        """Insert; returns the evicted slot key or None."""
        self._d_ecc_acc += 1
        entries = self._ecc_entries
        key = set_index * self._assoc + way
        if key in entries:
            raise ValueError(f"ECC entry for slot {key} already present")
        self._d_ecc_alloc += 1
        evicted = None
        if len(entries) >= self._ecc_assoc:
            evicted = entries.pop()
            self._d_ecc_evict += 1
        entries.insert(0, key)
        return evicted

    def _ecc_remove(self, set_index: int, way: int) -> None:
        key = set_index * self._assoc + way
        entries = self._ecc_entries
        if key in entries:
            entries.remove(key)

    # -- shadow error model ------------------------------------------------

    def _has_active(self, slot: int) -> bool:
        act = self._act_off
        return act[slot + 1] > act[slot]

    def _track_fill(self, slot: int, salt: int) -> None:
        """Shadow ``errors.on_fill``; untracked no-op fills stay no-ops."""
        state = self._slot_state
        if self._has_active(slot):
            state[slot] = salt
        elif slot in state or self._errors.is_dirty(slot):
            state[slot] = -1

    def _track_clear(self, slot: int) -> None:
        state = self._slot_state
        if slot in state or self._errors.is_dirty(slot):
            state[slot] = -1

    def _row_of(self, slot: int, salt: int):
        """Predicted packed row of a shadow-FILLED slot (None = clean)."""
        key = (slot, salt)
        row = self._row_memo.get(key, _EMPTY)
        if row is _EMPTY:
            row = self._errors.predicted_fill_row(slot, salt)
            self._row_memo[key] = row
        return row

    def _is_dirty(self, slot: int) -> bool:
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.is_dirty(slot)
        if salt < 0:
            return False
        return self._row_of(slot, salt) is not None

    def _fast_clean(self, slot: int, value: int) -> bool:
        if self._is_dirty(slot):
            return False
        if value == _INI and self._iwt and self._fault_map.has_faults(slot):
            return not self._has_observable(slot)
        return True

    def _has_observable(self, slot: int) -> bool:
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.has_observable_faults(slot)
        if salt >= 0 and self._row_of(slot, salt) is not None:
            return True
        if not self._fault_map.has_faults(slot):
            return False
        return self._has_active(slot)

    def _sig(self, slot: int, segments: int, use_ecc: bool) -> Signals:
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.signals(slot, segments, use_ecc)
        if salt < 0:
            return _CLEAN_SIG
        row = self._row_of(slot, salt)
        if row is None:
            return _CLEAN_SIG
        key = (slot, salt, segments, use_ecc)
        sig = self._sig_memo.get(key)
        if sig is None:
            sig = Signals(
                *self._errors.kernel.signals_row(row, segments, use_ecc)
            )
            self._sig_memo[key] = sig
        return sig

    def _obs_signals(self, slot: int) -> Signals:
        segments = self._train_segs
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.observable_signals(slot, segments)
        row = None if salt < 0 else self._row_of(slot, salt)
        key = (slot, salt, segments, "obs")
        sig = self._sig_memo.get(key)
        if sig is None:
            observed = self._errors.predicted_observable_row(slot, row)
            if not observed.any():
                sig = _CLEAN_SIG
            else:
                sig = Signals(
                    *self._errors.kernel.signals_row(observed, segments, True)
                )
            self._sig_memo[key] = sig
        return sig

    def _signals(self, slot: int, value: int) -> Signals:
        if value == _INI:
            if self._iwt:
                return self._obs_signals(slot)
            return self._sig(slot, self._train_segs, True)
        if value == _S1:
            return self._sig(slot, self._stable_segs, True)
        return self._sig(slot, self._stable_segs, False)

    def _correction_sound(self, slot: int) -> bool:
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.correction_is_sound(slot)
        if salt < 0:
            return True
        row = self._row_of(slot, salt)
        if row is None:
            return True
        return self._errors.row_correction_is_sound(row)

    def _has_data_errors(self, slot: int) -> bool:
        salt = self._slot_state.get(slot)
        if salt is None:
            return self._errors.has_data_errors(slot)
        if salt < 0:
            return False
        row = self._row_of(slot, salt)
        if row is None:
            return False
        return self._errors.row_has_data_errors(row)

    # -- scheme semantics (mirrors KilliScheme / WriteThroughCache) --------

    def _uniform(self, st: _SetShadow, set_index: int) -> bool:
        if not self._prio_repl:
            return True
        return self._scheme._off_initial_in_set[set_index] + st.off_d == 0

    def _classify_hit(
        self, st: _SetShadow, set_index: int, way: int, slot: int, value: int
    ) -> int:
        """Full Table 2 read-hit path; returns 0 CLEAN, 1 CORRECTED,
        2 retrain miss, 3 disable miss (as `_apply_classification`)."""
        sig = self._signals(slot, value)
        cls = classify_cached(
            value, sig.sp_mismatches, sig.syndrome_zero, sig.global_parity_ok
        )
        nxt = int(cls.next_dfh)
        if cls.free_ecc_entry:
            # Before the transition: the triv-upgrade probe in
            # _set_dfh must see the freed entry.
            self._ecc_remove(set_index, way)
        self._set_dfh(st, slot, value, nxt)
        if cls.action is DfhAction.ERROR_MISS:
            self._ecc_remove(set_index, way)
            self._track_clear(slot)
            return 3 if nxt == _DIS else 2
        self._d_hits_served += 1
        if cls.action is DfhAction.CORRECT_AND_SEND:
            if not self._correction_sound(slot):
                self._d_sdc += 1
            self._d_ecc_corrections += 1
            if self._ecc_contains(set_index, way):
                self._ecc_touch(set_index, way)
            return 1
        if self._has_data_errors(slot):
            self._d_sdc += 1
        if (nxt == _INI or nxt == _S1) and self._ecc_contains(set_index, way):
            self._ecc_touch(set_index, way)
        return 0

    def _invalidate_line(self, st: _SetShadow, set_index: int, way: int) -> None:
        """Shadow ``cache.invalidate_line(..., reason="ecc_evict")``."""
        line = st.way_lines[way]
        if line < 0:
            return
        del st.resident[line]
        st.way_lines[way] = -1
        insort(st.free, way)
        self._d_invalidations += 1
        self._d_ecc_evict_inval += 1
        self._ecc_remove(set_index, way)
        self._track_clear(set_index * self._assoc + way)

    def _handle_ecc_eviction(self, set_index: int, way: int) -> None:
        st = self._sets.get(set_index)
        if st is None:
            st = self._materialize(set_index)
        # An entry pointed at this set, so it was never trivial; keep
        # the flag honest even if a future refactor relaxes that.
        st.triv = False
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        if value == _S0:
            if self._has_data_errors(slot):
                self._d_sdc += 1
            self._invalidate_line(st, set_index, way)
            return
        if value != _INI and value != _S1:
            raise AssertionError("ECC entry existed for an unprotected line")
        if self._fast_clean(slot, value):
            self._set_dfh(st, slot, value, _S0)
            self._d_reclass_clean += 1
            return
        sig = self._signals(slot, value)
        cls = classify_cached(
            value, sig.sp_mismatches, sig.syndrome_zero, sig.global_parity_ok
        )
        nxt = int(cls.next_dfh)
        self._set_dfh(st, slot, value, nxt)
        if nxt == _S0:
            self._d_reclass_clean += 1
            return
        if nxt == _DIS:
            line = st.way_lines[way]
            if line >= 0:
                del st.resident[line]
                st.way_lines[way] = -1
            elif way in st.free:
                st.free.remove(way)
            st.disabled.add(way)
            st.new_disabled.add(way)
            self._d_evict_disables += 1
            self._track_clear(slot)
            return
        self._invalidate_line(st, set_index, way)

    def _on_evict(self, st: _SetShadow, set_index: int, way: int) -> None:
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        # Remove before any transition so the triv-upgrade probe in
        # _set_dfh sees the freed entry.
        self._ecc_remove(set_index, way)
        if value == _INI and self._train_on_evict:
            if self._fast_clean(slot, value):
                self._set_dfh(st, slot, value, _S0)
            else:
                sig = self._signals(slot, value)
                cls = classify_cached(
                    value,
                    sig.sp_mismatches,
                    sig.syndrome_zero,
                    sig.global_parity_ok,
                )
                nxt = int(cls.next_dfh)
                self._set_dfh(st, slot, value, nxt)
                if nxt == _DIS:
                    line = st.way_lines[way]
                    del st.resident[line]
                    st.way_lines[way] = -1
                    st.disabled.add(way)
                    st.new_disabled.add(way)
        self._track_clear(slot)

    def _on_fill(self, st: _SetShadow, set_index: int, way: int, line: int) -> None:
        slot = set_index * self._assoc + way
        value = st.dfh[way]
        if value == _DIS:
            raise AssertionError("fill into a disabled line")
        self._track_fill(slot, line // self._n_sets)
        if value == _INI or value == _S1:
            evicted = self._ecc_insert(set_index, way)
            if evicted is not None:
                assoc = self._assoc
                self._handle_ecc_eviction(evicted // assoc, evicted % assoc)

    def _choose_victim(self, st: _SetShadow, set_index: int):
        resident = st.resident
        if not st.disabled:
            if len(resident) == self._assoc:
                return next(iter(resident.values())), True
            if self._uniform(st, set_index):
                return st.free[0], False
        elif len(st.disabled) == self._assoc:
            return None, False
        invalid = st.free  # invalid enabled ways, ascending (both branches)
        if invalid:
            if self._uniform(st, set_index):
                return invalid[0], False
            dfh_local = st.dfh
            prio = _PRIORITY
            best_way = invalid[0]
            best_p = -1
            for way in invalid:
                p = prio[dfh_local[way]]
                if p > best_p:  # first-max tie-break
                    best_p = p
                    best_way = way
                    if p == _PRIO_MAX:
                        break
            return best_way, False
        if not resident:
            return None, False
        return next(iter(resident.values())), True

    def _allocate(self, st: _SetShadow, set_index: int, line: int):
        for _ in range(self._assoc):
            victim, has_data = self._choose_victim(st, set_index)
            if victim is None:
                return None
            if has_data:
                self._d_evictions += 1
                self._on_evict(st, set_index, victim)
                if victim in st.disabled:
                    continue  # training disabled the victim: retry
                vline = st.way_lines[victim]
                del st.resident[vline]
                st.way_lines[victim] = -1
            else:
                st.free.remove(victim)
            st.way_lines[victim] = line
            st.resident[line] = victim
            self._d_fills += 1
            self._on_fill(st, set_index, victim, line)
            st.touched.add(victim)
            return victim
        return None

    # -- transaction driver ------------------------------------------------

    def run(self, cluster, idxs, start, lines, stores, lat, set_idx):
        """Interpret one cluster's subsequence from offset ``start``.

        ``idxs`` are the cluster's positions in the global residue (in
        original order); ``lines``/``stores``/``set_idx``/``lat`` are
        the global per-access arrays (``set_idx`` holds each access's
        precomputed L2 set index; ``lat`` receives each simulated
        access's latency).  Returns None when the subsequence was fully
        consumed or the offset of the first access that must run
        per-access (a shared-RNG write hit).  Either way the simulated
        prefix is committed before returning.
        """
        self._begin(cluster)
        n_sets = self._n_sets
        assoc = self._assoc
        sets = self._sets
        act = self._act_off
        pure = self._pure
        slot_state = self._slot_state
        slot_get = slot_state.get
        # The weights list is only ever rebuilt by clear_all, which
        # cannot run inside a transaction, so the identity is stable
        # here; the commit replays row events through the real model
        # only after the loop exits.
        weights = self._errors._weights
        row_of = self._row_of
        iwt = self._iwt
        fm_has_faults = self._fault_map.has_faults
        allocate = self._allocate
        materialize = self._materialize
        ecc_entries = self._ecc_entries
        ecc_assoc = self._ecc_assoc
        dfh_over = self._dfh_over
        trans = self._trans
        prio = _PRIORITY
        prio_repl = self._prio_repl
        off_init = self._scheme._off_initial_in_set
        uns_mv = self._scheme._unstable_in_set
        lat_hit = self._lat_hit
        lat_tag = self._lat_tag
        lat_miss = self._lat_miss
        lat_corrected = self._lat_hit_corrected
        lat_error = lat_hit + lat_miss
        # The hot counters accumulate in locals and flush on exit (all
        # deltas are additive, so helpers mutating the same self._d_*
        # fields compose with the flush).
        d_reads = d_read_hits = d_read_misses = d_mem_reads = 0
        d_writes = d_mem_writes = d_write_hits = d_write_misses = 0
        d_hits_served = pure_hits = d_fills = 0
        d_ecc_acc = d_ecc_alloc = d_ecc_evict = d_reclass = 0
        n = len(idxs)
        j = start
        while j < n:
            gi = idxs[j]
            line = lines[gi]
            set_index = set_idx[gi]
            try:
                st = sets[set_index]
            except KeyError:
                st = materialize(set_index)
            resident = st.resident
            way = resident.get(line)
            if st.triv:
                # Pure dict-LRU: no scheme dispatch, no row checks.
                if stores[gi]:
                    d_writes += 1
                    d_mem_writes += 1
                    if way is None:
                        d_write_misses += 1
                    else:
                        d_write_hits += 1
                        del resident[line]
                        resident[line] = way
                        st.touched.add(way)
                    lat[gi] = lat_tag
                elif way is not None:
                    d_reads += 1
                    d_read_hits += 1
                    d_hits_served += 1
                    del resident[line]
                    resident[line] = way
                    st.touched.add(way)
                    lat[gi] = lat_hit
                else:
                    d_reads += 1
                    d_read_misses += 1
                    d_mem_reads += 1
                    free = st.free
                    if free:
                        victim = free.pop(0)
                    elif resident:
                        vline, victim = next(iter(resident.items()))
                        self._d_evictions += 1
                        del resident[vline]
                    else:
                        self._d_bypasses += 1
                        lat[gi] = lat_miss
                        j += 1
                        continue
                    st.way_lines[victim] = line
                    resident[line] = victim
                    d_fills += 1
                    st.touched.add(victim)
                    lat[gi] = lat_miss
                j += 1
                continue
            if stores[gi]:
                if way is not None:
                    slot = set_index * assoc + way
                    if act[slot + 1] > act[slot]:
                        # Shared-RNG masking re-roll: cannot simulate.
                        # Commit the exact prefix and hand this access
                        # to the per-access path.
                        self._stale_slots[self._cluster] = slot
                        self._d_reads += d_reads
                        self._d_read_hits += d_read_hits + pure_hits
                        self._d_read_misses += d_read_misses
                        self._d_mem_reads += d_mem_reads
                        self._d_writes += d_writes
                        self._d_mem_writes += d_mem_writes
                        self._d_write_hits += d_write_hits
                        self._d_write_misses += d_write_misses
                        self._d_hits_served += d_hits_served + pure_hits
                        self._d_fills += d_fills
                        self._d_ecc_acc += d_ecc_acc
                        self._d_ecc_alloc += d_ecc_alloc
                        self._d_ecc_evict += d_ecc_evict
                        self._d_reclass_clean += d_reclass
                        self._commit()
                        return j
                    d_writes += 1
                    d_mem_writes += 1
                    d_write_hits += 1
                    if slot in slot_state or (
                        not pure[slot] and weights[slot]
                    ):
                        slot_state[slot] = -1
                    if slot in ecc_entries:
                        # _ecc_touch, inline.
                        d_ecc_acc += 1
                        ecc_entries.remove(slot)
                        ecc_entries.insert(0, slot)
                    del resident[line]
                    resident[line] = way
                    st.touched.add(way)
                else:
                    d_writes += 1
                    d_mem_writes += 1
                    d_write_misses += 1
                lat[gi] = lat_tag
                j += 1
                continue
            d_reads += 1
            if way is None:
                d_read_misses += 1
                d_mem_reads += 1
                free = st.free
                if free:
                    # Inline fill fast path: with an invalid enabled way
                    # available the victim always comes from ``free``
                    # (uniform -> lowest way, else the DFH-priority
                    # scan), never from an eviction — the slow
                    # _allocate path is only needed when the set is
                    # full or fully disabled.
                    if prio_repl and (off_init[set_index] + st.off_d) != 0:
                        dfh_local = st.dfh
                        victim = free[0]
                        best_p = -1
                        for w in free:
                            p = prio[dfh_local[w]]
                            if p > best_p:  # first-max tie-break
                                best_p = p
                                victim = w
                                if p == 2:  # _PRIO_MAX
                                    break
                        free.remove(victim)
                    else:
                        victim = free.pop(0)
                    st.way_lines[victim] = line
                    resident[line] = victim
                    d_fills += 1
                    slot = set_index * assoc + victim
                    value = st.dfh[victim]
                    # _on_fill, inline (a free way is never DISABLED).
                    if act[slot + 1] > act[slot]:
                        slot_state[slot] = line // n_sets
                    elif slot in slot_state or weights[slot]:
                        slot_state[slot] = -1
                    if value == _INI or value == _S1:
                        d_ecc_acc += 1
                        if slot in ecc_entries:
                            raise ValueError(
                                f"ECC entry for slot {slot} already present"
                            )
                        d_ecc_alloc += 1
                        if len(ecc_entries) >= ecc_assoc:
                            eslot = ecc_entries.pop()
                            d_ecc_evict += 1
                            ecc_entries.insert(0, slot)
                            es = eslot // assoc
                            ew = eslot - es * assoc
                            est = sets.get(es)
                            if est is None:
                                est = materialize(es)
                            est.triv = False
                            evalue = est.dfh[ew]
                            esalt = slot_get(eslot)
                            if esalt is None:
                                edirty = weights[eslot] != 0
                            elif esalt < 0:
                                edirty = False
                            else:
                                edirty = row_of(eslot, esalt) is not None
                            if (
                                edirty
                                or (evalue != _INI and evalue != _S1)
                                or (
                                    iwt
                                    and evalue == _INI
                                    and fm_has_faults(eslot)
                                )
                            ):
                                # Anything but the provably-clean
                                # reclassify goes through the full
                                # eviction handler.
                                self._handle_ecc_eviction(es, ew)
                            else:
                                # Clean INITIAL/STABLE_1 -> STABLE_0
                                # (_set_dfh + _fast_clean, inline).
                                pure[eslot] = 0
                                dfh_over[eslot] = _S0
                                est.dfh[ew] = _S0
                                if evalue == _INI:
                                    est.off_d += 1
                                est.uns_d -= 1
                                trans[evalue << 2] += 1
                                d_reclass += 1
                                if (
                                    est.quiet
                                    and not est.triv
                                    and uns_mv[es] + est.uns_d == 0
                                ):
                                    # Triv upgrade (see _set_dfh).
                                    ebase = eslot - ew
                                    estop = ebase + assoc
                                    for k2 in ecc_entries:
                                        if ebase <= k2 < estop:
                                            break
                                    else:
                                        est.triv = True
                        else:
                            ecc_entries.insert(0, slot)
                    st.touched.add(victim)
                    lat[gi] = lat_miss
                    j += 1
                    continue
                if allocate(st, set_index, line) is None:
                    self._d_bypasses += 1
                lat[gi] = lat_miss
                j += 1
                continue
            slot = set_index * assoc + way
            if pure[slot] and slot not in slot_state:
                # Pure hit: STABLE_0 on a really-clean untracked slot —
                # an LRU touch and nothing else.
                pure_hits += 1
                del resident[line]
                resident[line] = way
                st.touched.add(way)
                lat[gi] = lat_hit
                j += 1
                continue
            value = st.dfh[way]
            # _fast_clean, inline.
            salt = slot_get(slot)
            if salt is None:
                dirty = weights[slot] != 0
            elif salt < 0:
                dirty = False
            else:
                dirty = row_of(slot, salt) is not None
            if dirty:
                clean = False
            elif value != _INI or not iwt or not fm_has_faults(slot):
                clean = True
            else:
                clean = not self._has_observable(slot)
            if clean:
                if value != _S0:
                    # Remove before the transition so the triv-upgrade
                    # probe in _set_dfh sees the freed entry.
                    self._ecc_remove(set_index, way)
                    self._set_dfh(st, slot, value, _S0)
                # Shadow-clean and now STABLE_0; tracked slots are
                # still fenced off the pure path by the slot_state
                # guard until the commit fixup re-derives them.
                pure[slot] = 1
                d_hits_served += 1
                outcome = 0
            else:
                outcome = self._classify_hit(st, set_index, way, slot, value)
            if outcome == 0:
                d_read_hits += 1
                del resident[line]
                resident[line] = way
                st.touched.add(way)
                lat[gi] = lat_hit
            elif outcome == 1:
                d_read_hits += 1
                self._d_corrected += 1
                del resident[line]
                resident[line] = way
                st.touched.add(way)
                lat[gi] = lat_corrected
            else:
                self._d_error_misses += 1
                del resident[line]
                st.way_lines[way] = -1
                if outcome == 3:
                    st.disabled.add(way)
                    st.new_disabled.add(way)
                else:
                    insort(st.free, way)
                d_read_misses += 1
                d_mem_reads += 1
                if allocate(st, set_index, line) is None:
                    self._d_bypasses += 1
                lat[gi] = lat_error
            j += 1
        self._d_reads += d_reads
        self._d_read_hits += d_read_hits + pure_hits
        self._d_read_misses += d_read_misses
        self._d_mem_reads += d_mem_reads
        self._d_writes += d_writes
        self._d_mem_writes += d_mem_writes
        self._d_write_hits += d_write_hits
        self._d_write_misses += d_write_misses
        self._d_hits_served += d_hits_served + pure_hits
        self._d_fills += d_fills
        self._d_ecc_acc += d_ecc_acc
        self._d_ecc_alloc += d_ecc_alloc
        self._d_ecc_evict += d_ecc_evict
        self._d_reclass_clean += d_reclass
        self._commit()
        return None

    # -- commit ------------------------------------------------------------

    def _commit(self) -> None:
        if self._check_invariants and self._rng_mark is not None:
            state = repr(self._errors.rng.bit_generator.state)
            if state != self._rng_mark:
                raise InvariantError(
                    "[REPRO_CHECK_INVARIANTS] batched cluster simulation "
                    f"drew shared RNG (cluster {self._cluster}): the "
                    "interpreter window must be RNG-free — only the real "
                    "per-access path may consume the stream"
                )
        cache = self._cache
        tags = cache.tags
        lru = cache.lru
        stamp = cache._hit_stamp
        assoc = self._assoc
        line_bytes = self._line_bytes
        scheme = self._scheme
        off_mv = scheme._off_initial_in_set
        uns_mv = scheme._unstable_in_set
        dis_mv = scheme._dfh_disabled_in_set
        stamp_clear = [-1] * assoc
        for set_index, st in self._sets.items():
            way_lines = st.way_lines
            orig = st.orig
            new_disabled = st.new_disabled
            if new_disabled or way_lines != orig:
                # Pass 1: clear every changed way so a line that moved
                # between ways cannot have its index entry popped by the
                # overwrite-insert of its old way.
                for way in range(assoc):
                    if way in new_disabled:
                        tags.disable(set_index, way)
                    elif way_lines[way] != orig[way] and orig[way] >= 0:
                        tags.invalidate(set_index, way)
                for way in range(assoc):
                    line = way_lines[way]
                    if line >= 0 and line != orig[way]:
                        tags.insert(line * line_bytes, way)
            touched = st.touched
            if touched:
                # Final recency order; same convention as
                # apply_set_replays (ages differ in value, not order).
                for line, way in st.resident.items():
                    if way in touched:
                        lru.touch(set_index, way)
            base = set_index * assoc
            stamp[base : base + assoc] = stamp_clear
            if st.off_d:
                off_mv[set_index] += st.off_d
            if st.uns_d:
                uns_mv[set_index] += st.uns_d
            if st.dis_d:
                dis_mv[set_index] += st.dis_d
        if self._dfh_over:
            dfh_mv = self._dfh_mv
            for slot, value in self._dfh_over.items():
                dfh_mv[slot] = value
            trans_mv = scheme._transitions_mv
            for key, count in enumerate(self._trans):
                if count:
                    trans_mv[key >> 2, key & 3] += count
        # ECC cache: key-list writeback plus a membership diff for the
        # O(1) mirrors.
        ecc = self._ecc
        entries = ecc._sets[self._cluster]
        new_entries = [
            (key // assoc, key % assoc) for key in self._ecc_entries
        ]
        if entries != new_entries:
            if ecc._l2_assoc is not None:
                member = ecc._member
                count_for_set = ecc._count_for_set
                l2_assoc = ecc._l2_assoc
                old_keys = set(entries)
                new_keys = set(new_entries)
                for key_set, key_way in old_keys - new_keys:
                    member[key_set * l2_assoc + key_way] = False
                    count_for_set[key_set] -= 1
                for key_set, key_way in new_keys - old_keys:
                    member[key_set * l2_assoc + key_way] = True
                    count_for_set[key_set] += 1
            entries[:] = new_entries
        ecc.accesses += self._d_ecc_acc
        ecc.allocations += self._d_ecc_alloc
        ecc.evictions += self._d_ecc_evict
        # Error rows: replay the last event per slot through the real
        # model (fills are salt-keyed and idempotent).
        errors = self._errors
        for slot, salt in self._slot_state.items():
            if salt < 0:
                errors.clear(slot)
            else:
                errors.on_fill(slot, salt)
        # Purity fixup: re-derive the bitmap for exactly the slots
        # whose DFH or error rows this transaction changed, from the
        # now-committed real state.
        pure = self._pure
        dfh_mv = self._dfh_mv
        is_dirty = errors.is_dirty
        for slot in self._dfh_over:
            pure[slot] = 1 if dfh_mv[slot] == _S0 and not is_dirty(slot) else 0
        for slot in self._slot_state:
            pure[slot] = 1 if dfh_mv[slot] == _S0 and not is_dirty(slot) else 0
        stats = cache.stats
        stats.reads += self._d_reads
        stats.read_hits += self._d_read_hits
        stats.read_misses += self._d_read_misses
        stats.writes += self._d_writes
        stats.write_hits += self._d_write_hits
        stats.write_misses += self._d_write_misses
        stats.evictions += self._d_evictions
        stats.fills += self._d_fills
        stats.bypasses += self._d_bypasses
        stats.error_induced_misses += self._d_error_misses
        stats.corrected_reads += self._d_corrected
        stats.invalidations += self._d_invalidations
        stats.ecc_evict_invalidations += self._d_ecc_evict_inval
        if self._d_ecc_corrections:
            stats.bump("ecc_corrections", self._d_ecc_corrections)
        if self._d_reclass_clean:
            stats.bump("ecc_evict_reclassified_clean", self._d_reclass_clean)
        if self._d_evict_disables:
            stats.bump("ecc_evict_disables", self._d_evict_disables)
        cache.memory_reads += self._d_mem_reads
        cache.memory_writes += self._d_mem_writes
        scheme.hits_served += self._d_hits_served
        scheme.sdc_events += self._d_sdc
        if self._check_invariants:
            for set_index in self._sets:
                check_set_invariants(cache, set_index)
