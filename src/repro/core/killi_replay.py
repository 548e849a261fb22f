"""Cluster-exact batched replay interpreter for Killi.

The batched engine's set-replay path
(:func:`repro.cache.soa.replay_clean_set`) only batches *scheme-inert*
sets; for Killi that would leave the busiest part of the kernel — DFH
warmup, ECC-cache contention, faulted-line classification — on the
per-access Python path.  This module batches the *general* case
instead: a shadow interpreter that simulates an arbitrary access
subsequence with full Killi semantics (Table 2 or strong-code
classification, ECC-cache contention, eviction training, victim
priorities) against copy-on-write state, then commits the net effect
to the real cache/scheme structures in bulk.

Each Killi event is stated once, mirroring
:class:`~repro.core.killi.KilliScheme` and the write-through cache:
:meth:`KilliClusterInterpreter._allocate` (victim choice, fill, ECC
insert), :meth:`~KilliClusterInterpreter._handle_ecc_eviction`
(contention eviction), :meth:`~KilliClusterInterpreter._on_evict`
(eviction training), :meth:`~KilliClusterInterpreter._read_hit` and
:meth:`~KilliClusterInterpreter._classify`.  Classification looks the
shadow contents up in the scheme's table, bound once at construction:
Table 2 from the SECDED signals (with the fast-clean shortcut), or the
strong-code table through
:meth:`~repro.core.killi.KilliScheme.strong_classification`.
:meth:`~KilliClusterInterpreter.run` only dispatches accesses to them;
its one shortcut is the clean b'00 read hit, which reads the shadow
and real state directly.

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
RNG stream (:meth:`~repro.core.linestate.LineErrorModel.rerolled_row`).
Fills use the deterministic masking coins
(:meth:`~repro.core.linestate.LineErrorModel.predicted_fill_row`), so
the interpreter simulates everything else with pure predictions.  At a
shared-RNG write hit it *pauses*: the cluster's open transaction is
parked, untouched by that access, and :meth:`run` returns the access's
offset.  The engine keeps a min-heap over the *global* positions of
the paused accesses (see
:meth:`~repro.gpu.engine.GpuSimulator._run_batched`) and resumes each
cluster at its turn; the resumed run performs the write hit in the
shadow — the same ``rng.random(n_active)`` draw the per-access path
makes — and carries on.  Nothing else draws RNG, clusters are
state-disjoint, and no per-access L2 call runs while transactions are
open, so the heap order is the scalar engine's RNG order.  Each
cluster commits exactly once, when its subsequence is consumed.

Commit equivalences (vs the per-access reference path)
------------------------------------------------------
- *LRU*: every resident way is stamped in final recency order through
  :func:`~repro.cache.soa.bulk_apply_set_replays`, with the cluster's
  fills; absolute clock values differ but the age *order* of the valid
  ways, which is all the replacement policy reads, is identical.
  ``demote`` calls are skipped: a demoted way is invalid, and ages of
  invalid ways are never consulted until a refill touches them.
- *Hit memo*: instead of replaying per-set epoch bumps, every
  materialized set's hit stamps are cleared.  Re-memoization on the
  next hit reproduces the memoized replay bit-exactly (hit outcomes
  are deterministic), so this only costs one extra dispatch per line.
- *Error rows*: per-slot fill/overwrite effects collapse to the last
  event per slot.  A fill installs the row the interpreter already
  predicted for its ``(slot, salt)`` (or replays ``on_fill``), a clear
  replays ``clear`` and a write hit stores its re-rolled row — each
  exactly the row and signal-cache state the per-access
  sequence would have left.  Slots whose events are no-ops (no active
  faults, clean row) are not tracked at all.
"""

from __future__ import annotations

from bisect import insort

from repro.cache.soa import bulk_apply_set_replays, export_set_state
from repro.core.dfh import (
    EVENT_READ,
    EVENT_TRAIN,
    FILL_PRIORITY,
    Dfh,
    DfhAction,
    classify_cached,
)
from repro.core.killi import _CLEAN_CLS
from repro.core.linestate import Signals
from repro.metrics import METRICS
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

#: No way outranks the first one found at the top fill priority.
_PRIO_MAX = max(FILL_PRIORITY)


#: Per flat transition ``old << 2 | new``: the delta of the set's
#: off-initial count (``KilliScheme._off_initial_in_set``).
_OFF_INITIAL_DELTA = tuple(
    (new != _INI) - (old != _INI) for old in range(4) for new in range(4)
)

_CLEAN_SIG = Signals(0, True, True)

#: Shadow row events per slot (``_Txn.slot_state``); a value >= 0 is
#: the salt of a predicted fill.
_CLEARED = -1
_ROLLED = -2  # write-hit re-roll

#: Per-transaction stat deltas, named after their ``_Txn`` slots.
_COUNTERS = (
    "reads",
    "read_hits",
    "read_misses",
    "writes",
    "write_hits",
    "write_misses",
    "evictions",
    "fills",
    "bypasses",
    "error_misses",
    "corrected",
    "invalidations",
    "ecc_evict_inval",
    "mem_reads",
    "mem_writes",
    "hits_served",
    "sdc",
    "ecc_acc",
    "ecc_alloc",
    "ecc_evict",
    "ecc_corrections",
    "reclass_clean",
    "evict_disables",
)


class _SetShadow:
    """Copy-on-write replay state of one L2 set."""

    __slots__ = (
        "resident",
        "way_lines",
        "free",
        "disabled",
        "dfh",
        "off_d",
    )


class _Txn:
    """One cluster's open transaction: shadow state plus stat deltas.

    Lives from the cluster's first :meth:`KilliClusterInterpreter.run`
    to its commit, parked across every pause in between.
    ``slot_state`` maps a slot to its last row event (a fill salt,
    ``_CLEARED`` or ``_ROLLED``); ``rows`` caches, per slot, the row
    and signals of the event they were last derived for
    (:meth:`KilliClusterInterpreter._shadow`).  One record per slot at
    most — a new event replaces it — all freed with the transaction.
    """

    __slots__ = (
        "cluster",
        "sets",
        "dfh_over",
        "trans",
        "slot_state",
        "rows",
        "ecc_entries",
    ) + _COUNTERS

    def __init__(self, cluster: int, ecc_entries: list):
        self.cluster = cluster
        self.sets: dict = {}
        self.dfh_over: dict = {}
        self.trans = [0] * 16  # flat (old << 2 | new) transition counts
        self.slot_state: dict = {}
        self.rows: dict = {}
        # Shadow ECC keys as flat slot ints (set * assoc + way), most
        # recently used first.
        self.ecc_entries = ecc_entries
        for name in _COUNTERS:
            setattr(self, name, 0)


class KilliClusterInterpreter:
    """Shadow interpreter over the ECC-contention clusters of a kernel.

    Created once per (scheme, cache) pair via
    :meth:`~repro.core.killi.KilliScheme.batch_interpreter`; the engine
    calls :meth:`run` per cluster and again per resume.  A cluster's
    first ``run`` opens its transaction; every ``run`` simulates from
    ``start`` and returns either the offset of a shared-RNG write hit
    (the transaction is parked, and the engine resumes it at that
    access's turn in the global order) or None, after committing the
    cluster's whole net effect once.
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
        self._dfh_mv = scheme.dfh
        config = scheme.config
        self._iwt = config.inverted_write_training
        self._train_on_evict = config.train_on_evict
        self._prio_repl = config.priority_replacement
        self._train_segs = config.training_segments
        self._stable_segs = config.stable_segments
        self._correct_t = scheme.correct_t
        # The classification table, bound once: the strong code looks
        # shadow rows up through the scheme's pure row function.
        if scheme.strong_table is None:
            self._lookup = self._lookup_table2
        else:
            self._lookup = self._lookup_strong
            self._strong_classification = scheme.strong_classification
        self._lat_hit = cache._lat_hit
        self._lat_hit_corrected = cache._lat_hit_corrected
        self._lat_miss = cache._lat_miss
        self._lat_tag = cache._lat_tag
        self._act_off = None
        # Armed invariants (REPRO_CHECK_INVARIANTS): the shared RNG
        # stream position is marked at the start of every segment —
        # run entry, and right after each scheduled write-hit draw —
        # and asserted unchanged at the segment's end (the next
        # scheduled draw, a pause or the commit): every segment between
        # scheduled write hits draws nothing (RNG-draw-count
        # conservation between the batched and scalar paths).  Commits
        # then re-check every committed set's structure.
        self._check_invariants = invariants_enabled()
        self._rng_mark = None
        self._tx = None
        self._parked: dict = {}  # cluster -> paused _Txn

    # -- lifecycle ---------------------------------------------------------

    def begin_kernel(self) -> None:
        """Revalidate the voltage-keyed state before a kernel runs."""
        errors = self._errors
        offsets = errors._act_offsets
        # A voltage change rebuilds the active-fault CSR.
        self._act_off = offsets if offsets is not None else errors._ensure_active()

    def _rng_state(self) -> str:
        return repr(self._errors.rng.bit_generator.state)

    def _check_rng_window(self) -> None:
        """Armed check: the current segment drew no shared RNG."""
        if self._rng_state() != self._rng_mark:
            raise InvariantError(
                "[REPRO_CHECK_INVARIANTS] batched cluster simulation "
                f"drew shared RNG (cluster {self._tx.cluster}): only the "
                "scheduled write-hit re-rolls may consume the stream "
                "between a cluster's pauses"
            )

    # -- shadow state ------------------------------------------------------

    def _materialize(self, set_index: int) -> _SetShadow:
        tags = self._cache.tags
        way_lines, seed, free_ways = export_set_state(
            tags, self._cache.lru, set_index
        )
        st = _SetShadow()
        # export_set_state hands out fresh lists; the real way_lines
        # stay unchanged until this cluster commits, which diffs
        # against them.
        st.way_lines = way_lines
        st.resident = dict(seed)
        st.free = free_ways
        if tags.disabled_in_set[set_index]:
            st.disabled = {
                way
                for way in range(self._assoc)
                if tags.is_disabled(set_index, way)
            }
        else:
            st.disabled = set()
        # Per-way DFH values as a plain list: the overlay dict never
        # holds a slot before its set materializes (every write goes
        # through _classify, which needs the shadow), so the real array
        # is authoritative here; _classify keeps the copy in sync.
        base = set_index * self._assoc
        st.dfh = self._scheme._dfh_np[base : base + self._assoc].tolist()
        st.off_d = 0
        self._tx.sets[set_index] = st
        return st

    def _drop_way(self, st: _SetShadow, way: int, disable: bool) -> None:
        """Take ``way`` out of the set: invalid (back to ``free``) or
        disabled."""
        line = st.way_lines[way]
        if line >= 0:
            del st.resident[line]
            st.way_lines[way] = -1
        if not disable:
            insort(st.free, way)
            return
        if line < 0 and way in st.free:
            st.free.remove(way)
        st.disabled.add(way)

    # -- shadow ECC cache (slot keys, most recently used first) ------------

    def _ecc_touch(self, slot: int) -> None:
        self._tx.ecc_acc += 1
        entries = self._tx.ecc_entries
        entries.remove(slot)
        entries.insert(0, slot)

    def _ecc_remove(self, slot: int) -> None:
        entries = self._tx.ecc_entries
        if slot in entries:
            entries.remove(slot)

    # -- shadow error model ------------------------------------------------

    def _track_clear(self, slot: int) -> None:
        """Shadow ``errors.clear``; untracked no-op clears stay no-ops."""
        state = self._tx.slot_state
        if slot in state or self._errors._rows[slot]:
            state[slot] = _CLEARED

    def _shadow(self, slot: int, event: int) -> list:
        """Record ``[event, row, sig S0, sig INITIAL, sig STABLE_1]`` of
        a tracked slot's last shadow event.

        ``row`` is the error row the event leaves (0 = clean): the
        deterministic fill prediction for a salt, 0 for a clear, the
        re-rolled row for a write hit.  The signal slots memoize
        :meth:`_signals` per DFH value.
        """
        rows = self._tx.rows
        rec = rows.get(slot)
        if rec is None or rec[0] != event:
            row = self._errors.predicted_fill_row(slot, event) if event >= 0 else 0
            rec = rows[slot] = [event, row, None, None, None]
        return rec

    def _row_of(self, slot: int, event: int) -> int:
        """Shadow error row of a tracked slot (0 = clean)."""
        if event == _CLEARED:
            return 0
        return self._shadow(slot, event)[1]

    def _reroll(self, slot: int) -> None:
        """Write hit on a slot with active faults, in the shadow.

        The one shared-RNG draw of the interpreter, made only when the
        engine resumes the cluster at this access's global turn.  The
        input is the shadow row: the real row when the slot is
        untracked, else the row of its last shadow event.
        """
        check = self._check_invariants
        if check:
            self._check_rng_window()
        errors = self._errors
        tx = self._tx
        event = tx.slot_state.get(slot)
        if event is None:
            base = errors._rows[slot]
        else:
            base = self._row_of(slot, event)
        tx.slot_state[slot] = _ROLLED
        tx.rows[slot] = [_ROLLED, errors.rerolled_row(slot, base), None, None, None]
        if check:
            self._rng_mark = self._rng_state()

    def _fast_clean(self, slot: int, value: int) -> bool:
        """Shadow ``KilliScheme._fast_clean``: does the slot classify
        clean under DFH ``value`` without deriving signals?"""
        event = self._tx.slot_state.get(slot)
        if event is None:
            if self._errors._rows[slot]:
                return False
        elif self._row_of(slot, event):
            return False
        if value == _INI and self._iwt and self._fault_map.has_faults(slot):
            return not self._has_observable(slot)
        return True

    def _has_observable(self, slot: int) -> bool:
        event = self._tx.slot_state.get(slot)
        if event is None:
            return self._errors.has_observable_faults(slot)
        if self._row_of(slot, event):
            return True
        if not self._fault_map.has_faults(slot):
            return False
        act = self._act_off
        return act[slot + 1] > act[slot]

    def _signals(self, slot: int, value: int) -> Signals:
        """Read signals of ``slot`` under DFH ``value``, from the shadow
        row when the slot is tracked (memoized per DFH value in its
        record: each value fixes the parity configuration)."""
        obs = value == _INI and self._iwt
        event = self._tx.slot_state.get(slot)
        if event is None:
            errors = self._errors
            if obs:
                return errors.observable_signals(slot, self._train_segs)
            if value == _INI:
                return errors.signals(slot, self._train_segs, True)
            return errors.signals(slot, self._stable_segs, value == _S1)
        if event == _CLEARED and not obs:
            return _CLEAN_SIG
        rec = self._shadow(slot, event)
        sig = rec[2 + value]
        if sig is None:
            row = rec[1]
            kernel = self._errors.kernel
            if obs:
                row = self._errors.predicted_observable_row(slot, row)
                segments, use_ecc = self._train_segs, True
            elif value == _INI:
                segments, use_ecc = self._train_segs, True
            else:
                segments, use_ecc = self._stable_segs, value == _S1
            if not row:
                sig = _CLEAN_SIG
            else:
                sig = Signals(*kernel.signals_row(row, segments, use_ecc))
            rec[2 + value] = sig
        return sig

    def _correction_sound(self, slot: int) -> bool:
        event = self._tx.slot_state.get(slot)
        if event is None:
            return self._errors.correction_is_sound(slot, self._correct_t)
        return self._errors.row_correction_is_sound(
            self._row_of(slot, event), self._correct_t
        )

    def _has_data_errors(self, slot: int) -> bool:
        event = self._tx.slot_state.get(slot)
        if event is None:
            return self._errors.has_data_errors(slot)
        return self._errors.row_has_data_errors(self._row_of(slot, event))

    # -- scheme semantics (mirrors KilliScheme / WriteThroughCache) --------

    def _lookup_table2(self, slot: int, value: int, event: int):
        """Table 2 on the slot's shadow contents (``event`` unused).

        A fast-clean slot skips the signal derivation: clean signals
        classify every accessible state to b'00, send clean.
        """
        if self._fast_clean(slot, value):
            return _CLEAN_CLS[value]
        sig = self._signals(slot, value)
        return classify_cached(
            value, sig.sp_mismatches, sig.syndrome_zero, sig.global_parity_ok
        )

    def _lookup_strong(self, slot: int, value: int, event: int):
        """The strong-code table on the slot's shadow row."""
        state = self._tx.slot_state.get(slot)
        if state is None:
            row = self._errors._rows[slot]
        else:
            row = self._row_of(slot, state)
        return self._strong_classification(event, value, row)

    def _classify(self, st: _SetShadow, slot: int, value: int, event: int):
        """Classify the slot's shadow contents under DFH ``value`` for
        ``event`` (``KilliScheme._classify``); applies the DFH
        transition (``KilliScheme._set_dfh``) and returns the
        classification."""
        cls = self._lookup(slot, value, event)
        new = int(cls.next_dfh)
        if new != value:
            tx = self._tx
            key = (value << 2) | new
            tx.trans[key] += 1
            tx.dfh_over[slot] = new
            st.dfh[slot % self._assoc] = new
            st.off_d += _OFF_INITIAL_DELTA[key]
        return cls

    def _read_hit(self, st: _SetShadow, slot: int, value: int) -> int:
        """Read-hit classification (``_apply_classification``); returns
        0 CLEAN, 1 CORRECTED, 2 retrain miss, 3 disable miss."""
        tx = self._tx
        cls = self._classify(st, slot, value, EVENT_READ)
        if cls.free_ecc_entry or cls.action is DfhAction.ERROR_MISS:
            self._ecc_remove(slot)
        if cls.action is DfhAction.ERROR_MISS:
            self._track_clear(slot)
            return 3 if cls.next_dfh is Dfh.DISABLED else 2
        tx.hits_served += 1
        if cls.action is DfhAction.CORRECT_AND_SEND:
            if not self._correction_sound(slot):
                tx.sdc += 1
            tx.ecc_corrections += 1
            if slot in tx.ecc_entries:
                self._ecc_touch(slot)
            return 1
        if self._has_data_errors(slot):
            tx.sdc += 1
        if (
            cls.next_dfh is Dfh.INITIAL or cls.next_dfh is Dfh.STABLE_1
        ) and slot in tx.ecc_entries:
            self._ecc_touch(slot)
        return 0

    def _invalidate_line(self, st: _SetShadow, slot: int) -> None:
        """Shadow ``cache.invalidate_line(..., reason="ecc_evict")``."""
        way = slot % self._assoc
        if st.way_lines[way] < 0:
            return
        self._drop_way(st, way, False)
        self._tx.invalidations += 1
        self._tx.ecc_evict_inval += 1
        self._ecc_remove(slot)
        self._track_clear(slot)

    def _handle_ecc_eviction(self, slot: int) -> None:
        """A line lost its ECC entry to contention: classify it on the
        way out (``KilliScheme._handle_ecc_eviction``)."""
        tx = self._tx
        set_index, way = divmod(slot, self._assoc)
        st = tx.sets.get(set_index)
        if st is None:
            st = self._materialize(set_index)
        value = st.dfh[way]
        if value == _S0:
            if self._has_data_errors(slot):
                tx.sdc += 1
            self._invalidate_line(st, slot)
            return
        if value != _INI and value != _S1:
            raise AssertionError("ECC entry existed for an unprotected line")
        nxt = self._classify(st, slot, value, EVENT_TRAIN).next_dfh
        if nxt is Dfh.STABLE_0:
            tx.reclass_clean += 1
        elif nxt is Dfh.DISABLED:
            self._drop_way(st, way, True)
            tx.evict_disables += 1
            self._track_clear(slot)
        else:
            self._invalidate_line(st, slot)

    def _on_evict(self, st: _SetShadow, slot: int) -> None:
        """Eviction training (paper 4.4) and per-content state drop."""
        way = slot % self._assoc
        value = st.dfh[way]
        if value == _INI and self._train_on_evict:
            nxt = self._classify(st, slot, value, EVENT_TRAIN).next_dfh
            if nxt is Dfh.DISABLED:
                self._drop_way(st, way, True)
        self._ecc_remove(slot)
        self._track_clear(slot)

    def _allocate(self, st: _SetShadow, set_index: int, line: int) -> bool:
        """Fill ``line`` into the set: the cache's victim choice plus
        ``KilliScheme.on_fill``.  False when no way can take it (bypass).

        Invalid enabled ways come first — the lowest one, or under
        priority replacement the first of the highest DFH fill
        priority — then the LRU resident line, whose eviction training
        may disable it (choose again).
        """
        tx = self._tx
        base = set_index * self._assoc
        resident = st.resident
        free = st.free
        while True:
            if free:
                victim = free[0]
                if self._prio_repl and (
                    self._scheme._off_initial_in_set[set_index] + st.off_d
                ):
                    dfh = st.dfh
                    best = -1
                    for way in free:  # first-max tie-break
                        prio = FILL_PRIORITY[dfh[way]]
                        if prio > best:
                            best = prio
                            victim = way
                            if prio == _PRIO_MAX:
                                break
                free.remove(victim)
                break
            if not resident:
                return False
            vline, victim = next(iter(resident.items()))
            tx.evictions += 1
            self._on_evict(st, base + victim)
            if victim not in st.disabled:
                del resident[vline]
                break
        st.way_lines[victim] = line
        resident[line] = victim
        tx.fills += 1
        slot = base + victim
        value = st.dfh[victim]
        if value == _DIS:
            raise AssertionError("fill into a disabled line")
        # errors.on_fill: the row follows from the (slot, tag) coins.
        act = self._act_off
        if act[slot + 1] > act[slot]:
            tx.slot_state[slot] = line // self._n_sets
        else:
            self._track_clear(slot)
        if value == _INI or value == _S1:
            # ECC insert; a full ECC set evicts its LRU entry.
            entries = tx.ecc_entries
            tx.ecc_acc += 1
            if slot in entries:
                raise ValueError(f"ECC entry for slot {slot} already present")
            tx.ecc_alloc += 1
            entries.insert(0, slot)
            if len(entries) > self._ecc_assoc:
                tx.ecc_evict += 1
                self._handle_ecc_eviction(entries.pop())
        return True

    # -- transaction driver ------------------------------------------------

    def run(self, cluster, idxs, start, lines, stores, lat, set_idx):
        """Interpret one cluster's subsequence from offset ``start``.

        ``idxs`` are the cluster's positions in the global residue (in
        original order); ``lines``/``stores``/``set_idx``/``lat`` are
        the global per-access arrays (``set_idx`` holds each access's
        precomputed L2 set index; ``lat`` receives each simulated
        access's latency).  Returns None once the subsequence is fully
        consumed — the cluster's transaction is then committed — or the
        offset of a shared-RNG write hit, at which the transaction is
        parked untouched.  Calling ``run`` again with that offset, at
        the access's turn in the global order, resumes the transaction
        and performs the write hit in the shadow first.
        """
        assoc = self._assoc
        tx = self._parked.pop(cluster, None)
        if tx is None:
            tx = _Txn(
                cluster,
                [s * assoc + w for s, w in self._ecc._sets[cluster]],
            )
            resume = -1
        else:
            resume = start
        self._tx = tx
        if self._check_invariants:
            self._rng_mark = self._rng_state()
        sets = tx.sets
        act = self._act_off
        slot_state = tx.slot_state
        ecc_entries = tx.ecc_entries
        # The real rows change only through the commit, which replays
        # row events through the model after the loop exits.
        rows = self._errors._rows
        allocate = self._allocate
        lat_hit = self._lat_hit
        lat_tag = self._lat_tag
        lat_miss = self._lat_miss
        lat_corrected = self._lat_hit_corrected
        lat_error = lat_hit + lat_miss
        # The hot counters accumulate in locals and flush on exit (all
        # deltas are additive, so helpers mutating the same _Txn
        # fields compose with the flush).
        d_reads = d_read_hits = d_read_misses = d_mem_reads = 0
        d_writes = d_write_hits = d_hits_served = 0
        n = len(idxs)
        j = start
        while j < n:
            gi = idxs[j]
            line = lines[gi]
            set_index = set_idx[gi]
            try:
                st = sets[set_index]
            except KeyError:
                st = self._materialize(set_index)
            resident = st.resident
            way = resident.get(line)
            if stores[gi]:
                if way is not None:
                    slot = set_index * assoc + way
                    if act[slot + 1] > act[slot]:
                        # Shared-RNG masking re-roll: it must draw at
                        # this access's global turn.  Pause, unless the
                        # engine has just resumed us at exactly it.
                        if j != resume:
                            break
                        self._reroll(slot)
                    else:
                        # No active faults: the overwrite clears the row.
                        self._track_clear(slot)
                    d_write_hits += 1
                    if slot in ecc_entries:
                        # New checkbits were stored: promote.
                        self._ecc_touch(slot)
                    del resident[line]
                    resident[line] = way
                d_writes += 1
                lat[gi] = lat_tag
                j += 1
                continue
            d_reads += 1
            if way is None:
                d_read_misses += 1
                d_mem_reads += 1
                if not allocate(st, set_index, line):
                    tx.bypasses += 1
                lat[gi] = lat_miss
                j += 1
                continue
            slot = set_index * assoc + way
            value = st.dfh[way]
            if value == _S0 and not rows[slot] and slot not in slot_state:
                # Clean b'00 hit: served as-is, an LRU touch.
                outcome = 0
                d_hits_served += 1
            else:
                outcome = self._read_hit(st, slot, value)
            if outcome == 0:
                d_read_hits += 1
                del resident[line]
                resident[line] = way
                lat[gi] = lat_hit
            elif outcome == 1:
                d_read_hits += 1
                tx.corrected += 1
                del resident[line]
                resident[line] = way
                lat[gi] = lat_corrected
            else:
                tx.error_misses += 1
                self._drop_way(st, way, outcome == 3)
                d_read_misses += 1
                d_mem_reads += 1
                if not allocate(st, set_index, line):
                    tx.bypasses += 1
                lat[gi] = lat_error
            j += 1
        tx.reads += d_reads
        tx.read_hits += d_read_hits
        tx.read_misses += d_read_misses
        tx.mem_reads += d_mem_reads
        tx.writes += d_writes
        tx.mem_writes += d_writes  # write-through: every write goes out
        tx.write_hits += d_write_hits
        tx.write_misses += d_writes - d_write_hits
        tx.hits_served += d_hits_served
        if self._check_invariants:
            self._check_rng_window()
        if j < n:
            self._parked[cluster] = tx
            if METRICS.enabled:
                METRICS.incr("killi_replay.pauses")
            return j
        self._commit()
        return None

    # -- commit ------------------------------------------------------------

    def _commit(self) -> None:
        tx = self._tx
        cache = self._cache
        tags = cache.tags
        line_at = tags._line_at
        stamp = cache._hit_stamp
        assoc = self._assoc
        scheme = self._scheme
        off_mv = scheme._off_initial_in_set
        stamp_clear = [-1] * assoc
        pending = []
        for set_index, st in tx.sets.items():
            # The real ways are untouched since _materialize exported
            # them, and disables only accumulate in the shadow.
            base = set_index * assoc
            way_lines = st.way_lines
            orig = line_at[base : base + assoc]
            disabled = st.disabled
            if (
                len(disabled) != tags.disabled_in_set[set_index]
                or way_lines != orig
            ):
                # Clear every changed way first, so a line that moved
                # between ways cannot have its index entry popped by the
                # overwrite-insert of its old way.
                for way in range(assoc):
                    if way in disabled:
                        tags.disable(set_index, way)  # idempotent
                    elif way_lines[way] != orig[way] and orig[way] >= 0:
                        tags.invalidate(set_index, way)
                orig = line_at[base : base + assoc]
            # Fills, and every resident way stamped in final recency
            # order: untouched ways keep their relative order ahead of
            # the touched ones, so the order among valid ways — all the
            # replacement policy reads — matches the per-access touches.
            resident = st.resident
            pending.append((set_index, orig, resident, list(resident.values())))
            stamp[base : base + assoc] = stamp_clear
            if st.off_d:
                off_mv[set_index] += st.off_d
        if pending:
            bulk_apply_set_replays(tags, cache.lru, pending)
        if tx.dfh_over:
            dfh_mv = self._dfh_mv
            for slot, value in tx.dfh_over.items():
                dfh_mv[slot] = value
            trans_mv = scheme._transitions_mv
            for key, count in enumerate(tx.trans):
                if count:
                    trans_mv[key >> 2, key & 3] += count
        # ECC cache: key-list writeback plus a membership diff for the
        # O(1) mirror.
        ecc = self._ecc
        entries = ecc._sets[tx.cluster]
        new_entries = [(key // assoc, key % assoc) for key in tx.ecc_entries]
        if entries != new_entries:
            if ecc._l2_assoc is not None:
                member = ecc._member
                l2_assoc = ecc._l2_assoc
                old_keys = set(entries)
                new_keys = set(new_entries)
                for key_set, key_way in old_keys - new_keys:
                    member[key_set * l2_assoc + key_way] = False
                for key_set, key_way in new_keys - old_keys:
                    member[key_set * l2_assoc + key_way] = True
            entries[:] = new_entries
        ecc.accesses += tx.ecc_acc
        ecc.allocations += tx.ecc_alloc
        ecc.evictions += tx.ecc_evict
        # Error rows: install the last event per slot.  A row the
        # shadow already derived for that event (a fill prediction —
        # the same coins — or a write-hit re-roll) is exactly
        # what on_fill / on_write_hit would store; a fill never read in
        # the shadow replays on_fill itself.
        errors = self._errors
        rows = tx.rows
        for slot, event in tx.slot_state.items():
            if event == _CLEARED:
                errors.clear(slot)
                continue
            rec = rows.get(slot)
            if rec is not None and rec[0] == event:
                errors.install_row(slot, rec[1])
            else:
                errors.on_fill(slot, event)
        stats = cache.stats
        stats.reads += tx.reads
        stats.read_hits += tx.read_hits
        stats.read_misses += tx.read_misses
        stats.writes += tx.writes
        stats.write_hits += tx.write_hits
        stats.write_misses += tx.write_misses
        stats.evictions += tx.evictions
        stats.fills += tx.fills
        stats.bypasses += tx.bypasses
        stats.error_induced_misses += tx.error_misses
        stats.corrected_reads += tx.corrected
        stats.invalidations += tx.invalidations
        stats.ecc_evict_invalidations += tx.ecc_evict_inval
        if tx.ecc_corrections:
            stats.bump("ecc_corrections", tx.ecc_corrections)
        if tx.reclass_clean:
            stats.bump("ecc_evict_reclassified_clean", tx.reclass_clean)
        if tx.evict_disables:
            stats.bump("ecc_evict_disables", tx.evict_disables)
        cache.memory_reads += tx.mem_reads
        cache.memory_writes += tx.mem_writes
        scheme.hits_served += tx.hits_served
        scheme.sdc_events += tx.sdc
        self._tx = None
        if METRICS.enabled:
            METRICS.incr("killi_replay.commits")
            METRICS.incr("killi_replay.materializations", len(tx.sets))
        if self._check_invariants:
            for set_index in tx.sets:
                check_set_invariants(cache, set_index)
