"""The unified cache transaction layer.

One parameterized :class:`CacheModel` implements the scalar access
semantics every tier of the simulator compiles against: the paper's
write-through GPU L2 (:class:`WriteThroughCache`), the Section 5.6.1
write-back extension (:class:`WriteBackCache`) and the per-CU L1
filter caches (:class:`repro.gpu.hierarchy.SimpleL1`) are all presets
of the same class, differing only in their
:class:`WritePolicy`/:class:`AllocationPolicy` strategy objects.

Latency accounting follows Table 3: a hit pays tag + data + check
latency; ECC-cache accesses are hidden under the data access; a miss
additionally pays the memory latency.  Error-induced misses (Table 2's
"signal error-induced cache miss; trigger new load request") pay the
hit latency for the failed attempt plus a full miss.

The tag store and LRU state live on flat arrays
(:mod:`repro.cache.soa`).  Read hits additionally go through an epoch
cache: once the scheme declares a line's hit behaviour stable
(:meth:`~repro.cache.hooks.ProtectionScheme.hit_replay_info`), the
outcome is memoized per (set, way) and replayed without scheme
dispatch until a cache-visible event clears the line's stamp or a
scheme event bumps the global epoch.

Formal access protocol: an access is an :class:`AccessTransaction`
(address + direction), :meth:`CacheModel.execute` resolves it to a
latency in cycles, and the scheme-visible classification of a hit is
an :class:`~repro.cache.hooks.AccessOutcome`.  The scalar engine is a
thin interpreter of this layer; the batched engine derives its
preconditions from :attr:`CacheModel.semantics_batchable` /
:meth:`CacheModel.set_replay_profile` and pushes its bulk effects
back through :meth:`CacheModel.commit_set_replays` — it never
re-states the semantics itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme
from repro.cache.soa import SoaLruState, SoaTagStore, bulk_apply_set_replays
from repro.cache.stats import CacheStats
from repro.testing.invariants import check_set_invariants, invariants_enabled

__all__ = [
    "CacheLatencies",
    "WritePolicy",
    "AllocationPolicy",
    "WRITE_THROUGH",
    "WRITE_BACK",
    "NO_WRITE_ALLOCATE",
    "WRITE_ALLOCATE",
    "LRU_FILL",
    "AccessTransaction",
    "CacheModel",
    "WriteThroughCache",
    "WriteBackCache",
]


@dataclass(frozen=True)
class CacheLatencies:
    """Access latencies in cycles (paper Table 3 values as defaults)."""

    tag: int = 2
    data: int = 2
    check: int = 1
    """SECDED / parity check latency; ECC-cache access is hidden."""
    correction: int = 1
    """Extra cycles when a correction is applied before data return."""
    memory: int = 200
    """Main-memory access latency (not in Table 3; modelled)."""

    @property
    def hit(self) -> int:
        return self.tag + self.data + self.check

    @property
    def miss(self) -> int:
        return self.tag + self.memory


@dataclass(frozen=True)
class WritePolicy:
    """What a store does to the memory system.

    ``write_back=False`` (write-through): every store is posted to
    memory; a hit additionally updates the cached copy, and the
    requester stalls only for the tag check.  ``write_back=True``:
    dirty data lives only in the cache until eviction — a store hit
    marks the line dirty (``on_dirty`` fires on the clean->dirty
    transition) and pays tag + data.
    """

    name: str
    write_back: bool


@dataclass(frozen=True)
class AllocationPolicy:
    """Who gets a line on a fill, and whether stores allocate.

    ``write_allocate`` — a store miss fetches the line and modifies it
    in place (write-back caches) instead of bypassing the cache.
    ``prefer_invalid`` — victim selection prefers invalid ways (with
    the scheme's fill-priority ranking) before falling back to LRU;
    False means plain LRU fill: the LRU way is always the victim,
    valid or not.  The L1 filter caches use the latter, and the
    batched L1 kernel (:mod:`repro.gpu.l1filter`) replays exactly that
    min-age convention — the two must never diverge.
    """

    name: str
    write_allocate: bool
    prefer_invalid: bool = True


WRITE_THROUGH = WritePolicy("write-through", write_back=False)
WRITE_BACK = WritePolicy("write-back", write_back=True)

NO_WRITE_ALLOCATE = AllocationPolicy("no-write-allocate", write_allocate=False)
WRITE_ALLOCATE = AllocationPolicy("write-allocate", write_allocate=True)
LRU_FILL = AllocationPolicy(
    "lru-fill", write_allocate=False, prefer_invalid=False
)


@dataclass(frozen=True)
class AccessTransaction:
    """One memory access presented to the transaction layer."""

    addr: int
    is_store: bool = False

    @classmethod
    def load(cls, addr: int) -> "AccessTransaction":
        return cls(addr, False)

    @classmethod
    def store(cls, addr: int) -> "AccessTransaction":
        return cls(addr, True)


#: Methods that together *are* the scalar access protocol.  A subclass
#: that overrides any of them has semantics the bulk tiers were never
#: validated against, so ``semantics_batchable`` turns False and every
#: engine falls back to per-access calls for it.
_ACCESS_PROTOCOL = (
    "read",
    "write",
    "_miss",
    "_allocate",
    "_choose_victim",
    "_memoize",
    "set_replay_info",
    "set_replay_profile",
    "apply_set_replays",
    "commit_set_replays",
)

_PROTOCOL_BY_CLASS: dict = {}


def _access_protocol_unchanged(cls) -> bool:
    """True when ``cls`` inherits the full access protocol unchanged."""
    cached = _PROTOCOL_BY_CLASS.get(cls)
    if cached is None:
        cached = all(
            getattr(cls, name) is getattr(CacheModel, name)
            for name in _ACCESS_PROTOCOL
        )
        _PROTOCOL_BY_CLASS[cls] = cached
    return cached


class CacheModel:
    """A set-associative protected cache, parameterized by policy.

    Parameters
    ----------
    geometry:
        Shape of the cache.
    scheme:
        Protection scheme consulted on every access.
    latencies:
        Cycle costs per access type.
    write_policy / allocation_policy:
        The strategy objects; defaults reproduce the paper's L2
        (write-through / no-write-allocate).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
        *,
        write_policy: WritePolicy | None = None,
        allocation_policy: AllocationPolicy | None = None,
    ):
        self.geometry = geometry
        self.scheme = scheme if scheme is not None else ProtectionScheme()
        self.latencies = latencies if latencies is not None else CacheLatencies()
        self.write_policy = write_policy if write_policy is not None else WRITE_THROUGH
        self.allocation_policy = (
            allocation_policy if allocation_policy is not None else NO_WRITE_ALLOCATE
        )
        self.tags = SoaTagStore(geometry)
        self.lru = SoaLruState(geometry.n_sets, geometry.associativity)
        self.stats = CacheStats()
        self.memory_reads = 0
        self.memory_writes = 0
        # Policy flags, flattened for the hot path.
        self._write_back = self.write_policy.write_back
        self._write_allocate = self.allocation_policy.write_allocate
        self._prefer_invalid = self.allocation_policy.prefer_invalid
        # Epoch-cached hit path: per-line stamp + replay tuple.  A
        # stamp equal to the current epoch *sum* (global epoch + the
        # line's set epoch) means the memoized info is valid;
        # cache-visible per-line events reset the stamp to -1,
        # set-local scheme events (a DFH transition) bump that set's
        # epoch, and global scheme events (resets, external error
        # injection) bump the global epoch, invalidating every stamp
        # at once.  Both counters are monotone nondecreasing, so the
        # sum strictly increases on any relevant bump and a stale
        # stamp can never read as valid again.
        self._assoc = geometry.associativity
        self._n_sets = geometry.n_sets
        self._line_bytes = geometry.line_bytes
        # Flat cycle counts (the CacheLatencies properties re-derive
        # their sums on every access otherwise).
        self._lat_hit = self.latencies.hit
        self._lat_hit_corrected = self.latencies.hit + self.latencies.correction
        self._lat_miss = self.latencies.miss
        self._lat_tag = self.latencies.tag
        # Store latency seen by the requester: tag check only when the
        # write is posted through, tag + data when it lands in place.
        self._lat_write_hit = (
            self.latencies.tag + self.latencies.data
            if self._write_back
            else self._lat_tag
        )
        self.epoch = 0
        self._set_epoch = [0] * geometry.n_sets
        n_lines = geometry.n_sets * geometry.associativity
        self._hit_stamp = [-1] * n_lines
        self._hit_info = [None] * n_lines
        self.scheme.attach(self)
        # Skip the per-way usability call unless this scheme instance
        # can actually filter (type-level override check by default;
        # config-gated filters like FLAIR's training window refine it).
        self._scheme_filters_ways = self.scheme.filters_ways()
        # Skip priority ranking of invalid candidates unless the scheme
        # actually ranks (a default scheme returns all-zero priorities,
        # under which "first max" is just the first candidate).
        self._scheme_prioritizes = (
            type(self.scheme).fill_priority is not ProtectionScheme.fill_priority
            or type(self.scheme).fill_priorities
            is not ProtectionScheme.fill_priorities
        )
        self._all_ways = list(range(geometry.associativity))
        self._way_attempts = range(geometry.associativity)
        # The bulk tiers' precondition, decided once: scalar semantics
        # are replayable in batch only for the write-through /
        # no-write-allocate / invalid-preferring protocol they were
        # validated against, and only when no subclass rewrote any part
        # of the access protocol.
        self.semantics_batchable = (
            not self._write_back
            and not self._write_allocate
            and self._prefer_invalid
            and _access_protocol_unchanged(type(self))
        )
        # Armed runtime invariants (REPRO_CHECK_INVARIANTS): every
        # access re-checks its set's structural invariants after it
        # resolves, and the bulk commit point re-checks each replayed
        # set.  Arming wraps the bound access methods per instance, so
        # the disarmed hot path carries no extra branch at all.
        self._check_invariants = invariants_enabled()
        if self._check_invariants:
            self._arm_invariants()

    def _arm_invariants(self) -> None:
        """Shadow ``read``/``write`` with invariant-checking wrappers.

        Instance-attribute shadowing keeps the class-level access
        protocol untouched (``semantics_batchable`` still sees the
        pristine methods) while every caller — :meth:`execute`, the
        engines' cached ``l2.read``/``l2.write`` bound methods, the
        L1 adapters — resolves to the checked wrapper.
        """
        inner_read = self.read
        inner_write = self.write
        line_bytes = self._line_bytes
        n_sets = self._n_sets

        def checked_read(addr: int):
            result = inner_read(addr)
            check_set_invariants(self, (addr // line_bytes) % n_sets)
            return result

        def checked_write(addr: int):
            result = inner_write(addr)
            check_set_invariants(self, (addr // line_bytes) % n_sets)
            return result

        self.read = checked_read
        self.write = checked_write

    def bump_epoch(self) -> None:
        """Invalidate every memoized hit (scheme-side state changed)."""
        self.epoch += 1

    def bump_set_epoch(self, set_index: int) -> None:
        """Invalidate one set's memoized hits (set-local scheme event).

        A DFH transition changes only its own line's classification;
        lines outside the set keep their memoized outcomes, so a busy
        kernel no longer re-dispatches every memoized hit in the L2
        each time a single line somewhere retrains.
        """
        self._set_epoch[set_index] += 1

    # -- public access API ------------------------------------------------

    def execute(self, txn: AccessTransaction) -> int:
        """Resolve one transaction; returns the latency in cycles.

        The formal entry point of the transaction layer.  The scalar
        engine's inner loop calls :meth:`read` / :meth:`write` directly
        — same semantics, no per-access transaction allocation — so
        the reference stays an honest baseline for the bulk tiers.
        """
        if txn.is_store:
            return self.write(txn.addr)
        return self.read(txn.addr)

    def read(self, addr: int) -> int:
        """Read access; returns the latency in cycles.

        Write-back caches route dirty-line hits through
        :meth:`_read_dirty_hit` first: a detected-uncorrectable error
        there is a DUE (the only copy was modified), and dirty hits
        never consult the epoch cache — a stamp cannot be valid on a
        dirty line (every path that dirties a line clears it, and the
        dirty path does not memoize), so the full dispatch always runs.
        """
        if self._write_back:
            way = self.tags.lookup(addr)
            if way is not None:
                set_index = (addr // self._line_bytes) % self._n_sets
                if self.tags.is_dirty(set_index, way):
                    return self._read_dirty_hit(addr, set_index, way)
        self.stats.reads += 1
        way = self.tags.lookup(addr)
        if way is not None:
            set_index = (addr // self._line_bytes) % self._n_sets
            idx = set_index * self._assoc + way
            if self._hit_stamp[idx] == self.epoch + self._set_epoch[set_index]:
                # Memoized steady-state hit: skip scheme dispatch.
                info = self._hit_info[idx]
                self.stats.read_hits += 1
                self.lru.touch(set_index, way)
                self.scheme.apply_replay(info)
                if info[0]:
                    self.stats.corrected_reads += 1
                    return self._lat_hit_corrected
                return self._lat_hit
            outcome = self.scheme.on_read_hit(set_index, way)
            if outcome is AccessOutcome.CLEAN:
                self.stats.read_hits += 1
                self.lru.touch(set_index, way)
                self._memoize(idx, set_index, way)
                return self._lat_hit
            if outcome is AccessOutcome.CORRECTED:
                self.stats.read_hits += 1
                self.stats.corrected_reads += 1
                self.lru.touch(set_index, way)
                self._memoize(idx, set_index, way)
                return self._lat_hit_corrected
            # Error-induced miss: drop the copy and refetch.
            self._hit_stamp[idx] = -1
            self.stats.error_induced_misses += 1
            if outcome is AccessOutcome.DISABLE_MISS:
                self.tags.disable(set_index, way)
            else:
                self.tags.invalidate(set_index, way)
            self.lru.demote(set_index, way)
            return self._lat_hit + self._miss(addr)
        return self._miss(addr)

    def _read_dirty_hit(self, addr: int, set_index: int, way: int) -> int:
        """Read hit on a dirty line (write-back only).

        Peek at the outcome path: a detected-uncorrectable error here
        loses modified data — the stats record it as a DUE.
        """
        self.stats.reads += 1
        outcome = self.scheme.on_read_hit(set_index, way)
        if outcome is AccessOutcome.CLEAN:
            self.stats.read_hits += 1
            self.lru.touch(set_index, way)
            return self._lat_hit
        if outcome is AccessOutcome.CORRECTED:
            self.stats.read_hits += 1
            self.stats.corrected_reads += 1
            self.lru.touch(set_index, way)
            return self._lat_hit_corrected
        # Data loss: the only copy was modified and is now gone.
        self._hit_stamp[set_index * self._assoc + way] = -1
        self.stats.error_induced_misses += 1
        self.stats.bump("due_on_dirty")
        if outcome is AccessOutcome.DISABLE_MISS:
            self.tags.disable(set_index, way)
        else:
            self.tags.invalidate(set_index, way)
        self.lru.demote(set_index, way)
        return self._lat_hit + self._miss(addr)

    def _memoize(self, idx: int, set_index: int, way: int) -> None:
        """Record the line's replay tuple if the scheme declares it stable.

        Queried *after* ``on_read_hit`` returned (and the epoch sum is
        read afterwards too), so transitions made during the call —
        e.g. Killi's INITIAL -> STABLE_0 fast-clean promotion, which
        bumps the set's epoch — can never leave a stale-valid entry.
        """
        info = self.scheme.hit_replay_info(set_index, way)
        if info is not None:
            self._hit_info[idx] = info
            self._hit_stamp[idx] = self.epoch + self._set_epoch[set_index]

    def write(self, addr: int) -> int:
        """Write access; returns the latency in cycles.

        Write-through / no-write-allocate: the store is posted to
        memory regardless; a hit also updates the cached copy (and its
        protection metadata), and the requester stalls only for the
        tag check.  Write-back / write-allocate: a hit marks the line
        dirty (``on_dirty`` on the clean->dirty transition); a miss
        fetches the line and modifies it in place, bypassing straight
        to memory only when no way may receive the fill.
        """
        self.stats.writes += 1
        if not self._write_back:
            self.memory_writes += 1
        way = self.tags.lookup(addr)
        if way is not None:
            set_index = (addr // self._line_bytes) % self._n_sets
            self.stats.write_hits += 1
            # The overwrite re-rolls the line's stored contents.
            self._hit_stamp[set_index * self._assoc + way] = -1
            self.scheme.on_write_hit(set_index, way)
            if self._write_back and not self.tags.is_dirty(set_index, way):
                self.tags.set_dirty(set_index, way, True)
                self.scheme.on_dirty(set_index, way)
            self.lru.touch(set_index, way)
            return self._lat_write_hit
        self.stats.write_misses += 1
        if not self._write_allocate:
            # Posted write: the store itself does not stall the
            # requester beyond the tag check.
            return self._lat_tag
        # Write-allocate: fetch the line, then modify it.
        self.memory_reads += 1
        set_index = (addr // self._line_bytes) % self._n_sets
        way = self._allocate(addr)
        if way is None:
            # Nowhere to put it: the store goes straight to memory.
            self.stats.bypasses += 1
            self.memory_writes += 1
            return self._lat_miss
        self._hit_stamp[set_index * self._assoc + way] = -1
        self.scheme.on_write_hit(set_index, way)
        self.tags.set_dirty(set_index, way, True)
        self.scheme.on_dirty(set_index, way)
        return self._lat_miss

    # -- batched set replay ------------------------------------------------

    def set_replay_info(self, set_index: int):
        """Per-hit replay tuple if the set may be replayed in batch.

        Combines the cache-level conditions (batchable scalar
        semantics, no disabled ways — their presence changes victim
        selection — and no way filtering) with the scheme's own
        set-inertness probe
        (:meth:`~repro.cache.hooks.ProtectionScheme.set_replay_info`).
        None forces the per-access path for the set.
        """
        if not self.semantics_batchable:
            return None
        if self.tags.disabled_in_set[set_index]:
            return None
        if self._scheme_filters_ways:
            return None
        return self.scheme.set_replay_info(set_index)

    def set_replay_profile(self, set_index: int):
        """Batched-replay profile for the set, or None (per-access path).

        The generalised probe the batched engine uses: disabled ways
        no longer force a fallback — they are guaranteed invalid
        (``disable`` invalidates first) and ``export_set_state``
        excludes them from the fill order, which reproduces
        ``_choose_victim``'s enabled-candidates path exactly.  Only
        non-batchable scalar semantics, a *fully* disabled set (every
        fill bypasses) and way-filtering schemes still refuse at the
        cache level; everything else is the scheme's call
        (:meth:`~repro.cache.hooks.ProtectionScheme.set_replay_profile`).
        """
        if not self.semantics_batchable:
            return None
        if self._scheme_filters_ways:
            return None
        if self.tags.disabled_in_set[set_index] >= self._assoc:
            return None
        return self.scheme.set_replay_profile(set_index)

    def apply_set_replays(self, pending) -> None:
        """Write many replayed sets back at once (deferred application).

        ``pending`` holds ``(set_index, way_lines, resident,
        touch_order)`` tuples.  Deferral is sound because a replayed
        set's remaining accesses were all consumed by its replay and no
        other set reads its tag/LRU state: an inert set holds no
        ECC-cache entries, so cross-set ECC evictions can never reach
        into it mid-kernel.  The numpy columns are written in one
        fancy-indexed pass (:func:`~repro.cache.soa.bulk_apply_set_replays`).
        Every memoized hit stamp of a replayed set is conservatively
        cleared — over-invalidation only costs a re-memoization, never
        a behaviour change.
        """
        bulk_apply_set_replays(self.tags, self.lru, pending)
        assoc = self._assoc
        stamp = self._hit_stamp
        blank = [-1] * assoc
        for set_index, _, _, _ in pending:
            base = set_index * assoc
            stamp[base : base + assoc] = blank

    def commit_set_replays(
        self, pending, agg, n_misses: int, bulk_hits, n_corrected: int = 0
    ) -> None:
        """Commit a batch of replayed sets: state, stats and hooks.

        The single bulk-commit point of the transaction layer.
        ``pending`` is the deferred state write-back
        (:meth:`apply_set_replays`); ``agg`` the aggregate ``(reads,
        read_hits, writes, write_hits, evictions)`` counted by the
        replay kernels; ``n_misses`` the read-miss count (every
        batched miss fills — sets where a fill could bypass never
        batch); ``bulk_hits`` maps each replay-info tuple to its
        batched read-hit count, applied through the scheme's
        :meth:`~repro.cache.hooks.ProtectionScheme.apply_replay_bulk`;
        ``n_corrected`` counts per-way CORRECTED hits refining a CLEAN
        ``info`` (their scheme-side effects already followed ``info``
        — only the cache stat differs; the caller owns their latency
        class).  Memory traffic follows the write-through protocol:
        one memory read per miss, one posted memory write per store.
        """
        self.apply_set_replays(pending)
        st = self.stats
        agg_reads, agg_read_hits, agg_writes, agg_write_hits, agg_evs = agg
        st.reads += agg_reads
        st.read_hits += agg_read_hits
        st.read_misses += n_misses
        st.fills += n_misses
        st.evictions += agg_evs
        st.writes += agg_writes
        st.write_hits += agg_write_hits
        st.write_misses += agg_writes - agg_write_hits
        self.memory_reads += n_misses
        self.memory_writes += agg_writes
        scheme = self.scheme
        for info, hits in bulk_hits.items():
            if info[0]:
                st.corrected_reads += hits
            scheme.apply_replay_bulk(info, hits)
        st.corrected_reads += n_corrected
        if self._check_invariants:
            for set_index, _, _, _ in pending:
                check_set_invariants(self, set_index)

    # -- canonical observable state ----------------------------------------

    def state_snapshot(self) -> dict:
        """Canonical observable state.

        Captures everything the access semantics can depend on or
        produce: the stats counters, memory traffic, and — per set —
        the resident line / disabled / dirty flags of every way plus
        the LRU recency order (MRU first).  Under ``prefer_invalid`` fill
        (the L2 policy) the order is restricted to *valid* ways: an
        invalid way's recency is never read there — invalid victims
        are chosen by way index / fill priority, and ``lru_way`` is
        only consulted on a full set — so it is dead state the
        batched interpreter legitimately skips ``demote`` updates on.
        Plain-LRU fill (``prefer_invalid=False``, the L1 policy) reads
        every way's age, so the full order is recorded.  Sets still in
        their construction state are elided, so the snapshot of a
        lightly used 2 MB cache stays small and digests of equal-state
        caches match regardless of how much of the geometry was
        touched.

        Deliberately *excluded*: the epoch-cache memo state
        (``_hit_stamp`` / ``_hit_info`` and the epoch counters) — it
        is engine- and schedule-dependent by design and can never
        change an access outcome, only whether scheme dispatch is
        skipped.
        """
        tags = self.tags
        lru = self.lru
        n_sets = self._n_sets
        assoc = self._assoc
        prefer_invalid = self._prefer_invalid
        initial_order = [] if prefer_invalid else list(range(assoc))
        sets = []
        for set_index in range(n_sets):
            ways = []
            occupied = False
            for way in range(assoc):
                if tags.is_valid(set_index, way):
                    line = tags.tag_at(set_index, way) * n_sets + set_index
                else:
                    line = -1
                disabled = 1 if tags.is_disabled(set_index, way) else 0
                dirty = 1 if tags.is_dirty(set_index, way) else 0
                ways.append([line, disabled, dirty])
                if line >= 0 or disabled or dirty:
                    occupied = True
            order = list(lru.recency_order(set_index))
            if prefer_invalid:
                order = [way for way in order if ways[way][0] >= 0]
            if occupied or order != initial_order:
                sets.append([set_index, ways, order])
        return {
            "geometry": [n_sets, assoc, self._line_bytes],
            "policy": [self.write_policy.name, self.allocation_policy.name],
            "stats": self.stats.as_dict(),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "sets": sets,
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`state_snapshot`."""
        blob = json.dumps(self.state_snapshot(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def invalidate_line(self, set_index: int, way: int, reason: str = "") -> None:
        """Invalidate a valid line from outside the access path.

        Used by Killi when an ECC-cache eviction leaves an L2 line
        unprotected (paper Section 4.3).
        """
        tags = self.tags
        if not tags.is_valid(set_index, way):
            return
        if tags.is_dirty(set_index, way):
            self.memory_writes += 1  # write-back before dropping
        tags.invalidate(set_index, way)
        self._hit_stamp[set_index * self._assoc + way] = -1
        self.lru.demote(set_index, way)
        self.stats.invalidations += 1
        if reason == "ecc_evict":
            self.stats.ecc_evict_invalidations += 1
        self.scheme.on_invalidated(set_index, way)

    def reset(self) -> None:
        """Voltage change / reboot: flush everything, re-enable lines."""
        for set_index in range(self.geometry.n_sets):
            for way in range(self.geometry.associativity):
                self.tags.invalidate(set_index, way)
        self.tags.enable_all()
        self.bump_epoch()
        self.scheme.on_reset()

    # -- miss path ---------------------------------------------------------

    def _miss(self, addr: int) -> int:
        self.stats.read_misses += 1
        self.memory_reads += 1
        if self._allocate(addr) is None:
            self.stats.bypasses += 1
        return self._lat_miss

    def _allocate(self, addr: int) -> int | None:
        """Install ``addr`` into its set; returns the way or None (bypass).

        Eviction-time training may *disable* the chosen victim (Killi
        discovers a multi-bit fault in the evicted contents), in which
        case another victim is chosen.
        """
        set_index = (addr // self._line_bytes) % self._n_sets
        tags = self.tags
        for _ in self._way_attempts:
            victim, has_data = self._choose_victim(set_index)
            if victim is None:
                # Every way disabled (or unusable): no allocation.
                return None
            if has_data:
                self.stats.evictions += 1
                if tags.is_dirty(set_index, victim):
                    self.memory_writes += 1  # write-back of modified data
                self.scheme.on_evict(set_index, victim)
                if tags.is_disabled(set_index, victim):
                    continue
                tags.invalidate(set_index, victim)
            tags.insert(addr, victim)
            self._hit_stamp[set_index * self._assoc + victim] = -1
            self.stats.fills += 1
            self.scheme.on_fill(set_index, victim)
            self.lru.touch(set_index, victim)
            return victim
        return None

    def _choose_victim(self, set_index: int) -> tuple:
        """Victim selection with the scheme's priorities.

        1. Only enabled, scheme-usable ways are candidates.
        2. Invalid candidates are preferred, ordered by the scheme's
           fill priority (Killi: b'01 > b'00 > b'10).
        3. Otherwise the LRU valid candidate is evicted.

        Plain-LRU fill (``prefer_invalid=False``, the L1 policy) skips
        all of that: the LRU way is always the victim, valid or not —
        an O(associativity) age scan, no candidate list materialized.
        Note the two policies pick *different physical ways* on a cold
        set (plain LRU starts at way w-1, first-invalid at way 0), so
        the knob is behavioural, not just a fast path.

        Returns ``(way, has_data)`` where ``has_data`` tells the caller
        whether the chosen way holds a valid line (eviction required);
        ``(None, False)`` when no way may receive the fill.
        """
        tags = self.tags
        if not self._prefer_invalid:
            way = self.lru.lru_way(set_index)
            return way, tags.is_valid(set_index, way)
        if tags.disabled_in_set[set_index] == 0 and not self._scheme_filters_ways:
            # Fast path: every way is a candidate.  Full set -> plain
            # LRU; some way invalid + uniform priorities -> the first
            # invalid way, no candidate list materialized.
            if tags.valid_in_set[set_index] == self._assoc:
                return self.lru.lru_way(set_index), True
            if not self._scheme_prioritizes or self.scheme.fill_priority_is_uniform(
                set_index
            ):
                return tags.first_invalid(set_index), False
            candidates = self._all_ways
        else:
            candidates = tags.enabled_ways(set_index)
            if self._scheme_filters_ways:
                candidates = [
                    way
                    for way in candidates
                    if self.scheme.is_line_usable(set_index, way)
                ]
            if not candidates:
                return None, False
        invalid = tags.invalid_among(set_index, candidates)
        if invalid:
            if not self._scheme_prioritizes or self.scheme.fill_priority_is_uniform(
                set_index
            ):
                # Equal priorities: first max == first candidate.
                return invalid[0], False
            prios = self.scheme.fill_priorities(set_index, invalid)
            # max() with first-max tie-break, matching
            # max(invalid, key=fill_priority).
            return invalid[max(range(len(invalid)), key=prios.__getitem__)], False
        if len(candidates) == self._assoc:
            return self.lru.lru_way(set_index), True
        return self.lru.lru_choice(set_index, candidates), True


class WriteThroughCache(CacheModel):
    """The paper's GPU L2: write-through / no-write-allocate preset.

    Writes always go to memory, so detected-uncorrectable read errors
    can always be repaired by refetching.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
    ):
        CacheModel.__init__(
            self,
            geometry,
            scheme,
            latencies,
            write_policy=WRITE_THROUGH,
            allocation_policy=NO_WRITE_ALLOCATE,
        )


class WriteBackCache(WriteThroughCache):
    """Write-back / write-allocate preset (paper Section 5.6.1).

    Stores allocate and dirty data lives only in the cache until
    eviction.  This changes the reliability calculus fundamentally: a
    detected-uncorrectable error on a *dirty* line cannot be repaired
    by refetching — it is a detected uncorrectable error (DUE, i.e.
    data loss), which the stats record (``due_on_dirty``).

    The model signals dirtiness to the scheme through the ``on_dirty``
    hook so Killi's write-back variant can upgrade the line's
    protection (SECDED for dirty b'00 lines, DECTED-in-the-freed-
    parity-bits for dirty b'10 lines — the paper's proposal).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        scheme: ProtectionScheme | None = None,
        latencies: CacheLatencies | None = None,
    ):
        CacheModel.__init__(
            self,
            geometry,
            scheme,
            latencies,
            write_policy=WRITE_BACK,
            allocation_policy=WRITE_ALLOCATE,
        )
