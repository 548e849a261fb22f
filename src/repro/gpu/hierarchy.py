"""Per-CU L1 cache.

The L1s run at nominal voltage (only the L2 data array is
under-volted in the paper), so they need no protection scheme — the
L1 is the write-through / no-write-allocate / plain-LRU-fill preset
of the unified :class:`~repro.cache.core.CacheModel`, serving as a
fast filter in front of the L2.

Because an L1 is private, unprotected and deterministic, its entire
access stream can also be simulated in one batched pass — see
:mod:`repro.gpu.l1filter`, which exports the state via
:meth:`SimpleL1.export_filter_state`, runs the pass, and writes the
state back.
"""

from __future__ import annotations

from repro.cache.core import LRU_FILL, CacheModel
from repro.cache.geometry import CacheGeometry

__all__ = ["SimpleL1"]


class SimpleL1(CacheModel):
    """Write-through, no-write-allocate L1 with plain-LRU fill.

    A thin boolean adapter over the transaction layer: ``read`` /
    ``write`` return hit/miss instead of latency (the engine accounts
    L1 latency itself), while the underlying semantics — stats, LRU
    ages, the always-LRU victim convention the batched L1 filter
    replays — are :class:`~repro.cache.core.CacheModel`'s under the
    :data:`~repro.cache.core.LRU_FILL` allocation policy.
    """

    def __init__(self, geometry: CacheGeometry):
        CacheModel.__init__(self, geometry, allocation_policy=LRU_FILL)

    def read(self, addr: int) -> bool:
        """Read; returns True on hit.  Misses allocate."""
        # The unprotected scheme never converts a hit into an
        # error-induced miss, so the latency class alone separates
        # hit (tag+data+check) from miss (tag+memory).
        return CacheModel.read(self, addr) < self._lat_miss

    def write(self, addr: int) -> bool:
        """Write-through; updates the copy on hit, never allocates."""
        hits = self.stats.write_hits
        CacheModel.write(self, addr)
        return self.stats.write_hits != hits

    # -- batched-filter state interchange ----------------------------------
    #
    # Canonical form: per-slot line numbers (``-1`` = invalid) and
    # per-slot integer ages (distinct within a set; larger = more
    # recent), both flat lists indexed by ``set * associativity + way``,
    # plus the per-set age clocks and the line-number -> way dict.

    def export_filter_state(self):
        """State tuple ``(index, slot_line, age, clock)`` for the filter."""
        tags, lru = self.tags, self.lru
        return (
            dict(tags._index),
            list(tags._line_at),
            list(lru.age),
            list(lru._clock),
        )

    def import_filter_state(self, state) -> None:
        """Write a filter state tuple back into the tag store and LRU."""
        index, slot_line, age, clock = state
        geometry = self.geometry
        n_sets, assoc = geometry.n_sets, geometry.associativity
        tags, lru = self.tags, self.lru
        for set_index in range(n_sets):
            base = set_index * assoc
            n_valid = 0
            for way in range(assoc):
                line_no = slot_line[base + way]
                tags.valid[set_index, way] = line_no >= 0
                tags.tag[set_index, way] = (
                    line_no // n_sets if line_no >= 0 else -1
                )
                if line_no >= 0:
                    n_valid += 1
            tags.valid_in_set[set_index] = n_valid
        lru.age = list(age)
        tags._index = index
        tags._line_at = list(slot_line)
        tags._n_valid = len(index)
        lru._clock = list(clock)
