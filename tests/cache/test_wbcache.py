"""Unit tests for the write-back cache (independent of Killi)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import AccessOutcome, ProtectionScheme, UnprotectedScheme
from repro.cache.core import WriteBackCache


@pytest.fixture
def geo():
    return CacheGeometry(size_bytes=4 * 1024, line_bytes=64, associativity=4)


@pytest.fixture
def cache(geo):
    return WriteBackCache(geo, UnprotectedScheme())


class TestWriteAllocate:
    def test_write_miss_allocates(self, cache):
        cache.write(0x100)
        assert cache.tags.lookup(0x100) is not None
        assert cache.stats.write_misses == 1
        assert cache.memory_reads == 1  # line fetch
        assert cache.memory_writes == 0  # not written through

    def test_write_hit_no_memory_traffic(self, cache):
        cache.write(0x100)
        reads_before = cache.memory_reads
        cache.write(0x100)
        assert cache.stats.write_hits == 1
        assert cache.memory_reads == reads_before
        assert cache.memory_writes == 0

    def test_read_after_write_hits(self, cache):
        cache.write(0x100)
        assert cache.read(0x100) == cache.latencies.hit


class TestDirtyTracking:
    def test_write_marks_dirty(self, cache, geo):
        cache.write(0x100)
        way = cache.tags.lookup(0x100)
        assert cache.tags.is_dirty(geo.set_of(0x100), way)

    def test_read_does_not_mark_dirty(self, cache, geo):
        cache.read(0x100)
        way = cache.tags.lookup(0x100)
        assert not cache.tags.is_dirty(geo.set_of(0x100), way)

    def test_on_dirty_hook_fires_once(self, geo):
        events = []

        class Hook(ProtectionScheme):
            def on_dirty(self, set_index, way):
                events.append((set_index, way))

        cache = WriteBackCache(geo, Hook())
        cache.write(0x100)
        cache.write(0x100)
        assert len(events) == 1

    def test_dirty_eviction_writes_back(self, cache, geo):
        stride = geo.n_sets * geo.line_bytes
        cache.write(0)
        for i in range(1, 5):
            cache.read(i * stride)
        assert cache.memory_writes == 1

    def test_clean_eviction_no_writeback(self, cache, geo):
        stride = geo.n_sets * geo.line_bytes
        for i in range(5):
            cache.read(i * stride)
        assert cache.memory_writes == 0

    def test_refill_clears_dirty(self, cache, geo):
        stride = geo.n_sets * geo.line_bytes
        cache.write(0)
        way = cache.tags.lookup(0)
        for i in range(1, 5):
            cache.read(i * stride)
        # The way that held the dirty line was refilled clean.
        for w in range(4):
            assert not cache.tags.is_dirty(geo.set_of(0), w) or (
                cache.tags.is_valid(geo.set_of(0), w)
            )


class TestDueOnDirty:
    class FailOnce(ProtectionScheme):
        def __init__(self, outcome):
            super().__init__()
            self.outcome = outcome
            self.armed = False

        def on_read_hit(self, set_index, way):
            if self.armed:
                self.armed = False
                return self.outcome
            return AccessOutcome.CLEAN

    def test_uncorrectable_on_dirty_counts_due(self, geo):
        scheme = self.FailOnce(AccessOutcome.RETRAIN_MISS)
        cache = WriteBackCache(geo, scheme)
        cache.write(0x100)
        scheme.armed = True
        cache.read(0x100)
        assert cache.stats.extra.get("due_on_dirty") == 1
        assert cache.stats.error_induced_misses == 1

    def test_corrected_on_dirty_is_fine(self, geo):
        scheme = self.FailOnce(AccessOutcome.CORRECTED)
        cache = WriteBackCache(geo, scheme)
        cache.write(0x100)
        scheme.armed = True
        cache.read(0x100)
        assert cache.stats.extra.get("due_on_dirty", 0) == 0
        assert cache.stats.corrected_reads == 1

    def test_uncorrectable_on_clean_not_due(self, geo):
        scheme = self.FailOnce(AccessOutcome.RETRAIN_MISS)
        cache = WriteBackCache(geo, scheme)
        cache.read(0x100)
        scheme.armed = True
        cache.read(0x100)
        assert cache.stats.extra.get("due_on_dirty", 0) == 0
        assert cache.stats.error_induced_misses == 1

    def test_disable_on_dirty(self, geo):
        scheme = self.FailOnce(AccessOutcome.DISABLE_MISS)
        cache = WriteBackCache(geo, scheme)
        cache.write(0x100)
        scheme.armed = True
        cache.read(0x100)
        set_index = geo.set_of(0x100)
        assert any(
            cache.tags.is_disabled(set_index, way)
            for way in range(geo.associativity)
        )


class TestBypass:
    def test_write_bypass_when_set_dead(self, cache, geo):
        set_index = geo.set_of(0x100)
        for way in range(4):
            cache.tags.disable(set_index, way)
        cache.write(0x100)
        assert cache.stats.bypasses == 1
        assert cache.memory_writes == 1  # store had to go to memory
