"""The unified transaction layer: policies, transactions, presets.

The scalar access semantics live in exactly one place
(:class:`repro.cache.core.CacheModel`); these tests pin the strategy
objects that parameterize it, the formal transaction entry point, the
``semantics_batchable`` precondition the bulk tiers consult, and the
access streams recorded on the deleted object tag store.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cache.core import (
    LRU_FILL,
    NO_WRITE_ALLOCATE,
    WRITE_ALLOCATE,
    WRITE_BACK,
    WRITE_THROUGH,
    AccessTransaction,
    CacheLatencies,
    CacheModel,
    WriteBackCache,
    WriteThroughCache,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.hooks import UnprotectedScheme


def small_geometry() -> CacheGeometry:
    return CacheGeometry(
        size_bytes=16 * 1024, line_bytes=64, associativity=4, banks=2
    )


def random_stream(seed: int, n: int = 600, footprint: int = 64 * 1024):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, footprint // 64, n) * 64).tolist()
    stores = (rng.random(n) < 0.35).tolist()
    return list(zip(addrs, stores))


def drive(cache, stream):
    return [
        cache.write(addr) if store else cache.read(addr)
        for addr, store in stream
    ]


def state_key(cache):
    return (
        cache.stats.as_dict(),
        cache.memory_reads,
        cache.memory_writes,
    )


class TestPolicies:
    def test_preset_flags(self):
        assert not WRITE_THROUGH.write_back
        assert WRITE_BACK.write_back
        assert not NO_WRITE_ALLOCATE.write_allocate
        assert NO_WRITE_ALLOCATE.prefer_invalid
        assert WRITE_ALLOCATE.write_allocate
        assert not LRU_FILL.write_allocate
        assert not LRU_FILL.prefer_invalid

    def test_default_model_is_the_paper_l2(self):
        cache = CacheModel(small_geometry())
        assert cache.write_policy is WRITE_THROUGH
        assert cache.allocation_policy is NO_WRITE_ALLOCATE

    def test_presets_are_the_same_class(self):
        wt = WriteThroughCache(small_geometry())
        wb = WriteBackCache(small_geometry())
        assert isinstance(wt, CacheModel)
        assert isinstance(wb, WriteThroughCache)
        assert wt.write_policy is WRITE_THROUGH
        assert wb.write_policy is WRITE_BACK
        assert wb.allocation_policy is WRITE_ALLOCATE

    def test_write_hit_latency_by_policy(self):
        lat = CacheLatencies()
        wt = WriteThroughCache(small_geometry())
        wb = WriteBackCache(small_geometry())
        addr = 0
        wt.read(addr)
        wb.read(addr)
        assert wt.write(addr) == lat.tag  # posted through
        assert wb.write(addr) == lat.tag + lat.data  # lands in place


class TestSemanticsBatchable:
    def test_write_through_preset_is_batchable(self):
        assert WriteThroughCache(small_geometry()).semantics_batchable

    def test_write_back_preset_is_not(self):
        assert not WriteBackCache(small_geometry()).semantics_batchable

    def test_lru_fill_policy_is_not(self):
        cache = CacheModel(small_geometry(), allocation_policy=LRU_FILL)
        assert not cache.semantics_batchable

    def test_protocol_override_opts_out(self):
        class Tweaked(WriteThroughCache):
            def read(self, addr):
                return super().read(addr)

        assert not Tweaked(small_geometry()).semantics_batchable

    def test_non_protocol_override_stays_batchable(self):
        class Annotated(WriteThroughCache):
            def label(self):
                return "still the same semantics"

        assert Annotated(small_geometry()).semantics_batchable

    def test_unbatchable_cache_refuses_set_replay(self):
        wb = WriteBackCache(small_geometry())
        assert wb.set_replay_profile(0) is None


class TestExecute:
    @pytest.mark.parametrize("preset", [WriteThroughCache, WriteBackCache])
    def test_execute_matches_read_write(self, preset):
        direct, formal = preset(small_geometry()), preset(small_geometry())
        stream = random_stream(5)
        lat_direct = drive(direct, stream)
        lat_formal = [
            formal.execute(
                AccessTransaction.store(a) if s else AccessTransaction.load(a)
            )
            for a, s in stream
        ]
        assert lat_direct == lat_formal
        assert state_key(direct) == state_key(formal)

    def test_transaction_constructors(self):
        assert not AccessTransaction.load(64).is_store
        assert AccessTransaction.store(64).is_store
        assert AccessTransaction(64).is_store is False


class TestSubstrateParity:
    """Latencies and final state pinned to the deleted object substrate.

    Each digest is the SHA-256 of ``[latencies, cache.state_snapshot()]``
    in canonical JSON, recorded at commit 81a102b by driving the stream
    through the preset over the object tag store (the SoA store gave
    the same digests there).
    """

    PINNED = {
        ("WriteThroughCache", 1): "b05fc5b4e64d84c84498ec9920300c2f7eea785527a47d6fd55a541179b25a9e",
        ("WriteThroughCache", 2): "ab62adf5a7b9a0fc7fe37cf07d946a8d055ca921559b90ec3eeb0a0ba77b76f0",
        ("WriteThroughCache", 3): "86a3ad0c1c7694a9bfde5cf2930a63c475cc18d69c6d8bdf01b97c92f6a09597",
        ("WriteBackCache", 1): "a651ee4dca7f663c9dd2602f40e781011e3751b0021d5cf0e51bba64078f8286",
        ("WriteBackCache", 2): "ec62f66560ac39628240ebe6cea9258286a276ad01c91f8cb73f4cee0b98a814",
        ("WriteBackCache", 3): "aa82d51c97ef330356c6decafc2ba0d0c889ccea20b14062d20260dbb981e2d3",
    }

    @pytest.mark.parametrize("preset", [WriteThroughCache, WriteBackCache])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_streams(self, preset, seed):
        stream = random_stream(seed, footprint=32 * 1024)
        cache = preset(small_geometry(), UnprotectedScheme())
        latencies = drive(cache, stream)
        blob = json.dumps(
            [latencies, cache.state_snapshot()], sort_keys=True, default=str
        )
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert digest == self.PINNED[(preset.__name__, seed)]


class TestDirtyEvictionAccounting:
    """Write-back dirty lines must be written to memory exactly once,
    when evicted."""

    def test_dirty_eviction_writes_back(self):
        geometry = small_geometry()
        cache = WriteBackCache(geometry)
        assoc, stride = geometry.associativity, geometry.n_sets * 64
        # Fill set 0 with dirty lines (write-allocate misses)...
        for i in range(assoc):
            cache.write(i * stride)
        assert cache.memory_reads == assoc  # allocate fetches
        assert cache.memory_writes == 0  # nothing posted, nothing evicted
        # ...then evict them all with clean read misses.
        for i in range(assoc, 2 * assoc):
            cache.read(i * stride)
        assert cache.stats.evictions == assoc
        assert cache.memory_writes == assoc  # one write-back per dirty line

    def test_clean_eviction_writes_nothing(self):
        geometry = small_geometry()
        cache = WriteBackCache(geometry)
        assoc, stride = geometry.associativity, geometry.n_sets * 64
        for i in range(2 * assoc):
            cache.read(i * stride)
        assert cache.stats.evictions == assoc
        assert cache.memory_writes == 0

    def test_invalidate_line_flushes_dirty(self):
        cache = WriteBackCache(small_geometry())
        cache.write(0)
        way = cache.tags.lookup(0)
        before = cache.memory_writes
        cache.invalidate_line(0, way)
        assert cache.memory_writes == before + 1

    def test_rewrite_does_not_double_count_dirty(self):
        cache = WriteBackCache(small_geometry())
        for _ in range(5):
            cache.write(0)  # stays dirty; on_dirty fires once
        stride = cache.geometry.n_sets * 64
        for i in range(1, cache.geometry.associativity + 1):
            cache.read(i * stride)
        assert cache.memory_writes == 1
