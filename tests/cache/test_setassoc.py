"""Directed cases for the tag store and LRU state contract."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.soa import SoaLruState, SoaTagStore


@pytest.fixture
def geo():
    return CacheGeometry(size_bytes=4 * 1024, line_bytes=64, associativity=4)


@pytest.fixture
def tags(geo):
    return SoaTagStore(geo)


class TestLookupInsert:
    def test_miss_on_empty(self, tags):
        assert tags.lookup(0) is None

    def test_hit_after_insert(self, tags):
        tags.insert(0x100, way=2)
        assert tags.lookup(0x100) == 2
        assert tags.lookup(0x100 + 63) == 2  # same line

    def test_different_set_misses(self, tags, geo):
        tags.insert(0, way=0)
        assert tags.lookup(geo.line_bytes) is None

    def test_same_set_different_tag_misses(self, tags, geo):
        tags.insert(0, way=0)
        other = geo.n_sets * geo.line_bytes  # same set, next tag
        assert tags.lookup(other) is None

    def test_insert_replaces_previous_tag(self, tags, geo):
        tags.insert(0, way=0)
        other = geo.n_sets * geo.line_bytes
        tags.insert(other, way=0)
        assert tags.lookup(other) == 0
        assert tags.lookup(0) is None

    def test_insert_into_disabled_raises(self, tags):
        tags.disable(0, 1)
        with pytest.raises(ValueError):
            tags.insert(0, way=1)


class TestInvalidateDisable:
    def test_invalidate(self, tags):
        tags.insert(0x40, way=1)
        set_index = tags.geometry.set_of(0x40)
        tags.invalidate(set_index, 1)
        assert tags.lookup(0x40) is None
        assert not tags.is_valid(set_index, 1)
        assert tags.count_valid() == 0

    def test_disable_clears_and_blocks(self, tags):
        tags.insert(0x40, way=1)
        set_index = tags.geometry.set_of(0x40)
        tags.disable(set_index, 1)
        assert tags.lookup(0x40) is None
        assert tags.is_disabled(set_index, 1)
        assert not tags.is_valid(set_index, 1)
        assert tags.count_valid() == 0
        assert tags.count_disabled() == 1
        assert tags.disabled_in_set[set_index] == 1

    def test_enable_all(self, tags):
        tags.disable(0, 0)
        tags.disable(3, 2)
        tags.disable(3, 2)  # idempotent
        assert tags.count_disabled() == 2
        tags.enable(3, 2)
        tags.enable(3, 2)  # idempotent
        assert tags.count_disabled() == 1
        assert tags.disabled_in_set[3] == 0
        tags.disable(3, 1)
        tags.enable_all()
        assert tags.count_disabled() == 0
        assert tags.disabled_in_set == [0] * tags.geometry.n_sets

    def test_counts(self, tags, geo):
        tags.insert(0, way=0)
        tags.insert(64, way=1)
        assert tags.count_valid() == 2
        tags.insert(geo.n_sets * geo.line_bytes, way=0)  # refill: no change
        assert tags.count_valid() == 2
        assert tags.valid_in_set[0] == 1
        tags.disable(0, 0)  # invalidates the resident line
        assert (tags.count_valid(), tags.count_disabled()) == (1, 1)
        tags.enable(0, 0)
        assert (tags.count_valid(), tags.count_disabled()) == (1, 0)

    def test_dirty_cleared_on_insert(self, tags):
        tags.insert(0, way=0)
        set_index = tags.geometry.set_of(0)
        tags.set_dirty(set_index, 0)
        assert tags.is_dirty(set_index, 0)
        tags.insert(tags.geometry.n_sets * 64, way=0)  # refill over dirty
        assert not tags.is_dirty(set_index, 0)
        tags.set_dirty(set_index, 0)
        tags.invalidate(set_index, 0)
        assert not tags.is_dirty(set_index, 0)
        tags.insert(0, way=0)
        assert not tags.is_dirty(set_index, 0)


class TestLru:
    def test_initial_order(self):
        lru = SoaLruState(2, 4)
        assert lru.recency_order(0) == (0, 1, 2, 3)

    def test_touch_moves_to_front(self):
        lru = SoaLruState(1, 4)
        lru.touch(0, 2)
        assert lru.recency_order(0) == (2, 0, 1, 3)

    def test_demote_moves_to_back(self):
        lru = SoaLruState(1, 4)
        lru.demote(0, 0)
        assert lru.recency_order(0) == (1, 2, 3, 0)

    def test_lru_choice_respects_eligibility(self):
        lru = SoaLruState(1, 4)
        lru.touch(0, 3)  # order: 3,0,1,2
        assert lru.lru_choice(0, {0, 3}) == 0
        assert lru.lru_choice(0, {3}) == 3
        assert lru.lru_choice(0, set()) is None

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            SoaLruState(0, 4)
        with pytest.raises(ValueError):
            SoaLruState(4, 0)

    def test_sets_independent(self):
        lru = SoaLruState(2, 4)
        lru.touch(0, 3)
        assert lru.recency_order(1) == (0, 1, 2, 3)
