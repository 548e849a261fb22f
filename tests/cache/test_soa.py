"""The tag store and LRU state against a naive model.

Drives :class:`SoaTagStore` and a plain-Python model of the same
contract through identical randomized operation sequences and checks
every observable after every step, and does the same for
:class:`SoaLruState`.  The models below are deliberately independent
of ``repro.cache``: per-set ``tag -> way`` dicts over per-way flags,
and an MRU-first list per set.
"""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.soa import SoaLruState, SoaTagStore

GEO = CacheGeometry(size_bytes=4096, line_bytes=64, associativity=4)
# 16 sets x 4 ways; address pool spans 4x the cache so sets see
# evictions, re-fills and tag aliasing.
ADDR_POOL = [line * GEO.line_bytes for line in range(4 * GEO.n_lines)]


class ModelTagStore:
    """Per-set ``tag -> way`` dicts; ``tags[set][way]`` is None when invalid."""

    def __init__(self, n_sets: int, assoc: int, line_bytes: int):
        self.n_sets, self.assoc, self.line_bytes = n_sets, assoc, line_bytes
        self.index = [{} for _ in range(n_sets)]
        self.tags = [[None] * assoc for _ in range(n_sets)]
        self.disabled = [[False] * assoc for _ in range(n_sets)]
        self.dirty = [[False] * assoc for _ in range(n_sets)]

    def split(self, addr: int):
        line = addr // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def lookup(self, addr: int):
        set_index, tag = self.split(addr)
        return self.index[set_index].get(tag)

    def insert(self, addr: int, way: int) -> None:
        set_index, tag = self.split(addr)
        if self.disabled[set_index][way]:
            raise ValueError("cannot fill a disabled line")
        self.invalidate(set_index, way)
        self.tags[set_index][way] = tag
        self.index[set_index][tag] = way

    def invalidate(self, set_index: int, way: int) -> None:
        old = self.tags[set_index][way]
        if old is not None:
            del self.index[set_index][old]
        self.tags[set_index][way] = None
        self.dirty[set_index][way] = False

    def disable(self, set_index: int, way: int) -> None:
        self.invalidate(set_index, way)
        self.disabled[set_index][way] = True

    def enable(self, set_index: int, way: int) -> None:
        self.disabled[set_index][way] = False

    def enable_all(self) -> None:
        for row in self.disabled:
            row[:] = [False] * self.assoc

    def set_dirty(self, set_index: int, way: int, value: bool) -> None:
        self.dirty[set_index][way] = value


class ModelLru:
    """One MRU-first list of ways per set."""

    def __init__(self, n_sets: int, assoc: int):
        self.order = [list(range(assoc)) for _ in range(n_sets)]

    def touch(self, set_index: int, way: int) -> None:
        self.order[set_index].remove(way)
        self.order[set_index].insert(0, way)

    def demote(self, set_index: int, way: int) -> None:
        self.order[set_index].remove(way)
        self.order[set_index].append(way)

    def recency_order(self, set_index: int):
        return tuple(self.order[set_index])

    def lru_choice(self, set_index: int, eligible):
        for way in reversed(self.order[set_index]):
            if way in eligible:
                return way
        return None


def new_model() -> ModelTagStore:
    return ModelTagStore(GEO.n_sets, GEO.associativity, GEO.line_bytes)


def assert_stores_equal(ref: ModelTagStore, soa: SoaTagStore):
    """Every observable of the tag store matches the model."""
    valid = [[tag is not None for tag in row] for row in ref.tags]
    assert soa.count_valid() == sum(map(sum, valid))
    assert soa.count_disabled() == sum(map(sum, ref.disabled))
    assert soa.valid_in_set == [sum(row) for row in valid]
    assert soa.disabled_in_set == [sum(row) for row in ref.disabled]
    all_ways = list(range(GEO.associativity))
    for set_index in range(GEO.n_sets):
        invalid = [w for w in all_ways if not valid[set_index][w]]
        enabled = [w for w in all_ways if not ref.disabled[set_index][w]]
        assert soa.enabled_ways(set_index) == enabled
        assert soa.first_invalid(set_index) == (invalid[0] if invalid else None)
        assert soa.invalid_among(set_index, all_ways) == invalid
        for way in all_ways:
            assert soa.is_valid(set_index, way) == valid[set_index][way]
            assert soa.is_disabled(set_index, way) == ref.disabled[set_index][way]
            assert soa.is_dirty(set_index, way) == ref.dirty[set_index][way]
            if valid[set_index][way]:
                assert soa.tag_at(set_index, way) == ref.tags[set_index][way]
    for addr in ADDR_POOL:
        assert soa.lookup(addr) == ref.lookup(addr)
    soa.verify()


class TestTagStoreEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_op_sequence(self, seed):
        rng = np.random.default_rng(seed)
        ref = new_model()
        soa = SoaTagStore(GEO)
        for step in range(600):
            op = rng.choice(
                ["insert", "insert", "insert", "invalidate", "disable",
                 "enable", "dirty", "enable_all"],
                p=[0.3, 0.15, 0.15, 0.15, 0.1, 0.1, 0.04, 0.01],
            )
            set_index = int(rng.integers(GEO.n_sets))
            way = int(rng.integers(GEO.associativity))
            if op == "insert":
                addr = ADDR_POOL[int(rng.integers(len(ADDR_POOL)))]
                # The access protocol only fills on a miss, into an
                # enabled way — mirror that precondition.
                if ref.lookup(addr) is not None:
                    continue
                set_index = GEO.set_of(addr)
                if ref.disabled[set_index][way]:
                    with pytest.raises(ValueError):
                        ref.insert(addr, way)
                    with pytest.raises(ValueError):
                        soa.insert(addr, way)
                    continue
                ref.insert(addr, way)
                soa.insert(addr, way)
            elif op == "invalidate":
                ref.invalidate(set_index, way)
                soa.invalidate(set_index, way)
            elif op == "disable":
                ref.disable(set_index, way)
                soa.disable(set_index, way)
            elif op == "enable":
                ref.enable(set_index, way)
                soa.enable(set_index, way)
            elif op == "dirty":
                # Only resident lines are ever dirtied (write-back
                # cache marks after a hit or fill).
                if ref.tags[set_index][way] is None:
                    continue
                value = bool(rng.integers(2))
                ref.set_dirty(set_index, way, value)
                soa.set_dirty(set_index, way, value)
            else:
                ref.enable_all()
                soa.enable_all()
            if step % 20 == 0:
                assert_stores_equal(ref, soa)
        assert_stores_equal(ref, soa)

    def test_insert_over_valid_replaces_index(self):
        # Same set, different tags: the displaced tag must stop hitting.
        soa = SoaTagStore(GEO)
        a, b = 0, GEO.n_sets * GEO.line_bytes  # both map to set 0
        soa.insert(a, way=1)
        assert soa.lookup(a) == 1
        soa.insert(b, way=1)
        assert soa.lookup(a) is None
        assert soa.lookup(b) == 1
        assert soa.count_valid() == 1

    def test_disable_invalidates_and_blocks_fill(self):
        soa = SoaTagStore(GEO)
        soa.insert(0, way=2)
        soa.disable(0, 2)
        assert soa.lookup(0) is None
        assert not soa.is_valid(0, 2)
        assert soa.count_disabled() == 1
        with pytest.raises(ValueError):
            soa.insert(0, 2)
        soa.enable_all()
        assert soa.count_disabled() == 0
        soa.insert(0, 2)
        assert soa.lookup(0) == 2


class TestLruEquivalence:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_randomized_touch_demote(self, seed):
        rng = np.random.default_rng(seed)
        n_sets, assoc = 8, 4
        ref = ModelLru(n_sets, assoc)
        soa = SoaLruState(n_sets, assoc)
        for _ in range(500):
            set_index = int(rng.integers(n_sets))
            way = int(rng.integers(assoc))
            if rng.random() < 0.7:
                ref.touch(set_index, way)
                soa.touch(set_index, way)
            else:
                ref.demote(set_index, way)
                soa.demote(set_index, way)
            assert soa.recency_order(set_index) == ref.recency_order(set_index)
            assert soa.lru_way(set_index) == ref.recency_order(set_index)[-1]
            n_eligible = int(rng.integers(1, assoc + 1))
            eligible = sorted(
                rng.choice(assoc, size=n_eligible, replace=False).tolist()
            )
            assert soa.lru_choice(set_index, eligible) == ref.lru_choice(
                set_index, eligible
            )

    def test_initial_order_matches_reference(self):
        ref, soa = ModelLru(3, 4), SoaLruState(3, 4)
        for set_index in range(3):
            assert soa.recency_order(set_index) == ref.recency_order(set_index)
            assert soa.lru_way(set_index) == 3

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            SoaLruState(0, 4)
        with pytest.raises(ValueError):
            SoaLruState(4, 0)

