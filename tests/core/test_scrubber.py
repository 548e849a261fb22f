"""Tests for the soft-error scrubber (paper footnote 7)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.core.config import KilliConfig
from repro.core.dfh import Dfh
from repro.core.killi import KilliScheme
from repro.core.scrubber import Scrubber
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(faults: dict):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliScheme(
        GEO, fault_map, 0.625, KilliConfig(ecc_ratio=16),
        rng=RngFactory(9).stream("mask"),
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


def disable_via_soft_error(cache, scheme, set_index=0, way=0):
    """Disable a fault-free line with an injected 2-bit soft error."""
    cache.read(addr_of(set_index))
    line_id = GEO.line_id(set_index, way)
    cache.read(addr_of(set_index))  # classify b'00
    scheme.errors.add_soft_error(line_id, [0, 1])  # two segments
    cache.read(addr_of(set_index))  # detected -> disabled
    assert scheme.dfh[line_id] == int(Dfh.DISABLED)
    return line_id


class TestReclaiming:
    def test_soft_error_victim_reclaimed(self):
        cache, scheme = build({})
        line_id = disable_via_soft_error(cache, scheme)
        scrubber = Scrubber(scheme)
        reclaimed = scrubber.full_sweep()
        assert reclaimed == 1
        assert scheme.dfh[line_id] == int(Dfh.INITIAL)
        assert not cache.tags.is_disabled(0, 0)
        # Drop the copy the error-miss refetched into another way, so
        # the next fill exercises the reclaimed (highest-priority) way.
        cache.invalidate_line(0, cache.tags.lookup(addr_of(0)))
        cache.read(addr_of(0))
        assert cache.tags.lookup(addr_of(0)) == 0  # b'01 priority wins
        cache.read(addr_of(0))
        assert scheme.dfh[line_id] == int(Dfh.STABLE_0)

    def test_persistent_multifault_line_redisabled(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults)
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert cache.tags.is_disabled(0, 0)

        Scrubber(scheme).full_sweep()
        assert not cache.tags.is_disabled(0, 0)
        # ... but the next training pass re-disables it.
        cache.invalidate_line(0, cache.tags.lookup(addr_of(0)))
        cache.read(addr_of(0))
        assert cache.tags.lookup(addr_of(0)) == 0
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert cache.tags.is_disabled(0, 0)

    def test_paced_walk(self):
        cache, scheme = build({})
        line_id = disable_via_soft_error(cache, scheme)
        scrubber = Scrubber(scheme, lines_per_step=16)
        # One step covers lines 0..15, which includes line 0.
        assert scrubber.step() == 1
        assert scrubber.reclaimed == 1
        assert scrubber.steps == 1

    def test_cursor_wraps(self):
        cache, scheme = build({})
        scrubber = Scrubber(scheme, lines_per_step=GEO.n_lines)
        scrubber.step()
        assert scrubber._cursor == 0

    def test_noop_on_healthy_cache(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        assert Scrubber(scheme).full_sweep() == 0

    def test_validation(self):
        _, scheme = build({})
        with pytest.raises(ValueError):
            Scrubber(scheme, lines_per_step=0)

    def test_unattached_scheme_rejected(self):
        fault_map = FaultMap.from_faults(GEO.n_lines, {})
        scheme = KilliScheme(GEO, fault_map, 0.625, KilliConfig(ecc_ratio=16))
        with pytest.raises(RuntimeError):
            Scrubber(scheme).step()
