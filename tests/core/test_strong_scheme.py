"""Tests for Killi with stronger ECC-cache codes (Sections 5.2/5.5)."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.core import WriteThroughCache
from repro.cache.hooks import BEHAVIOURAL_HOOKS
from repro.core.config import KilliConfig
from repro.core.dfh import (
    EVENT_READ,
    EVENT_TRAIN,
    STRONG_TABLE,
    Dfh,
    DfhAction,
    classify_strong,
)
from repro.core.strong import KilliStrongScheme
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory

GEO = CacheGeometry(size_bytes=16 * 1024, line_bytes=64, associativity=4)


def build(faults: dict, code: str = "dected", ecc_ratio: int = 16):
    fault_map = FaultMap.from_faults(GEO.n_lines, faults)
    scheme = KilliStrongScheme(
        GEO, fault_map, 0.625, KilliConfig(ecc_ratio=ecc_ratio),
        rng=RngFactory(9).stream("mask"), code=code,
    )
    cache = WriteThroughCache(GEO, scheme)
    return cache, scheme


def addr_of(set_index: int, tag: int = 0) -> int:
    return (tag * GEO.n_sets + set_index) * GEO.line_bytes


class TestBudgets:
    def test_code_budgets(self):
        _, dected = build({}, "dected")
        assert dected.correct_t == 2
        _, olsc = build({}, "olsc-t11")
        assert olsc.correct_t == 11

    def test_two_faults_enabled_under_dected(self):
        # The whole point of Section 5.2: DECTED keeps 2-fault lines.
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)
        assert cache.stats.corrected_reads == 1

    def test_three_faults_disabled_under_dected(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1), (2, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1, 2})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)
        assert cache.tags.is_disabled(0, 0)

    def test_eleven_faults_enabled_under_olsc(self):
        positions = list(range(11))
        faults = {GEO.line_id(0, 0): [(p, 1) for p in positions]}
        cache, scheme = build(faults, "olsc-t11")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set(positions))
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)

    def test_twelve_faults_disabled_under_olsc(self):
        positions = list(range(12))
        faults = {GEO.line_id(0, 0): [(p, 1) for p in positions]}
        cache, scheme = build(faults, "olsc-t11")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set(positions))
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)


class TestTrainingFlows:
    def test_clean_lines_classify_b00(self):
        cache, scheme = build({})
        cache.read(addr_of(0))
        cache.read(addr_of(0))
        way = cache.tags.lookup(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, way)] == int(Dfh.STABLE_0)
        assert not scheme.ecc.contains(0, way)

    def test_eviction_training(self):
        faults = {GEO.line_id(0, 0): [(0, 1), (1, 1), (2, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0, 0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {0, 1, 2})
        for tag in range(1, 6):
            cache.read(addr_of(0, tag))
        assert cache.tags.is_disabled(0, 0)

    def test_checkbit_faults_count_against_budget(self):
        faults = {GEO.line_id(0, 0): [(530, 1), (531, 1), (532, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {530, 531, 532})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.DISABLED)

    def test_parity_only_fault_keeps_protection(self):
        faults = {GEO.line_id(0, 0): [(512, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), {512})
        cache.read(addr_of(0))
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_1)

    def test_b00_path_falls_back_to_base_killi(self):
        # After training, a b'00 line behaves exactly like base Killi:
        # an unmasked fault triggers a retrain miss.
        faults = {GEO.line_id(0, 0): [(100, 1)]}
        cache, scheme = build(faults, "dected")
        cache.read(addr_of(0))
        scheme.errors.set_effective(GEO.line_id(0, 0), set())
        cache.read(addr_of(0))  # masked: classify b'00
        assert scheme.dfh[GEO.line_id(0, 0)] == int(Dfh.STABLE_0)
        scheme.errors.set_effective(GEO.line_id(0, 0), {100})
        cache.read(addr_of(0))
        assert cache.stats.error_induced_misses == 1


class TestStochasticCapacity:
    def test_more_capacity_than_secded_killi_at_0600(self, rngs):
        # The Section 5.5 claim in miniature: at 0.600 VDD the OLSC
        # variant disables far fewer lines than the SECDED variant.
        from repro.core.killi import KilliScheme

        fault_map = FaultMap(n_lines=GEO.n_lines, rng=rngs.stream("f"))
        results = {}
        for label, maker in {
            "secded": lambda: KilliScheme(
                GEO, fault_map, 0.600, KilliConfig(ecc_ratio=4),
                rng=rngs.stream("m1"),
            ),
            "olsc": lambda: KilliStrongScheme(
                GEO, fault_map, 0.600, KilliConfig(ecc_ratio=4),
                rng=rngs.stream("m2"), code="olsc-t11",
            ),
        }.items():
            scheme = maker()
            cache = WriteThroughCache(GEO, scheme)
            rng = np.random.default_rng(3)
            for addr in (rng.integers(0, 32 * 1024, size=20000) & ~63):
                cache.read(int(addr))
            results[label] = scheme.disabled_fraction()
        assert results["olsc"] < results["secded"] / 5


class TestRowCounts:
    """The strong code's row masks against a per-offset walk."""

    def test_counts_match_per_offset_reference(self):
        _, scheme = build({})
        layout = scheme.layout
        line = GEO.line_id(0, 0)
        pools = (
            range(layout.data_bits),
            range(layout.parity_offset, layout.check_offset),
            range(layout.check_offset, layout.gparity_offset),
            [layout.gparity_offset],
        )
        rng = np.random.default_rng(41)
        for _ in range(600):
            offsets = set()
            for pool in pools:
                k = int(rng.integers(0, 4))
                offsets.update(int(o) for o in rng.choice(pool, k))
            scheme.errors.set_effective(line, offsets)
            row = scheme.errors.row(line)
            assert (row & scheme._codeword_mask).bit_count() == sum(
                1
                for o in offsets
                if layout.is_data(o) or layout.is_checkbit(o)
            )
            for event, n_bits in (
                (EVENT_READ, layout.max_parity_bits),
                (EVENT_TRAIN, scheme.config.training_segments),
            ):
                assert bool(row & scheme._parity_masks[event]) == any(
                    layout.is_parity(o) and layout.parity_index(o) < n_bits
                    for o in offsets
                ), (sorted(offsets), event)


# -- the strong-code table, pinned to the hooks it replaced ---------------

#: Crafted error rows (LV offsets).  Data bit ``i`` sits in 4-bit parity
#: segment ``i % 4``; 517 is parity bit 5 (outside the stable four);
#: 530 is a checkbit.
ROWS = {
    "clean": (),
    "parity5": (517,),
    "data1": (3,),
    "data1_parity5": (3, 517),
    "data2": (3, 7),
    "data2_same_seg": (0, 4),
    "data2_parity5": (1, 2, 517),
    "check1": (530,),
    "data3": (1, 2, 3),
    "data3_parity5": (1, 2, 3, 517),
    "sp1": (1,),
    "sp1_parity5": (1, 517),
    "sp2": (1, 2),
}

#: What a hook leaves behind, in the order of each recorded tuple.
FIELDS = (
    "dfh",
    "outcome",
    "ecc_entry",
    "ecc_touches",
    "sdc",
    "hits_served",
    "ecc_corrections",
    "ecc_evict_reclassified_clean",
    "ecc_evict_disables",
    "ecc_evict_invalidations",
    "valid",
    "disabled",
    "dirty",
)

#: ``(hook, DFH, (bucket, parity_only), row, code, outcome)``, the
#: outcomes recorded on the subclass hooks the table replaced.  Rows
#: tagged ``+iwt`` run with inverted write training over a masked
#: fault at offset 100: the strong table reads the effective row alone.
HOOK_CASES = [
    ('read', 'STABLE_0', (0, 0), 'clean', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 0, 1, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_0', (0, 1), 'parity5', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 0, 1, 0, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_0', (1, 0), 'sp1', 'dected',
     ('INITIAL', 'RETRAIN_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_0', (1, 1), 'sp1_parity5', 'dected',
     ('INITIAL', 'RETRAIN_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_0', (2, 0), 'sp2', 'dected',
     ('INITIAL', 'RETRAIN_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_0', (2, 1), 'data2_parity5', 'dected',
     ('INITIAL', 'RETRAIN_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_0', (0, 0), 'data2_same_seg', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 1, 1, 0, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (0, 0), 'clean', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 0, 1, 0, 0, 0, 0, True, False, False)),
    ('read', 'INITIAL', (0, 1), 'parity5', 'dected',
     ('STABLE_1', 'CLEAN', True, 1, 0, 1, 0, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (1, 0), 'data1', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (1, 1), 'data1_parity5', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (2, 0), 'data3', 'dected',
     ('DISABLED', 'DISABLE_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'INITIAL', (2, 1), 'data3_parity5', 'dected',
     ('DISABLED', 'DISABLE_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'INITIAL', (1, 0), 'data2', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (1, 0), 'check1', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'INITIAL', (1, 0), 'data3', 'olsc-t11',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (0, 0), 'clean', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 0, 1, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_1', (0, 1), 'parity5', 'dected',
     ('STABLE_1', 'CLEAN', True, 1, 0, 1, 0, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (1, 0), 'data1', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (1, 1), 'data1_parity5', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (2, 0), 'data3', 'dected',
     ('DISABLED', 'DISABLE_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_1', (2, 1), 'data3_parity5', 'dected',
     ('DISABLED', 'DISABLE_MISS', False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('read', 'STABLE_1', (1, 0), 'data2', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (1, 0), 'check1', 'dected',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('read', 'STABLE_1', (1, 0), 'data3', 'olsc-t11',
     ('STABLE_1', 'CORRECTED', True, 1, 0, 1, 1, 0, 0, 0, True, False, True)),
    ('evict', 'INITIAL', (0, 0), 'clean', 'dected',
     ('STABLE_0', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (0, 1), 'parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (1, 0), 'data1', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (1, 1), 'data1_parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (2, 0), 'data3', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 0, 0, False, True, False)),
    ('evict', 'INITIAL', (2, 1), 'data3_parity5', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 0, 0, False, True, False)),
    ('evict', 'INITIAL', (1, 0), 'data2', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (1, 0), 'data3', 'olsc-t11',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('ecc_evict', 'INITIAL', (0, 0), 'clean', 'dected',
     ('STABLE_0', None, False, 0, 0, 0, 0, 1, 0, 0, True, False, False)),
    ('ecc_evict', 'INITIAL', (0, 1), 'parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'INITIAL', (1, 0), 'data1', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'INITIAL', (1, 1), 'data1_parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'INITIAL', (2, 0), 'data3', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 1, 0, False, True, False)),
    ('ecc_evict', 'INITIAL', (2, 1), 'data3_parity5', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 1, 0, False, True, False)),
    ('ecc_evict', 'STABLE_1', (0, 0), 'clean', 'dected',
     ('STABLE_0', None, False, 0, 0, 0, 0, 1, 0, 0, True, False, False)),
    ('ecc_evict', 'STABLE_1', (0, 1), 'parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'STABLE_1', (1, 0), 'data1', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'STABLE_1', (1, 1), 'data1_parity5', 'dected',
     ('STABLE_1', None, False, 0, 0, 0, 0, 0, 0, 1, False, False, False)),
    ('ecc_evict', 'STABLE_1', (2, 0), 'data3', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 1, 0, False, True, False)),
    ('ecc_evict', 'STABLE_1', (2, 1), 'data3_parity5', 'dected',
     ('DISABLED', None, False, 0, 0, 0, 0, 0, 1, 0, False, True, False)),
    ('read', 'INITIAL', (0, 0), 'clean+iwt', 'dected',
     ('STABLE_0', 'CLEAN', False, 0, 0, 1, 0, 0, 0, 0, True, False, False)),
    ('evict', 'INITIAL', (0, 0), 'clean+iwt', 'dected',
     ('STABLE_0', None, False, 0, 0, 0, 0, 0, 0, 0, True, False, False)),
    ('ecc_evict', 'INITIAL', (0, 0), 'clean+iwt', 'dected',
     ('STABLE_0', None, False, 0, 0, 0, 0, 1, 0, 0, True, False, False)),
]


def drive_hook(hook, dfh, row, code, inverted=False):
    """Run one hook on set 0 way 0, freshly filled and moved to ``dfh``
    with error row ``row``; return the :data:`FIELDS` it leaves."""
    faults = {0: [(100, 1)]} if inverted else {}
    scheme = KilliStrongScheme(
        GEO, FaultMap.from_faults(GEO.n_lines, faults), 0.625,
        KilliConfig(ecc_ratio=16, inverted_write_training=inverted),
        rng=RngFactory(9).stream("mask"), code=code,
    )
    cache = WriteThroughCache(GEO, scheme)
    cache.read(0)  # fill: b'01 with an ECC entry
    scheme._set_dfh(0, Dfh.INITIAL, Dfh[dfh])
    if dfh == "STABLE_0":
        scheme.ecc.remove(0, 0)  # b'00 lines hold no entry
    scheme.errors.set_effective(0, set(row))
    touches, sdc, hits = scheme.ecc.accesses, scheme.sdc_events, scheme.hits_served
    outcome = None
    if hook == "read":
        outcome = scheme.on_read_hit(0, 0).name
    elif hook == "evict":
        scheme.on_evict(0, 0)
    else:  # the entry already left the ECC cache when this runs
        scheme.ecc.remove(0, 0)
        scheme._handle_ecc_eviction(0, 0)
    stats = cache.stats.as_dict()
    return (
        Dfh(int(scheme.dfh[0])).name,
        outcome,
        bool(scheme.ecc.contains(0, 0)),
        scheme.ecc.accesses - touches,
        scheme.sdc_events - sdc,
        scheme.hits_served - hits,
        stats.get("ecc_corrections", 0),
        stats.get("ecc_evict_reclassified_clean", 0),
        stats.get("ecc_evict_disables", 0),
        stats.get("ecc_evict_invalidations", 0),
        bool(cache.tags.is_valid(0, 0)),
        bool(cache.tags.is_disabled(0, 0)),
        scheme.errors.is_dirty(0),
    )


_ACTION_OUTCOME = {
    DfhAction.SEND_CLEAN: "CLEAN",
    DfhAction.CORRECT_AND_SEND: "CORRECTED",
}


class TestStrongTable:
    """:data:`STRONG_TABLE` cell by cell: the hooks that now look it up
    reproduce the recorded outcomes, and each cell agrees with them."""

    @pytest.mark.parametrize(
        "hook,dfh,cell,row,code,want",
        HOOK_CASES,
        ids=[f"{c[0]}-{c[1]}-{c[3]}-{c[4]}" for c in HOOK_CASES],
    )
    def test_hooks_match_recorded_outcomes(self, hook, dfh, cell, row, code, want):
        got = drive_hook(hook, dfh, ROWS[row.split("+")[0]], code, row.endswith("+iwt"))
        assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, want))
        event = EVENT_READ if hook == "read" else EVENT_TRAIN
        bucket, parity_only = cell
        cls = STRONG_TABLE[event][Dfh[dfh]][bucket][parity_only]
        assert cls == classify_strong(event, Dfh[dfh], bucket, parity_only)
        assert cls.next_dfh.name == want[0]
        if hook == "read":
            outcome = _ACTION_OUTCOME.get(cls.action)
            if outcome is None:
                outcome = (
                    "DISABLE_MISS" if cls.next_dfh is Dfh.DISABLED else "RETRAIN_MISS"
                )
            assert outcome == want[1]

    def test_every_reachable_cell_is_pinned(self):
        pinned = {
            (EVENT_READ if c[0] == "read" else EVENT_TRAIN, Dfh[c[1]]) + c[2]
            for c in HOOK_CASES
        }
        cells = {
            (event, dfh, bucket, parity_only)
            for event in (EVENT_READ, EVENT_TRAIN)
            for dfh in (Dfh.STABLE_0, Dfh.INITIAL, Dfh.STABLE_1)
            for bucket in range(3)
            for parity_only in (0, 1)
            if STRONG_TABLE[event][dfh][bucket][parity_only] is not None
        }
        assert len(cells) == 30
        assert cells == pinned

    def test_unreachable_cells_raise(self):
        assert STRONG_TABLE[EVENT_TRAIN][Dfh.STABLE_0] == ((None, None),) * 3
        for event in (EVENT_READ, EVENT_TRAIN):
            with pytest.raises(ValueError):
                classify_strong(event, Dfh.DISABLED, 0, False)
        with pytest.raises(ValueError):
            classify_strong(EVENT_TRAIN, Dfh.STABLE_0, 0, False)

    def test_subclass_overrides_no_hook(self):
        hooks = set(BEHAVIOURAL_HOOKS) | {"_handle_ecc_eviction"}
        assert not hooks & set(KilliStrongScheme.__dict__)
