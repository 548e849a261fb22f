"""Batched L1 pre-filter.

An L1 is private to its CU, unprotected (nominal voltage) and fully
deterministic: its state after access *k* depends only on its own
stream's first *k* accesses.  So instead of interleaving L1 calls with
L2 calls access by access, the engine runs each CU's entire L1 stream
through one tight pass here and keeps only the *L2-bound residue* —
stores (write-through) and read misses — typically a small fraction of
the stream.

The pass works on the canonical filter state exported by
:meth:`repro.gpu.hierarchy.SimpleL1.export_filter_state` (per-slot
line numbers and distinct integer ages) and is bit-identical to the
per-access path: same LRU victim (unique minimum age), same hit/miss
stream, same ``CacheStats`` counters.

The pass is a pure function of (initial L1 state, stream).  Campaign
cells share streams (trace memoization) but always start from a
*virgin* L1, so :func:`run_l1_stream_memo` caches the residue mask,
the stat deltas and the final filter state on the stream itself and
replays them for every later cell — the filter then costs one state
import instead of one Python iteration per access.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import METRICS

__all__ = ["run_l1_stream", "run_l1_stream_memo", "l1_is_virgin"]

_STAT_FIELDS = (
    "reads",
    "read_hits",
    "read_misses",
    "evictions",
    "fills",
    "writes",
    "write_hits",
    "write_misses",
)

# Virgin LRU patterns per (n_sets, associativity) — what a fresh
# SoaLruState holds before any touch.
_VIRGIN_LRU: dict = {}


def run_l1_stream(l1, addrs, is_store, line_nos=None):
    """Run one CU's whole access stream through its L1.

    Parameters
    ----------
    l1:
        The CU's :class:`~repro.gpu.hierarchy.SimpleL1`; its tag/LRU
        state and stats are advanced exactly as per-access calls would.
    addrs / is_store:
        The stream as aligned Python lists.
    line_nos:
        Optional pre-divided line numbers (``addr // line_bytes``),
        aligned with ``addrs``; the caller can derive them in one
        vectorized pass.

    Returns
    -------
    list[bool]
        ``l2_bound[i]`` — True where access *i* continues to the L2
        (every store, plus every read miss).
    """
    geometry = l1.geometry
    n_sets = geometry.n_sets
    assoc = geometry.associativity
    line_bytes = geometry.line_bytes
    index, slot_line, age, clock = l1.export_filter_state()
    index_get = index.get

    if line_nos is None:
        line_nos = [addr // line_bytes for addr in addrs]
    l2_bound = []
    append = l2_bound.append
    reads = read_hits = evictions = fills = 0
    writes = write_hits = 0

    for line_no, store in zip(line_nos, is_store):
        way = index_get(line_no)
        if store:
            writes += 1
            if way is not None:
                write_hits += 1
                set_index = line_no % n_sets
                age[set_index * assoc + way] = clock[set_index]
                clock[set_index] += 1
            append(True)
        else:
            reads += 1
            set_index = line_no % n_sets
            base = set_index * assoc
            if way is not None:
                read_hits += 1
                age[base + way] = clock[set_index]
                append(False)
            else:
                # Miss: evict the unique minimum-age (LRU) way, fill.
                row = age[base : base + assoc]
                victim = row.index(min(row))
                old = slot_line[base + victim]
                if old >= 0:
                    evictions += 1
                    del index[old]
                slot_line[base + victim] = line_no
                index[line_no] = victim
                fills += 1
                age[base + victim] = clock[set_index]
                append(True)
            clock[set_index] += 1

    l1.import_filter_state((index, slot_line, age, clock))
    stats = l1.stats
    stats.reads += reads
    stats.read_hits += read_hits
    stats.read_misses += reads - read_hits
    stats.evictions += evictions
    stats.fills += fills
    stats.writes += writes
    stats.write_hits += write_hits
    stats.write_misses += writes - write_hits
    # Memory-traffic counters, matching the per-access path exactly:
    # the write-through L1 posts every store (memory_writes) and every
    # read miss fetches (memory_reads) — the differential oracle diffs
    # these along with the stats.
    l1.memory_reads += reads - read_hits
    l1.memory_writes += writes
    return l2_bound


def l1_is_virgin(l1) -> bool:
    """True when ``l1`` provably holds its post-construction state.

    Conservative: any counted access, any valid line, or any LRU state
    off the initial pattern returns False and the caller re-simulates.
    """
    stats = l1.stats
    if stats.reads or stats.writes or stats.fills or stats.evictions:
        return False
    if l1.tags._n_valid:
        return False
    geometry = l1.geometry
    key = (geometry.n_sets, geometry.associativity)
    pattern = _VIRGIN_LRU.get(key)
    if pattern is None:
        n_sets, assoc = key
        pattern = (list(range(0, -assoc, -1)) * n_sets, [1] * n_sets)
        _VIRGIN_LRU[key] = pattern
    return l1.lru.age == pattern[0] and l1.lru._clock == pattern[1]


def run_l1_stream_memo(l1, stream, addrs, is_store, line_nos=None):
    """:func:`run_l1_stream`, memoized on the stream for virgin L1s.

    Returns the L2-bound positions as an int64 numpy array (the
    ``flatnonzero`` of ``run_l1_stream``'s mask).  When ``l1`` is
    virgin and the stream has already been filtered through an
    identically-shaped virgin L1, the cached residue positions, stat
    deltas and final filter state are replayed instead — pure-function
    reuse, bit-identical by construction.  Non-virgin L1s (mid-sequence
    kernels, hand-mutated caches) always take the simulation path.
    """
    geometry = l1.geometry
    geo_key = (geometry.n_sets, geometry.associativity, geometry.line_bytes)
    virgin = l1_is_virgin(l1)
    cached = stream._l1_filter_cache
    if virgin and cached is not None and cached[0] == geo_key:
        _, keep, stat_deltas, (index, slot_line, age, clock) = cached
        l1.import_filter_state((dict(index), slot_line, age, clock))
        stats = l1.stats
        for name, delta in zip(_STAT_FIELDS, stat_deltas):
            setattr(stats, name, getattr(stats, name) + delta)
        # Memory traffic is derivable from the stat deltas under the
        # L1's write-through / no-write-allocate protocol: one posted
        # write per store, one fetch per read miss.
        l1.memory_reads += stat_deltas[_STAT_FIELDS.index("read_misses")]
        l1.memory_writes += stat_deltas[_STAT_FIELDS.index("writes")]
        METRICS.incr("l1filter.memo_hits")
        return keep
    l2_bound = run_l1_stream(l1, addrs, is_store, line_nos)
    keep = np.flatnonzero(np.asarray(l2_bound, dtype=bool))
    if virgin:
        stats = l1.stats
        stat_deltas = tuple(getattr(stats, name) for name in _STAT_FIELDS)
        index, slot_line, age, clock = l1.export_filter_state()
        stream._l1_filter_cache = (
            geo_key,
            keep,
            stat_deltas,
            (index, slot_line, age, clock),
        )
        METRICS.incr("l1filter.memo_misses")
    return keep
