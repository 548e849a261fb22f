"""The trace-driven simulation engine.

Each CU executes its stream in order: ``gap`` compute cycles, then one
memory access whose latency comes from the hierarchy (L1 hit, or L1
miss + L2 access, where the L2 access may itself be a hit, a corrected
hit, an error-induced miss + refetch, or a plain miss).  CU streams
are interleaved round-robin so the shared L2 sees realistically mixed
traffic.  The kernel's execution time is the slowest CU's cycle count
— the metric normalised in the paper's Figure 4 — and L2 MPKI over
total instructions is Figure 5's metric.

Two interchangeable inner loops implement the model:

- ``engine="batched"`` (default): simulates each CU's private L1
  stream in one pass, then batches the L2-bound residue.  A scheme
  with a batch interpreter (write-through Killi, SECDED or strong
  code, without soft errors: :mod:`repro.core.killi_replay`) has the
  whole residue simulated per ECC-contention cluster and committed in
  bulk, pausing only at shared-RNG write hits, so none of its accesses
  fall back.  Other schemes partition the residue by L2 set: each set
  is decided once, before the kernel runs — a *scheme-inert* set
  replays through the batched set kernel
  (:func:`~repro.cache.soa.replay_clean_set`) with no per-access
  Python call at all, any other set runs the exact per-access path in
  original global order, as does the whole residue of a cache that
  refuses bulk replay.  Bank conflicts and the stats deltas are
  applied in bulk.
- ``engine="scalar"``: the original per-round Python loop, kept as
  the reference implementation.

Both engines produce bit-identical results — cycles, per-CU cycles and
every :class:`~repro.cache.stats.CacheStats` counter — which the test
suite pins across workloads and schemes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.core import WriteThroughCache
from repro.cache.hooks import ProtectionScheme, batched_surface
from repro.cache.soa import export_set_state, replay_clean_set
from repro.cache.stats import CacheStats
from repro.gpu.config import GpuConfig
from repro.gpu.hierarchy import SimpleL1
from repro.gpu.l1filter import run_l1_stream_memo
from repro.metrics import METRICS
from repro.scenario.registries import ENGINE_REGISTRY
from repro.traces.base import Trace

__all__ = ["ENGINES", "KernelResult", "GpuSimulator"]

#: The built-in inner loops, scalar reference first (the registry may
#: hold more).
ENGINES = ("scalar", "batched")


def _resolve_engine(engine: str):
    """The registered inner loop for ``engine`` (``(sim, trace) -> cycles``).

    Engines are an open axis: built-ins register at the bottom of this
    module, third-party loops via ``ENGINE_REGISTRY.register``.  The
    historical ``ValueError`` is preserved for unknown names.
    """
    try:
        return ENGINE_REGISTRY.resolve(engine)
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {tuple(ENGINE_REGISTRY.names())}"
        ) from None


@dataclass
class KernelResult:
    """Outcome of simulating one kernel (one trace).

    ``l2_stats`` / ``l1_stats`` are *per-kernel* snapshots: the deltas
    accumulated while this kernel ran.  They are plain copies — later
    kernels on the same simulator never mutate them.  The running
    totals (cache state persists across kernels) are available as
    ``l2_stats_cumulative`` / ``l1_stats_cumulative``.
    """

    workload: str
    cycles: int
    """Kernel execution time: the slowest CU's cycle count."""

    instructions: int
    """Total instructions across CUs (compute gaps + memory ops)."""

    l2_stats: CacheStats
    l1_stats: list = field(default_factory=list)
    per_cu_cycles: list = field(default_factory=list)
    l2_stats_cumulative: CacheStats | None = None
    l1_stats_cumulative: list = field(default_factory=list)

    @property
    def l2_mpki(self) -> float:
        """L2 misses per kilo-instruction (paper Figure 5)."""
        return self.l2_stats.mpki(self.instructions)

    @property
    def ipc(self) -> float:
        """Aggregate instructions per (kernel) cycle."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


def _scheme_observables(scheme) -> dict:
    """Scheme-side state visible to the harness, duck-typed.

    Every field the journal / :class:`~repro.harness.runner.CellResult`
    can surface for a scheme is captured when present: the bulk tiers
    must leave all of them bit-identical to the scalar reference.
    ``transitions``'s tuple keys are flattened to ``"old->new"``
    strings so the snapshot stays canonically JSON-serialisable.
    """
    out: dict = {"type": type(scheme).__name__}
    if hasattr(scheme, "dfh"):
        out["dfh"] = [int(v) for v in scheme.dfh]
    if hasattr(scheme, "dfh_histogram"):
        out["dfh_histogram"] = scheme.dfh_histogram()
    if hasattr(scheme, "transitions"):
        out["transitions"] = {
            f"{old}->{new}": int(count)
            for (old, new), count in scheme.transitions.items()
        }
    if hasattr(scheme, "disabled_fraction"):
        out["disabled_fraction"] = scheme.disabled_fraction()
    for name in ("sdc_events", "hits_served"):
        if hasattr(scheme, name):
            out[name] = int(getattr(scheme, name))
    ecc = getattr(scheme, "ecc", None)
    if ecc is not None:
        out["ecc"] = {
            "accesses": int(ecc.accesses),
            "allocations": int(ecc.allocations),
            "evictions": int(ecc.evictions),
            "occupancy": int(ecc.occupancy),
        }
    errors = getattr(scheme, "errors", None)
    rng = getattr(errors, "rng", None)
    if rng is not None:
        # The stream *position*: equal final states across engines
        # imply equal draw counts — the cheap global form of the
        # RNG-conservation invariant.
        out["rng_state"] = repr(rng.bit_generator.state)
    return out


class GpuSimulator:
    """8-CU GPU with private L1s and a shared protected L2.

    Parameters
    ----------
    config:
        GPU shape and latencies (Table 3 defaults).
    l2_scheme:
        Protection scheme for the L2 (Killi, a baseline, or the
        fault-free :class:`~repro.cache.UnprotectedScheme`).
    engine:
        Default inner loop: ``"batched"`` (set-partitioned fast path)
        or ``"scalar"`` (reference implementation).
    """

    def __init__(
        self,
        config: GpuConfig | None = None,
        l2_scheme: ProtectionScheme | None = None,
        engine: str = "batched",
    ):
        _resolve_engine(engine)
        self.config = config if config is not None else GpuConfig()
        self.engine = engine
        self.l2 = WriteThroughCache(
            self.config.l2, l2_scheme, self.config.l2_latencies
        )
        self.l1s = [
            SimpleL1(self.config.l1_geometry()) for _ in range(self.config.n_cus)
        ]

    # -- canonical observable state ----------------------------------------

    def state_snapshot(self) -> dict:
        """Canonical observable state of the whole simulator.

        Combines the L2 and per-CU L1 transaction-layer snapshots
        (:meth:`~repro.cache.core.CacheModel.state_snapshot`) with the
        scheme-side observables the harness reports — DFH state,
        transition counts, ECC-cache counters, SDC events and the
        shared RNG stream position.  This is the state the
        differential executor (:mod:`repro.testing.differential`)
        diffs across engines; the engine name itself is deliberately
        excluded.
        """
        return {
            "l2": self.l2.state_snapshot(),
            "l1s": [l1.state_snapshot() for l1 in self.l1s],
            "scheme": _scheme_observables(self.l2.scheme),
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`state_snapshot`."""
        blob = json.dumps(self.state_snapshot(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def _bank_delay(bank_usage: dict, bank: int, penalty: int) -> int:
        """Queueing delay for the n-th same-bank access in a round."""
        queued = bank_usage.get(bank, 0)
        bank_usage[bank] = queued + 1
        return queued * penalty

    def run(self, trace: Trace, engine: str | None = None) -> KernelResult:
        """Simulate one kernel and return its metrics.

        ``engine`` overrides the simulator's default inner loop for
        this kernel only; every engine is bit-equivalent.
        """
        engine = engine if engine is not None else self.engine
        inner_loop = _resolve_engine(engine)
        if len(trace.streams) != self.config.n_cus:
            raise ValueError(
                f"trace has {len(trace.streams)} CU streams, "
                f"GPU has {self.config.n_cus}"
            )
        l2_before = self.l2.stats.copy()
        l1_before = [l1.stats.copy() for l1 in self.l1s]

        telemetry = METRICS.enabled
        if telemetry:
            kernel_started = time.perf_counter()
        cycles = inner_loop(self, trace)
        if telemetry:
            METRICS.observe(
                f"engine.{engine}.kernel", time.perf_counter() - kernel_started
            )
            METRICS.incr("engine.kernels")

        l2_after = self.l2.stats.copy()
        l1_after = [l1.stats.copy() for l1 in self.l1s]
        return KernelResult(
            workload=trace.name,
            cycles=max(cycles) if cycles else 0,
            instructions=trace.instructions,
            l2_stats=l2_after.delta(l2_before),
            l1_stats=[a.delta(b) for a, b in zip(l1_after, l1_before)],
            per_cu_cycles=list(cycles),
            l2_stats_cumulative=l2_after,
            l1_stats_cumulative=l1_after,
        )

    # -- scalar reference loop ---------------------------------------------

    def _run_scalar(self, trace: Trace) -> list:
        """Original per-round loop; the reference implementation."""
        n_cus = self.config.n_cus
        l1_hit_latency = self.config.l1_hit_latency
        l2 = self.l2
        cycles = [0] * n_cus
        # Normalised once on the stream and cached there (identical
        # values to the per-run [int(a) for a in ...] this loop used to
        # rebuild).
        streams = [stream.scalar_columns() for stream in trace.streams]
        lengths = [len(s[0]) for s in streams]
        position = [0] * n_cus
        remaining = sum(lengths)
        l1s = self.l1s
        model_banks = self.config.model_bank_conflicts
        bank_penalty = self.config.bank_conflict_penalty
        geometry = self.config.l2

        while remaining:
            bank_usage: dict = {} if model_banks else None
            for cu in range(n_cus):
                i = position[cu]
                if i >= lengths[cu]:
                    continue
                addrs, stores, gaps = streams[cu]
                addr = addrs[i]
                cycles[cu] += gaps[i]
                if stores[i]:
                    l1s[cu].write(addr)
                    if model_banks:
                        cycles[cu] += self._bank_delay(
                            bank_usage, geometry.bank_of(addr), bank_penalty
                        )
                    cycles[cu] += l2.write(addr)
                else:
                    if l1s[cu].read(addr):
                        cycles[cu] += l1_hit_latency
                    else:
                        if model_banks:
                            cycles[cu] += self._bank_delay(
                                bank_usage, geometry.bank_of(addr), bank_penalty
                            )
                        cycles[cu] += l1_hit_latency + l2.read(addr)
                position[cu] = i + 1
                remaining -= 1
        return cycles

    # -- batched set-partitioned fast path -----------------------------------

    def _l1_filter_residue(self, trace: Trace):
        """Stage 1 of the batched engine.

        Simulates each CU's entire (private, deterministic) L1 stream
        in one pass (:func:`~repro.gpu.l1filter.run_l1_stream`), which
        also yields the CU's base latency in closed form: summed
        compute gaps plus ``l1_hit_latency`` per load (every load pays
        it, hit or miss).  Returns ``(base, residue)`` where ``base``
        is the per-CU base latency and ``residue`` is None (no L2-bound
        access) or the merged L2-bound stream — stores and L1 read
        misses — as aligned int64/bool arrays ``(addrs, stores, cus,
        rounds)`` sorted round-major/CU-minor, i.e. in exactly the
        order the scalar loop reaches the L2.
        """
        l1_hit_latency = self.config.l1_hit_latency
        addr_parts, store_parts, pos_parts, cu_parts = [], [], [], []
        base = []
        for cu, stream in enumerate(trace.streams):
            addr_np, store_np, gap_total = stream.array_columns()
            addrs, stores, _ = stream.scalar_columns()
            line_nos = (
                addr_np // self.l1s[cu].geometry.line_bytes
            ).tolist()
            keep = run_l1_stream_memo(
                self.l1s[cu], stream, addrs, stores, line_nos
            )
            n_loads = len(stores) - int(np.count_nonzero(store_np))
            base.append(gap_total + l1_hit_latency * n_loads)
            addr_parts.append(addr_np[keep])
            store_parts.append(store_np[keep])
            pos_parts.append(keep.astype(np.int64))
            cu_parts.append(np.full(len(keep), cu, dtype=np.int64))
        if not addr_parts or not sum(len(p) for p in addr_parts):
            return base, None
        addrs_arr = np.concatenate(addr_parts)
        stores_arr = np.concatenate(store_parts)
        pos = np.concatenate(pos_parts)
        cus = np.concatenate(cu_parts)
        # Round-major, CU-minor: the scalar loop's visit order.
        order = np.lexsort((cus, pos))
        return base, (addrs_arr[order], stores_arr[order], cus[order], pos[order])

    def _run_batched(self, trace: Trace) -> list:
        """Set-partitioned batched replay of the L2-bound residue.

        Stage 1 is the L1 pre-filter (:meth:`_l1_filter_residue`).
        Stage 2 computes bank-conflict delays for the whole residue in
        one vectorized pass (queue rank = ordinal within the (round,
        bank) group of the ordered residue — identical to the per-round
        ``bank_usage`` dict in the scalar reference loop, and
        independent of which path replays the access).  Stage 3
        partitions the residue by L2 set:

        - A set the cache hands a *replay profile* for
          (:meth:`~repro.cache.core.CacheModel.set_replay_profile`)
          is simulated by :func:`~repro.cache.soa.replay_clean_set` —
          plain set-associative LRU over the set's whole subsequence,
          O(1) per access, no scheme or stats dispatch.  The profile
          may mark per-way CORRECTED hits (MBIST oracles' faulty-but-
          correctable lines); tag/LRU state plus the aggregate stat
          deltas are applied in bulk afterwards
          (:meth:`~repro.cache.core.CacheModel.commit_set_replays`).
        - All other accesses run through ``l2.read`` / ``l2.write`` in
          original global order — preserving the RNG draw sequence and
          the shared-structure interleave across sets, which is what
          keeps cycles, stats and scheme state bit-identical to the
          reference.

        Profiles are fixed for a kernel, so each set is asked once,
        before the first access.
        """
        n_cus = self.config.n_cus
        telemetry = METRICS.enabled
        if telemetry:
            phase_started = time.perf_counter()
        base, residue = self._l1_filter_residue(trace)
        if telemetry:
            now = time.perf_counter()
            METRICS.observe("engine.batched.l1_filter", now - phase_started)
            phase_started = now
        if residue is None:
            return base

        r_addrs, r_stores, r_cus, r_rounds = residue
        n = len(r_addrs)
        l2 = self.l2
        geometry = self.config.l2
        n_sets = geometry.n_sets
        line_nos = r_addrs // geometry.line_bytes

        # Stage 2: bank-conflict delays, state-free and exact.
        model_banks = self.config.model_bank_conflicts
        if model_banks:
            # bank_of(addr) == line_no % banks: banks is a power of two
            # dividing n_sets, so the set-index modulo drops out.
            n_banks = geometry.banks
            key = r_rounds * np.int64(n_banks) + line_nos % n_banks
            by_key = np.argsort(key, kind="stable")
            ordinal = np.arange(n, dtype=np.int64)
            new_group = np.empty(n, dtype=bool)
            new_group[0] = True
            sorted_key = key[by_key]
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
            group_start = np.where(new_group, ordinal, 0)
            np.maximum.accumulate(group_start, out=group_start)
            delay = np.empty(n, dtype=np.int64)
            delay[by_key] = (ordinal - group_start) * self.config.bank_conflict_penalty

        lat = np.zeros(n, dtype=np.int64)  # batched accesses only
        latency_py = [0] * n_cus  # fallback-path accumulation
        stores_list = r_stores.tolist()
        clean_done: set = set()
        miss_all: list = []
        pending: list = []  # deferred (set, way_lines, resident, touch_order)
        l2_read = l2.read
        l2_write = l2.write

        # One gate for all bulk replay: the transaction layer decides
        # whether the L2's scalar semantics are batchable at all
        # (write-back / write-allocate protocols and subclassed access
        # paths refuse), and hands back the scheme's batch interpreter
        # when one exists.
        surface = batched_surface(l2)
        interp = surface.interpreter if surface is not None else None
        if interp is None:
            # Only the per-access paths need addresses and CU ids.
            addrs_list = r_addrs.tolist()
            cus_list = r_cus.tolist()
        pauses = 0
        interp_done = False
        loop_idx = range(0)  # per-access positions
        if interp is not None:
            # Stage 3': cluster interpretation.  The scheme's shared-
            # structure contention couples L2 sets only within ECC-set
            # clusters, so the stream partitions exactly by cluster;
            # each cluster's subsequence is simulated in original order
            # with full scheme semantics and committed once, in bulk
            # (see :mod:`repro.core.killi_replay`).  The only events
            # that must wait for their global turn are shared-RNG write
            # hits: each pauses its cluster's transaction, and a
            # min-heap over the *global* positions of the paused
            # accesses resumes the clusters in ascending stream order,
            # each resume making its write hit's draw in the shadow.
            # Nothing else draws RNG, clusters are state-disjoint and
            # no per-access L2 call runs meanwhile, so the heap order
            # is the only order in which RNG is consumed — the same
            # order the scalar engine consumes it.
            l2_set_idx = line_nos % n_sets
            cluster_idx = l2_set_idx % interp.ecc_n_sets
            c_order = np.argsort(cluster_idx, kind="stable")
            uniq_c, c_starts = np.unique(
                cluster_idx[c_order], return_index=True
            )
            c_bounds = np.append(c_starts[1:], n)
            lines_list = line_nos.tolist()
            sets_list = l2_set_idx.tolist()
            lat_list = [0] * n
            cluster_groups: dict = {}
            heap = []
            for c, a, b in zip(
                uniq_c.tolist(), c_starts.tolist(), c_bounds.tolist()
            ):
                idxs = c_order[a:b].tolist()
                cluster_groups[c] = idxs
                k = interp.run(
                    c, idxs, 0, lines_list, stores_list, lat_list, sets_list
                )
                if k is not None:
                    heap.append((idxs[k], c, k))
            heapq.heapify(heap)
            while heap:
                _, c, k = heapq.heappop(heap)
                pauses += 1
                idxs = cluster_groups[c]
                k = interp.run(
                    c, idxs, k, lines_list, stores_list, lat_list, sets_list
                )
                if k is not None:
                    heapq.heappush(heap, (idxs[k], c, k))
            lat = np.asarray(lat_list, dtype=np.int64)
            interp_done = True
        elif surface is not None:
            set_idx = line_nos % n_sets
            # Stage 3: set partition.  Stable grouping keeps each set's
            # subsequence in original (round-major/CU-minor) order.
            set_order = np.argsort(set_idx, kind="stable")
            uniq_sets, starts = np.unique(set_idx[set_order], return_index=True)
            bounds = np.append(starts[1:], n)
            groups = {
                int(s): set_order[a:b]
                for s, a, b in zip(uniq_sets, starts, bounds)
            }
            lines_list = line_nos.tolist()
            lat_groups: dict = {}  # hit latency -> per-set index arrays
            bulk_hits: dict = {}  # replay info -> batched read hits
            agg = [0, 0, 0, 0, 0]  # reads, read_hits, writes, write_hits, evs
            tags, lru = l2.tags, l2.lru
            corrected_all: list = []

            # Stage 3a: each set is decided once, upfront.  A set with a
            # replay profile is inert for the whole kernel: its entire
            # subsequence replays in batch and its accesses never enter
            # the per-access loop — for statically-inert schemes
            # (baseline, MBIST oracles) this removes the entire
            # per-access iteration, not just the L2 dispatch.
            for s, idx_np in groups.items():
                prof = l2.set_replay_profile(s)
                if prof is None:
                    continue
                info, corrected_ways = prof
                way_lines, seed, free_ways = export_set_state(tags, lru, s)
                resident, touch_order, rh, wh, ev, miss_positions, corr = (
                    replay_clean_set(
                        seed, free_ways, idx_np.tolist(), lines_list,
                        stores_list, corrected_ways,
                    )
                )
                pending.append((s, way_lines, resident, touch_order))
                reads_sub = rh + len(miss_positions)
                agg[0] += reads_sub
                agg[1] += rh
                agg[2] += len(idx_np) - reads_sub
                agg[3] += wh
                agg[4] += ev
                miss_all.extend(miss_positions)
                corrected_all.extend(corr)
                bulk_hits[info] = bulk_hits.get(info, 0) + rh
                hit_lat = l2._lat_hit_corrected if info[0] else l2._lat_hit
                lat_groups.setdefault(hit_lat, []).append(idx_np)
                clean_done.add(s)

            # Every other set runs per access.
            if not clean_done:
                loop_idx = range(n)
            elif len(clean_done) < len(groups):
                batched_sets = np.zeros(n_sets, dtype=bool)
                batched_sets[np.fromiter(clean_done, dtype=np.int64)] = True
                loop_idx = np.flatnonzero(~batched_sets[set_idx]).tolist()
        else:
            loop_idx = range(n)

        # The per-access path, in original global order.
        for i in loop_idx:
            if stores_list[i]:
                latency_py[cus_list[i]] += l2_write(addrs_list[i])
            else:
                latency_py[cus_list[i]] += l2_read(addrs_list[i])
        n_fallback = len(loop_idx)

        if pending:
            # Deferred state write-back, batched stat deltas and scheme
            # bulk hooks all land through the transaction layer's
            # single commit point; only the per-access latency classes
            # stay engine-side.  ``corrected_all`` are per-way CORRECTED
            # hits (oracle faulty-but-within-budget lines): +1 cycle
            # over their set's base hit latency, scheme-side effects
            # already covered by the set's uniform ``info``.
            l2.commit_set_replays(
                pending, agg, len(miss_all), bulk_hits, len(corrected_all)
            )
            for hit_lat, arrs in lat_groups.items():
                cat = arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
                lat[cat] = np.where(r_stores[cat], l2._lat_tag, hit_lat)
            if corrected_all:
                lat[np.asarray(corrected_all, dtype=np.int64)] = (
                    l2._lat_hit_corrected
                )
            if miss_all:
                lat[np.asarray(miss_all, dtype=np.int64)] = l2._lat_miss

        latency_np = np.zeros(n_cus, dtype=np.int64)
        if pending or interp_done:
            np.add.at(latency_np, r_cus, lat)
        if model_banks:
            np.add.at(latency_np, r_cus, delay)
        if telemetry:
            METRICS.observe(
                "engine.batched.l2_replay", time.perf_counter() - phase_started
            )
            METRICS.incr("engine.batched.sets_batched", len(clean_done))
            METRICS.incr("engine.batched.accesses_batched", n - n_fallback)
            METRICS.incr("engine.batched.accesses_fallback", n_fallback)
            scheme_name = type(l2.scheme).__name__
            # The counter keeps its historical name: perfbench's
            # fidelity check reads it.
            METRICS.incr(
                f"engine.batched.guard_aborts.{scheme_name}", pauses
            )
            METRICS.incr(
                f"engine.batched.fallback.{scheme_name}", n_fallback
            )
        return [
            base[cu] + latency_py[cu] + int(latency_np[cu]) for cu in range(n_cus)
        ]

    def run_kernels(self, traces) -> list:
        """Run a sequence of kernels back to back.

        Cache contents, statistics and — crucially — Killi's DFH
        training state persist across kernels: "the process of
        training the DFH bits happens once per reset cycle and not on
        context switches" (paper footnote 6).  Each returned
        :class:`KernelResult` carries that kernel's *own* stats delta
        in ``l2_stats``/``l1_stats`` (snapshots — running a later
        kernel never mutates an earlier result) plus the cumulative
        view in ``l2_stats_cumulative``/``l1_stats_cumulative``.
        """
        return [self.run(trace) for trace in traces]


# Built-in inner loops: ``(simulator, trace) -> per-CU cycle list``.
ENGINE_REGISTRY.register("scalar", GpuSimulator._run_scalar)
ENGINE_REGISTRY.register("batched", GpuSimulator._run_batched)
