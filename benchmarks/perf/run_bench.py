#!/usr/bin/env python
"""Microbenchmark harness for the batched classification kernels.

Times the hot paths that PR 2 vectorized, each against the scalar
reference implementation that stays in the tree:

- ``sampler``   — Monte-Carlo coverage sampler throughput
  (:meth:`CoverageSampler.estimate` vs ``estimate_scalar``);
- ``linestate`` — per-access line-signal latency (int-row
  ``LineSignalKernel.signals_row`` and the memoized
  ``LineErrorModel.signals`` vs scalar ``signals_for_positions``);
- ``cache_core`` — per-access latency of the unified transaction layer
  (:meth:`CacheModel.execute`) on both write policies;
- ``l2_replay`` — the set-partitioned batched replay kernel
  (:func:`repro.cache.soa.replay_clean_set` +
  :meth:`CacheModel.commit_set_replays`) vs the per-access
  ``read``/``write`` loop on the same stream, checked bit-identical;
- ``fig6``      — Figure 6 coverage sweep end-to-end wall clock;
- ``fig4``      — a Figure 4 scheme-panel slice end-to-end on both
  engines (scalar, batched), checked bit-identical per cell.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py --quick
    PYTHONPATH=src python benchmarks/perf/run_bench.py --full --output BENCH_PR3.json

``--fail-if-slower`` exits non-zero when any fast path is slower than
its reference, or when a benchmark regressed against the newest
committed ``BENCH_PR*.json`` at the repo root — the CI perf-smoke
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.montecarlo import CoverageSampler
from repro.cache.geometry import CacheGeometry
from repro.cache.soa import export_set_state, replay_clean_set
from repro.cache.core import (
    AccessTransaction,
    WriteBackCache,
    WriteThroughCache,
)
from repro.core.dfh import (
    ACTION_CORRECT_AND_SEND,
    ACTION_ERROR_MISS,
    ACTION_SEND_CLEAN,
    Dfh,
    DfhAction,
    classify,
    classify_batch,
    classify_cached,
)
from repro.core.linestate import LineErrorModel
from repro.faults.cell_model import CellFaultModel
from repro.faults.fault_map import FaultMap
from repro.gpu.config import GpuConfig
from repro.gpu.engine import ENGINES
from repro.harness.experiments import fig6_coverage
from repro.metrics import METRICS
from repro.harness.runner import LV_VOLTAGE, run_cell, trace_for
from repro.scenario.config import cell_scenario
from repro.scenario.runfile import scenario_fingerprint
from repro.testing.invariants import INVARIANTS_ENV

REPO_ROOT = Path(__file__).resolve().parents[2]

_QUICK = {
    "sampler_samples": 5_000,
    "linestate_accesses": 2_000,
    "cache_core_accesses": 20_000,
    "l2_replay_accesses": 20_000,
    "killi_classify_ops": 20_000,
    "fuzz_overhead_accesses": 20_000,
    "fig6": False,
    # 6k accesses/CU: past the warmup-dominated regime (cold Killi
    # caches are nearly all misses, which batch no better than the
    # per-access loop), so the killi batched-vs-scalar gate holds
    # with real margin even on noisy runners.
    "fig4_accesses": 6_000,
    "fig4_reps": 2,
}
_FULL = {
    "sampler_samples": 100_000,
    "linestate_accesses": 20_000,
    "cache_core_accesses": 200_000,
    "l2_replay_accesses": 200_000,
    "killi_classify_ops": 200_000,
    "fuzz_overhead_accesses": 200_000,
    "fig6": True,
    "fig4_accesses": 30_000,
    "fig4_reps": 2,
}

#: The Figure 4 panel benched end-to-end: both paper outliers x the
#: full scheme family (inert baseline, the three MBIST oracles with
#: per-way CORRECTED replay, and Killi with guarded replay).
_FIG4_WORKLOADS = ("xsbench", "fft")
_FIG4_SCHEMES = ("baseline", "dected", "flair", "msecc", "killi_1:8")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def bench_sampler(samples: int) -> dict:
    """Coverage-sampler throughput, scalar vs vectorized, same seed."""
    sampler = CoverageSampler()
    # Scalar reference is ~60x slower per pattern; cap its sample count
    # so the harness stays snappy, then compare per-pattern rates.
    scalar_samples = min(samples, 20_000)
    scalar_s, scalar = _timed(
        sampler.estimate_scalar, 0.6, scalar_samples, np.random.default_rng(7)
    )
    vector_s, vector = _timed(
        sampler.estimate, 0.6, samples, np.random.default_rng(7)
    )
    replay_s, replay = _timed(
        sampler.estimate,
        0.6,
        scalar_samples,
        np.random.default_rng(7),
        scalar_draws=True,
    )
    assert (replay.patterns, replay.misclassified) == (
        scalar.patterns,
        scalar.misclassified,
    ), "compat mode diverged from the scalar reference"
    scalar_rate = scalar.draws / scalar_s
    vector_rate = vector.draws / vector_s
    return {
        "samples": samples,
        "scalar_samples": scalar_samples,
        "scalar_seconds": round(scalar_s, 4),
        "vectorized_seconds": round(vector_s, 4),
        "scalar_draws_per_sec": round(scalar_rate),
        "vectorized_draws_per_sec": round(vector_rate),
        "replay_seconds": round(replay_s, 4),
        "replay_bit_identical": True,
        "speedup": round(vector_rate / scalar_rate, 2),
        "failure_rate": vector.failure_rate,
    }


def bench_linestate(accesses: int) -> dict:
    """Per-access signal latency over a dense fault population."""
    anchors = ((0.5, 0.2), (0.625, 3e-2), (1.0, 1e-9))
    fault_map = FaultMap(
        n_lines=512,
        cell_model=CellFaultModel(anchors=anchors),
        rng=np.random.default_rng(13),
    )
    model = LineErrorModel(fault_map, 0.625, np.random.default_rng(14))
    lines = [line for line in range(512) if fault_map.has_faults(line)]
    for line in lines:
        model.on_fill(line, salt=line)
    position_sets = [sorted(model.error_positions(line)) for line in lines]
    rows = [model.row(line) for line in lines]

    n = accesses

    def run_scalar():
        for i in range(n):
            model.signals_for_positions(position_sets[i % len(lines)], 16, True)

    def run_packed_row():
        kernel = model.kernel
        for i in range(n):
            kernel.signals_row(rows[i % len(lines)], 16, True)

    def run_memoized():
        for i in range(n):
            model.signals(lines[i % len(lines)], 16, True)

    scalar_s, _ = _timed(run_scalar)
    packed_s, _ = _timed(run_packed_row)
    model._signal_cache.clear()
    memo_s, _ = _timed(run_memoized)
    return {
        "accesses": n,
        "faulty_lines": len(lines),
        "scalar_us_per_access": round(scalar_s / n * 1e6, 2),
        "packed_row_us_per_access": round(packed_s / n * 1e6, 2),
        "memoized_us_per_access": round(memo_s / n * 1e6, 2),
        "speedup_packed": round(scalar_s / packed_s, 2),
        "speedup_memoized": round(scalar_s / memo_s, 2),
    }


def bench_cache_core(accesses: int) -> dict:
    """Per-access latency of the unified transaction layer.

    Replays one deterministic mixed stream (20% stores, working set
    ~4x the cache) through ``CacheModel.execute`` on the two shipped
    L2 policy presets: write-through / no-write-allocate (the paper's
    L2) and write-back / write-allocate.  Reports absolute ns/access,
    best of three, each rep on a cold cache (single-shot timing at
    quick-mode sizes is allocator-warmup noise).  The write-through
    figure is compared against the committed baseline.
    """
    config = GpuConfig()
    geometry = config.l2
    rng = np.random.default_rng(53)
    n_lines = geometry.n_sets * geometry.associativity
    addrs = (
        rng.integers(0, 4 * n_lines, size=accesses) * geometry.line_bytes
    ).tolist()
    stores = (rng.random(accesses) < 0.2).tolist()
    txns = [
        AccessTransaction(addr, is_store=store)
        for addr, store in zip(addrs, stores)
    ]

    def best_ns_per_access(preset, reps: int = 3) -> float:
        best = None
        for _ in range(reps):
            cache = preset(geometry, latencies=config.l2_latencies)
            execute = cache.execute
            start = time.perf_counter()
            for txn in txns:
                execute(txn)
            seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
        return round(best / accesses * 1e9, 1)

    return {
        "accesses": accesses,
        "soa_ns_per_access": best_ns_per_access(WriteThroughCache),
        "writeback_soa_ns_per_access": best_ns_per_access(WriteBackCache),
    }


def bench_l2_replay(accesses: int) -> dict:
    """The batched set-replay kernel vs the per-access L2 loop.

    Same deterministic stream (20% stores, working set ~2x the cache)
    through two identical unprotected caches: one access at a time
    via ``read``/``write``, and set-partitioned through
    ``set_replay_profile`` -> ``replay_clean_set`` ->
    ``commit_set_replays`` — the exact sequence the batched engine
    runs per kernel.  Final stats
    and total cycles are cross-checked, so the bench doubles as an
    equivalence smoke test of the kernel itself.

    Uses an eighth-size L2 (256 sets) so per-set batch lengths match
    the regime the engine actually batches in (a whole kernel's
    residue at once), rather than drowning the kernel in per-set call
    overhead at quick-mode sizes.
    """
    config = GpuConfig()
    geometry = CacheGeometry(
        size_bytes=config.l2.size_bytes // 8,
        line_bytes=config.l2.line_bytes,
        associativity=config.l2.associativity,
        banks=config.l2.banks,
    )
    rng = np.random.default_rng(31)
    n_lines = geometry.n_sets * geometry.associativity
    lines = rng.integers(0, 2 * n_lines, size=accesses)
    stores = rng.random(accesses) < 0.2
    addrs = (lines * geometry.line_bytes).tolist()
    stores_list = stores.tolist()
    lines_list = lines.tolist()

    def make_cache():
        return WriteThroughCache(geometry, latencies=config.l2_latencies)

    cache = make_cache()
    start = time.perf_counter()
    cycles = 0
    for addr, store in zip(addrs, stores_list):
        cycles += cache.write(addr) if store else cache.read(addr)
    scalar_s = time.perf_counter() - start

    batched = make_cache()
    start = time.perf_counter()
    set_idx = lines % geometry.n_sets
    order = np.argsort(set_idx, kind="stable")
    uniq, starts = np.unique(set_idx[order], return_index=True)
    bounds = np.append(starts[1:], accesses)
    pending = []
    bulk_hits: dict = {}
    rh_total = wh_total = ev_total = n_writes = 0
    miss_total = 0
    for s, a, b in zip(uniq.tolist(), starts.tolist(), bounds.tolist()):
        info, corrected_ways, guard = batched.set_replay_profile(s)
        way_lines, seed, free_ways = export_set_state(
            batched.tags, batched.lru, s
        )
        resident, touch_order, rh, wh, ev, misses, _ = replay_clean_set(
            seed, free_ways, order[a:b].tolist(), lines_list, stores_list,
            corrected_ways, guard,
        )
        pending.append((s, way_lines, resident, touch_order))
        if rh:
            bulk_hits[info] = bulk_hits.get(info, 0) + rh
        rh_total += rh
        wh_total += wh
        ev_total += ev
        miss_total += len(misses)
        n_writes += b - a - (rh + len(misses))
    batched.commit_set_replays(
        pending,
        (rh_total + miss_total, rh_total, n_writes, wh_total, ev_total),
        miss_total,
        bulk_hits,
    )
    batched_cycles = (
        rh_total * batched._lat_hit
        + miss_total * batched._lat_miss
        + n_writes * batched._lat_tag
    )
    batched_s = time.perf_counter() - start

    assert (batched_cycles, batched.stats) == (cycles, cache.stats), (
        "batched replay diverged from the per-access loop"
    )
    return {
        "accesses": accesses,
        "per_access_ns": round(scalar_s / accesses * 1e9, 1),
        "batched_ns_per_access": round(batched_s / accesses * 1e9, 1),
        "speedup_batched": round(scalar_s / batched_s, 2),
        "replay_bit_identical": True,
    }


def bench_killi_classify(ops: int) -> dict:
    """Table 2 classification dispatch: reference vs cached vs batch.

    A seeded stream of ``ops`` (DFH state, signal triple) rows spanning
    every accessible cell of Table 2, classified three ways: the
    reference per-row dispatch (``classify``, with enum identity
    checks and a fresh ``Classification`` per call), the interned
    table lookup (``classify_cached`` — the per-access engines' hit
    path), and the flat-array window kernel (``classify_batch`` — the
    form the batched engine's cluster interpreter leans on).  Every
    distinct cell in the stream is cross-checked against the reference
    encoding, so the bench doubles as an agreement test of the lookup
    tables.
    """
    rng = np.random.default_rng(43)
    dfh = rng.integers(0, 3, size=ops).astype(np.int8)
    sp = rng.integers(0, 4, size=ops)  # exercises the >=2 clamp
    syn = rng.random(ops) < 0.5
    gp = rng.random(ops) < 0.5
    rows = list(zip(dfh.tolist(), sp.tolist(), syn.tolist(), gp.tolist()))

    def run_reference():
        for d, s, y, g in rows:
            classify(Dfh(d), s, y, g)

    def run_cached():
        for d, s, y, g in rows:
            classify_cached(d, s, y, g)

    reference_s, _ = _timed(run_reference)
    cached_s, _ = _timed(run_cached)
    batch_s, _ = _timed(lambda: classify_batch(dfh, sp, syn, gp))

    action_code = {
        DfhAction.SEND_CLEAN: ACTION_SEND_CLEAN,
        DfhAction.CORRECT_AND_SEND: ACTION_CORRECT_AND_SEND,
        DfhAction.ERROR_MISS: ACTION_ERROR_MISS,
    }
    combos = sorted(set(rows))
    c_nxt, c_act, c_free = classify_batch(
        np.array([c[0] for c in combos], dtype=np.int8),
        np.array([c[1] for c in combos]),
        np.array([c[2] for c in combos]),
        np.array([c[3] for c in combos]),
    )
    for i, (d, s, y, g) in enumerate(combos):
        cls = classify(Dfh(d), s, y, g)
        assert (int(c_nxt[i]), int(c_act[i]), bool(c_free[i])) == (
            int(cls.next_dfh), action_code[cls.action], cls.free_ecc_entry
        ), "classify_batch diverged from the reference dispatch"
        assert classify_cached(d, s, y, g) == cls, (
            "classify_cached diverged from the reference dispatch"
        )

    return {
        "ops": ops,
        "reference_ns_per_op": round(reference_s / ops * 1e9, 1),
        "cached_ns_per_op": round(cached_s / ops * 1e9, 1),
        "batch_ns_per_op": round(batch_s / ops * 1e9, 2),
        "speedup_cached": round(reference_s / cached_s, 2),
        "speedup_batch": round(reference_s / batch_s, 1),
        "kernels_bit_identical": True,
    }


def bench_fig6() -> dict:
    seconds, data = _timed(fig6_coverage)
    return {
        "seconds": round(seconds, 3),
        "voltages": len(data["voltage"]),
        "killi_min_pct": round(min(data["killi"]), 3),
    }


def _fig4_cell(workload, scheme, accesses, engine):
    """One timed fig4 cell; returns (result dict sans timing, seconds)."""
    spec = cell_scenario(
        workload, scheme, voltage=LV_VOLTAGE, seed=42,
        accesses_per_cu=accesses, engine=engine,
    )
    start = time.perf_counter()
    result = run_cell(spec)
    seconds = time.perf_counter() - start
    payload = result.to_dict()
    payload.pop("elapsed_s", None)
    payload.pop("from_cache", None)
    return payload, seconds


def bench_fig4(accesses: int, reps: int = 1) -> dict:
    """End-to-end Figure 4 scheme panel on both engines.

    Every cell of the (xsbench, fft) x (baseline, dected, flair,
    msecc, killi_1:8) panel runs on scalar and batched — timed (best
    of ``reps``) and cross-checked bit-identical.  ``seconds`` is the batched engine's panel
    total (the headline number tracked across BENCH files).
    ``speedup_vs_scalar`` — the acceptance headline — is the
    batched-vs-scalar speedup as the **geometric mean of per-cell
    ratios** (each cell weighted equally, the standard cross-benchmark
    mean); the total-seconds ratio ``speedup_batched_aggregate`` rides
    along for transparency.

    Killi cells batch through the cluster interpreter (simulated
    against copy-on-write shadows per ECC-contention cluster, committed
    in bulk), so batched must beat scalar on *every* Killi cell;
    ``killi_batched_vs_scalar_min`` records the worst cell and is
    gated by ``--fail-if-slower``.  ``batched_telemetry`` captures the
    engine's guard-abort/fallback counters accumulated over the panel.
    """
    workloads = list(_FIG4_WORKLOADS)
    schemes = list(_FIG4_SCHEMES)
    # Warm the trace memo so the first-timed engine does not pay trace
    # generation on behalf of all of them.
    for workload in workloads:
        trace_for(workload, accesses, GpuConfig().n_cus, 42)
    snap = METRICS.snapshot()
    counters_before = dict(snap.get("counters", snap) or {})
    totals = {engine: 0.0 for engine in ENGINES}
    ratios = []
    per_cell = []
    for workload in workloads:
        for scheme in schemes:
            results = {}
            times = {}
            for engine in ENGINES:
                payload, seconds = _fig4_cell(workload, scheme, accesses, engine)
                for _ in range(reps - 1):
                    seconds = min(
                        seconds,
                        _fig4_cell(workload, scheme, accesses, engine)[1],
                    )
                results[engine] = payload
                times[engine] = seconds
                totals[engine] += seconds
            reference = results["scalar"]
            for engine, payload in results.items():
                assert payload == reference, (
                    f"engines diverged on {workload}/{scheme}: {engine}"
                )
            ratio = times["scalar"] / times["batched"]
            ratios.append(ratio)
            per_cell.append({
                "workload": workload,
                "scheme": scheme,
                "scalar_s": round(times["scalar"], 3),
                "batched_s": round(times["batched"], 3),
                "speedup_batched": round(ratio, 2),
            })
    geomean = float(np.exp(np.mean(np.log(ratios))))
    killi_cells = [c for c in per_cell if c["scheme"].startswith("killi")]
    snap = METRICS.snapshot()
    counters_after = snap.get("counters", snap) or {}
    batched_telemetry = {
        key: counters_after[key] - counters_before.get(key, 0)
        for key in sorted(counters_after)
        if key.startswith("engine.batched.")
    }
    # Fingerprint of the exact cell set simulated above; ties this
    # BENCH entry to a reproducible unit of work, independent of the
    # engine.
    cells = [
        cell_scenario(
            workload,
            scheme,
            voltage=LV_VOLTAGE,
            seed=42,
            accesses_per_cu=accesses,
        )
        for workload in workloads
        for scheme in schemes
    ]
    return {
        "seconds": round(totals["batched"], 2),
        "scalar_seconds": round(totals["scalar"], 2),
        "speedup_vs_scalar": round(geomean, 2),
        "speedup_batched_aggregate": round(
            totals["scalar"] / totals["batched"], 2
        ),
        "killi_batched_vs_scalar_min": round(
            min(c["speedup_batched"] for c in killi_cells), 2
        ) if killi_cells else None,
        "batched_telemetry": batched_telemetry,
        "engines_bit_identical": True,
        "engines": list(ENGINES),
        "workloads": len(workloads),
        "schemes": len(schemes),
        "accesses_per_cu": accesses,
        "per_cell": per_cell,
        "scenario_fingerprint": scenario_fingerprint(cells),
    }


def bench_fuzz_overhead(accesses: int) -> dict:
    """The armed-invariant layer must be free when the flag is off.

    ``REPRO_CHECK_INVARIANTS`` arms per-access structural checks by
    shadowing the bound ``read``/``write`` methods per instance (see
    docs/testing.md); with the flag off the hot path must carry zero
    extra cost.  Three interleaved measurements of one deterministic
    mixed stream:

    - *control* — the pristine class-level methods fetched past the
      instance dict: what a build without the invariant machinery
      would execute;
    - *disarmed* — the normal bound-method path with the flag off
      (every production run);
    - *armed* — flag on, wrappers installed.  Capped sample: the
      checks are O(assoc) per access and deliberately not
      performance-gated; the timing is recorded for scale only.

    Asserts the disarmed instance carries no wrapper attributes and
    reports disarmed-vs-control overhead, which ``--fail-if-slower``
    gates below 2% (the ISSUE's no-op bound).
    """
    config = GpuConfig()
    geometry = config.l2
    rng = np.random.default_rng(911)
    n_lines = geometry.n_sets * geometry.associativity
    addrs = (
        rng.integers(0, 4 * n_lines, size=accesses) * geometry.line_bytes
    ).tolist()
    stores = (rng.random(accesses) < 0.2).tolist()
    armed_n = min(accesses, 50_000)

    def build(armed: bool):
        saved = os.environ.pop(INVARIANTS_ENV, None)
        if armed:
            os.environ[INVARIANTS_ENV] = "1"
        try:
            return WriteThroughCache(geometry, latencies=config.l2_latencies)
        finally:
            os.environ.pop(INVARIANTS_ENV, None)
            if saved is not None:
                os.environ[INVARIANTS_ENV] = saved

    stream = list(zip(addrs, stores))

    def run(read, write, lo: int, hi: int) -> float:
        start = time.perf_counter()
        for addr, store in stream[lo:hi]:
            if store:
                write(addr)
            else:
                read(addr)
        return time.perf_counter() - start

    def keep_min(best, seconds):
        return seconds if best is None else min(best, seconds)

    # Both variants drive ONE disarmed cache — control through the
    # pristine class-level bound methods, disarmed through normal
    # attribute resolution — alternating chunk-by-chunk over the
    # stream, with the chunk assignment flipped every rep.  Separate
    # whole-stream loops (or even twin cache instances) pick up
    # several percent of systematic skew from clock drift, CPU-cache
    # warmth and allocation order, which would swamp a 2% gate; the
    # single-cache alternation cancels all three.  Each chunk index
    # is driven by BOTH variants across the reps (the parity flip),
    # so the overhead pairs them exactly: per chunk index, each
    # variant's best-of-reps time (best absorbs GC pauses and
    # scheduler stalls), then the median ratio over all chunk
    # indices — a statistic robust enough for a 2% gate on a noisy
    # shared runner, where a single back-to-back loop pair wanders
    # by +/-5%.  The reported per-access rates are best-of-reps.
    chunk = max(1, accesses // 200)
    control_ns = disarmed_ns = armed_ns = None
    chunk_times = {}
    for rep in range(6):
        cache = build(armed=False)
        assert (
            "read" not in cache.__dict__ and "write" not in cache.__dict__
        ), "disarmed cache has invariant wrappers installed"
        cls = type(cache)
        control_read = cls.read.__get__(cache)
        control_write = cls.write.__get__(cache)
        disarmed_read = cache.read
        disarmed_write = cache.write
        control_total = disarmed_total = 0.0
        control_n = disarmed_n = 0
        for index, lo in enumerate(range(0, accesses, chunk)):
            hi = min(lo + chunk, accesses)
            cell = chunk_times.setdefault(index, {})
            if (index + rep) % 2:
                seconds = run(disarmed_read, disarmed_write, lo, hi)
                disarmed_total += seconds
                disarmed_n += hi - lo
                cell["disarmed"] = keep_min(cell.get("disarmed"), seconds)
            else:
                seconds = run(control_read, control_write, lo, hi)
                control_total += seconds
                control_n += hi - lo
                cell["control"] = keep_min(cell.get("control"), seconds)
        control_ns = keep_min(control_ns, control_total / control_n * 1e9)
        disarmed_ns = keep_min(disarmed_ns, disarmed_total / disarmed_n * 1e9)
        armed_cache = build(armed=True)
        assert (
            "read" in armed_cache.__dict__ and "write" in armed_cache.__dict__
        ), "REPRO_CHECK_INVARIANTS=1 did not arm the wrappers"
        armed_ns = keep_min(
            armed_ns,
            run(armed_cache.read, armed_cache.write, 0, armed_n)
            / armed_n
            * 1e9,
        )
    ratios = sorted(
        cell["disarmed"] / cell["control"]
        for cell in chunk_times.values()
        if "disarmed" in cell and "control" in cell
    )
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2
    )
    return {
        "accesses": accesses,
        "control_ns_per_access": round(control_ns, 1),
        "disarmed_ns_per_access": round(disarmed_ns, 1),
        "armed_ns_per_access": round(armed_ns, 1),
        "disarmed_overhead_pct": round((median_ratio - 1.0) * 100, 2),
        "armed_slowdown_x": round(armed_ns / control_ns, 2),
        "disarmed_wrappers_absent": True,
    }


_BASELINE_HEADLINE_KEYS = {
    # Per benchmark: the fast-path timing fields compared against the
    # newest committed BENCH file (lower is better).  Scalar-reference
    # timings are deliberately excluded — a slow reference is not a
    # regression.
    "sampler": ("vectorized_seconds",),
    "linestate": ("memoized_us_per_access",),
    "cache_core": ("soa_ns_per_access",),
    "l2_replay": ("batched_ns_per_access",),
    "killi_classify": ("cached_ns_per_op", "batch_ns_per_op"),
    "fuzz_overhead": ("disarmed_ns_per_access",),
    "fig6": ("seconds",),
    "fig4_slice": ("seconds",),
}


def newest_committed_bench(root: Path = REPO_ROOT) -> Path | None:
    """The highest-numbered ``BENCH_PR<n>.json`` at the repo root."""
    benches = {}
    for path in root.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            benches[int(match.group(1))] = path
    return benches[max(benches)] if benches else None


def compare_to_baseline(results: dict, baseline: dict, tolerance: float) -> list:
    """Headline timings that regressed past ``tolerance`` x baseline."""
    regressions = []
    for name, keys in _BASELINE_HEADLINE_KEYS.items():
        current = results["benchmarks"].get(name)
        reference = baseline.get("benchmarks", {}).get(name)
        if current is None or reference is None:
            continue
        sizes_match = all(
            current[size_key] == reference[size_key]
            for size_key in (
                "samples",
                "accesses",
                "accesses_per_cu",
                "ops",
                "workloads",
                "schemes",
                "engines",
            )
            if size_key in current and size_key in reference
        )
        if not sizes_match:
            # Quick-mode runs use smaller sizes than the committed
            # full-mode baseline; per-access timings don't transfer.
            continue
        for key in keys:
            if key not in current or key not in reference:
                continue
            if current[key] > reference[key] * tolerance:
                regressions.append(
                    f"{name}.{key} {current[key]} > "
                    f"{tolerance:g}x baseline {reference[key]}"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", help="small sizes, skip end-to-end figures"
    )
    mode.add_argument(
        "--full", action="store_true", help="full sizes incl. fig6 + fig4 slice"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write results JSON here"
    )
    parser.add_argument(
        "--fail-if-slower",
        action="store_true",
        help="exit 1 if any fast path is slower than its reference or "
        "regressed vs the newest committed BENCH_PR*.json",
    )
    parser.add_argument(
        "--slower-tolerance",
        type=float,
        default=1.25,
        help="regression factor vs the committed baseline tolerated "
        "before --fail-if-slower trips (absorbs runner timing noise)",
    )
    args = parser.parse_args(argv)
    sizes = _FULL if args.full else _QUICK

    # Telemetry rides along with every bench run: the counters/timers
    # land in the output JSON so a BENCH file also documents cache
    # behaviour and per-engine phase timings.  Guarded observations add
    # a handful of perf_counter calls per kernel — far below the
    # --fail-if-slower tolerance.
    METRICS.enable(propagate_env=False)

    results = {
        "mode": "full" if args.full else "quick",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": {},
    }
    print(f"perf bench ({results['mode']} mode)")

    results["benchmarks"]["sampler"] = sampler = bench_sampler(
        sizes["sampler_samples"]
    )
    print(
        f"  sampler:   {sampler['vectorized_draws_per_sec']:>9,} draws/s vectorized "
        f"vs {sampler['scalar_draws_per_sec']:>7,} scalar  "
        f"({sampler['speedup']:.1f}x)"
    )

    results["benchmarks"]["linestate"] = linestate = bench_linestate(
        sizes["linestate_accesses"]
    )
    print(
        f"  linestate: {linestate['packed_row_us_per_access']:6.2f} us/access packed "
        f"vs {linestate['scalar_us_per_access']:6.2f} scalar  "
        f"({linestate['speedup_packed']:.1f}x, memoized "
        f"{linestate['speedup_memoized']:.1f}x)"
    )

    results["benchmarks"]["cache_core"] = cache_core = bench_cache_core(
        sizes["cache_core_accesses"]
    )
    print(
        f"  cache_core:{cache_core['soa_ns_per_access']:6.1f} ns/access "
        f"write-through, {cache_core['writeback_soa_ns_per_access']:6.1f} "
        f"write-back"
    )

    results["benchmarks"]["l2_replay"] = l2_replay = bench_l2_replay(
        sizes["l2_replay_accesses"]
    )
    print(
        f"  l2_replay: {l2_replay['batched_ns_per_access']:6.1f} ns/access batched "
        f"vs {l2_replay['per_access_ns']:6.1f} per-access  "
        f"({l2_replay['speedup_batched']:.1f}x)"
    )

    results["benchmarks"]["killi_classify"] = killi_cls = bench_killi_classify(
        sizes["killi_classify_ops"]
    )
    print(
        f"  killi_cls: {killi_cls['batch_ns_per_op']:6.1f} ns/op batch "
        f"vs {killi_cls['reference_ns_per_op']:6.1f} reference  "
        f"(batch {killi_cls['speedup_batch']:.0f}x, cached "
        f"{killi_cls['speedup_cached']:.1f}x)"
    )

    results["benchmarks"]["fuzz_overhead"] = fuzz_ov = bench_fuzz_overhead(
        sizes["fuzz_overhead_accesses"]
    )
    print(
        f"  fuzz_ovh:  {fuzz_ov['disarmed_ns_per_access']:6.1f} ns/access disarmed "
        f"vs {fuzz_ov['control_ns_per_access']:6.1f} control  "
        f"({fuzz_ov['disarmed_overhead_pct']:+.2f}%, armed "
        f"{fuzz_ov['armed_slowdown_x']:.1f}x)"
    )

    if sizes["fig6"]:
        results["benchmarks"]["fig6"] = fig6 = bench_fig6()
        print(f"  fig6:      {fig6['seconds']:.3f}s end-to-end")
    if sizes["fig4_accesses"]:
        results["benchmarks"]["fig4_slice"] = fig4 = bench_fig4(
            sizes["fig4_accesses"], reps=sizes["fig4_reps"]
        )
        print(
            f"  fig4:      {fig4['seconds']:.2f}s batched "
            f"(scalar {fig4['scalar_seconds']:.2f}s, geomean "
            f"{fig4['speedup_vs_scalar']:.1f}x, aggregate "
            f"{fig4['speedup_batched_aggregate']:.1f}x, killi vs "
            f"scalar min {fig4['killi_batched_vs_scalar_min']}x) "
            f"for {fig4['workloads']}x{fig4['schemes']} cells at "
            f"{fig4['accesses_per_cu']} accesses/CU"
        )

    results["telemetry"] = METRICS.snapshot()

    if args.output:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"  wrote {args.output}")

    if args.fail_if_slower:
        slower = []
        if sampler["speedup"] < 1.0:
            slower.append(f"sampler ({sampler['speedup']}x)")
        if linestate["speedup_packed"] < 1.0:
            slower.append(f"linestate ({linestate['speedup_packed']}x)")
        if l2_replay["speedup_batched"] < 1.0:
            slower.append(f"l2_replay ({l2_replay['speedup_batched']}x)")
        if killi_cls["speedup_cached"] < 1.0:
            slower.append(f"killi_classify cached ({killi_cls['speedup_cached']}x)")
        if killi_cls["speedup_batch"] < 1.0:
            slower.append(f"killi_classify batch ({killi_cls['speedup_batch']}x)")
        if fuzz_ov["disarmed_overhead_pct"] >= 2.0:
            slower.append(
                "invariant layer not a no-op when disarmed "
                f"({fuzz_ov['disarmed_overhead_pct']:+.2f}%)"
            )
        fig4 = results["benchmarks"].get("fig4_slice")
        if fig4 is not None and fig4["speedup_vs_scalar"] < 1.0:
            slower.append(f"fig4_slice ({fig4['speedup_vs_scalar']}x)")
        if fig4 is not None and (
            fig4["killi_batched_vs_scalar_min"] or 1.0
        ) < 1.0:
            slower.append(
                "fig4 killi cell batched slower than scalar "
                f"({fig4['killi_batched_vs_scalar_min']}x)"
            )
        if slower:
            print(f"FAIL: fast path slower than reference: {', '.join(slower)}")
            return 1
        baseline_path = newest_committed_bench()
        if baseline_path is not None:
            baseline = json.loads(baseline_path.read_text())
            regressions = compare_to_baseline(
                results, baseline, args.slower_tolerance
            )
            if regressions:
                print(
                    f"FAIL: regressed vs {baseline_path.name}: "
                    + "; ".join(regressions)
                )
                return 1
            print(f"  no regressions vs {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
