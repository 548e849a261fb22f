"""Killi batching: cluster interpreter, per-set epochs, batch kernels.

The batched engine runs Killi cells through a cluster-exact shadow
interpreter (:mod:`repro.core.killi_replay`) instead of the per-access
loop.  These tests pin the pieces that make that sound:

- engine equivalence including the *scheme-side* state the
  generic matrix does not compare (DFH histogram, transition counts,
  SDC events, ECC-cache counters), under the non-default Killi
  policies too, across kernels and with errors injected between them;
- directed shared-RNG write hits that must pause the interpreter and
  run in the shadow at their global turn, bit-identically — alone and
  interleaved across two clusters — with the armed RNG-conservation
  check live around them;
- the interpreter's materialization / pause / commit counters;
- per-set epoch isolation (a DFH transition in one set must not evict
  memoized hits in another);
- the ECC cache's O(1) membership mirrors against the plain key lists;
- the precomputed Table 2 kernels against the reference dispatch;
- the batched fill-cleanliness predicate against its scalar form.
"""

import numpy as np
import pytest

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
from repro.core.ecc_cache import EccCache
from repro.gpu.config import GpuConfig
from repro.gpu.engine import ENGINES, GpuSimulator
from repro.harness.runner import fault_map_for, make_scheme
from repro.traces import workload_trace
from repro.traces.base import CuStream, Trace
from repro.metrics import METRICS
from repro.utils.rng import RngFactory


def build_sim(engine, scheme_name, seed, voltage=0.625):
    gpu_config = GpuConfig()
    fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
    scheme = make_scheme(
        scheme_name, gpu_config, fault_map, voltage,
        RngFactory(seed).child(f"test/{scheme_name}"),
    )
    sim = GpuSimulator(gpu_config, scheme, engine=engine)
    return sim, scheme


def scheme_state_key(result, sim, scheme):
    """Everything the ISSUE pins: cycles, stats, and scheme state."""
    return (
        result.cycles,
        result.per_cu_cycles,
        result.l2_stats.as_dict(),
        sim.l2.memory_reads,
        sim.l2.memory_writes,
        scheme.sdc_events,
        scheme.hits_served,
        scheme.transitions,
        scheme.dfh_histogram(),
        scheme.disabled_fraction(),
        scheme.ecc.accesses,
        scheme.ecc.allocations,
        scheme.ecc.evictions,
        scheme.ecc.occupancy,
    )


class TestInterpreterEquivalence:
    """Engine sweep pinned on DFH/SDC/ECC scheme state.

    Runs through the differential executor (:mod:`repro.testing`),
    whose canonical snapshot carries everything the hand-rolled
    ``scheme_state_key`` sweep this replaced compared — DFH histogram,
    transition counts, SDC events, ECC-cache counters, shared-RNG
    stream position — plus full tag/recency state.
    """

    CASES = [
        ("xsbench", "killi_1:8", 21, 3000, 0.625, {}),
        ("fft", "killi_1:8", 5, 2500, 0.625, {}),
        ("comd", "killi_1:64", 7, 2500, 0.625, {}),
    ] + [
        # The non-default Killi policies the interpreter branches on.
        (workload, scheme_name, seed, 2500, voltage, {option: value})
        for workload, scheme_name, seed, voltage in (
            ("xsbench", "killi_1:8", 21, 0.625),
            ("fft", "killi_1:64", 5, 0.6),
        )
        for option, value in (
            ("inverted_write_training", True),
            ("train_on_evict", False),
            ("priority_replacement", False),
        )
    ]

    @pytest.mark.parametrize(
        "workload,scheme_name,seed,accesses,voltage,scheme_config",
        CASES,
        ids=["-".join(map(str, case[:4] + tuple(case[5]))) for case in CASES],
    )
    def test_scheme_state_bit_identical(
        self, workload, scheme_name, seed, accesses, voltage, scheme_config
    ):
        from repro.scenario.config import cell_scenario
        from repro.testing.differential import diff_scenario, run_scenario

        scenario = cell_scenario(
            workload, scheme_name, voltage=voltage, seed=seed,
            accesses_per_cu=accesses, scheme_config=scheme_config,
        )
        reference = run_scenario(scenario, "scalar")
        histogram = reference.snapshot["scheme"]["dfh_histogram"]
        assert sum(histogram.values()) == GpuConfig().l2.n_lines
        divergence = diff_scenario(scenario)
        assert divergence is None, divergence.describe()

    def test_multi_kernel_dfh_carryover(self):
        """DFH training persists across kernels (paper footnote 6):
        the interpreter must resume from committed state, not reset."""

        def run(engine):
            sim, scheme = build_sim(engine, "killi_1:8", 31)
            rng = RngFactory(31)
            traces = [
                workload_trace(
                    "xsbench", 1200, n_cus=sim.config.n_cus,
                    rng=rng.stream(f"trace/k{i}"),
                )
                for i in range(3)
            ]
            results = sim.run_kernels(traces)
            return (
                [(r.cycles, r.per_cu_cycles, r.l2_stats.as_dict())
                 for r in results],
                scheme.transitions,
                scheme.dfh_histogram(),
                scheme.sdc_events,
            )

        reference = run("scalar")
        for engine in ENGINES[1:]:
            assert run(engine) == reference, engine

    def test_error_injection_between_kernels(self):
        """Errors injected between kernels into clean b'00 lines must
        reach the next kernel's batched hits: the interpreter reads the
        real error rows and keeps no copy of them across kernels."""

        def run(engine):
            sim, scheme = build_sim(engine, "killi_1:8", 31)
            rng = RngFactory(31)
            first, second = (
                workload_trace(
                    "xsbench", 1200, n_cus=sim.config.n_cus,
                    rng=rng.stream(f"trace/k{i}"),
                )
                for i in range(2)
            )
            sim.run(first)
            tags = sim.l2.tags
            assoc = sim.config.l2.associativity
            errors = scheme.errors
            injected = [
                slot
                for slot in range(sim.config.l2.n_lines)
                if tags.is_valid(slot // assoc, slot % assoc)
                and scheme.dfh[slot] == Dfh.STABLE_0
                and not errors.is_dirty(slot)
            ][:400]
            for slot in injected:
                errors.set_effective(slot, {5, 77})
            sim.run(second)
            return injected, sim.state_digest(), scheme.sdc_events

        reference = run("scalar")
        assert len(reference[0]) == 400
        assert reference[2] > 0  # the second kernel read injected errors
        for engine in ENGINES[1:]:
            assert run(engine) == reference, engine


class TestDirectedRngAbort:
    """A write hit on a slot with active LV faults re-rolls masking
    with the shared RNG; the interpreter must pause there, untouched,
    and perform the write in the shadow when the engine resumes it."""

    def _find_active_slot(self, scheme):
        errors = scheme.errors
        assoc = scheme.geometry.associativity
        for slot in range(scheme.geometry.n_lines):
            if errors.slot_has_active(slot):
                return slot // assoc, slot % assoc
        pytest.fail("fault map has no active slot at this voltage")

    def _directed_trace(self, gpu_config, set_index, way):
        """Fill ways 0..way of ``set_index`` (warmup is uniform-priority,
        so distinct lines fill ascending ways), then store to the line
        that landed in ``way`` — a guaranteed write hit on the active
        slot — then keep a tail of other-set traffic behind the abort."""
        n_sets = gpu_config.l2.n_sets
        line_bytes = gpu_config.l2.line_bytes
        lines = [set_index + k * n_sets for k in range(way + 1)]
        addrs = [line * line_bytes for line in lines]
        stores = [False] * len(addrs)
        addrs.append(lines[-1] * line_bytes)
        stores.append(True)
        other = (set_index + 1) % n_sets
        for k in range(6):
            addrs.append((other + k * n_sets) * line_bytes)
            stores.append(k % 2 == 1)
        streams = [
            CuStream(
                addrs=np.array(addrs, dtype=np.int64),
                is_store=np.array(stores),
                gaps=np.zeros(len(addrs), dtype=np.int64),
            )
        ]
        for _ in range(gpu_config.n_cus - 1):
            streams.append(CuStream(
                addrs=np.array([], dtype=np.int64),
                is_store=np.array([], dtype=bool),
                gaps=np.array([], dtype=np.int64),
            ))
        return Trace("directed-abort", streams)

    def test_abort_is_taken_and_exact(self):
        seed = 21

        def run(engine):
            sim, scheme = build_sim(engine, "killi_1:8", seed)
            set_index, way = self._find_active_slot(scheme)
            trace = self._directed_trace(sim.config, set_index, way)
            result = sim.run(trace)
            return scheme_state_key(result, sim, scheme)

        reference = run("scalar")
        METRICS.enable(propagate_env=False)
        try:
            METRICS.reset()
            assert run("batched") == reference
            snapshot = METRICS.snapshot()
            counters = snapshot.get("counters", snapshot)
            assert counters.get(
                "engine.batched.guard_aborts.KilliScheme", 0
            ) >= 1
        finally:
            METRICS.disable()


class TestInterleavedPauses:
    """Two clusters, three shared-RNG write hits each, interleaved in
    global order with L2 reads of the re-rolled lines between them.

    Every write hit must pause its cluster and run in the shadow at its
    global turn: the batched engine reproduces the scalar reference's
    state digest (RNG stream position included), scheme state and
    error rows, with one pause per write hit and no per-access
    fallback.
    """

    SEED = 21
    SCHEME = "killi_1:8"
    WRITES = 3  # write hits per cluster

    def _plan(self, scheme):
        """Pick two single-active-fault slots in different clusters, a
        padding set in a third cluster and a fresh set in the first
        slot's cluster."""
        errors = scheme.errors
        geometry = scheme.geometry
        assoc = geometry.associativity
        n_sets = geometry.n_sets
        n_ecc = scheme.ecc.n_sets
        single = sorted(
            (slot % assoc, slot // assoc)
            for slot in range(geometry.n_lines)
            if len(errors._active_positions(slot)) == 1
        )
        way_a, set_a = single[0]
        way_b, set_b = next(
            (w, s) for w, s in single if s % n_ecc != set_a % n_ecc
        )
        used = {set_a % n_ecc, set_b % n_ecc}
        pad = next(s for s in range(n_sets) if s % n_ecc not in used)
        fresh = (set_a + n_ecc) % n_sets
        assert fresh != set_a
        return set_a, way_a, set_b, way_b, pad, fresh

    def _trace(self, config, plan):
        """CU 0 fills ways 0..way of both sets (uniform-priority warmup
        fills ascending ways) so the last lines land on the chosen
        slots.  Then, round by round, CU 0 stores to A and CU 1 to B
        (write hits), and two fresh CUs read A and B back from the L2
        (a CU's first read of a line always misses its private L1).
        Idle CUs re-read a private padding line, which only the first
        time reaches the L2.  Last, CU 0 reads a fresh set of A's
        cluster, materialized after A's final resume."""
        set_a, way_a, set_b, way_b, pad, fresh = plan
        n_sets = config.l2.n_sets
        line_bytes = config.l2.line_bytes

        def addr(set_index, k):
            return (set_index + k * n_sets) * line_bytes

        rounds = [{0: (addr(set_a, k), False)} for k in range(way_a + 1)]
        rounds += [{0: (addr(set_b, k), False)} for k in range(way_b + 1)]
        line_a, line_b = addr(set_a, way_a), addr(set_b, way_b)
        for i in range(self.WRITES):
            rounds.append({
                0: (line_a, True),
                1: (line_b, True),
                2 + 2 * i: (line_a, False),
                3 + 2 * i: (line_b, False),
            })
        rounds.append({0: (addr(fresh, 0), False)})
        streams = []
        for cu in range(config.n_cus):
            events = [
                r.get(cu, (addr(pad, cu + 1), False)) for r in rounds
            ]
            streams.append(CuStream(
                addrs=np.array([a for a, _ in events], dtype=np.int64),
                is_store=np.array([st for _, st in events]),
                gaps=np.zeros(len(events), dtype=np.int64),
            ))
        return Trace("interleaved-pauses", streams)

    def _run(self, engine, count_rng_writes=False):
        sim, scheme = build_sim(engine, self.SCHEME, self.SEED)
        assert sim.config.n_cus >= 2 + 2 * self.WRITES
        trace = self._trace(sim.config, self._plan(scheme))
        rng_writes = []
        if count_rng_writes:
            errors = scheme.errors
            on_write_hit = errors.on_write_hit

            def counted(line_id):
                if errors.slot_has_active(line_id):
                    rng_writes.append(line_id)
                on_write_hit(line_id)

            errors.on_write_hit = counted
        result = sim.run(trace)
        return sim, scheme, result, rng_writes

    def test_interleaved_pauses_are_exact(self):
        sim, scheme, result, rng_writes = self._run(
            "scalar", count_rng_writes=True
        )
        n_ecc = scheme.ecc.n_sets
        assoc = scheme.geometry.associativity
        # Precondition: the trace really makes WRITES shared-RNG write
        # hits per cluster, interleaved A, B, A, B, ...
        clusters = [slot // assoc % n_ecc for slot in rng_writes]
        assert len(rng_writes) == 2 * self.WRITES
        assert clusters[0] != clusters[1]
        assert clusters == clusters[:2] * self.WRITES
        reference = (
            sim.state_digest(),
            scheme_state_key(result, sim, scheme),
            list(scheme.errors._rows),
        )
        METRICS.enable(propagate_env=False)
        try:
            METRICS.reset()
            sim, scheme, result, _ = self._run("batched")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.disable()
        assert (
            sim.state_digest(),
            scheme_state_key(result, sim, scheme),
            list(scheme.errors._rows),
        ) == reference
        assert counters["engine.batched.guard_aborts.KilliScheme"] == len(
            rng_writes
        )
        assert counters["engine.batched.fallback.KilliScheme"] == 0
        assert counters["killi_replay.pauses"] == len(rng_writes)

    def test_rng_conservation_check_stays_live(self, monkeypatch):
        """Armed, the scheduled in-shadow draws pass; one stray draw in
        a resumed segment raises."""
        from repro.core.killi_replay import KilliClusterInterpreter
        from repro.testing.invariants import INVARIANTS_ENV, InvariantError

        monkeypatch.setenv(INVARIANTS_ENV, "1")
        reference, *_ = self._run("scalar")
        sim, *_ = self._run("batched")
        assert sim.state_digest() == reference.state_digest()

        run = KilliClusterInterpreter.run
        materialize = KilliClusterInterpreter._materialize
        stray = {"resumed": False, "drawn": False}

        def tracking_run(self, cluster, idxs, start, *rest):
            stray["resumed"] |= start > 0  # fresh runs start at 0
            return run(self, cluster, idxs, start, *rest)

        def drawing_materialize(self, set_index):
            if stray["resumed"] and not stray["drawn"]:
                stray["drawn"] = True
                self._errors.rng.random()
            return materialize(self, set_index)

        monkeypatch.setattr(KilliClusterInterpreter, "run", tracking_run)
        monkeypatch.setattr(
            KilliClusterInterpreter, "_materialize", drawing_materialize
        )
        with pytest.raises(InvariantError, match="drew shared RNG"):
            self._run("batched")
        assert stray["drawn"]


class TestInterpreterCounters:
    """``killi_replay.*`` telemetry: one commit per cluster with L2
    traffic, and each touched set materialized once per kernel."""

    def test_counts_per_kernel(self, monkeypatch):
        from repro.core.killi_replay import KilliClusterInterpreter

        sim, scheme = build_sim("batched", "killi_1:8", 31)
        n_ecc = scheme.ecc.n_sets
        seen = {"clusters": set(), "sets": set()}
        run = KilliClusterInterpreter.run

        def recording_run(self, cluster, idxs, start, lines, stores, lat, sets):
            seen["clusters"].add(cluster)
            seen["sets"].update(sets[gi] for gi in idxs)
            return run(self, cluster, idxs, start, lines, stores, lat, sets)

        monkeypatch.setattr(KilliClusterInterpreter, "run", recording_run)
        rng = RngFactory(31)
        METRICS.enable(propagate_env=False)
        try:
            for k in range(3):
                trace = workload_trace(
                    "xsbench", 1200, n_cus=sim.config.n_cus,
                    rng=rng.stream(f"trace/k{k}"),
                )
                # ECC entries may point into sets of a cluster that
                # this kernel's stream does not access itself.
                ecc_sets = {
                    key_set
                    for entries in scheme.ecc._sets
                    for key_set, _ in entries
                }
                seen["clusters"].clear()
                seen["sets"].clear()
                METRICS.reset()
                sim.run(trace)
                counters = METRICS.snapshot()["counters"]
                touched = seen["sets"]
                reachable = touched | {
                    s for s in ecc_sets if s % n_ecc in seen["clusters"]
                }
                assert counters["killi_replay.commits"] == len(seen["clusters"])
                assert (
                    len(touched)
                    <= counters["killi_replay.materializations"]
                    <= len(reachable)
                )
                assert counters.get("killi_replay.pauses", 0) == counters[
                    "engine.batched.guard_aborts.KilliScheme"
                ]
        finally:
            METRICS.disable()
        METRICS.reset()
        sim.run(trace)
        assert not any(
            name.startswith("killi_replay.")
            for name in METRICS.snapshot()["counters"]
        )


class TestPerSetEpochs:
    """A DFH transition invalidates memoized hits only in its own set."""

    def _memoized_cache(self):
        sim, scheme = build_sim("scalar", "killi_1:8", 21)
        l2 = sim.l2
        errors = scheme.errors
        assoc = scheme.geometry.associativity
        n_sets = scheme.geometry.n_sets
        clean_sets = [
            s for s in range(n_sets)
            if not any(errors.slot_has_active(s * assoc + w) for w in range(2))
        ]
        set_a, set_b = clean_sets[0], clean_sets[1]
        line_bytes = scheme.geometry.line_bytes
        addr_a, addr_b = set_a * line_bytes, set_b * line_bytes
        for addr in (addr_a, addr_b):
            l2.read(addr)  # miss + fill (INITIAL)
            l2.read(addr)  # dispatched hit: promote to b'00, memoize
        # From here on every read hit must come from the memo.
        def no_dispatch(set_index, way):
            raise AssertionError("memoized hit was re-dispatched")

        scheme.on_read_hit = no_dispatch
        return l2, scheme, set_a, addr_a, addr_b

    def test_transition_in_a_keeps_b_memoized(self):
        l2, scheme, set_a, addr_a, addr_b = self._memoized_cache()
        l2.read(addr_b)  # sanity: memo actually serves B
        # A real transition in set A (way 1 is still untouched INITIAL).
        scheme._set_dfh(set_a * scheme.geometry.associativity + 1,
                        int(Dfh.INITIAL), int(Dfh.STABLE_1))
        l2.read(addr_b)  # set B untouched: still memoized
        with pytest.raises(AssertionError, match="re-dispatched"):
            l2.read(addr_a)  # set A's epoch moved: must re-dispatch

    def test_global_epoch_still_invalidates_everything(self):
        l2, scheme, set_a, addr_a, addr_b = self._memoized_cache()
        l2.read(addr_b)
        l2.bump_epoch()
        with pytest.raises(AssertionError, match="re-dispatched"):
            l2.read(addr_b)

    def test_write_hit_clears_only_its_line(self):
        l2, scheme, set_a, addr_a, addr_b = self._memoized_cache()
        l2.write(addr_a)
        l2.read(addr_b)  # untouched line: still memoized
        with pytest.raises(AssertionError, match="re-dispatched"):
            l2.read(addr_a)


class TestEccCacheMirrors:
    """The O(1) membership mirrors against the authoritative key lists."""

    L2_SETS, L2_ASSOC = 32, 4

    def _random_ops(self, seed, n_ops=400):
        rng = np.random.default_rng(seed)
        mirrored = EccCache(16, 4, l2_shape=(self.L2_SETS, self.L2_ASSOC))
        plain = EccCache(16, 4)
        live = set()
        for _ in range(n_ops):
            op = rng.integers(0, 20)
            key = (int(rng.integers(0, self.L2_SETS)),
                   int(rng.integers(0, self.L2_ASSOC)))
            if op < 9:
                if key in live:
                    continue
                evicted = mirrored.insert(*key)
                assert plain.insert(*key) == evicted
                live.add(key)
                if evicted is not None:
                    live.discard(evicted)
            elif op < 14:
                assert mirrored.remove(*key) == plain.remove(*key)
                live.discard(key)
            elif op < 18:
                if key in live:
                    mirrored.touch(*key)
                    plain.touch(*key)
            else:
                mirrored.clear()
                plain.clear()
                live.clear()
        return mirrored, plain, live

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mirror_matches_key_lists(self, seed):
        mirrored, plain, live = self._random_ops(seed)
        assert mirrored.occupancy == plain.occupancy == len(live)
        for s in range(self.L2_SETS):
            assert mirrored.has_entries_for(s) == plain.has_entries_for(s)
            for w in range(self.L2_ASSOC):
                assert mirrored.contains(s, w) == plain.contains(s, w)
                assert mirrored.contains(s, w) == ((s, w) in live)
        assert mirrored._sets == plain._sets  # MRU order too

    def test_mirror_tracks_contention_eviction(self):
        ecc = EccCache(4, 4, l2_shape=(self.L2_SETS, self.L2_ASSOC))
        for i, l2_set in enumerate([0, 1, 2, 3]):
            ecc.insert(l2_set, i)
        evicted = ecc.insert(4, 0)  # single-set cache: LRU falls out
        assert evicted == (0, 0)
        assert not ecc.contains(0, 0)
        assert not ecc.has_entries_for(0)
        assert ecc.contains(4, 0)


SIGNAL_SPACE = [
    (dfh, sp, syn, gp)
    for dfh in (Dfh.STABLE_0, Dfh.INITIAL, Dfh.STABLE_1)
    for sp in (0, 1, 2, 3, 7)
    for syn in (False, True)
    for gp in (False, True)
]


class TestBatchKernels:
    """Precomputed Table 2 views against the reference dispatch."""

    def test_cached_matches_reference_everywhere(self):
        for dfh, sp, syn, gp in SIGNAL_SPACE:
            assert classify_cached(int(dfh), sp, syn, gp) == classify(
                dfh, sp, syn, gp
            )

    def test_cached_rejects_disabled(self):
        with pytest.raises(ValueError):
            classify_cached(3, 0, True, True)

    def test_batch_matches_reference_everywhere(self):
        dfhs = np.array([int(c[0]) for c in SIGNAL_SPACE], dtype=np.int8)
        sps = np.array([c[1] for c in SIGNAL_SPACE], dtype=np.int64)
        syns = np.array([c[2] for c in SIGNAL_SPACE])
        gps = np.array([c[3] for c in SIGNAL_SPACE])
        nxt, act, free = classify_batch(dfhs, sps, syns, gps)
        code = {
            DfhAction.SEND_CLEAN: ACTION_SEND_CLEAN,
            DfhAction.CORRECT_AND_SEND: ACTION_CORRECT_AND_SEND,
            DfhAction.ERROR_MISS: ACTION_ERROR_MISS,
        }
        for i, (dfh, sp, syn, gp) in enumerate(SIGNAL_SPACE):
            cls = classify(dfh, sp, syn, gp)
            assert nxt[i] == int(cls.next_dfh)
            assert act[i] == code[cls.action]
            assert free[i] == cls.free_ecc_entry

    def test_batch_rejects_disabled(self):
        with pytest.raises(ValueError):
            classify_batch(
                np.array([0, 3], dtype=np.int8),
                np.zeros(2, dtype=np.int64),
                np.ones(2, dtype=bool),
                np.ones(2, dtype=bool),
            )


class TestBatchedFillPredicate:
    """``fills_would_be_clean`` against the scalar ``fill_would_be_clean``."""

    def test_matches_scalar_over_fault_census(self):
        _, scheme = build_sim("scalar", "killi_1:8", 21)
        errors = scheme.errors
        n_lines = scheme.geometry.n_lines
        rng = np.random.default_rng(17)
        slots = rng.integers(0, n_lines, 512, dtype=np.int64)
        salts = rng.integers(0, 64, 512, dtype=np.int64)
        batched = errors.fills_would_be_clean(slots, salts)
        scalar = [
            errors.fill_would_be_clean(int(slot), int(salt))
            for slot, salt in zip(slots, salts)
        ]
        assert batched.tolist() == scalar
        # The census must actually contain both outcomes at 0.625V.
        assert not batched.all() and batched.any()
