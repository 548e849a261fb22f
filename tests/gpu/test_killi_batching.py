"""Killi batching: cluster interpreter, per-set epochs, batch kernels.

The batched engine runs Killi cells through a cluster-exact shadow
interpreter (:mod:`repro.core.killi_replay`) instead of the per-access
loop.  These tests pin the pieces that make that sound:

- engine equivalence including the *scheme-side* state the
  generic matrix does not compare (DFH histogram, transition counts,
  SDC events, ECC-cache counters);
- a directed shared-RNG write hit that must abort the interpreter and
  replay through the real path, bit-identically;
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
        ("xsbench", "killi_1:8", 21, 3000),
        ("fft", "killi_1:8", 5, 2500),
        ("comd", "killi_1:64", 7, 2500),
    ]

    @pytest.mark.parametrize("workload,scheme_name,seed,accesses", CASES)
    def test_scheme_state_bit_identical(
        self, workload, scheme_name, seed, accesses
    ):
        from repro.scenario.config import cell_scenario
        from repro.testing.differential import diff_scenario, run_scenario

        scenario = cell_scenario(
            workload, scheme_name, voltage=0.625, seed=seed,
            accesses_per_cu=accesses,
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


class TestDirectedRngAbort:
    """A write hit on a slot with active LV faults re-rolls masking
    with the shared RNG; the interpreter must abort there, commit its
    exact prefix, and hand the access to the real path."""

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
