"""The tag substrate against the answers of the deleted object substrate.

The L2 and L1 tag/LRU state used to have two backings: the
struct-of-arrays store (:mod:`repro.cache.soa`) and a per-line object
store kept as its reference.  Before the object store was deleted,
every case below was run at commit 81a102b on the reference
combination, the ``scalar`` engine over the ``object`` substrate, and
its final state was recorded here as literals: the cycle count and
:meth:`~repro.gpu.engine.GpuSimulator.state_digest` of a cell built
exactly as the harness builds it (same fault map, trace and per-cell
RNG namespace; :func:`~repro.harness.runner.build_cell` today).  The
same cases run on ``batched`` x ``soa`` produced the same records at
that commit.

Both engines must still reproduce every record on the one remaining
substrate, so the deletion is proven by recorded results rather than
by a second copy of the tag arrays.
"""

import hashlib
import json

import pytest

from repro.cache.core import WriteThroughCache
from repro.cache.geometry import CacheGeometry
from repro.gpu.config import GpuConfig
from repro.gpu.engine import ENGINES, GpuSimulator
from repro.harness.runner import (
    build_cell,
    fault_map_for,
    make_scheme,
    trace_for,
)
from repro.scenario.config import cell_scenario
from repro.utils.rng import RngFactory

#: (cycles, state digest) per xsbench cell, seed 21, 500 accesses/CU.
SCHEME_AXIS = {
    "baseline": (87557, "0e511196ab48fa2d93a6164ab6afb1c2ecd5239a1127d4521c82f4cfb3bd9bd1"),
    "dected": (87557, "9371b927a8afe80c2088359ea0aaa66edba548c86b1d36b79d7967fc16436385"),
    "flair": (87557, "eb508f550cc1ad3b2e7b0ae38c67dcba1498a74c16ffeef90ad3b33f7ae76cb3"),
    "msecc": (87557, "ddb3c15bba58a28bc597d8199b08eebacdb9851a2eea17ea227d067e3ea9bcec"),
    "killi_1:256": (87557, "3d95bbbb4a26795dc1760cfa71f4438b5b1b2207620e3e38c529889628a273fc"),
    "killi_1:128": (87557, "20fe3290817ef0b75d8c6f70455e74103fd08bb5ff3786c22df2bbe8e4975f4a"),
    "killi_1:64": (87557, "606419be34eb1052b66b3e47572519a7119a94161057c97f629dee8c58099fa5"),
    "killi_1:32": (87557, "a5cd39c2307c4ddf6f89921592834cee578584ac3f5da91ac80ee38994a75a44"),
    "killi_1:16": (87557, "600faaeec3fd013ce827267e3656c6a898a57648b19c38d2fc087dc7ccc0f3c1"),
}

#: (cycles, state digest) per killi_1:64 cell, seed 21, 500 accesses/CU.
WORKLOAD_AXIS = {
    "xsbench": (87557, "606419be34eb1052b66b3e47572519a7119a94161057c97f629dee8c58099fa5"),
    "fft": (77418, "75ed285055e6124fcd9cac1d6e4e950b7266c5befe083eeab17980685d129186"),
    "lulesh": (78385, "0dac1d6e320036680b264327268da53eb0bc4159b0a23d693e2a586e7a89aaa3"),
    "comd": (81595, "ea977c4239a13b6dc10c35b82764ee6f3215abdea4e89112a506fa040b9d17cf"),
    "minife": (90212, "aec5cfb1ba941d5281f2b8fc44ccac6f58fa96e44a247f494004049b02622423"),
    "snap": (77977, "57048e9be248346310d0a2d485c6ecc37093afc9142d49c4fcce1256dabf57ce"),
    "pennant": (81753, "1c45e915c966b5a417cc3f4d63b9c285fa937e5d58b293e563d4d6cbf0e6bab3"),
    "hpgmg": (73003, "8e0dc9b2539863ac99c1d61000ff06c44bc133e409b102b4bfbf1ef5bab6e230"),
    "nekbone": (82339, "f885789fae1e46ccd67941c3ee64354ec468a29d78b4d12df2c38c7200524805"),
    "miniamr": (79348, "bf42468a7ca9fd72591ce2df846d07a4ad16f7b9be09311f08f75823c381bd4c"),
}

#: (cycles, state digest) per (scheme, workload) cell, seed 21,
#: 700 accesses/CU.
LONGER_CELLS = {
    ("baseline", "fft"): (107179, "20c006f3b8811b550bcb1a3ed6f5d45467b067da4ab8a7b28d5c33bc54f97128"),
    ("killi_1:64", "fft"): (107179, "bb2a0a553056a0e9b57c42697bafc2d00446c884a285fb65f290b3837ddfa4a4"),
    ("baseline", "xsbench"): (117814, "c7d3f0dc969cd7d7007c9c804634bd19ade908d8a8745d57cf29a4f6d145f34f"),
    ("killi_1:64", "xsbench"): (117815, "c7e2b97bdcad10bbef8ab4fd12f8a06113b2636c1cefa0753828531335b5b2c9"),
    ("baseline", "nekbone"): (110542, "50f7de147a7a29e479ba8c796d3363d25a1ae335e4cabd243f6d3187bd93a1c1"),
    ("killi_1:64", "nekbone"): (110542, "760915d3ae2e564b1fed86bd8ca2727ae54c367f69c660ed8dfd0799034b7187"),
}

#: The Figure 4 slice: (cycles, state digest) per (workload, scheme)
#: cell, seed 42, 400 accesses/CU.
FIG4_SLICE = {
    ("xsbench", "baseline"): (70873, "c9b5cf1438beb724958e7d09c5667e6d92b64d310103cf59694ec7cb9874f104"),
    ("xsbench", "killi_1:8"): (70873, "08e8955e987e28ea3e51b0ad669bd76b2f14d905acf2aac9df76b4ebeaa3f5de"),
    ("fft", "baseline"): (60536, "0e03de11cbda0da7a0fd9a1b452dabf0e70164214ab00aed06327af8389c36c4"),
    ("fft", "killi_1:8"): (60536, "ba6de5dab789ec03da596f26f6df64fe10f6cb9e7306ab94ceab62da7ecb41d2"),
}


def assert_reproduces(workload, scheme, seed, accesses, pinned):
    """Every engine lands on the recorded cycles and state digest, and
    the engines agree on everything the digest leaves out."""
    scenario = cell_scenario(
        workload, scheme, voltage=0.625, seed=seed, accesses_per_cu=accesses
    )
    timings = []
    for engine in ENGINES:
        simulator, trace = build_cell(scenario, engine)
        result = simulator.run(trace)
        got = (result.cycles, simulator.state_digest())
        assert got == pinned, (engine, workload, scheme)
        timings.append((result.per_cu_cycles, result.instructions))
    assert all(timing == timings[0] for timing in timings)


class TestSchemeAxis:
    """Every scheme, one representative workload."""

    @pytest.mark.parametrize("scheme", list(SCHEME_AXIS))
    def test_bit_identical(self, scheme):
        assert_reproduces("xsbench", scheme, 21, 500, SCHEME_AXIS[scheme])


class TestWorkloadAxis:
    """Every workload, the scheme with the most DFH churn."""

    @pytest.mark.parametrize("workload", list(WORKLOAD_AXIS))
    def test_bit_identical(self, workload):
        assert_reproduces(
            workload, "killi_1:64", 21, 500, WORKLOAD_AXIS[workload]
        )


class TestEngineSubstrateProduct:
    """Both engines on longer runs of the fast workloads."""

    @pytest.mark.parametrize("workload", ("fft", "xsbench", "nekbone"))
    @pytest.mark.parametrize("scheme", ("baseline", "killi_1:64"))
    def test_bit_identical(self, workload, scheme):
        assert_reproduces(
            workload, scheme, 21, 700, LONGER_CELLS[(scheme, workload)]
        )


class TestKernelPersistence:
    """DFH training and cache contents persist across kernels."""

    #: Per-kernel cycles and the final state digest of the
    #: xsbench -> fft -> xsbench sequence on one killi_1:64 GPU.
    CYCLES = [72098, 59420, 4348]
    DIGEST = "34dd5a15987067b7e0d074f5ca9dc6fb2c0c7cd29911d8cdc6943ec5d2ca8882"

    def run_kernels(self, engine: str, seed: int = 21):
        gpu_config = GpuConfig()
        fault_map = fault_map_for(gpu_config.l2.n_lines, seed)
        scheme = make_scheme(
            "killi_1:64", gpu_config, fault_map, 0.625,
            RngFactory(seed).child("kernels/killi_1:64"),
        )
        simulator = GpuSimulator(gpu_config, scheme, engine=engine)
        traces = [
            trace_for(workload, 400, gpu_config.n_cus, seed)
            for workload in ("xsbench", "fft", "xsbench")
        ]
        return simulator.run_kernels(traces), simulator

    def test_kernel_sequence_bit_identical(self):
        for engine in ENGINES:
            results, simulator = self.run_kernels(engine)
            assert [r.cycles for r in results] == self.CYCLES, engine
            assert simulator.state_digest() == self.DIGEST, engine
            # The repeat of xsbench inherits a warm L2, unlike its
            # first run.
            assert (
                results[2].l2_stats.as_dict()
                != results[0].l2_stats.as_dict()
            )


class TestDisableResetSemantics:
    """disable / reset / enable_all on a bare write-through cache."""

    GEO = CacheGeometry(size_bytes=8192, line_bytes=64, associativity=4)
    PINNED = {
        "cycles": 229792,
        "disabled_mid": 3,
        "valid_mid": 125,
        "after_reset": (0, 0),
        "final_valid": 128,
        "digest": "7500bd70a8d5ef38c00a43ba4e39665d964bc452f1020ebe82603a4d28e99391",
    }

    def stream(self):
        # Deterministic mix hitting every set several times.
        return [
            (i * 3 % (2 * self.GEO.n_lines)) * self.GEO.line_bytes
            for i in range(400)
        ]

    def drive(self):
        cache = WriteThroughCache(self.GEO)
        cycles = 0
        for addr in self.stream():
            cycles += cache.read(addr)
        # Knock out one way in a few sets mid-run, keep going.
        for set_index in (0, 3, 7):
            cache.tags.disable(set_index, 1)
            cache.lru.demote(set_index, 1)
        for addr in self.stream():
            cycles += cache.read(addr)
        disabled_mid = cache.tags.count_disabled()
        valid_mid = cache.tags.count_valid()
        cache.reset()
        after_reset = (cache.tags.count_disabled(), cache.tags.count_valid())
        for addr in self.stream():
            cycles += cache.read(addr)
        blob = json.dumps(cache.state_snapshot(), sort_keys=True, default=str)
        return {
            "cycles": cycles,
            "disabled_mid": disabled_mid,
            "valid_mid": valid_mid,
            "after_reset": after_reset,
            "final_valid": cache.tags.count_valid(),
            "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        }

    def test_bit_identical(self):
        run = self.drive()
        assert run == self.PINNED
        assert run["disabled_mid"] == 3
        assert run["after_reset"] == (0, 0)


class TestGoldenFig4Slice:
    """A small Figure 4 slice where the object substrate is the golden."""

    def test_matrix_pinned_to_object(self):
        for (workload, scheme), pinned in FIG4_SLICE.items():
            assert_reproduces(workload, scheme, 42, 400, pinned)
