"""Seeded, size-bounded scenario fuzzer.

Generates *valid* :class:`~repro.scenario.config.ScenarioConfig`s by
sampling every axis the registries expose — schemes (including Killi
ratios and strong-code variants), workloads, fault densities (via the
operating voltage), experiment seeds, machine shapes — under a hard
size bound, so each fuzzed scenario stays cheap enough to run through
both engines.

Generation is *index-stable*: :meth:`ScenarioFuzzer.scenario` derives
example ``i`` from ``(fuzzer seed, i)`` alone, so a failing example
reported as ``--seed S`` example ``i`` regenerates identically no
matter how many examples ran before it.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.scenario.config import (
    FaultSection,
    GpuSection,
    ScenarioConfig,
    SchemeSection,
    WorkloadSection,
)
from repro.scenario.registries import WORKLOAD_REGISTRY

__all__ = ["ScenarioFuzzer"]

#: Scheme pool: the full Figure 4/5 axis plus two strong-code variants.
#: Plain-Killi ratios are over-weighted — they exercise the DFH/ECC
#: machinery the batched interpreter models.
_SCHEMES = (
    "baseline",
    "dected",
    "flair",
    "msecc",
    "killi_1:8",
    "killi_1:8",
    "killi_1:64",
    "killi_1:64",
    "killi_1:256",
    "killi+dected_1:8",
    "killi+olsc-t11_1:8",
)

#: Schemes whose write-back variant is a supported configuration
#: (strong-code Killi write-back raises by design).
_WRITE_BACK_OK = ("baseline", "dected", "flair", "msecc") + tuple(
    s for s in _SCHEMES if s.startswith("killi_1:")
)

#: Operating-voltage grid around the paper's LV point (0.625): lower
#: voltages densify the active fault population, the nominal end
#: leaves it empty.  0.575 is the fault-map floor — anything below
#: raises at scheme construction, not at validate().
_VOLTAGES = (0.575, 0.575, 0.6, 0.625, 0.625, 0.65, 0.7)

#: Small machine shapes (l2_size_bytes, l2_associativity).  Small L2s
#: dominate the pool deliberately: more cross-set contention per
#: access, faster differential runs.
_SMALL_L2 = (
    (64 * 1024, 4),
    (64 * 1024, 8),
    (64 * 1024, 16),
    (128 * 1024, 8),
    (128 * 1024, 16),
    (256 * 1024, 16),
)


class ScenarioFuzzer:
    """Random valid scenarios from one integer seed.

    Parameters
    ----------
    seed:
        Root seed; every example is a pure function of ``(seed, index)``.
    max_accesses:
        Upper bound on ``accesses_per_cu`` (the size bound).
    workloads / schemes:
        Optional axis restrictions (default: the built-in pools).
    """

    def __init__(
        self,
        seed: int = 0,
        max_accesses: int = 400,
        workloads: Optional[List[str]] = None,
        schemes: Optional[List[str]] = None,
    ):
        if max_accesses < 1:
            raise ValueError("max_accesses must be positive")
        self.seed = int(seed)
        self.max_accesses = int(max_accesses)
        self.workloads = (
            list(workloads) if workloads is not None else WORKLOAD_REGISTRY.names()
        )
        self.schemes = list(schemes) if schemes is not None else list(_SCHEMES)

    def scenario(self, index: int) -> ScenarioConfig:
        """Example ``index``: deterministic in ``(self.seed, index)``."""
        rng = random.Random(self.seed * 1_000_003 + index)
        for _ in range(32):
            candidate = self._draw(rng)
            try:
                candidate.gpu.to_gpu_config()  # geometry sanity
                return candidate.validate()
            except (ValueError, KeyError):
                continue  # resample: invalid knob combination
        raise RuntimeError(
            f"fuzzer could not produce a valid scenario at index {index} "
            f"(seed {self.seed}); the generator pools are misconfigured"
        )

    def generate(self, n: int, start: int = 0) -> Iterator[ScenarioConfig]:
        """``n`` scenarios starting at example index ``start``."""
        for index in range(start, start + n):
            yield self.scenario(index)

    # -- sampling ----------------------------------------------------------

    def _draw(self, rng: random.Random) -> ScenarioConfig:
        scheme_name = rng.choice(self.schemes)
        write_back = (
            scheme_name in _WRITE_BACK_OK and rng.random() < 0.15
        )
        workload = rng.choice(self.workloads)
        accesses = rng.randint(8, self.max_accesses)
        voltage = rng.choice(_VOLTAGES)
        fault_seed = rng.randrange(100)
        gpu = self._draw_gpu(rng)
        return ScenarioConfig(
            scheme=SchemeSection(name=scheme_name, write_back=write_back),
            workload=WorkloadSection(name=workload, accesses_per_cu=accesses),
            fault=FaultSection(voltage=voltage, seed=fault_seed),
            gpu=gpu,
        )

    def _draw_gpu(self, rng: random.Random) -> GpuSection:
        if rng.random() < 0.25:
            # The paper's Table 3 machine, unchanged.
            return GpuSection()
        size, assoc = rng.choice(_SMALL_L2)
        n_sets = size // (64 * assoc)
        banks = rng.choice([b for b in (1, 2, 4, 8) if b <= n_sets])
        return GpuSection(
            n_cus=rng.choice((1, 2, 4, 8)),
            l2_size_bytes=size,
            l2_associativity=assoc,
            l2_banks=banks,
            model_bank_conflicts=rng.random() < 0.3,
        )
