"""Per-figure / per-table experiment runners.

Every runner returns plain dict/series data (so tests and benchmarks
can assert on it) and is registered in :data:`EXPERIMENTS` for the
CLI.  Simulation-based runners accept an ``accesses_per_cu`` scale so
benchmarks can run them at reduced size.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.analysis.area import AreaModel
from repro.analysis.coverage import CoverageModel
from repro.analysis.power import PowerModel
from repro.core import KilliConfig, KilliScheme
from repro.faults import CellFaultModel, FaultMap, FaultMechanism, LineFaultModel
from repro.harness.results import PerformanceMatrix
from repro.harness.runner import (
    LV_VOLTAGE,
    make_scheme,
    run_cells,
    scheme_names,
)
from repro.scenario.config import cell_scenario
from repro.scenario.schemes import KILLI_RATIOS, resolve_scheme
from repro.traces import workload_names
from repro.utils.rng import RngFactory

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "make_scheme",
    "scheme_names",
    "fig1_cell_pfail",
    "fig2_line_distribution",
    "fig4_fig5_performance",
    "fig6_coverage",
    "table4_strong_ecc",
    "table5_area",
    "table6_power",
    "table7_olsc",
    "sec55_lower_vmin",
]


# -- Figure 1 -------------------------------------------------------------------


def fig1_cell_pfail(voltages=None, freqs=(0.4, 1.0)) -> dict:
    """Figure 1: cell failure probability vs normalized voltage.

    Returns one series per (mechanism, frequency).
    """
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.5, 0.775, 0.025)]
    model = CellFaultModel()
    series = {"voltage": list(voltages)}
    for freq in freqs:
        for mechanism in (FaultMechanism.WRITEABILITY, FaultMechanism.READ_DISTURB):
            key = f"{mechanism.value}@{freq:g}GHz"
            series[key] = [model.p_cell(v, freq, mechanism) for v in voltages]
    return series


# -- Figure 2 -------------------------------------------------------------------


def fig2_line_distribution(voltages=None, line_bits: int = 512) -> dict:
    """Figure 2: % of lines with 0 / 1 / 2+ faults vs voltage."""
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.55, 0.725, 0.025)]
    model = LineFaultModel(CellFaultModel(), line_bits=line_bits)
    zero, one, two_plus = [], [], []
    for v in voltages:
        fractions = model.fractions(v)
        zero.append(100.0 * fractions["zero"])
        one.append(100.0 * fractions["one"])
        two_plus.append(100.0 * fractions["two_plus"])
    return {
        "voltage": list(voltages),
        "zero": zero,
        "one": one,
        "two_plus": two_plus,
    }


# -- Figures 4 and 5 --------------------------------------------------------------


def fig4_fig5_performance(
    workloads: Iterable[str] | None = None,
    schemes: Iterable[str] | None = None,
    accesses_per_cu: int = 30000,
    seed: int = 42,
    voltage: float = LV_VOLTAGE,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress=None,
    engine: str = "batched",
    retries: int = 0,
    timeout: Optional[float] = None,
    journal=None,
    resume=None,
) -> PerformanceMatrix:
    """Run the Figure 4/5 (workload x scheme) simulation matrix.

    One shared fault map (one chip), one trace per workload, one fresh
    GPU per (workload, scheme) cell.  Cells go through the parallel
    runner: ``jobs`` fans them out over processes, ``cache_dir``
    enables the on-disk result cache, and both are bit-identical to
    the serial uncached run.  ``engine`` picks the inner loop; the
    engines are pinned bit-equivalent, so it never changes the
    numbers.  ``retries``, ``timeout``, ``journal`` and ``resume`` are
    the campaign-hardening knobs of
    :func:`~repro.harness.runner.run_cells`.
    """
    workloads = list(workloads) if workloads is not None else workload_names()
    schemes = list(schemes) if schemes is not None else scheme_names()
    if "baseline" not in schemes:
        schemes = ["baseline"] + schemes
    for scheme in schemes:
        resolve_scheme(scheme)  # fail fast, before any cell simulates
    specs = [
        cell_scenario(
            workload,
            scheme,
            voltage=voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
            engine=engine,
        )
        for workload in workloads
        for scheme in schemes
    ]
    matrix = PerformanceMatrix()
    cells = run_cells(
        specs,
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        retries=retries,
        timeout=timeout,
        journal=journal,
        resume=resume,
    )
    for cell in cells:
        matrix.add(cell.to_perf_point())
    return matrix


# -- Figure 6 -------------------------------------------------------------------


def fig6_coverage(voltages=None) -> dict:
    """Figure 6: % of lines classified correctly, per technique."""
    if voltages is None:
        voltages = [round(v, 4) for v in np.arange(0.525, 0.675, 0.0125)]
    model = CoverageModel()
    table = model.coverage_table(voltages)
    return {
        key: [100.0 * x for x in values] if key != "voltage" else values
        for key, values in table.items()
    }


# -- Tables -------------------------------------------------------------------


def table4_strong_ecc() -> dict:
    """Table 4: Killi area with DECTED / TECQED / 6EC7ED vs SECDED."""
    return AreaModel().table4()


def table5_area() -> dict:
    """Table 5: area across protection schemes."""
    return AreaModel().table5()


def table6_power(
    matrix: PerformanceMatrix | None = None, voltage: float = LV_VOLTAGE
) -> dict:
    """Table 6: normalized power per technique.

    When a performance matrix is supplied, each scheme's measured
    extra memory traffic (averaged over workloads) feeds the model;
    otherwise the traffic term is zero (its Table 6 contribution is
    fractions of a point).
    """
    model = PowerModel()

    def extra_mem(scheme: str) -> float:
        if matrix is None:
            return 0.0
        values = [
            matrix.extra_memory_frac(w, scheme)
            for w in matrix.workloads()
            if scheme in matrix.points[w]
        ]
        return float(np.mean(values)) if values else 0.0

    out = {
        "dected": model.scheme_power("dected", voltage, extra_memory_frac=extra_mem("dected")),
        "msecc": model.scheme_power("msecc", voltage, extra_memory_frac=extra_mem("msecc")),
        "flair": model.scheme_power("flair", voltage, extra_memory_frac=extra_mem("flair")),
    }
    for ratio in KILLI_RATIOS:
        out[f"killi_1:{ratio}"] = model.scheme_power(
            "killi",
            voltage,
            ecc_ratio=ratio,
            extra_memory_frac=extra_mem(f"killi_1:{ratio}"),
        )
    return out


def table7_olsc() -> dict:
    """Table 7: Killi w/OLSC vs MS-ECC at 0.6 and 0.575 VDD.

    Capacity targets come from the line fault model (% lines with <=11
    faults); Killi's ECC cache is sized 1:8 at 0.6 and 1:2 at 0.575 as
    in the paper.
    """
    area = AreaModel()
    lines = LineFaultModel(CellFaultModel(), line_bits=523)
    return {
        "0.600": {
            "capacity_pct": 100.0 * lines.p_at_most(0.600, 11),
            "killi_vs_msecc": area.table7_killi_vs_msecc(olsc_t=11, ecc_ratio=8),
        },
        "0.575": {
            "capacity_pct": 100.0 * lines.p_at_most(0.575, 11),
            "killi_vs_msecc": area.table7_killi_vs_msecc(olsc_t=11, ecc_ratio=2),
        },
    }


# -- Section 5.5: optimizing for lower Vmin ---------------------------------


def sec55_lower_vmin(
    voltage: float = 0.600,
    workload: str = "nekbone",
    accesses_per_cu: int = 8000,
    seed: int = 42,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
    journal=None,
    resume=None,
) -> dict:
    """Section 5.5: Killi with OLSC vs MS-ECC below the SECDED Vmin.

    At 0.600xVDD plain (SECDED-based) Killi loses most of the cache —
    ~92% of lines have 2+ faults — while Killi with an OLSC-t11 ECC
    cache (1:8) retains MS-ECC-class capacity at a fraction of the
    area.  Returns per-scheme normalized time, MPKI and disabled
    capacity.  The four scheme cells go through the parallel runner.
    """
    key_to_scheme = {
        "baseline": "baseline",
        "msecc": "msecc",
        "killi_secded_1:8": "killi_1:8",
        "killi_olsc_1:8": "killi+olsc-t11_1:8",
    }
    specs = [
        cell_scenario(
            workload,
            scheme,
            voltage=voltage,
            seed=seed,
            accesses_per_cu=accesses_per_cu,
        )
        for scheme in key_to_scheme.values()
    ]
    cells = run_cells(
        specs,
        jobs=jobs,
        cache_dir=cache_dir,
        retries=retries,
        timeout=timeout,
        journal=journal,
        resume=resume,
    )

    out = {"voltage": voltage, "workload": workload}
    for key, cell in zip(key_to_scheme, cells):
        out[key] = {
            "cycles": cell.cycles,
            "mpki": cell.l2_mpki,
            "disabled_fraction": cell.disabled_fraction,
        }
    base = out["baseline"]["cycles"]
    for key in ("msecc", "killi_secded_1:8", "killi_olsc_1:8"):
        out[key]["normalized_time"] = out[key]["cycles"] / base
    return out


# -- soft-error campaign (Section 2.3 / 5.3 reliability claim) ---------------


def soft_error_campaign(
    rate_per_access: float = 0.02,
    accesses: int = 60000,
    voltage: float = LV_VOLTAGE,
    seed: int = 42,
    cache_kib: int = 256,
) -> dict:
    """Compare Killi and SECDED-only (FLAIR steady state) under soft errors.

    Injects multi-bit-capable soft-error bursts at an exaggerated rate
    and counts silent data corruptions (SDC) and detected-
    uncorrectable refetches (DUE).  The paper's claim: FLAIR's
    exclusive reliance on SECDED after training cannot detect a
    multi-bit soft error landing on a line that already has an LV
    fault, while Killi's independent segmented parity usually can.
    """
    from repro.baselines.functional import FunctionalSecDedLineScheme
    from repro.cache.geometry import CacheGeometry
    from repro.cache.core import WriteThroughCache
    from repro.faults.soft_errors import SoftErrorInjector

    rngs = RngFactory(seed)
    geometry = CacheGeometry(
        size_bytes=cache_kib * 1024, line_bytes=64, associativity=16
    )
    fault_map = FaultMap(n_lines=geometry.n_lines, rng=rngs.stream("fault-map"))
    footprint = geometry.size_bytes * 3 // 2

    def run(label, scheme):
        cache = WriteThroughCache(geometry, scheme)
        rng = rngs.stream(f"traffic/{label}")
        addrs = rng.integers(0, footprint, size=accesses)
        stores = rng.random(accesses) < 0.2
        for addr, is_store in zip(addrs, stores):
            addr = int(addr) & ~63
            if is_store:
                cache.write(addr)
            else:
                cache.read(addr)
        return cache

    killi_scheme = KilliScheme(
        geometry, fault_map, voltage, KilliConfig(ecc_ratio=32),
        rng=rngs.stream("mask-killi"),
        soft_injector=SoftErrorInjector(
            rate_per_access, rng=rngs.stream("soft-killi")
        ),
    )
    killi_cache = run("killi", killi_scheme)

    flair_scheme = FunctionalSecDedLineScheme(
        geometry, fault_map, voltage,
        rng=rngs.stream("mask-flair"),
        soft_injector=SoftErrorInjector(
            rate_per_access, rng=rngs.stream("soft-flair")
        ),
    )
    flair_cache = run("flair", flair_scheme)

    return {
        "rate_per_access": rate_per_access,
        "accesses": accesses,
        "killi": {
            "sdc": killi_scheme.sdc_events,
            "detected": killi_cache.stats.error_induced_misses,
            "corrected": killi_cache.stats.corrected_reads,
        },
        "flair": {
            "sdc": flair_scheme.sdc_events,
            "detected": flair_cache.stats.error_induced_misses,
            "corrected": flair_cache.stats.corrected_reads,
        },
    }


#: Registry for the CLI: name -> zero-argument runner.
EXPERIMENTS: Dict[str, object] = {
    "fig1": fig1_cell_pfail,
    "fig2": fig2_line_distribution,
    "fig4": fig4_fig5_performance,
    "fig5": fig4_fig5_performance,
    "fig6": fig6_coverage,
    "table4": table4_strong_ecc,
    "table5": table5_area,
    "table6": table6_power,
    "table7": table7_olsc,
    "sec55": sec55_lower_vmin,
    "softerr": soft_error_campaign,
}


def run_experiment(name: str, **kwargs):
    """Run a registered experiment by name."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
