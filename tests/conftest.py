"""Shared fixtures for the Killi reproduction test suite."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.faults.cell_model import CellFaultModel
from repro.faults.fault_map import FaultMap
from repro.utils.rng import RngFactory


@pytest.fixture
def rngs() -> RngFactory:
    """Deterministic named RNG streams for a test."""
    return RngFactory(seed=1234)


@pytest.fixture
def rng(rngs) -> np.random.Generator:
    """One plain generator."""
    return rngs.stream("test")


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A 64KB, 16-way cache: 1024 lines, 64 sets — fast to simulate."""
    return CacheGeometry(size_bytes=64 * 1024, line_bytes=64, associativity=16)


@pytest.fixture
def small_fault_map(small_geometry, rngs) -> FaultMap:
    """Fault map over the small geometry at the default calibration."""
    return FaultMap(
        n_lines=small_geometry.n_lines,
        rng=rngs.stream("fault-map"),
    )


@pytest.fixture
def dense_fault_map(small_geometry, rngs) -> FaultMap:
    """A fault map with artificially high fault rates (for exercising
    error paths without huge caches)."""
    anchors = ((0.5, 0.3), (0.625, 2e-2), (0.7, 1e-4), (1.0, 1e-9))
    model = CellFaultModel(anchors=anchors)
    return FaultMap(
        n_lines=small_geometry.n_lines,
        cell_model=model,
        rng=rngs.stream("dense-fault-map"),
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Append the last differential scenario to failure reports.

    Any test that drove the oracle (directly or through a fuzz sweep)
    gets its failing scenario's fingerprint, seed and regeneration
    hint attached — no per-test bookkeeping required.  Guarded on the
    module already being imported so the vast majority of tests pay
    nothing.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    import sys

    differential = sys.modules.get("repro.testing.differential")
    if differential is None:
        return
    context = differential.last_context()
    if context is None:
        return
    report.sections.append((
        "last differential scenario",
        (
            f"fingerprint: {context['fingerprint']}\n"
            f"workload={context['workload']} scheme={context['scheme']} "
            f"seed={context['seed']} "
            f"engine={context['engine']}\n"
            f"regenerate: save the TOML below and run\n"
            f"  repro scenario run <file>.toml\n\n"
            f"{context['toml']}"
        ),
    ))
