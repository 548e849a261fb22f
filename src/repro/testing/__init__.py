"""repro.testing — the oracle harness: fuzzer, differential executor,
shrinker and invariant layer.

Exports are lazy (PEP 562): :mod:`repro.cache.core` imports the
invariant helpers from here at module-import time, while the
differential executor imports the whole simulator stack — an eager
``from .differential import *`` here would close that cycle.  Only
:mod:`repro.testing.invariants` (stdlib-only, imports nothing from
``repro``) is safe to import eagerly.
"""

from __future__ import annotations

from repro.testing.invariants import (
    INVARIANTS_ENV,
    InvariantError,
    check_cache_invariants,
    check_set_invariants,
    invariants_enabled,
)

__all__ = [
    # invariants (eager)
    "INVARIANTS_ENV",
    "InvariantError",
    "check_cache_invariants",
    "check_set_invariants",
    "invariants_enabled",
    # generator
    "ScenarioFuzzer",
    # differential executor
    "ENGINES",
    "REFERENCE",
    "PLANTS",
    "Observation",
    "Divergence",
    "run_scenario",
    "diff_scenario",
    "snapshot_diff",
    "last_context",
    # shrinker
    "shrink",
    "total_accesses",
    "write_reproducer",
    "DEFAULT_REPRO_DIR",
]

_LAZY = {
    "ScenarioFuzzer": "repro.testing.generator",
    "ENGINES": "repro.testing.differential",
    "REFERENCE": "repro.testing.differential",
    "PLANTS": "repro.testing.differential",
    "Observation": "repro.testing.differential",
    "Divergence": "repro.testing.differential",
    "run_scenario": "repro.testing.differential",
    "diff_scenario": "repro.testing.differential",
    "snapshot_diff": "repro.testing.differential",
    "last_context": "repro.testing.differential",
    "shrink": "repro.testing.shrinker",
    "total_accesses": "repro.testing.shrinker",
    "write_reproducer": "repro.testing.shrinker",
    "DEFAULT_REPRO_DIR": "repro.testing.shrinker",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
