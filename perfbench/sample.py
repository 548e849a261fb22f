"""One benchmark sample: a single workload run in this fresh interpreter.

``run.py`` starts this script once per sample, so the per-process
memos (traces, fault maps, L1-filter residues) start cold, as they do
for a ``killi-experiment`` invocation.  The last line of stdout is one
JSON object describing the sample.  Modes:

- ``timed``: the workload with only the cell probe installed.
- ``count``: the same, with ``METRICS`` counters on (the traced run's
  untraced reference).
- ``traced``: counters on and every layer wrapped; spans are written
  to ``--spans`` at exit.
- ``setup``: builds every cell and simulates none.
- ``record``: every cell runs on the scalar reference engine.

Usage (normally via run.py)::

    python3 perfbench/sample.py --root . --workload low_vmin --seed 42 \
        --mode timed --spawned-at <time.perf_counter() at spawn>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from probes import CellProbe, Patches, SetupOnly, Tracer, text_digest
from workloads import WORKLOADS, run_workload

MODES = ("timed", "count", "traced", "setup", "record")
PLANTS = ("wrong-result", "inherited-hook")


def _import_program(root: str) -> None:
    """Import every module the workloads and probes touch, so that
    interpreter start-up plus imports is one measured interval."""
    sys.path.insert(0, os.path.join(root, "src"))
    import repro.core.killi_replay  # noqa: F401
    import repro.core.strong  # noqa: F401
    import repro.harness.cli  # noqa: F401
    import repro.harness.experiments  # noqa: F401


def _force_scalar_engine(patches: Patches) -> None:
    """Run every cell on the scalar reference engine.  The engine is
    not part of a cell's fingerprint or result, so digests recorded
    this way hold for every engine."""
    import dataclasses

    from repro.harness import runner
    from repro.scenario.config import as_scenario

    def wrap(original):
        def run_cell(spec):
            scenario = as_scenario(spec)
            engine = dataclasses.replace(scenario.engine, engine="scalar")
            return original(dataclasses.replace(scenario, engine=engine))

        return run_cell

    patches.function([runner], "run_cell", wrap)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--plant", choices=PLANTS, default=None)
    args = parser.parse_args(argv)

    _import_program(args.root)
    imported_at = time.perf_counter()

    from repro.metrics import METRICS

    if args.mode in ("count", "traced"):
        METRICS.enable(propagate_env=False)
    else:
        METRICS.disable(propagate_env=False)

    patches = Patches()
    if args.mode == "record":
        _force_scalar_engine(patches)
    probe = CellProbe(
        setup_only=args.mode == "setup",
        plant_wrong_result=args.plant == "wrong-result",
    )
    probe.install(patches)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(patches, plant_inherited_hook=args.plant == "inherited-hook")

    report, error = "", None
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed)
    except SetupOnly:
        pass
    except Exception as exc:  # noqa: BLE001 — reported as a failed op
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    ended_at = time.perf_counter()

    out = {
        "mode": args.mode,
        "wall_s": ended_at - args.spawned_at,
        "setup_s": imported_at - args.spawned_at
        + sum(cell["setup_s"] or 0.0 for cell in probe.cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": [
            {key: cell.get(key) for key in (
                "label", "digest", "error", "setup_s", "sim_s", "cell_s",
                "accesses",
            )}
            for cell in probe.cells
        ],
        "report_digest": text_digest(report) if error is None else None,
        "report": report,
        "error": error,
        "fault_map_seeds": sorted(probe.fault_map_seeds),
        "trace_seeds": sorted(probe.trace_seeds),
        "counters": dict(METRICS.counters) if METRICS.enabled else None,
    }
    if tracer is not None:
        tracer.finish(args.spawned_at, imported_at, ended_at)
        out["layers"] = tracer.layers()
        out["non_none"] = tracer.non_none
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
