"""The benchmark's workloads: what each sample runs.

Why each was chosen is recorded in ``BENCHMARK.json`` and the README.

Every workload runs serially (``jobs=1``) with no result cache, from a
fresh interpreter, on the seed the benchmark hands it.
:func:`run_workload` is called inside the sample process with the
simulation seed and returns the text of the printed report (the CLI's
stdout, or the experiment's result rendered as canonical JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    """Simulation cells one sample runs (the ops besides the report)."""
    sizes: str
    """Human-readable input size, stamped into every report."""
    argv: Tuple[str, ...] = ()
    """``killi-experiment`` arguments (seed appended); empty for
    workloads that call an experiment function directly."""
    call: Callable[[int], str] | None = None


def _sec55_report(seed: int) -> str:
    from repro.harness.experiments import sec55_lower_vmin

    return json.dumps(sec55_lower_vmin(seed=seed), sort_keys=True) + "\n"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_quick",
            cells=90,
            sizes="fig1/2/6, tables 4/5/7, 10 workloads x 9 schemes at "
            "5000 accesses/CU, default engine",
            argv=("all", "--quick"),
        ),
        Workload(
            name="killi_warm",
            cells=12,
            sizes="fft xsbench miniamr x baseline killi_1:{256,64,16} at "
            "30000 accesses/CU, batched engine",
            argv=(
                "fig4", "--accesses", "30000",
                "--workloads", "fft", "xsbench", "miniamr",
                "--schemes", "killi_1:256", "killi_1:64", "killi_1:16",
                "--engine", "batched",
            ),
        ),
        Workload(
            name="low_vmin",
            cells=4,
            sizes="nekbone x baseline msecc killi_1:8 killi+olsc-t11_1:8 at "
            "8000 accesses/CU, 0.600xVDD, default engine",
            call=_sec55_report,
        ),
        # Not listed in BENCHMARK.json: a two-cell batched campaign for
        # the benchmark's own self-tests.
        Workload(
            name="selftest",
            cells=2,
            sizes="fft x baseline killi_1:64 at 2000 accesses/CU, batched",
            argv=(
                "fig4", "--accesses", "2000", "--workloads", "fft",
                "--schemes", "killi_1:64", "--engine", "batched",
            ),
        ),
    )
}

#: The workloads ``BENCHMARK.json`` names, in the order ``all`` runs them.
BENCH_WORKLOADS = ("paper_quick", "killi_warm", "low_vmin")


def run_workload(workload: Workload, seed: int) -> str:
    """Run one sample of ``workload`` and return its printed report.

    Raises ``RuntimeError`` when the CLI exits non-zero (a failed
    campaign); exceptions of the experiment itself propagate.
    """
    if workload.call is not None:
        return workload.call(seed)
    import contextlib
    import io

    from repro.harness.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(workload.argv) + ["--seed", str(seed)])
    if status:
        raise RuntimeError(f"killi-experiment exited with status {status}")
    return buffer.getvalue()
