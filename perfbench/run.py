"""The repository benchmark: host time to regenerate the paper's results.

Runs one workload (or ``all``) for ``--seconds``, one fresh interpreter
per sample, checks every simulated cell and the printed report against
digests recorded from the scalar reference engine, and prints one JSON
line last::

    python3 perfbench/run.py --workload killi_warm --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py                        # every workload, tables only
    python3 perfbench/run.py --workload low_vmin --trace 1   # per-layer breakdown
    python3 perfbench/run.py --record --workload low_vmin --seeds 42 2019

Run it from the repository root; it imports the program from ``src/``.
Exit status is 0 only when every op matched its reference (and, with
``--trace 1``, the traced sample reproduced the untraced one).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import path_counters
from workloads import BENCH_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
OUT = ROOT / ".perfbench"

#: Environment switches that change what the program does; scrubbed
#: from every sample.
SCRUBBED_ENV = (
    "REPRO_CHECK_INVARIANTS",
    "REPRO_TELEMETRY",
    "REPRO_INJECT_FAULTS",
    "REPRO_SUBSTRATE",
)

#: Every run takes at least this many samples, even when that makes it
#: last longer than ``--seconds``: a single sample of ``paper_quick``
#: is close to the whole run.
MIN_SAMPLES = 2

#: Set-up is measured at least this many times per run (extra set-up-only
#: samples make up the difference) and reported as the median.
SETUP_REPEATS = 3

#: Every sample of a timed or traced run ends within this many seconds
#: of the run's start, or is stopped and counted as failed.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_accesses_per_s", "accesses/s"),
    ("slowest_cell_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("traces.gen_s", "s"),
    ("traces.memo_hit_ratio", "ratio"),
    ("faults.map_s", "s"),
    ("scenario.make_scheme_s", "s"),
    ("gpu.engine.build_s", "s"),
    ("gpu.engine.run_s", "s"),
    ("gpu.engine.self_s", "s"),
    ("gpu.l1filter.calls", "count"),
    ("gpu.l1filter.s", "s"),
    ("gpu.l1filter.memo_hit_ratio", "ratio"),
    ("cache.access_calls", "count"),
    ("cache.access_s", "s"),
    ("cache.access.self_s", "s"),
    ("cache.set_replay_calls", "count"),
    ("cache.set_replay_s", "s"),
    ("cache.commit_calls", "count"),
    ("cache.commit_s", "s"),
    ("cache.batched_share", "ratio"),
    ("core.killi_replay.calls", "count"),
    ("core.killi_replay.s", "s"),
    ("core.killi_replay.abort_ratio", "ratio"),
    ("core.killi.hook_calls", "count"),
    ("core.killi.hook_s", "s"),
    ("harness.runner.cells", "count"),
    ("harness.runner.overhead_s", "s"),
    ("harness.report_s", "s"),
    ("analysis.s", "s"),
    ("startup.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


# -- samples ------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, plant=None, spans=None,
          deadline=None) -> dict:
    """Run one sample in a fresh interpreter and return its record.

    A sample that crashes, prints no result or is still running at
    ``deadline`` (a ``time.perf_counter()`` value) comes back with
    ``error`` set and no cells.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--root", str(ROOT), "--workload", workload, "--seed", str(seed),
        "--mode", mode,
    ]
    if plant:
        cmd += ["--plant", plant]
    if spans:
        cmd += ["--spans", str(spans)]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=None if deadline is None else max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        return {"error": "sample ran past the run deadline", "cells": []}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {
            "error": f"sample exited {proc.returncode}: " + " | ".join(tail),
            "cells": [],
        }


def load_references(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["seeds"]


def simulation_seed(references: dict, seed: int) -> int:
    """The recorded seed a run uses: ``seed`` itself when it has a
    reference, otherwise the ``seed mod n``-th of the n recorded seeds,
    so every run is checked."""
    recorded = sorted(int(s) for s in references)
    if not recorded:
        raise SystemExit("no reference digests recorded; see perfbench/README.md")
    return seed if seed in recorded else recorded[seed % len(recorded)]


def check(sample: dict, reference: dict) -> list:
    """Compare one sample with its reference; returns one problem
    string per failed op (each cell, then the report)."""
    problems = []
    cells = sample.get("cells", [])
    for k, (label, digest) in enumerate(reference["cells"]):
        got = cells[k] if k < len(cells) else None
        if got is None:
            problems.append(f"cell {label}: not run ({sample.get('error')})")
        elif got.get("error"):
            problems.append(f"cell {label}: {got['error']}")
        elif got.get("label") != label or got.get("digest") != digest:
            problems.append(f"cell {label}: result differs from the reference")
    if len(cells) > len(reference["cells"]):
        problems.append(f"{len(cells) - len(reference['cells'])} unexpected cells")
    if sample.get("error"):
        problems.append(f"report: {sample['error']}")
    elif sample.get("report_digest") != reference["report"]:
        problems.append("report: differs from the reference")
    return problems


def sample_metrics(sample: dict) -> dict:
    cells = sample["cells"]
    sim_s = sum(c["sim_s"] for c in cells)
    return {
        "wall_s": sample["wall_s"],
        "setup_s": sample["setup_s"],
        "sim_accesses_per_s": sum(c["accesses"] for c in cells) / sim_s,
        "slowest_cell_s": max(c["cell_s"] for c in cells),
        "peak_rss_mb": sample["peak_rss_mb"],
    }


def run_samples(workload: str, seed: int, seconds: float, mode: str, reference,
                deadline: float, plant=None):
    """Sample until the next one would end past ``seconds``, taking at
    least MIN_SAMPLES.  Returns ``(samples, attempted, problems)``."""
    samples, attempted, problems = [], 0, []
    started = time.perf_counter()
    while True:
        sample = spawn(workload, seed, mode, plant=plant, deadline=deadline)
        samples.append(sample)
        attempted += len(reference["cells"]) + 1
        problems += check(sample, reference)
        elapsed = time.perf_counter() - started
        n = len(samples)
        if n >= MIN_SAMPLES and elapsed + elapsed / n > seconds:
            return samples, attempted, problems


# -- reporting ------------------------------------------------------------------


def machine_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def print_table(title: str, rows, headers) -> None:
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    print(title)
    for row in [headers] + list(rows):
        print("  " + "  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


# -- modes ---------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, plant=None):
    """End-to-end metrics with tracing off."""
    reference = load_references(workload)
    sim_seed = simulation_seed(reference, seed)
    reference = reference[str(sim_seed)]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    samples, attempted, problems = run_samples(
        workload, sim_seed, seconds, "timed", reference, deadline, plant=plant
    )
    good = [s for s in samples if not s.get("error") and s["cells"]]
    if not good:
        return samples, attempted, problems, {}, sim_seed
    per_sample = [sample_metrics(s) for s in good]
    setups = [m["setup_s"] for m in per_sample]
    while len(setups) < SETUP_REPEATS:
        extra = spawn(workload, sim_seed, "setup", deadline=deadline)
        if extra.get("error"):
            problems.append(f"set-up sample: {extra['error']}")
            break
        setups.append(extra["setup_s"])
    metrics = {
        name: statistics.median(m[name] for m in per_sample)
        for name, _ in END_TO_END
    }
    metrics["setup_s"] = statistics.median(setups)
    rows = [
        (name, unit, fmt(metrics[name]),
         " ".join(fmt(x) for x in (setups if name == "setup_s"
                                   else [m[name] for m in per_sample])))
        for name, unit in END_TO_END
    ]
    print_table(
        f"{workload} (seed {sim_seed}): {len(good)} sample(s), medians",
        rows, ("metric", "unit", "median", "samples"),
    )
    return samples, attempted, problems, metrics, sim_seed


def layer_metrics(sample: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced sample."""
    layers, counters = sample["layers"], sample["counters"]

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def memo_ratio(prefix):
        hits = counters.get(f"{prefix}.memo_hits", 0)
        return ratio(hits, hits + counters.get(f"{prefix}.memo_misses", 0))

    batched = counters.get("engine.batched.accesses_batched", 0)
    fallback = counters.get("engine.batched.accesses_fallback", 0)
    replay_calls = calls("core.killi_replay")
    return {
        "traces.gen_s": busy("traces.gen"),
        "traces.memo_hit_ratio": memo_ratio("traces"),
        "faults.map_s": busy("faults.map"),
        "scenario.make_scheme_s": busy("scenario.make_scheme"),
        "gpu.engine.build_s": busy("gpu.engine.build"),
        "gpu.engine.run_s": busy("gpu.engine.run"),
        "gpu.engine.self_s": layers.get("gpu.engine.run", {}).get("self_s", 0.0),
        "gpu.l1filter.calls": calls("gpu.l1filter"),
        "gpu.l1filter.s": busy("gpu.l1filter"),
        "gpu.l1filter.memo_hit_ratio": memo_ratio("l1filter"),
        "cache.access_calls": calls("cache.access"),
        "cache.access_s": busy("cache.access"),
        "cache.access.self_s": layers.get("cache.access", {}).get("self_s", 0.0),
        "cache.set_replay_calls": calls("cache.set_replay"),
        "cache.set_replay_s": busy("cache.set_replay"),
        "cache.commit_calls": calls("cache.commit"),
        "cache.commit_s": busy("cache.commit"),
        "cache.batched_share": ratio(batched, batched + fallback),
        "core.killi_replay.calls": replay_calls,
        "core.killi_replay.s": busy("core.killi_replay"),
        "core.killi_replay.abort_ratio": ratio(
            sample["non_none"].get("core.killi_replay", 0), replay_calls
        ),
        "core.killi.hook_calls": calls("core.killi.hook"),
        "core.killi.hook_s": busy("core.killi.hook"),
        "harness.runner.cells": calls("harness.cell"),
        "harness.runner.overhead_s": busy("harness.runner") - busy("harness.cell"),
        "harness.report_s": busy("harness.report"),
        "analysis.s": busy("analysis"),
        "startup.s": busy("startup"),
        "trace.wall_s": sample["wall_s"],
        "trace.unattributed_s": layers["unattributed"]["self_s"],
        "trace.overhead_s": sample["wall_s"] - untraced_wall,
    }


def traced_run(workload: str, seed: int, seconds: float, plant=None):
    """Untraced samples with counters on, then one traced sample.

    The traced sample must reproduce the untraced digests and path
    counters exactly, and its self times plus ``unattributed`` must sum
    to its wall time.
    """
    reference = load_references(workload)
    sim_seed = simulation_seed(reference, seed)
    reference = reference[str(sim_seed)]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    untraced, attempted, problems = run_samples(
        workload, sim_seed, seconds, "count", reference, deadline
    )
    untraced = [s for s in untraced if not s.get("error")]
    if not untraced:
        return untraced, attempted, problems, {}, sim_seed
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{sim_seed}.jsonl"
    traced = spawn(workload, sim_seed, "traced", plant=plant, spans=spans,
                   deadline=deadline)
    attempted += len(reference["cells"]) + 1
    problems += check(traced, reference)
    if traced.get("error") or "layers" not in traced:
        problems.append(f"traced sample failed: {traced.get('error')}")
        return [*untraced, traced], attempted, problems, {}, sim_seed

    def fidelity(sample):
        return (
            [c.get("digest") for c in sample["cells"]],
            sample.get("report_digest"),
            path_counters(sample.get("counters") or {}),
        )

    want = fidelity(untraced[0])
    for sample in untraced[1:] + [traced]:
        got = fidelity(sample)
        if got[:2] != want[:2]:
            problems.append("fidelity: traced digests differ from untraced")
        if got[2] != want[2]:
            moved = sorted(
                k for k in set(got[2]) | set(want[2])
                if got[2].get(k) != want[2].get(k)
            )
            problems.append(f"fidelity: path counters moved: {', '.join(moved)}")

    layers = traced["layers"]
    self_total = sum(entry["self_s"] for entry in layers.values())
    if abs(self_total - traced["wall_s"]) > 1e-6 * max(1.0, traced["wall_s"]):
        problems.append(
            f"self times sum to {self_total:.6f}s, traced wall is "
            f"{traced['wall_s']:.6f}s"
        )
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    metrics = layer_metrics(traced, untraced_wall)

    rows = sorted(
        ((name, entry["calls"], entry["busy_s"], entry["self_s"])
         for name, entry in layers.items()),
        key=lambda row: -row[3],
    )
    print_table(
        f"{workload} (seed {sim_seed}): traced layers; self times sum to "
        f"{self_total:.3f}s = traced wall_s {traced['wall_s']:.3f}s",
        [(n, c, f"{b:.4f}", f"{s:.4f}", f"{100 * s / traced['wall_s']:.1f}%")
         for n, c, b, s in rows],
        ("layer", "calls", "busy_s", "self_s", "self %"),
    )
    print(
        f"tracing overhead: {metrics['trace.overhead_s']:.3f}s "
        f"(traced {traced['wall_s']:.3f}s - untraced median {untraced_wall:.3f}s "
        f"over {len(untraced)} sample(s))"
    )
    print(f"path counters: {json.dumps(want[2], sort_keys=True)}")
    print(f"spans written to {spans.relative_to(ROOT)}")
    return [*untraced, traced], attempted, problems, metrics, sim_seed


def record(workload: str, seeds) -> int:
    """Re-record reference digests for ``seeds`` on the scalar engine."""
    path = REFERENCES / f"{workload}.json"
    data = {"engine": "scalar", "seeds": load_references(workload)}
    for seed in seeds:
        sample = spawn(workload, seed, "record")
        bad = [c for c in sample["cells"] if c.get("error")]
        wrong_count = len(sample["cells"]) != WORKLOADS[workload].cells
        if sample.get("error") or bad or wrong_count:
            print(f"{workload} seed {seed}: recording failed: {sample.get('error')}",
                  file=sys.stderr)
            return 1
        data["seeds"][str(seed)] = {
            "cells": [[c["label"], c["digest"]] for c in sample["cells"]],
            "report": sample["report_digest"],
        }
        print(f"{workload} seed {seed}: {len(sample['cells'])} cells recorded "
              f"in {sample['wall_s']:.1f}s")
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCES.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the Killi reproduction."
    )
    parser.add_argument(
        "--workload", default="all", choices=["all", *sorted(WORKLOADS)]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="re-record the reference digests of --seeds on the scalar engine",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 2019])
    parser.add_argument(
        "--plant", choices=("wrong-result", "inherited-hook"), default=None,
        help=argparse.SUPPRESS,  # self-test faults
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    # The build: byte-compile once so no sample pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        return max(record(name, args.seeds) for name in names)

    stamp = machine_fingerprint()
    attempted, problems, metrics, details = 0, [], {}, {}
    for name in names:
        runner = traced_run if args.trace else timed_run
        samples, n, found, values, sim_seed = runner(
            name, args.seed, args.seconds, plant=args.plant
        )
        attempted += n
        problems += found
        prefix = f"{name}." if args.workload == "all" else ""
        units = dict(PER_LAYER if args.trace else END_TO_END)
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
        details[name] = {
            "seed": args.seed, "simulation_seed": sim_seed,
            "sizes": WORKLOADS[name].sizes, "samples": samples,
        }
        print(f"  sizes: {WORKLOADS[name].sizes}")
    print("machine: " + json.dumps(stamp, sort_keys=True))
    for problem in problems:
        print(f"FAILED {problem}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    with open(OUT / f"last-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"machine": stamp, "workloads": details, "problems": problems},
                  handle, indent=1)
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
