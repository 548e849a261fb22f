"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They drive ``run.py`` on the two-cell ``selftest`` workload, so each
takes a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from probes import Patches  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest",
         "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, proc.stdout, lines


def last_json(lines):
    return json.loads(lines[-1])


def test_clean_run_passes():
    code, out, lines = bench()
    result = last_json(lines)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_traced_run_reproduces_untraced_run():
    code, out, lines = bench("--trace", "1")
    result = last_json(lines)
    assert code == 0, out
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    assert "tracing overhead" in out


def test_planted_wrong_result_is_a_failed_op():
    code, out, lines = bench("--plant", "wrong-result")
    result = last_json(lines)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "fft/baseline: result differs from the reference" in out


def test_planted_inherited_hook_wrapper_is_caught():
    code, out, lines = bench("--trace", "1", "--plant", "inherited-hook")
    assert code != 0
    assert not last_json(lines)["correct"]
    assert "fidelity: path counters moved" in out


def test_wrappers_refuse_inherited_methods():
    class Base:
        def hook(self):
            return 1

    class Child(Base):
        pass

    patches = Patches()
    with pytest.raises(ValueError, match="inherited"):
        patches.method(Child, "hook", lambda f: f)
    patches.method(Base, "hook", lambda f: lambda self: f(self) + 1)
    assert Child().hook() == 2
    patches.restore()
    assert Child().hook() == 1


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    names = declared_e2e + declared_layer + [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert declared_e2e == [name for name, _ in run.END_TO_END]
    assert declared_layer == [name for name, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCH_WORKLOADS)


def test_seed_reaches_fault_map_and_traces():
    seven = run.spawn("selftest", 7, "timed")
    eight = run.spawn("selftest", 8, "timed")
    assert seven["fault_map_seeds"] == [7] and seven["trace_seeds"] == [7]
    assert eight["fault_map_seeds"] == [8] and eight["trace_seeds"] == [8]
    digests = [[c["digest"] for c in s["cells"]] for s in (seven, eight)]
    assert digests[0] != digests[1]


def test_unrecorded_seed_folds_onto_a_recorded_one():
    references = run.load_references("selftest")
    recorded = sorted(int(s) for s in references)
    assert run.simulation_seed(references, 42) == 42
    assert run.simulation_seed(references, 10**6) in recorded


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out, lines = bench(root=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
