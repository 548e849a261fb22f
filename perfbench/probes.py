"""Wrappers the benchmark installs around the simulator's layer boundaries.

Two kinds, both installed from the benchmark's own files so that no
program file changes:

- :class:`CellProbe` wraps only the cell boundary (``run_cell``) and
  ``GpuSimulator.run``.  It runs in every sample, timed ones included,
  and yields per-cell set-up, simulation and total host time plus the
  digest of every ``CellResult``.
- :class:`Tracer` wraps every layer's public entry points for the
  traced run.  Each call becomes a span (name, start, end, parent, cell
  fingerprint), except the per-access and per-set boundaries, which are
  aggregated into a call count and summed busy and self time under the
  enclosing span.  Spans stay in memory until :meth:`Tracer.dump`.

Method wrappers go on the class that defines the method, never on a
subclass that inherits it: the engines decide batchability by method
identity (``_access_protocol_unchanged`` and ``hooks_unchanged``), so a
wrapper on an inherited hook would move cells off the batched path.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import inspect
import json
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

#: Prefixes of the counters whose values must not move when tracing is
#: switched on: they record which path (batched, fallback, memo hit)
#: each piece of work took.
PATH_COUNTERS = (
    "engine.batched.accesses_batched",
    "engine.batched.accesses_fallback",
    "engine.batched.guard_aborts.",
    "l1filter.memo_",
    "traces.memo_",
)


def path_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """The subset of a ``METRICS`` counter dict named by PATH_COUNTERS."""
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(PATH_COUNTERS)
    }


def cell_digest(result) -> str:
    """SHA-256 of a ``CellResult`` minus its host-time fields."""
    data = result.to_dict()
    data.pop("elapsed_s", None)
    data.pop("from_cache", None)
    blob = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self):
        self._undo: List[tuple] = []

    def method(self, cls, name: str, wrap: Callable, inherited: bool = False):
        """Replace ``cls.name`` with ``wrap(original)``.

        Refuses a method ``cls`` inherits unless ``inherited`` is set
        (only the self-tests' planted fault does that).
        """
        if name not in cls.__dict__ and not inherited:
            raise ValueError(
                f"{cls.__name__}.{name} is inherited; wrap it on the class "
                "that defines it"
            )
        original = getattr(cls, name)
        self._undo.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, wrap(original))

    def function(self, modules, name: str, wrap: Callable):
        """Replace ``name`` in each module that holds the same object,
        with one shared wrapper."""
        original = getattr(modules[0], name)
        wrapped = wrap(original)
        for module in modules:
            if getattr(module, name) is not original:
                raise ValueError(f"{module.__name__}.{name} is a different object")
            self._undo.append((module, name, original))
            setattr(module, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class SetupOnly(Exception):
    """Raised to stop a set-up-only sample once every cell is built."""


class CellProbe:
    """Per-cell host timings and result digests.

    ``setup_s`` of a cell is the time from entering ``run_cell`` to
    entering ``GpuSimulator.run``: scenario normalisation, fault map,
    trace, scheme and simulator construction.
    """

    def __init__(self, setup_only: bool = False, plant_wrong_result: bool = False):
        self.cells: List[dict] = []
        self.fault_map_seeds: set = set()
        self.trace_seeds: set = set()
        self.setup_only = setup_only
        self.plant_wrong_result = plant_wrong_result
        self._current: Optional[dict] = None

    def install(self, patches: Patches) -> None:
        from repro.gpu.engine import GpuSimulator
        from repro.harness import experiments, runner

        probe = self

        def wrap_run_cell(original):
            @functools.wraps(original)
            def run_cell(spec):
                started = clock()
                cell = {
                    "started": started, "setup_s": None, "sim_s": 0.0,
                    "accesses": 0,
                }
                probe._current = cell
                try:
                    result = original(spec)
                except SetupOnly:
                    probe.cells.append(cell)
                    raise
                except Exception as error:
                    cell["cell_s"] = clock() - started
                    cell["error"] = f"{type(error).__name__}: {error}"
                    probe.cells.append(cell)
                    raise
                finally:
                    probe._current = None
                cell["cell_s"] = clock() - started
                if probe.plant_wrong_result and not probe.cells:
                    result.l2["read_hits"] += 1
                cell["label"] = f"{result.workload}/{result.scheme}"
                cell["digest"] = cell_digest(result)
                probe.cells.append(cell)
                return result

            return run_cell

        def wrap_sim_run(original):
            @functools.wraps(original)
            def run(simulator, trace, *args, **kwargs):
                entered = clock()
                cell = probe._current
                if cell is not None and cell["setup_s"] is None:
                    cell["setup_s"] = entered - cell["started"]
                if probe.setup_only:
                    raise SetupOnly
                try:
                    return original(simulator, trace, *args, **kwargs)
                finally:
                    if cell is not None:
                        cell["sim_s"] += clock() - entered
                        cell["accesses"] += sum(
                            len(stream.addrs) for stream in trace.streams
                        )

            return run

        def record_seed(seeds):
            def wrap(original):
                signature = inspect.signature(original)

                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    seeds.add(bound.arguments["seed"])
                    return original(*args, **kwargs)

                return wrapper

            return wrap

        def wrap_run_cells(original):
            # Set-up-only samples build every cell and simulate none.
            @functools.wraps(original)
            def run_cells(specs, *args, **kwargs):
                for spec in specs:
                    try:
                        runner.run_cell(spec)
                    except SetupOnly:
                        pass
                    # A full sample's simulation churn lets the cyclic GC
                    # free each finished cell's scheme and caches; without
                    # it that work would land in the next cell's set-up.
                    gc.collect()
                raise SetupOnly

            return run_cells

        patches.function([runner], "run_cell", wrap_run_cell)
        patches.method(GpuSimulator, "run", wrap_sim_run)
        patches.function([runner], "fault_map_for", record_seed(self.fault_map_seeds))
        patches.function(
            [runner], "workload_trace_memo", record_seed(self.trace_seeds)
        )
        if self.setup_only:
            patches.function([runner, experiments], "run_cells", wrap_run_cells)


class Span:
    """One call across a layer boundary.  ``cell`` is the fingerprint of
    the cell the call belongs to ("" outside any cell); ``parent`` is
    the index of the enclosing span (-1 for the root)."""

    __slots__ = ("name", "index", "parent", "cell", "start", "end", "child", "aggs")

    def __init__(self, name: str, index: int, parent: int, cell: str):
        self.name = name
        self.index = index
        self.parent = parent
        self.cell = cell
        self.start = 0.0
        self.end = 0.0
        # One-element list: child coverage, the "frame" children add to.
        self.child = [0.0]
        # aggregated boundary name -> [calls, busy_s, self_s]
        self.aggs: Dict[str, list] = {}


#: The experiment functions behind fig1/2/6 and tables 4/5/7.
ANALYSIS_FUNCTIONS = (
    "fig1_cell_pfail",
    "fig2_line_distribution",
    "fig6_coverage",
    "table4_strong_ecc",
    "table5_area",
    "table7_olsc",
)

KILLI_HOOKS = ("on_fill", "on_read_hit", "on_write_hit", "on_evict", "on_invalidated")


class Tracer:
    """Layer spans and per-access aggregates for one traced sample."""

    def __init__(self):
        root = Span("process", 0, -1, "")
        self.spans: List[Span] = [root]
        self._open: List[Span] = [root]
        self._frames: List[list] = [root.child]
        self.non_none: Dict[str, int] = {}

    def span(self, name: str, cell_of: Optional[Callable] = None):
        """Wrapper factory: one span per call."""
        spans, open_, frames = self.spans, self._open, self._frames

        def wrap(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                parent = open_[-1]
                cell = cell_of(args) if cell_of is not None else parent.cell
                span = Span(name, len(spans), parent.index, cell)
                spans.append(span)
                open_.append(span)
                frames.append(span.child)
                span.start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    span.end = clock()
                    frames.pop()
                    open_.pop()
                    frames[-1][0] += span.end - span.start

            return wrapper

        return wrap

    def aggregate(self, name: str, count_results: bool = False):
        """Wrapper factory: calls fold into a count and summed busy and
        self time on the enclosing span.  With ``count_results`` the
        non-None returns are counted too."""
        open_, frames, non_none = self._open, self._frames, self.non_none

        def wrap(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                started = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    frames.pop()
                    frames[-1][0] += elapsed
                    aggs = open_[-1].aggs
                    acc = aggs.get(name)
                    if acc is None:
                        acc = aggs[name] = [0, 0.0, 0.0]
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - frame[0]
                if count_results and result is not None:
                    non_none[name] = non_none.get(name, 0) + 1
                return result

            return wrapper

        return wrap

    def install(self, patches: Patches, plant_inherited_hook: bool = False) -> None:
        from repro.cache.core import CacheModel
        from repro.cache.hooks import UnprotectedScheme
        from repro.core.killi import KilliScheme
        from repro.core.killi_replay import KilliClusterInterpreter
        from repro.core.strong import KilliStrongScheme
        from repro.gpu import engine
        from repro.gpu.engine import GpuSimulator
        from repro.harness import experiments, runner
        from repro.harness.results import PerformanceMatrix
        from repro.scenario.config import as_scenario

        def fingerprint(args):
            return as_scenario(args[0]).fingerprint()

        for name in ANALYSIS_FUNCTIONS:
            patches.function([experiments], name, self.span("analysis"))
        patches.function([experiments], "table6_power", self.span("harness.report"))
        for name in ("fig4_table", "fig5_table"):
            patches.method(PerformanceMatrix, name, self.span("harness.report"))
        patches.function(
            [runner, experiments], "run_cells", self.span("harness.runner")
        )
        patches.function([runner], "run_cell", self.span("harness.cell", fingerprint))
        patches.function([runner], "fault_map_for", self.span("faults.map"))
        patches.function([runner], "workload_trace_memo", self.span("traces.gen"))
        patches.function([runner], "make_scheme", self.span("scenario.make_scheme"))
        patches.method(GpuSimulator, "__init__", self.span("gpu.engine.build"))
        patches.method(GpuSimulator, "run", self.span("gpu.engine.run"))
        patches.function([engine], "run_l1_stream_memo", self.span("gpu.l1filter"))
        patches.function(
            [engine], "replay_clean_set", self.aggregate("cache.set_replay")
        )
        patches.method(CacheModel, "commit_set_replays", self.span("cache.commit"))
        patches.method(
            KilliClusterInterpreter, "run",
            self.aggregate("core.killi_replay", count_results=True),
        )
        for name in ("read", "write"):
            patches.method(CacheModel, name, self.aggregate("cache.access"))
        for cls in (KilliScheme, KilliStrongScheme):
            for hook in KILLI_HOOKS:
                if hook in cls.__dict__:
                    patches.method(cls, hook, self.aggregate("core.killi.hook"))
        if plant_inherited_hook:
            # Self-test fault: the baseline inherits on_fill, so this
            # wrapper makes it look behavioural and moves its cells off
            # the batched path.  The fidelity check must catch it.
            patches.method(
                UnprotectedScheme, "on_fill",
                self.aggregate("core.killi.hook"), inherited=True,
            )

    def finish(self, spawned_at: float, imported_at: float, ended_at: float) -> None:
        """Close the root span over the whole process and add the
        interpreter start-up as its first child."""
        root = self.spans[0]
        root.start, root.end = spawned_at, ended_at
        startup = Span("startup", len(self.spans), 0, "")
        startup.start, startup.end = spawned_at, imported_at
        self.spans.append(startup)
        root.child[0] += imported_at - spawned_at

    def layers(self) -> Dict[str, dict]:
        """Per layer: calls, busy (inclusive) and self seconds.  The
        root's self time is reported as ``unattributed``."""
        out: Dict[str, dict] = {}

        def add(name, calls, busy, own):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["busy_s"] += busy
            entry["self_s"] += own

        for span in self.spans:
            duration = span.end - span.start
            name = "unattributed" if span.index == 0 else span.name
            add(name, 1, duration, duration - span.child[0])
            for agg_name, (calls, busy, own) in span.aggs.items():
                add(agg_name, calls, busy, own)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "trace_id": span.cell,
                    "span_id": span.index,
                    "parent_id": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "child_s": span.child[0],
                    "aggregates": span.aggs,
                }) + "\n")
