"""The declarative scenario schema.

A :class:`ScenarioConfig` is the single typed, serialisable
description of one experiment cell — the unit every campaign in the
harness is made of.  It is a frozen dataclass tree with one section
per concern:

========== ==================================================
section    knobs
========== ==================================================
gpu        machine shape (CUs, L1, L2 geometry, bank model)
scheme     protection-scheme name + Killi config overrides
workload   workload-generator name + trace length
fault      operating voltage + experiment seed
engine     inner loop (never changes results)
========== ==================================================

Scenarios serialise to/from TOML and JSON with schema-version checks,
and produce a **canonical fingerprint** that keys the on-disk result
cache.  The fingerprint is computed from a canonical payload in which

- dict-valued knobs are sorted (``scheme.config`` insertion order
  never matters),
- the ``engine`` section is excluded entirely (the engines are pinned
  bit-identical), and
- sections still equal to their defaults are elided (adding a new
  default-valued knob in a future schema does not invalidate existing
  cache entries).

For a default-``gpu`` scenario the payload is byte-identical to the
one the flat per-cell spec of earlier releases hashed, so pre-existing
result caches stay warm.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.scenario import tomlio

__all__ = [
    "SCHEMA_VERSION",
    "GpuSection",
    "SchemeSection",
    "WorkloadSection",
    "FaultSection",
    "EngineSection",
    "ScenarioConfig",
    "cell_scenario",
    "as_scenario",
]

#: Scenario schema version.  Bump on any change to the canonical
#: payload or the section layout; readers reject newer versions.
SCHEMA_VERSION = 1


# -- sections -----------------------------------------------------------------


@dataclass(frozen=True)
class GpuSection:
    """Machine shape (paper Table 3 defaults)."""

    n_cus: int = 8
    freq_ghz: float = 1.0
    l1_size_bytes: int = 16 * 1024
    l1_assoc: int = 4
    l1_hit_latency: int = 1
    l2_size_bytes: int = 2 * 1024 * 1024
    l2_line_bytes: int = 64
    l2_associativity: int = 16
    l2_banks: int = 16
    model_bank_conflicts: bool = False
    bank_conflict_penalty: int = 2

    def to_gpu_config(self):
        """Materialise as a :class:`~repro.gpu.GpuConfig`."""
        from repro.cache.geometry import CacheGeometry
        from repro.gpu.config import GpuConfig

        return GpuConfig(
            n_cus=self.n_cus,
            freq_ghz=self.freq_ghz,
            l1_size_bytes=self.l1_size_bytes,
            l1_assoc=self.l1_assoc,
            l1_hit_latency=self.l1_hit_latency,
            l2=CacheGeometry(
                size_bytes=self.l2_size_bytes,
                line_bytes=self.l2_line_bytes,
                associativity=self.l2_associativity,
                banks=self.l2_banks,
            ),
            model_bank_conflicts=self.model_bank_conflicts,
            bank_conflict_penalty=self.bank_conflict_penalty,
        )


@dataclass(frozen=True)
class SchemeSection:
    """Protection scheme by experiment-axis name.

    ``config`` holds :class:`~repro.core.KilliConfig` field overrides
    (ablation switches) as sorted ``(field, value)`` pairs — pass a
    plain dict, it is normalised on construction.  ``write_back`` swaps
    in the write-back Killi variant.
    """

    name: str = "baseline"
    config: Tuple[Tuple[str, Any], ...] = ()
    write_back: bool = False

    def __post_init__(self):
        if isinstance(self.config, dict):
            object.__setattr__(self, "config", tuple(sorted(self.config.items())))
        else:
            object.__setattr__(
                self, "config", tuple(tuple(pair) for pair in self.config)
            )

    @property
    def overrides(self) -> Dict[str, Any]:
        return dict(self.config)


@dataclass(frozen=True)
class WorkloadSection:
    """Workload-generator name + trace length."""

    name: str = "nekbone"
    accesses_per_cu: int = 30000


@dataclass(frozen=True)
class FaultSection:
    """Operating point: voltage (drives the fault map) + seed."""

    voltage: float = 0.625
    seed: int = 42


@dataclass(frozen=True)
class EngineSection:
    """Execution backend.  Excluded from fingerprints: the engines are
    pinned bit-identical."""

    engine: str = "batched"


_SECTION_TYPES = {
    "gpu": GpuSection,
    "scheme": SchemeSection,
    "workload": WorkloadSection,
    "fault": FaultSection,
    "engine": EngineSection,
}


def _section_from_dict(cls, data: dict, section: str, source: str):
    if not isinstance(data, dict):
        raise ValueError(f"{source}: [{section}] must be a table, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{source}: unknown key(s) {unknown} in [{section}]; "
            f"known: {sorted(known)}"
        )
    return cls(**data)


def _section_to_dict(section_obj) -> dict:
    out = {}
    for f in fields(section_obj):
        value = getattr(section_obj, f.name)
        if f.name == "config":
            value = dict(value)
        out[f.name] = value
    return out


# -- the scenario -------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified experiment cell (see module docstring)."""

    scheme: SchemeSection = field(default_factory=SchemeSection)
    workload: WorkloadSection = field(default_factory=WorkloadSection)
    fault: FaultSection = field(default_factory=FaultSection)
    gpu: GpuSection = field(default_factory=GpuSection)
    engine: EngineSection = field(default_factory=EngineSection)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for name, cls in _SECTION_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, dict):
                object.__setattr__(
                    self, name, _section_from_dict(cls, value, name, "ScenarioConfig")
                )
            elif not isinstance(value, cls):
                raise TypeError(
                    f"ScenarioConfig.{name} must be a {cls.__name__} or dict, "
                    f"got {type(value).__name__}"
                )
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema_version {self.schema_version!r} "
                f"(this build supports {SCHEMA_VERSION})"
            )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Nested plain dict (TOML/JSON-ready; ``None`` values elided)."""
        out: Dict[str, Any] = {"schema_version": self.schema_version}
        for name in _SECTION_TYPES:
            out[name] = _section_to_dict(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict, source: str = "scenario") -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError(f"{source}: expected a table, got {data!r}")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or version > SCHEMA_VERSION or version < 1:
            raise ValueError(
                f"{source}: unsupported schema_version {version!r} "
                f"(this build supports {SCHEMA_VERSION})"
            )
        unknown = sorted(set(data) - set(_SECTION_TYPES))
        if unknown:
            raise ValueError(
                f"{source}: unknown section(s) {unknown}; "
                f"known: {sorted(_SECTION_TYPES)}"
            )
        sections = {
            name: _section_from_dict(section_cls, data[name], name, source)
            for name, section_cls in _SECTION_TYPES.items()
            if name in data
        }
        return cls(schema_version=SCHEMA_VERSION, **sections)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str, source: str = "scenario") -> "ScenarioConfig":
        return cls.from_dict(json.loads(text), source=source)

    def to_toml(self, header: Optional[str] = None) -> str:
        return tomlio.dumps(self.to_dict(), header=header)

    @classmethod
    def from_toml(cls, text: str, source: str = "scenario") -> "ScenarioConfig":
        return cls.from_dict(tomlio.loads(text), source=source)

    # -- canonical fingerprint ---------------------------------------------

    def canonical_payload(self) -> dict:
        """The fingerprinted payload (see module docstring for rules)."""
        payload: Dict[str, Any] = {
            "schema": self.schema_version,
            "workload": self.workload.name,
            "scheme": self.scheme.name,
            "voltage": self.fault.voltage,
            "seed": self.fault.seed,
            "accesses_per_cu": self.workload.accesses_per_cu,
            "scheme_config": [list(pair) for pair in self.scheme.config],
            "write_back": self.scheme.write_back,
        }
        default_gpu = GpuSection()
        if self.gpu != default_gpu:
            payload["gpu"] = {
                f.name: getattr(self.gpu, f.name)
                for f in fields(GpuSection)
                if getattr(self.gpu, f.name) != getattr(default_gpu, f.name)
            }
        return payload

    def fingerprint(self) -> str:
        """Stable content key for the on-disk result cache."""
        blob = json.dumps(self.canonical_payload(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ScenarioConfig":
        """Resolve every plugin name and sanity-check scalar knobs.

        Raises ``KeyError`` for unknown registry names and
        ``ValueError`` for invalid values; returns ``self`` so calls
        chain.
        """
        from repro.scenario.registries import (
            ENGINE_REGISTRY,
            SCHEME_REGISTRY,
            WORKLOAD_REGISTRY,
        )

        factory = SCHEME_REGISTRY.resolve(self.scheme.name)
        factory.check_options(self.scheme.overrides, self.scheme.write_back)
        WORKLOAD_REGISTRY.resolve(self.workload.name)
        ENGINE_REGISTRY.resolve(self.engine.engine)
        if self.workload.accesses_per_cu <= 0:
            raise ValueError("workload.accesses_per_cu must be positive")
        if self.fault.seed < 0:
            raise ValueError("fault.seed must be non-negative")
        if not 0.0 < self.fault.voltage <= 1.5:
            raise ValueError(
                f"fault.voltage {self.fault.voltage} outside the modelled "
                "normalized-VDD range (0, 1.5]"
            )
        return self

    def replace(self, **sections) -> "ScenarioConfig":
        """``dataclasses.replace`` shorthand (sections may be dicts)."""
        return dataclasses.replace(self, **sections)


# -- convenience constructors -------------------------------------------------


def cell_scenario(
    workload: str,
    scheme: str,
    *,
    voltage: float = 0.625,
    seed: int = 42,
    accesses_per_cu: int = 30000,
    scheme_config=(),
    write_back: bool = False,
    engine: str = "batched",
    gpu: Optional[GpuSection] = None,
) -> ScenarioConfig:
    """Build a single-cell scenario from flat (workload, scheme, ...) knobs.

    This is the construction path the per-figure harness runners use.
    """
    return ScenarioConfig(
        scheme=SchemeSection(name=scheme, config=scheme_config, write_back=write_back),
        workload=WorkloadSection(name=workload, accesses_per_cu=accesses_per_cu),
        fault=FaultSection(voltage=voltage, seed=seed),
        gpu=gpu if gpu is not None else GpuSection(),
        engine=EngineSection(engine=engine),
    )


def as_scenario(spec) -> ScenarioConfig:
    """Check that ``spec`` is a ``ScenarioConfig`` and return it."""
    if isinstance(spec, ScenarioConfig):
        return spec
    raise TypeError(f"expected a ScenarioConfig, got {type(spec).__name__}")
