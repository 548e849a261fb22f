"""The three experiment-axis registries and their entry conventions.

Every pluggable component of a scenario resolves through one of these
string-keyed registries (:class:`~repro.scenario.registry.Registry`):

===============  =====================================================
registry         entry convention
===============  =====================================================
SCHEME_REGISTRY  :class:`SchemeFactory` — builds a protection scheme
                 from a :class:`SchemeBuildContext`
WORKLOAD_REGISTRY
                 a :class:`~repro.traces.generators.WorkloadSpec`, or
                 a callable ``(name, accesses_per_cu, n_cus, rng) ->
                 Trace``
ENGINE_REGISTRY  a callable ``(simulator, trace) -> per-CU cycles``
                 (the inner loop of ``GpuSimulator.run``)
===============  =====================================================

Built-in entries self-register from the module that owns them
(``repro.baselines`` registers the baseline schemes, ``repro.core``'s
Killi family registers via :mod:`repro.scenario.schemes`,
``repro.traces.workloads`` the ten workloads, ``repro.gpu.engine`` the
two inner loops).  The lazy
loaders below import those modules on first use, so third-party code
can ``SCHEME_REGISTRY.register(...)`` its own entries without touching
any harness module — exactly the extension point the registries exist
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.scenario.registry import Registry

__all__ = [
    "SCHEME_REGISTRY",
    "WORKLOAD_REGISTRY",
    "ENGINE_REGISTRY",
    "SchemeBuildContext",
    "SchemeFactory",
]


def _load_schemes() -> None:
    import repro.baselines  # noqa: F401  (registers baseline/dected/flair/msecc)
    import repro.scenario.schemes  # noqa: F401  (registers the killi family)


def _load_workloads() -> None:
    import repro.traces.workloads  # noqa: F401


def _load_engines() -> None:
    import repro.gpu.engine  # noqa: F401


SCHEME_REGISTRY = Registry("scheme", loader=_load_schemes)
WORKLOAD_REGISTRY = Registry("workload", loader=_load_workloads)
ENGINE_REGISTRY = Registry("engine", loader=_load_engines)


# -- scheme entries -----------------------------------------------------------


@dataclass
class SchemeBuildContext:
    """Everything a scheme factory may consult when constructing.

    ``overrides`` holds :class:`~repro.core.KilliConfig` field
    overrides (ablation switches) and ``write_back`` selects the
    write-back Killi variant; factories that support neither call
    :meth:`require_plain`.
    """

    gpu_config: Any
    fault_map: Any
    voltage: float
    rngs: Any
    overrides: Dict[str, Any] = field(default_factory=dict)
    write_back: bool = False

    @property
    def geometry(self):
        """The protected cache's geometry (the shared L2)."""
        return self.gpu_config.l2

    def require_plain(self, name: str) -> None:
        """Reject Killi-only options for schemes that don't take them."""
        if self.overrides or self.write_back:
            raise ValueError(
                f"scheme_config/write_back only apply to Killi schemes, got {name!r}"
            )


class SchemeFactory:
    """A registered constructor for one experiment-axis scheme name.

    The name grammar is parsed exactly once — by the registry lookup
    that produced this factory — so ``params`` already carries the
    decoded parameters (e.g. ``{"ecc_ratio": 64, "code": None}`` for
    ``killi_1:64``) and ``scheme_class`` the class the name maps to.
    """

    def __init__(
        self,
        name: str,
        *,
        kind: str,
        scheme_class: type,
        builder: Callable[["SchemeFactory", SchemeBuildContext], Any],
        params: Optional[Dict[str, Any]] = None,
        accepts_overrides: bool = False,
        validate_options: Optional[Callable] = None,
    ):
        self.name = name
        self.kind = kind
        self.scheme_class = scheme_class
        self.params = dict(params or {})
        self.accepts_overrides = accepts_overrides
        self._builder = builder
        self._validate_options = validate_options

    def build(self, ctx: SchemeBuildContext):
        """Construct the protection scheme."""
        return self._builder(self, ctx)

    def check_options(self, overrides: Optional[dict], write_back: bool) -> None:
        """Validate Killi-only options without constructing anything."""
        if self._validate_options is not None:
            self._validate_options(self, dict(overrides or {}), write_back)
        elif (overrides or write_back) and not self.accepts_overrides:
            raise ValueError(
                f"scheme_config/write_back only apply to Killi schemes, "
                f"got {self.name!r}"
            )

    def describe(self) -> dict:
        """Resolution summary (class + decoded constructor parameters)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "class": self.scheme_class,
            "params": dict(self.params),
            "accepts_overrides": self.accepts_overrides,
        }

    def __repr__(self) -> str:
        return (
            f"SchemeFactory({self.name!r}, kind={self.kind!r}, "
            f"class={self.scheme_class.__name__}, params={self.params})"
        )

