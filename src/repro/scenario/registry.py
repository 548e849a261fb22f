"""Generic string-keyed plugin registry.

One :class:`Registry` instance per pluggable axis of an experiment
(protection schemes, workload generators and engines — see
:mod:`repro.scenario.registries`).  The pattern follows
:mod:`repro.ecc.registry`'s name -> factory dict, with two additions
the experiment axes need:

- **Families.**  Some axes have parameterised name grammars
  (``killi_1:<ratio>``, ``killi+<code>_1:<ratio>``) that cannot be
  enumerated as exact keys.  A family registers a *parser*: given a
  name, it returns an entry (the name is one of mine), ``None`` (not
  mine — try the next family), or raises :class:`KeyError` (mine, but
  malformed).  An optional enumerator contributes canonical instances
  to :meth:`names`.
- **Lazy loading.**  Entries self-register from the module that owns
  them (baselines register baseline schemes, ``repro.traces`` its
  workloads, ...).  A registry created with a ``loader`` imports those
  modules on first resolution, so merely importing
  ``repro.scenario`` stays cheap and free of import cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

__all__ = ["Registry"]

_MISSING = object()


class Registry:
    """An ordered name -> entry mapping with parser families.

    Parameters
    ----------
    kind:
        Human-readable axis name used in error messages
        (``"scheme"``, ``"workload"``, ...).
    loader:
        Zero-argument callable importing the modules that register
        this axis's built-in entries.  Invoked once, lazily, before
        the first :meth:`resolve` / :meth:`names`.
    """

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None):
        self.kind = kind
        self._exact: dict = {}
        self._families: list = []
        self._loader = loader
        self._loaded = loader is None

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Flip the flag first: the loader imports modules whose
            # top-level registration calls land back here.
            self._loaded = True
            self._loader()

    # -- registration -------------------------------------------------------

    def register(self, name: str, entry: Any = _MISSING):
        """Register ``entry`` under ``name`` (or use as a decorator).

        Duplicate names are an error: two plugins fighting over one
        name is always a bug.  Use :meth:`unregister` first to
        replace an entry deliberately.
        """
        if entry is _MISSING:

            def decorator(obj):
                self.register(name, obj)
                return obj

            return decorator
        if name in self._exact:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._exact[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an exact entry (KeyError if absent)."""
        try:
            del self._exact[name]
        except KeyError:
            raise KeyError(f"{self.kind} {name!r} is not registered") from None

    def register_family(
        self,
        parser: Callable[[str], Any],
        enumerate: Optional[Callable[[], Iterable[str]]] = None,
        label: Optional[str] = None,
    ):
        """Register a parameterised name family.

        ``parser(name)`` returns an entry, ``None`` (name not in this
        family), or raises ``KeyError`` (in this family, malformed).
        ``enumerate()`` yields canonical instances for :meth:`names`.
        """
        self._families.append(
            (label or getattr(parser, "__name__", "family"), parser, enumerate)
        )
        return parser

    # -- resolution ---------------------------------------------------------

    def resolve(self, name: str) -> Any:
        """Entry for ``name``; raises ``KeyError`` with the offending name."""
        self._ensure_loaded()
        try:
            return self._exact[name]
        except KeyError:
            pass
        for _, parser, _ in self._families:
            entry = parser(name)
            if entry is not None:
                return entry
        raise KeyError(f"unknown {self.kind} {name!r}; known: {self.names()}")

    def names(self) -> List[str]:
        """Exact names (registration order) + canonical family instances."""
        self._ensure_loaded()
        out = list(self._exact)
        seen = set(out)
        for _, _, enumerator in self._families:
            if enumerator is None:
                continue
            for name in enumerator():
                if name not in seen:
                    seen.add(name)
                    out.append(name)
        return out

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
            return True
        except KeyError:
            return False

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self._exact)} exact, {len(self._families)} families)"
