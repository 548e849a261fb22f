"""The scheme-facing hook surface of the cache transaction layer.

A *protection scheme* is everything that distinguishes Killi, FLAIR,
DECTED, MS-ECC and the fault-free baseline from the underlying tag
store: what happens on a fill, a hit, an eviction; which victim is
preferred; which lines get disabled.  The unified cache model
(:mod:`repro.cache.core`) calls into the scheme at each of those
points and acts on the returned :class:`AccessOutcome`.

This module is the single home of that surface.  Besides the scheme
base class and the outcome enum it carries the pieces every engine
tier consumes instead of re-stating semantics inline:

- :func:`hooks_unchanged` — the type-level "does this scheme override
  any behavioural hook?" probe behind the default set-inertness
  answer, the MBIST oracles' static-batchability check and Killi's
  cluster-interpreter gate;
- :func:`batched_surface` — the batched engine's single entry point
  for deciding whether a cache's scalar semantics may be replayed in
  bulk at all, replacing per-engine ``type(...)`` checks.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "AccessOutcome",
    "PURE_CLEAN_HIT",
    "BEHAVIOURAL_HOOKS",
    "hooks_unchanged",
    "BatchedSurface",
    "batched_surface",
    "ProtectionScheme",
    "UnprotectedScheme",
]


class AccessOutcome(enum.Enum):
    """What the protection scheme decided about a read hit."""

    CLEAN = "clean"
    """Data is good; serve the hit."""

    CORRECTED = "corrected"
    """Data needed an ECC correction; serve the hit (+1 cycle)."""

    RETRAIN_MISS = "retrain_miss"
    """Detected error invalidates the line and re-enters training
    (Killi Table 2: b'00 with one mismatching segment -> b'01).  The
    access is converted into an error-induced cache miss."""

    DISABLE_MISS = "disable_miss"
    """Detected multi-bit error disables the line (DFH b'11).  The
    access is converted into an error-induced cache miss."""


#: Replay info for a hit that is CLEAN and has no stat side effects.
PURE_CLEAN_HIT = (False, 0, 0)


#: The hooks whose overriding makes a scheme behaviourally visible to
#: the access path.  A scheme that inherits *all* of them unchanged is
#: inert: every read hit is a pure CLEAN hit, fills/evictions have no
#: scheme effects, and victim selection is plain first-invalid/LRU.
BEHAVIOURAL_HOOKS = (
    "on_read_hit",
    "on_fill",
    "on_write_hit",
    "on_evict",
    "on_invalidated",
    "fill_priority",
    "fill_priorities",
    "is_line_usable",
    "hit_replay_info",
    "apply_replay",
)


def hooks_unchanged(cls, hooks=BEHAVIOURAL_HOOKS, owners=None) -> bool:
    """True when ``cls`` inherits every named hook from its owner.

    ``owners`` optionally maps hook names to the class expected to own
    the implementation (default: :class:`ProtectionScheme` for all) —
    the MBIST oracles and Killi use this to assert "no subclass changed
    anything beyond the hooks *I* implement" before answering static-
    batchability probes or handing out a batch interpreter.  Purely
    type-level, so the answer is a class-lifetime constant.
    """
    if owners is None:
        for name in hooks:
            if getattr(cls, name) is not getattr(ProtectionScheme, name):
                return False
        return True
    for name in hooks:
        owner = owners.get(name, ProtectionScheme)
        if getattr(cls, name) is not getattr(owner, name):
            return False
    return True


# Class-level cache for the default set-inertness answer; the probe
# runs once per set per kernel, the answer never changes per class.
_INERT_BY_CLASS: dict = {}


class BatchedSurface(NamedTuple):
    """What the batched engine may use of a cache: see :func:`batched_surface`."""

    cache: object
    """The cache itself; ``set_replay_profile`` / ``apply_set_replays``
    / ``commit_set_replays`` drive the per-set bulk path."""

    interpreter: object
    """A scheme-exact batch interpreter
    (:meth:`ProtectionScheme.batch_interpreter`), or None when only the
    set-replay profiles apply."""


def batched_surface(cache):
    """The batched engine's view of ``cache``, or None (fall back).

    None means the cache's scalar semantics are not bulk-replayable —
    a write-back / write-allocate protocol, a plain-LRU fill policy,
    or a subclass that overrode part of the access protocol — and
    every access must run through the ordinary per-access path.  The
    decision belongs to the transaction layer
    (:attr:`repro.cache.core.CacheModel.semantics_batchable`), not to
    the engines: this is the single gate all tiers consult.
    """
    if not getattr(cache, "semantics_batchable", False):
        return None
    return BatchedSurface(cache, cache.scheme.batch_interpreter(cache))


class ProtectionScheme:
    """Base scheme: no protection, nothing ever fails.

    Subclasses override the hooks they need.  ``attach`` is called once
    by the cache so schemes that manage shared structures (Killi's ECC
    cache) can invalidate lines back through the cache.

    Epoch-cached hit path: a scheme whose ``on_read_hit`` is *pure* for
    a given line (outcome and side effects fixed until a scheme event)
    may return a replay tuple from :meth:`hit_replay_info`; the cache
    memoizes it and replays subsequent hits through
    :meth:`apply_replay` without dispatching ``on_read_hit`` at all.
    Any event that could change a memoized line's hit behaviour must
    either be cache-visible (fill / invalidate / write hit, which clear
    the per-line stamp) or bump the cache's global epoch.
    """

    def __init__(self):
        self.cache = None

    def attach(self, cache) -> None:
        """Called by the owning cache after construction."""
        self.cache = cache

    # -- access hooks (set_index, way identify the physical line) -------

    def on_fill(self, set_index: int, way: int) -> None:
        """New data installed into (set, way)."""

    def on_read_hit(self, set_index: int, way: int) -> AccessOutcome:
        """Data read from (set, way); decide the outcome."""
        return AccessOutcome.CLEAN

    def on_write_hit(self, set_index: int, way: int) -> None:
        """Data overwritten in place (write-through update)."""

    def on_evict(self, set_index: int, way: int) -> None:
        """Valid line evicted (replacement).  Killi trains DFH here."""

    def on_invalidated(self, set_index: int, way: int) -> None:
        """Line invalidated for a non-replacement reason."""

    def on_dirty(self, set_index: int, way: int) -> None:
        """Line transitioned clean -> dirty (write-back caches only)."""

    # -- policy hooks ----------------------------------------------------

    def fill_priority(self, set_index: int, way: int) -> int:
        """Priority for choosing among *invalid* candidate ways.

        Higher wins.  Killi returns 2 for DFH b'01, 1 for b'00, 0 for
        b'10 (paper Section 4.4).
        """
        return 0

    def fill_priorities(self, set_index: int, ways) -> list:
        """``fill_priority`` for each way in ``ways`` (batched).

        Schemes with cheap bulk access to their per-line state (Killi's
        DFH array) override this to avoid a Python call per candidate.
        """
        return [self.fill_priority(set_index, way) for way in ways]

    def fill_priority_is_uniform(self, set_index: int) -> bool:
        """True if every way of ``set_index`` is *guaranteed* to carry
        the same fill priority right now — the caller may then take the
        first invalid candidate without ranking.  Conservative default:
        False (rank every time); Killi overrides with a per-set counter
        of lines that have left the (uniform-priority) initial state.
        """
        return False

    def is_line_usable(self, set_index: int, way: int) -> bool:
        """May (set, way) receive a fill?  (Disabled ways are already
        excluded by the tag store; schemes can exclude more.)"""
        return True

    def filters_ways(self) -> bool:
        """May :meth:`is_line_usable` ever return False for *this
        instance*?  The cache skips the per-way usability calls (and
        allows batched set replay) when this is False.  The default is
        the conservative type-level check; schemes whose filtering is
        configuration-gated (FLAIR's optional training window) override
        it so an instance that provably never filters is not penalised
        for the class having the hook.  Must be decided once, at attach
        time: an instance that might start filtering later has to
        return True up front."""
        return type(self).is_line_usable is not ProtectionScheme.is_line_usable

    # -- epoch-cached hit path -------------------------------------------

    def hit_replay_info(self, set_index: int, way: int):
        """Replay tuple ``(corrected, hits_inc, sdc_inc)`` for a read
        hit on (set, way), or None if the hit must go through
        :meth:`on_read_hit`.

        Only valid when the scheme guarantees the hit outcome and its
        stat side effects stay fixed until a stamp-clearing cache event
        or an epoch bump.  The base implementation covers schemes that
        never fail — but only when ``on_read_hit`` is not overridden,
        so unaware subclasses safely opt out.
        """
        if type(self).on_read_hit is not ProtectionScheme.on_read_hit:
            return None
        return PURE_CLEAN_HIT

    def apply_replay(self, info) -> None:
        """Apply the scheme-side stat effects of a memoized hit."""

    # -- batched set replay ----------------------------------------------

    def set_replay_profile(self, set_index: int):
        """Batched-replay profile ``(info, corrected_ways)`` or None.

        The batched engine partitions the L2-bound stream by set and
        replays a set without per-access scheme dispatch when this
        returns a profile:

        - ``info`` — the per-hit replay tuple applied to the set's
          read hits (``(corrected, hits_inc, sdc_inc)``, as
          :meth:`hit_replay_info`);
        - ``corrected_ways`` — None, or the ways whose read hits
          replay as CORRECTED (+1 cycle, ``corrected_reads``) instead
          of ``info[0]``'s latency class.  Lets statically-
          characterised schemes (the MBIST oracles) batch sets that
          *contain* faulty-but-correctable lines.

        A profile must keep the set *scheme-inert* for the whole
        current kernel:

        - every read hit in the set behaves per ``info`` /
          ``corrected_ways``;
        - ``on_fill`` / ``on_write_hit`` / ``on_evict`` on any way of
          the set are pure no-ops (no state, stat, RNG or shared-
          structure effects);
        - victim selection reduces to first-invalid / plain LRU (no
          way filtering, uniform fill priorities);
        - nothing outside the set's own accesses can mutate the set
          (no shared-structure entries pointing at it).

        The engine asks once per set, before the kernel's first access,
        and runs a refused set per access for the whole kernel, so the
        answer must be fixed for a kernel.  The default covers schemes
        that override none of the behavioural hooks
        (:data:`BEHAVIOURAL_HOOKS`) — uniform pure-clean hits; unaware
        subclasses safely opt out.
        """
        cls = type(self)
        inert = _INERT_BY_CLASS.get(cls)
        if inert is None:
            inert = hooks_unchanged(cls)
            _INERT_BY_CLASS[cls] = inert
        if not inert:
            return None
        return (PURE_CLEAN_HIT, None)

    def batch_interpreter(self, cache):
        """Scheme-exact batch interpreter for the engine, or None.

        A scheme that can simulate *arbitrary* (non-inert) access
        subsequences ahead of the per-access loop — replicating every
        state, stat and RNG effect bit-exactly — returns an
        interpreter object here (see
        :mod:`repro.core.killi_replay`).  None (the default) keeps the
        set-replay profiles as the only batching the engine attempts
        for this scheme.
        """
        return None

    def apply_replay_bulk(self, info, count: int) -> None:
        """Apply ``count`` memoized hits' scheme-side effects at once.

        The safe default loops :meth:`apply_replay`; schemes with
        additive counters override with closed-form updates.  Schemes
        that never override ``apply_replay`` (its base is a no-op)
        skip the loop entirely.
        """
        if type(self).apply_replay is ProtectionScheme.apply_replay:
            return
        for _ in range(count):
            self.apply_replay(info)

    def on_reset(self) -> None:
        """Voltage change / reboot: clear learned state (DFH reset)."""


class UnprotectedScheme(ProtectionScheme):
    """The paper's baseline: fault-free cache at nominal VDD."""
