"""The label-resolution memo.

Early Pruning resolves, for every record on a page, whether each guarding
label is visible to the session viewer -- and resolving one label runs the
model's policy, which typically issues further queries (the conflict lookup
of the paper's Figure 7 policy is the canonical example).  Across requests
by the same viewer these resolutions are identical until something the
policies read changes, so the memo keys outcomes by
``(label name, viewer identity, generation)``.

Safety:

* entries are **per-viewer** -- a viewer key never matches another viewer,
  so a memoised outcome cannot leak across users;
* any database write invalidates the memo (policies may read *any* table,
  so table-granular invalidation would be unsound for label outcomes).
  Invalidation bumps the generation that is part of every key, so it costs
  the writer O(1) however many outcomes reads memoised; entries of an old
  generation are never looked up again and the LRU evicts them first;
* entries are stamped with the global policy epoch
  (:mod:`repro.cache.epoch`) so out-of-band policy inputs -- e.g. the
  conference phase -- invalidate them too;
* viewers without a stable identity (no integer ``jid``) are never cached.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.cache.bus import InvalidationBus, subscribe_weak
from repro.cache.epoch import policy_epoch
from repro.cache.lru import LRUCache, MISSING


def viewer_cache_key(viewer: Any) -> Optional[Hashable]:
    """A stable identity for a viewer, or ``None`` when not cacheable.

    Model instances are recreated on every request, so object identity is
    useless; the (model name, jid) pair is the durable identity.  The
    anonymous viewer is a valid, distinct identity of its own.
    """
    if viewer is None:
        return ("<anonymous>",)
    jid = getattr(viewer, "jid", None)
    if isinstance(jid, int):
        return (type(viewer).__name__, jid)
    return None


class LabelResolutionCache:
    """Memoises per-viewer label outcomes, invalidated on any database write."""

    def __init__(
        self,
        max_entries: Optional[int] = 8192,
        ttl: Optional[float] = None,
        clock=None,
    ) -> None:
        kwargs = {} if clock is None else {"clock": clock}
        self._lru = LRUCache(max_entries, ttl, **kwargs)
        self._bus: Optional[InvalidationBus] = None
        self._subscription = None
        #: bumped on every invalidation and part of every key; also lets
        #: callers reject fills computed before an invalidation that raced
        #: with the resolution (see :meth:`put`).
        self._generation = 0

    # -- bus wiring -----------------------------------------------------------------

    def bind(self, bus: InvalidationBus) -> None:
        if self._bus is bus:
            return
        self.unbind()
        self._bus = bus
        self._subscription = subscribe_weak(bus, self, LabelResolutionCache._on_write)

    def unbind(self) -> None:
        if self._bus is not None and self._subscription is not None:
            self._bus.unsubscribe(self._subscription)
        self._bus = None
        self._subscription = None

    def _on_write(self, _table: str) -> None:
        # Policies may read any table, so every memoised outcome is suspect.
        self.invalidate()

    def invalidate(self) -> None:
        """Expire every entry, and every in-flight fill, in O(1)."""
        self._generation += 1

    # -- memoisation -------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Snapshot before resolving; pass to :meth:`put` to guard the fill."""
        return self._generation

    def get(self, label_name: str, viewer_key: Hashable) -> Optional[bool]:
        """The memoised outcome, or ``None`` on a miss/stale epoch."""
        key = (label_name, viewer_key, self._generation)
        entry = self._lru.lookup(key)
        if entry is MISSING:
            return None
        outcome, epoch = entry
        if epoch != policy_epoch():
            self._lru.remove(key)
            return None
        return outcome

    def put(
        self,
        label_name: str,
        viewer_key: Hashable,
        outcome: bool,
        generation: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Memoise an outcome.

        ``generation``/``epoch`` are the snapshots taken *before* the policy
        ran; if an invalidation or epoch bump landed in between, the outcome
        was computed against superseded state and is silently discarded --
        the same fill-vs-write guard the query cache gets from
        generation-stamped keys.
        """
        current = self._generation
        if generation is not None and generation != current:
            return
        entry_epoch = policy_epoch() if epoch is None else epoch
        self._lru.put((label_name, viewer_key, current), (bool(outcome), entry_epoch))

    def clear(self) -> None:
        """Invalidate and drop every entry (``FORM.clear()``)."""
        self._generation += 1
        self._lru.clear()

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        """The number of entries of the current generation (a scan; for
        introspection, not the serving path)."""
        current = self._generation
        return sum(1 for key in self._lru.keys() if key[2] == current)

    def __repr__(self) -> str:
        return f"LabelResolutionCache({self._lru!r})"
