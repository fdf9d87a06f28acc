"""Binding the cache layers to one FORM.

A :class:`FormCaches` instance owns the three cache layers configured by a
:class:`~repro.cache.config.CacheConfig` and subscribes them to the owning
database's invalidation bus.  The FORM constructs one at init time; the
manager, web layer and benchmarks reach the layers through it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cache.bus import InvalidationBus
from repro.cache.config import CacheConfig
from repro.cache.fragment import FragmentCache
from repro.cache.label_cache import LabelResolutionCache
from repro.cache.query_cache import FacetedQueryCache


class FormCaches:
    """The cache layers of one FORM, wired to its database's write events."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config if config is not None else CacheConfig()
        self.queries = FacetedQueryCache(
            self.config.query_cache_size,
            self.config.query_cache_ttl,
            max_rows=self.config.query_cache_max_rows,
        )
        self.labels = LabelResolutionCache(
            self.config.label_cache_size, self.config.label_cache_ttl
        )
        self.fragments = FragmentCache(
            self.config.fragment_cache_size, self.config.fragment_cache_ttl
        )
        self._bus: Optional[InvalidationBus] = None
        # Export the three layers' CacheStats through the observability
        # registry (weakly referenced: a FORM going away takes its caches'
        # metrics with it).
        from repro import obs

        obs.register_caches(self)

    # -- enablement ------------------------------------------------------------------

    @property
    def query_cache_enabled(self) -> bool:
        return self.config.query_cache_enabled

    @property
    def label_cache_enabled(self) -> bool:
        return self.config.label_cache_enabled

    @property
    def fragments_enabled(self) -> bool:
        return self.config.fragments_enabled

    # -- bus wiring -------------------------------------------------------------------

    def bind(self, bus: InvalidationBus) -> None:
        """Subscribe the active layers to a database's write events."""
        self._bus = bus
        if self.query_cache_enabled:
            self.queries.bind(bus)
        if self.label_cache_enabled:
            self.labels.bind(bus)
        if self.fragments_enabled:
            self.fragments.bind(bus)

    def unbind(self) -> None:
        self.queries.unbind()
        self.labels.unbind()
        self.fragments.unbind()
        self._bus = None

    @property
    def bus(self) -> Optional[InvalidationBus]:
        return self._bus

    # -- lifecycle ---------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached entry in every layer."""
        self.queries.clear()
        self.labels.clear()
        self.fragments.clear()

    def on_external_change(self) -> None:
        """Invalidate viewer-facing layers after a mutation the bus cannot
        see (auth changes, handler side effects outside the database)."""
        self.labels.invalidate()
        self.fragments.clear()

    # -- introspection ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Hit/miss/eviction statistics of every layer, by name."""
        return {
            "queries": self.queries.stats.snapshot(),
            "labels": self.labels.stats.snapshot(),
            "fragments": self.fragments.stats.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"FormCaches(enabled={self.config.enabled}, queries={len(self.queries)}, "
            f"labels={len(self.labels)}, fragments={len(self.fragments)})"
        )
