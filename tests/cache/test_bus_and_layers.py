"""Unit tests for the invalidation bus and the individual cache layers."""

import pytest

from repro.cache import (
    ALL_TABLES,
    FacetedQueryCache,
    FragmentCache,
    InvalidationBus,
    LabelResolutionCache,
    bump_policy_epoch,
    viewer_cache_key,
)
from repro.db import Database, MemoryBackend, Query
from repro.db.expr import eq


def test_bus_publishes_to_subscribers_and_counts_generations():
    bus = InvalidationBus()
    events = []
    bus.subscribe(events.append)
    bus.publish("Paper")
    bus.publish("Paper")
    bus.publish("Review")
    assert events == ["Paper", "Paper", "Review"]
    assert bus.write_generation("Paper") == 2
    assert bus.write_generation("Review") == 1
    assert bus.write_generation("Unknown") == 0


def test_bus_unsubscribe_and_publish_all():
    bus = InvalidationBus()
    events = []
    handle = bus.subscribe(events.append)
    bus.publish("A")
    bus.publish_all()
    bus.unsubscribe(handle)
    bus.publish("A")
    assert events == ["A", ALL_TABLES]
    assert bus.subscriber_count == 0


def test_bus_schema_generation_bumps():
    bus = InvalidationBus()
    assert bus.schema_generation == 0
    bus.schema_changed()
    bus.schema_changed("Dropped")
    assert bus.schema_generation == 2
    assert bus.write_generation("Dropped") == 1


def test_query_cache_keys_differ_by_query_and_schema_generation():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    query_a = Query(table="Paper")
    query_b = Query(table="Paper", where=eq("title", "x"))
    key_a = cache.key_for("Paper", query_a)
    assert key_a == cache.key_for("Paper", query_a)
    assert key_a != cache.key_for("Paper", query_b)
    bus.schema_changed()
    assert key_a != cache.key_for("Paper", query_a)


def test_query_cache_write_through_invalidation_per_table():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    paper_key = cache.key_for("Paper", Query(table="Paper"))
    review_key = cache.key_for("Review", Query(table="Review"))
    cache.put(paper_key, ["Paper"], [(1, (), {"title": "x"})])
    cache.put(review_key, ["Review"], [(1, (), {"score": 3})])
    bus.publish("Paper")
    assert cache.get(paper_key) is None
    assert cache.get(review_key) is not None
    bus.publish_all()
    assert cache.get(review_key) is None


def test_query_cache_join_entries_invalidated_by_any_joined_table():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    join_query = Query(table="Guest").join("Event", "event_id", "jid")
    key = cache.key_for("Guest", join_query)
    cache.put(key, ["Guest", "Event"], [(1, (), {"name": "alice"})])
    bus.publish("Event")  # write to the joined table, not the base table
    assert cache.get(key) is None


def test_query_cache_served_from_real_database_bus():
    db = Database(MemoryBackend())
    db.define_table("T", )
    cache = FacetedQueryCache()
    cache.bind(db.invalidation)
    key = cache.key_for("T", Query(table="T"))
    cache.put(key, ["T"], [(1, (), {})])
    db.insert("T")
    assert cache.get(key) is None


def test_query_cache_key_changes_after_write_to_any_involved_table():
    """Write generations in the key close the fill/write race: a result
    computed before a write lands under a key no post-write lookup uses."""
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    plain = Query(table="Paper")
    joined = Query(table="Guest").join("Event", "event_id", "jid")
    plain_key = cache.key_for("Paper", plain)
    joined_key = cache.key_for("Guest", joined)
    bus.publish("Paper")
    assert cache.key_for("Paper", plain) != plain_key
    bus.publish("Event")  # joined table only
    assert cache.key_for("Guest", joined) != joined_key


def test_stale_put_after_concurrent_write_is_never_served():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    key = cache.key_for("Paper", Query(table="Paper"))
    bus.publish("Paper")  # a writer lands between read and fill
    cache.put(key, ["Paper"], [(1, (), {"title": "stale"})])
    assert cache.get(cache.key_for("Paper", Query(table="Paper"))) is None


def test_weak_subscription_releases_dead_caches():
    import gc

    bus = InvalidationBus()
    cache = FacetedQueryCache()
    cache.bind(bus)
    assert bus.subscriber_count == 1
    del cache
    gc.collect()
    bus.publish("Paper")  # first event after collection unsubscribes lazily
    assert bus.subscriber_count == 0


def test_viewer_cache_key_identities():
    class FakeUser:
        def __init__(self, jid):
            self.jid = jid

    assert viewer_cache_key(None) == ("<anonymous>",)
    assert viewer_cache_key(FakeUser(3)) == ("FakeUser", 3)
    assert viewer_cache_key(FakeUser(3)) == viewer_cache_key(FakeUser(3))
    assert viewer_cache_key(FakeUser(None)) is None  # unsaved: not cacheable
    assert viewer_cache_key(object()) is None


def test_label_cache_is_per_viewer_and_cleared_on_any_write():
    bus = InvalidationBus()
    cache = LabelResolutionCache()
    cache.bind(bus)
    cache.put("Paper.1.author", ("ConfUser", 1), True)
    cache.put("Paper.1.author", ("ConfUser", 2), False)
    assert cache.get("Paper.1.author", ("ConfUser", 1)) is True
    assert cache.get("Paper.1.author", ("ConfUser", 2)) is False
    assert cache.get("Paper.1.author", ("ConfUser", 3)) is None
    bus.publish("AnyTableAtAll")
    assert cache.get("Paper.1.author", ("ConfUser", 1)) is None


def test_label_cache_entries_expire_on_policy_epoch_bump():
    cache = LabelResolutionCache()
    cache.put("k", ("U", 1), True)
    assert cache.get("k", ("U", 1)) is True
    bump_policy_epoch()
    assert cache.get("k", ("U", 1)) is None


def test_label_cache_rejects_fills_computed_before_an_invalidation():
    """A resolution that raced a write must not be memoised after the
    write's invalidation already cleared the memo."""
    cache = LabelResolutionCache()
    generation = cache.generation  # snapshot before "resolving"
    cache.clear()  # a concurrent write lands mid-resolution
    cache.put("k", ("U", 1), True, generation=generation)
    assert cache.get("k", ("U", 1)) is None
    # A fill with a current snapshot goes through.
    cache.put("k", ("U", 1), True, generation=cache.generation)
    assert cache.get("k", ("U", 1)) is True


def test_label_cache_bus_event_also_bumps_generation():
    """The write-event path must give the same guard as explicit clear()."""
    bus = InvalidationBus()
    cache = LabelResolutionCache()
    cache.bind(bus)
    generation = cache.generation  # snapshot before "resolving"
    bus.publish("AnyTable")  # concurrent write mid-resolution
    cache.put("k", ("U", 1), True, generation=generation)
    assert cache.get("k", ("U", 1)) is None


def test_fragment_cache_bus_event_also_bumps_generation():
    bus = InvalidationBus()
    cache = FragmentCache()
    cache.bind(bus)
    key = FragmentCache.key_for("/papers", {}, ("U", 1))
    generation = cache.generation  # snapshot before "rendering"
    bus.publish("AnyTable")  # concurrent write mid-render
    cache.put(key, "<stale>", generation=generation)
    assert cache.get(key) is None


def test_label_cache_stale_epoch_snapshot_entry_not_served():
    from repro.cache import policy_epoch

    cache = LabelResolutionCache()
    epoch = policy_epoch()  # snapshot before "resolving"
    bump_policy_epoch()  # epoch bump lands mid-resolution
    cache.put("k", ("U", 1), True, epoch=epoch)
    assert cache.get("k", ("U", 1)) is None


def test_fragment_cache_rejects_fills_computed_before_an_invalidation():
    cache = FragmentCache()
    key = FragmentCache.key_for("/papers", {}, ("U", 1))
    generation = cache.generation  # snapshot before "rendering"
    cache.clear()  # concurrent write mid-render
    cache.put(key, "<stale>", generation=generation)
    assert cache.get(key) is None


def test_fragment_cache_keys_include_viewer_and_params():
    cache = FragmentCache()
    key_a = FragmentCache.key_for("/papers", {"page": 1}, ("U", 1))
    key_b = FragmentCache.key_for("/papers", {"page": 1}, ("U", 2))
    key_c = FragmentCache.key_for("/papers", {"page": 2}, ("U", 1))
    assert len({key_a, key_b, key_c}) == 3
    cache.put(key_a, "<body A>", headers={"Content-Type": "text/html"})
    assert cache.get(key_a) == ("<body A>", {"Content-Type": "text/html"})
    assert cache.get(key_b) is None


def test_fragment_cache_cleared_on_write_and_epoch():
    bus = InvalidationBus()
    cache = FragmentCache()
    cache.bind(bus)
    key = FragmentCache.key_for("/papers", {}, ("U", 1))
    cache.put(key, "<body>")
    bus.publish("Paper")
    assert cache.get(key) is None
    cache.put(key, "<body>")
    bump_policy_epoch()
    assert cache.get(key) is None


def test_label_cache_invalidation_is_a_generation_bump():
    """A write expires every memoised outcome without touching them: the
    entries stay in the LRU under their old generation's key (evicted
    first), are never served, and a lookup is a plain miss."""
    bus = InvalidationBus()
    cache = LabelResolutionCache()
    cache.bind(bus)
    for jid in range(3):
        cache.put("Paper.1.author", ("ConfUser", jid), True)
    assert len(cache) == 3
    bus.publish("Review")
    assert len(cache) == 0 and len(cache._lru) == 3
    misses = cache.stats.misses
    assert cache.get("Paper.1.author", ("ConfUser", 0)) is None
    assert (cache.stats.hits, cache.stats.misses) == (0, misses + 1)
    cache.put("Paper.1.author", ("ConfUser", 0), False)
    assert cache.get("Paper.1.author", ("ConfUser", 0)) is False
    assert len(cache) == 1


def test_label_cache_evicts_old_generations_first():
    bus = InvalidationBus()
    cache = LabelResolutionCache(max_entries=3)
    cache.bind(bus)
    for jid in range(3):
        cache.put("Paper.1.author", ("ConfUser", jid), True)
    bus.publish("Review")
    for jid in range(3):
        cache.put("Paper.2.author", ("ConfUser", jid), False)
    assert len(cache) == 3 and len(cache._lru) == 3
    assert all(
        cache.get("Paper.2.author", ("ConfUser", jid)) is False for jid in range(3)
    )
