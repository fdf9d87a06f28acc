"""List-level foreign-key resolution (``repro.form.manager.FkBatch``).

A viewer-context ``fetch()`` list shares one batch: the first access to a
foreign key on any instance resolves it for every uncached sibling with one
``jid IN (...)`` fetch of the target model, pruned like any other fetch.
These tests pin the statement count (one target-table statement at any list
size), the fallbacks to the per-instance ``get_by_jid`` (one-element lists,
another viewer, no viewer context), and parity
with per-instance resolution for every viewer of the conference app under
the shipped ``CacheConfig()`` on both backends.
"""

import pytest

from repro import obs
from repro.apps.conf import ConferencePhase, seed_conference, setup_conf
from repro.apps.conf.models import ConfUser, Paper, PaperPCConflict, Review
from repro.cache.config import CacheConfig
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import (
    FORM,
    CharField,
    ForeignKey,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form import writes
from repro.form.manager import _resolving_labels
from repro.form.pushdown import profile_for


class BatchOwner(JModel):
    name = CharField(max_length=64)


class BatchDoc(JModel):
    owner = ForeignKey(BatchOwner)
    title = CharField(max_length=64)


class Party(JModel):
    """A guest-list policy whose evaluation traverses a foreign key back to
    the model being resolved (the Section 2.3 re-entrant shape).  It queries
    another model, so viewer-context fetches of ``Party`` take the
    label-store tier -- which, inside a resolution, would answer without the
    re-entrancy guard's optimistic visibility of the label in flight."""

    title = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_title(party):
        return "[private party]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(party, ctxt):
        guests = PartyGuest.objects.all().fetch()
        # Batched (first access resolves every guest's party at once) and
        # per-instance resolution must agree even mid-resolution.
        batched = [_shape(guest.party) for guest in guests]
        single = [_shape(Party.objects.get_by_jid(guest.party_id)) for guest in guests]
        POLICY_COMPARISONS.append(batched == single)
        return ctxt is not None and any(
            guest.party is not None
            and guest.party.jid == party.jid
            and guest.person_id == ctxt.jid
            for guest in guests
        )


class PartyGuest(JModel):
    party = ForeignKey(Party)
    person = ForeignKey(BatchOwner)


MODELS = [BatchOwner, BatchDoc, Party, PartyGuest]
POLICY_COMPARISONS = []


def _shape(record):
    """A comparable projection of a resolved record (or ``None``)."""
    if record is None:
        return None
    meta = type(record)._meta
    return (record.jid,) + tuple(
        getattr(record, field.column_name) for field in meta.fields.values()
    )


def _database(kind):
    return Database() if kind == "memory" else Database(SqliteBackend())


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- statement counts --------------------------------------------------------------


def _target_statements(log):
    return [sql for sql in log.statements if '"BatchOwner"' in sql]


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_list_resolves_a_foreign_key_with_one_statement_at_any_size(kind):
    for records in (8, 64):
        database = _database(kind)
        form = FORM(database, cache_config=CacheConfig.disabled())
        form.register_all(MODELS)
        with use_form(form):
            owners = BatchOwner.objects.bulk_create(
                [BatchOwner(name=f"o{index}") for index in range(records)]
            )
            BatchDoc.objects.bulk_create(
                [BatchDoc(owner=owner, title=owner.name) for owner in owners]
            )
            viewer = owners[0]
            with viewer_context(viewer):
                docs = BatchDoc.objects.all().fetch()
                with database.observe_statements() as log:
                    names = [doc.owner.name for doc in docs]
        database.close()
        assert names == [f"o{index}" for index in range(records)]
        assert len(_target_statements(log)) == 1, (records, log.statements)


def test_batch_fetch_is_chunked_under_the_bound_variable_limit(monkeypatch):
    monkeypatch.setattr(writes, "MAX_BOUND_VARIABLES", 3)
    database = _database("sqlite")
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all(MODELS)
    with use_form(form):
        owners = BatchOwner.objects.bulk_create(
            [BatchOwner(name=f"o{index}") for index in range(8)]
        )
        BatchDoc.objects.bulk_create([BatchDoc(owner=owner) for owner in owners])
        with viewer_context(owners[0]):
            docs = BatchDoc.objects.all().fetch()
            # An in-place sort whose key traverses the FK still batches.
            with database.observe_statements() as log:
                docs.sort(key=lambda doc: doc.owner.name, reverse=True)
    database.close()
    assert [doc.owner.name for doc in docs] == [f"o{index}" for index in range(7, -1, -1)]
    assert len(_target_statements(log)) == 3  # ceil(8 / 3) chunks


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_single_lookups_keep_the_bounded_get_statement(kind):
    database = _database(kind)
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all(MODELS)
    with use_form(form):
        ada = BatchOwner.objects.create(name="ada")
        bob = BatchOwner.objects.create(name="bob")
        only = BatchDoc.objects.create(owner=ada, title="only")
        for title in ("b1", "b2"):
            BatchDoc.objects.create(owner=bob, title=title)
        with viewer_context(ada):
            with database.observe_statements() as reference:
                BatchOwner.objects.get_by_jid(ada.jid)
            # A one-element list.
            (doc,) = BatchDoc.objects.filter(jid=only.jid).fetch()
            assert "_fk_batch" not in doc.__dict__
            with database.observe_statements() as single:
                assert doc.owner.name == "ada"
            # Two instances, one distinct target: still one batch fetch.
            shared = BatchDoc.objects.filter(owner_id=bob.jid).fetch()
            with database.observe_statements() as duplicate:
                assert [d.owner.name for d in shared] == ["bob", "bob"]
            assert shared[0].owner is shared[1].owner
    database.close()
    assert _target_statements(reference) and len(reference.statements) == 1
    assert single.statements == reference.statements
    assert [event.params for event in single.events] == [
        event.params for event in reference.events
    ]
    assert len(_target_statements(duplicate)) == 1


# -- parity with per-instance resolution: the conference app ----------------------


@pytest.fixture(params=["memory", "sqlite"])
def conference(request):
    database = _database(request.param)
    form = setup_conf(database, cache_config=CacheConfig())
    created = seed_conference(form, papers=8)
    with use_form(form):
        yield form, created
    ConferencePhase.reset()
    database.close()


def _viewers(created):
    return created["chair"] + created["pc"] + created["users"]


#: (model, foreign keys) lists the conference pages traverse
CONF_LISTS = (
    (Paper, ("author",)),
    (Review, ("paper", "reviewer")),
    (PaperPCConflict, ("paper", "pc")),
)


def _assert_parity(items, fk_name):
    """Batched ``item.<fk>`` equals per-instance ``get_by_jid`` for each item."""
    field = type(items[0])._meta.fields[fk_name]
    target = field.target_model()
    batched = [_shape(getattr(item, fk_name)) for item in items]
    single = [
        _shape(target.objects.get_by_jid(getattr(item, field.column_name)))
        if getattr(item, field.column_name) is not None
        else None
        for item in items
    ]
    assert batched == single, fk_name
    return batched


def test_batched_resolution_matches_per_instance_for_every_viewer(conference):
    form, created = conference
    with obs.tracing():
        for viewer in _viewers(created):
            with viewer_context(viewer):
                for model, fk_names in CONF_LISTS:
                    items = model.objects.all().fetch()
                    assert len(items) == 8
                    for fk_name in fk_names:
                        _assert_parity(items, fk_name)
    # The lists really were batched, not served by the fallback.
    assert obs.totals.get("fk.batch") > 0


def test_conflicted_pc_member_sees_the_public_author(conference):
    form, created = conference
    for index, member in enumerate(created["pc"]):
        with viewer_context(member):
            papers = Paper.objects.all().fetch()
            authors = _assert_parity(papers, "author")
        # Paper i is conflicted with PC member (i + 1) % 4: its author is
        # hidden (the public facet is None), every other author shown.
        for paper_index, (paper, author) in enumerate(zip(papers, authors)):
            if (paper_index + 1) % 4 == index:
                assert paper.author_id is None and author is None
            else:
                assert author[0] == created["users"][paper_index].jid


def test_target_deleted_after_the_fetch_resolves_to_none(conference):
    form, created = conference
    chair = created["chair"][0]
    with viewer_context(chair):
        papers = Paper.objects.all().fetch()
    gone = created["users"][3]
    gone.delete()
    with viewer_context(chair):
        authors = _assert_parity(papers, "author")
    assert authors[3] is None
    assert all(author is not None for index, author in enumerate(authors) if index != 3)


def test_target_invisible_to_the_viewer_resolves_to_none(conference):
    form, created = conference
    chair = created["chair"][0]
    label = Label(hint="ghostbranch")
    form.runtime.policy_env.declare(label)
    form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "level", None) == "chair"
    )
    with form.runtime.under_branch(label, True):
        ghost = ConfUser.objects.create(
            name="ghost", affiliation="-", email="ghost@conf.org", level="normal"
        )
    Paper.objects.create(title="Ghost paper", author_id=ghost.jid)
    for viewer in _viewers(created):
        with viewer_context(viewer):
            papers = Paper.objects.all().fetch()
            authors = _assert_parity(papers, "author")
        ghost_paper = [
            author for paper, author in zip(papers, authors)
            if paper.title == "Ghost paper"
        ]
        if viewer is chair:
            assert ghost_paper[0][0] == ghost.jid
        else:
            assert ghost_paper == [None]


def test_duplicate_targets_share_one_resolved_object(conference):
    form, created = conference
    author = created["users"][0]
    Paper.objects.create(title="Second paper", author=author)
    with viewer_context(created["chair"][0]):
        papers = Paper.objects.all().fetch()
        _assert_parity(papers, "author")
        by_author = [paper.author for paper in papers if paper.author_id == author.jid]
    assert len(by_author) == 2
    assert by_author[0] is by_author[1]


def test_viewer_switch_between_fetch_and_access_takes_the_fallback(conference):
    form, created = conference
    member, chair = created["pc"][0], created["chair"][0]
    with viewer_context(member):
        papers = Paper.objects.all().fetch()
    with obs.tracing():
        with viewer_context(chair):
            authors = [_shape(paper.author) for paper in papers]
            single = [
                _shape(ConfUser.objects.get_by_jid(paper.author_id))
                if paper.author_id is not None else None
                for paper in papers
            ]
    assert authors == single
    assert not obs.totals.get("fk.batch")
    # Back under the fetch's viewer, the remaining lists still batch.
    with viewer_context(member):
        reviews = Review.objects.all().fetch()
    with obs.tracing(), viewer_context(member):
        _assert_parity(reviews, "reviewer")
    assert obs.totals.get("fk.batch") == 8


def test_fetch_outside_a_viewer_context_attaches_no_batch(conference):
    form, created = conference
    faceted = Paper.objects.all().fetch()
    for viewer in _viewers(created):
        papers = form.runtime.concretize(faceted, viewer)
        assert all("_fk_batch" not in paper.__dict__ for paper in papers)
        with viewer_context(viewer):
            pruned = Paper.objects.all().fetch()
        assert [(p.jid, p.title, p.author_id) for p in papers] == [
            (p.jid, p.title, p.author_id) for p in pruned
        ]


# -- an FK reached inside a policy evaluation --------------------------------------


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_fk_inside_a_policy_keeps_the_reentrancy_guard(kind):
    database = _database(kind)
    form = FORM(database, cache_config=CacheConfig())
    form.register_all(MODELS)
    POLICY_COMPARISONS.clear()
    assert profile_for(Party).tier == "store"
    with use_form(form):
        ada = BatchOwner.objects.create(name="ada")
        bob = BatchOwner.objects.create(name="bob")
        parties = [Party.objects.create(title=f"p{index}") for index in range(3)]
        PartyGuest.objects.create(party=parties[0], person=ada)
        PartyGuest.objects.create(party=parties[1], person=bob)
        PartyGuest.objects.create(party=parties[2], person=ada)
        for viewer, expected in ((ada, ["p0", "[private party]", "p2"]),
                                 (bob, ["[private party]", "p1", "[private party]"])):
            with obs.tracing(), viewer_context(viewer):
                titles = [party.title for party in Party.objects.all().fetch()]
                # Inside the policy evaluations above, every FK took the
                # per-instance path; only this top-level list batches.
                assert not obs.totals.get("fk.batch")
                guests = PartyGuest.objects.all().fetch()
                _assert_parity(guests, "party")
                assert obs.totals.get("fk.batch") == len(guests)
            obs.reset()
            assert titles == expected, viewer.name
        assert not _resolving_labels(form)
    database.close()
    assert POLICY_COMPARISONS and all(POLICY_COMPARISONS)


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_jid_in_lookup_selects_the_listed_records(kind):
    database = _database(kind)
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all(MODELS)
    with use_form(form):
        owners = [BatchOwner.objects.create(name=f"o{index}") for index in range(4)]
        wanted = (owners[1].jid, owners[3].jid)
        with viewer_context(owners[0]):
            names = [o.name for o in BatchOwner.objects.filter(jid__in=wanted).fetch()]
            assert BatchOwner.objects.filter(jid__in=wanted).count() == 2
    database.close()
    assert names == ["o1", "o3"]
