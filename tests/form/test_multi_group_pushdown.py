"""Inline pushdown of models with several policy groups.

``Review`` has two policy groups (``reviewer`` and ``contents``/``score``)
and its contents policy reads the global ``ConferencePhase.current``
before a cross-record lookup.  Outside the ``final`` phase both groups
fold to a boolean for every viewer at bind time, so a viewer's ``Review``
fetch is one statement with an inline predicate and never touches the
label-assignment store -- also right after a ``POST /review``, which used
to invalidate every viewer's store slice.  In the ``final`` phase a
non-committee viewer reaches the lookup (a TOP in the predicate IR) and
that query demotes to the store, counted and explained.

The generic half pins each demotion reason on a small two-group model and
the sub-assignment rows that facet sharing leaves behind.
"""

import sys

import pytest

from repro import obs
from repro.apps.conf import ConferencePhase, seed_conference, setup_conf
from repro.apps.conf.models import Review
from repro.apps.conf.views import build_conf_app
from repro.cache import bump_policy_epoch
from repro.cache.config import CacheConfig
from repro.core.labels import Label
from repro.db import Database, SqliteBackend, StatementLog
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
from repro.form.pushdown import STORE_TABLE, profile_for
from repro.web import TestClient


def _database(kind):
    return Database() if kind == "memory" else Database(SqliteBackend())


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    ConferencePhase.reset()
    yield
    obs.disable()
    obs.reset()
    ConferencePhase.reset()


# -- the conference app ------------------------------------------------------------


def _conference(kind, pushdown=True, cache_config=None):
    """A seeded conference (the shipped cache configuration by default)
    with one logged-in client per viewer."""
    form = setup_conf(_database(kind), cache_config=cache_config)
    form.policy_pushdown_enabled = pushdown
    created = seed_conference(form, papers=6)
    app = build_conf_app(form)
    viewers = created["chair"] + created["pc"] + created["users"]
    clients = {}
    for viewer in viewers:
        client = TestClient(app)
        client.force_login(viewer.jid, viewer.name)
        clients[viewer.jid] = client
    return form, created, viewers, clients


def _pages(clients, viewers, papers):
    pages = {}
    for viewer in viewers:
        for paper in papers:
            response = clients[viewer.jid].get(f"/paper/{paper.jid}")
            assert response.status == 200
            pages[(viewer.jid, paper.jid)] = response.body
    return pages


def _write_review(created, clients):
    """``POST /review`` by a PC member on a paper it is not conflicted with
    (the seed conflicts paper i with PC member i + 1)."""
    writer = created["pc"][0]
    paper = created["papers"][0]
    response = clients[writer.jid].post(
        "/review", paper=paper.jid, contents="fresh review", score=4
    )
    assert response.status == 302


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_review_write_keeps_paper_pages_off_the_label_store(kind):
    form, created, viewers, clients = _conference(kind)
    _write_review(created, clients)
    with StatementLog(form.database.backend) as log, obs.tracing():
        pages = _pages(clients, viewers, created["papers"])
    assert log.events
    assert not [e.sql for e in log.events if STORE_TABLE in e.sql]
    assert obs.totals.get("pushdown.store.refresh") == 0
    assert obs.totals.get("plan.policy_pushdown.demoted") == 0
    assert obs.totals.get("plan.policy_pushdown.direct") >= len(pages)
    form.database.close()

    oracle_form, oracle_created, oracle_viewers, oracle_clients = _conference(
        kind, pushdown=False
    )
    _write_review(oracle_created, oracle_clients)
    oracle = _pages(oracle_clients, oracle_viewers, oracle_created["papers"])
    oracle_form.database.close()
    assert pages == oracle
    assert any("fresh review" in body for body in pages.values())


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_final_phase_author_review_page_demotes_and_matches_the_oracle(kind):
    oracle_form, _created, _viewers, oracle_clients = _conference(
        kind, pushdown=False
    )
    form, created, viewers, clients = _conference(kind)
    ConferencePhase.set(ConferencePhase.FINAL)
    author = created["users"][0]
    paper = created["papers"][0]  # authored by users[0]
    with use_form(form), viewer_context(author):
        report = Review.objects.filter(paper_id=paper.jid).explain()
    assert report["tier"] == "store"
    assert report["demoted"]["Review"].startswith("top reached")
    with obs.tracing():
        page = clients[author.jid].get(f"/paper/{paper.jid}").body
    assert obs.totals.get("plan.policy_pushdown.demoted") >= 1
    # The committee still folds in the final phase: no demotion.
    chair = created["chair"][0]
    with use_form(form), viewer_context(chair):
        chair_report = Review.objects.filter(paper_id=paper.jid).explain()
    assert chair_report["tier"] == "direct"
    assert "demoted" not in chair_report
    form.database.close()

    oracle = oracle_clients[author.jid].get(f"/paper/{paper.jid}").body
    oracle_form.database.close()
    assert page == oracle
    assert "Review 0 of paper 0" in page  # visible to its author once final


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_review_explain_reports_direct_and_the_executed_sql(kind):
    form, created, _viewers, _clients = _conference(
        kind, cache_config=CacheConfig.disabled()
    )
    assert profile_for(Review).tier == "direct"
    paper = created["papers"][1]
    for viewer in (created["pc"][0], created["users"][1]):
        with use_form(form), viewer_context(viewer):
            query_set = Review.objects.filter(paper_id=paper.jid)
            query_set.fetch()  # the first fetch probes the branch-key gate
            report = query_set.explain()
            with StatementLog(form.database.backend) as log:
                reviews = query_set.fetch()
        assert report["tier"] == "direct"
        assert STORE_TABLE not in report["sql"]
        assert [event.sql for event in log.events] == [report["sql"]]
        assert len(reviews) == 1
    form.database.close()


# -- a generic two-group model -----------------------------------------------------


class Switch:
    """Module-level policy input; changes bump the policy epoch."""

    strict = False


class JotOwner(JModel):
    name = CharField(max_length=32)
    team = CharField(max_length=32, default="")


class JotStranger(JModel):
    """A viewer type without the ``team`` attribute the policies read."""

    name = CharField(max_length=32)


class Jot(JModel):
    owner = ForeignKey(JotOwner)
    body = CharField(max_length=64)
    tag = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(jot):
        return "[body]"

    @staticmethod
    def jacqueline_get_public_tag(jot):
        return "[tag]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(jot, ctxt):
        if Switch.strict:
            owner = JotOwner.objects.get(jid=jot.owner_id)
            return owner is not None and ctxt is not None and owner.jid == ctxt.jid
        return ctxt is not None and ctxt.team == "core"

    @staticmethod
    @label_for("tag")
    @jacqueline
    def jacqueline_restrict_tag(jot, ctxt):
        return ctxt is not None and (ctxt.team == "core" or jot.owner_id == ctxt.jid)


JOT_MODELS = [JotOwner, JotStranger, Jot]


@pytest.fixture(params=["memory", "sqlite"])
def jots(request):
    database = _database(request.param)
    form = FORM(database, cache_config=CacheConfig())
    form.register_all(JOT_MODELS)
    with use_form(form):
        core = JotOwner.objects.create(name="ada", team="core")
        guest = JotOwner.objects.create(name="bob", team="guest")
        Jot.objects.create(owner=guest, body="secret", tag="t1")
        # Public body: sharing keeps only the tag label on these rows.
        Jot.objects.create(owner=core, body="[body]", tag="t2")
        # Public tag: only the body label.
        Jot.objects.create(owner=guest, body="plans", tag="[tag]")
        yield form, core, guest
    Switch.strict = False
    bump_policy_epoch()
    database.close()


def _view(jot):
    return (jot.jid, jot.body, jot.tag)


def _fetch(form, viewer):
    """``(jots, explain report, demotions counted)`` for one fetch, with
    the pushdown-off oracle's answer checked alongside."""
    with viewer_context(viewer):
        query_set = Jot.objects.all()
        report = query_set.explain()
        obs.reset()
        with obs.tracing():
            served = sorted(_view(jot) for jot in query_set.fetch())
        demoted = obs.totals.get("plan.policy_pushdown.demoted")
        form.policy_pushdown_enabled = False
        try:
            oracle = sorted(_view(jot) for jot in Jot.objects.all().fetch())
        finally:
            form.policy_pushdown_enabled = True
    assert served == oracle
    return served, report, demoted


def test_two_group_rows_include_one_label_records(jots):
    form, core, guest = jots
    rows = form.database.find("Jot")
    assert {len(row["jvars"].split(",")) for row in rows} == {1, 2}
    assert form.database.facet_branch_keys("Jot") == {"body", "tag"}


def test_folding_viewer_is_served_inline(jots):
    form, core, _guest = jots
    served, report, demoted = _fetch(form, core)
    assert report["tier"] == "direct" and "demoted" not in report
    assert demoted == 0
    assert [(body, tag) for _jid, body, tag in served] == [
        ("secret", "t1"), ("[body]", "t2"), ("plans", "[tag]"),
    ]


def test_non_folding_group_demotes(jots):
    form, _core, guest = jots
    served, report, demoted = _fetch(form, guest)
    assert report["tier"] == "store"
    assert report["demoted"] == {"Jot": "multi-group predicate does not fold"}
    assert demoted == 1
    assert [(body, tag) for _jid, body, tag in served] == [
        ("[body]", "t1"), ("[body]", "[tag]"), ("[body]", "[tag]"),
    ]


def test_reaching_a_top_demotes_until_the_switch_flips_back(jots):
    form, core, _guest = jots
    Switch.strict = True
    bump_policy_epoch()
    _served, report, demoted = _fetch(form, core)
    assert report["demoted"]["Jot"].startswith("top reached")
    assert demoted == 1
    Switch.strict = False
    bump_policy_epoch()
    _served, report, demoted = _fetch(form, core)
    assert report["tier"] == "direct" and demoted == 0


def test_bind_failure_demotes_and_the_store_reproduces_the_oracle(jots):
    form, _core, _guest = jots
    stranger = JotStranger.objects.create(name="eve")
    with viewer_context(stranger):
        report = Jot.objects.all().explain()
        assert report["demoted"]["Jot"].startswith("bind failure")
        # The policy itself raises for this viewer; the store evaluates it
        # in Python, exactly like the oracle.
        with obs.tracing(), pytest.raises(AttributeError, match="team"):
            Jot.objects.all().fetch()
        assert obs.totals.get("plan.policy_pushdown.demoted") == 1
        form.policy_pushdown_enabled = False
        with pytest.raises(AttributeError, match="team"):
            Jot.objects.all().fetch()


def test_branch_key_gate_demotes(jots):
    form, core, guest = jots
    first_jid = form.database.find("Jot")[0]["jid"]
    # Written under a branch of another record's label: its rows carry a
    # foreign-jid label, which only the store understands.
    name = f"Jot.{first_jid}.body"
    with form.runtime.under_branch(Label(hint=name, name=name), True):
        Jot.objects.create(owner=guest, body="shadow", tag="shadow")
    served, report, demoted = _fetch(form, core)
    assert demoted == 1
    # Planned before the first probe, the gate looked open; now its verdict
    # is known, and explain reports it without probing.
    assert report["tier"] == "direct"
    with viewer_context(core):
        report = Jot.objects.all().explain()
    assert report["tier"] == "store"
    assert report["demoted"] == {"Jot": "branch-key gate"}
    assert len(served) == 4


# -- globals bind through the policy function's own namespace ----------------------

#: Shares its name with the closure cell of ``_team_jot_model``.
TEAM = "guest"


def _team_jot_model(TEAM):
    class TeamJot(JModel):
        body = CharField(max_length=64)

        @staticmethod
        def jacqueline_get_public_body(jot):
            return "[body]"

        @staticmethod
        @label_for("body")
        @jacqueline
        def jacqueline_restrict_body(jot, ctxt):
            return ctxt is not None and ctxt.team == TEAM

    return TeamJot


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_closure_captured_name_never_binds_the_module_global(kind):
    team_jot = _team_jot_model("core")
    # The body reads the closure cell, not the module's ``TEAM``: no bind
    # time constant exists, so the store serves it.
    assert profile_for(team_jot).tier == "store"
    database = _database(kind)
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all([JotOwner, team_jot])
    with use_form(form):
        guest = JotOwner.objects.create(name="bob", team="guest")
        core = JotOwner.objects.create(name="ada", team="core")
        team_jot.objects.create(body="secret")
        for viewer, expected in ((guest, "[body]"), (core, "secret")):
            with viewer_context(viewer):
                (jot,) = team_jot.objects.all().fetch()
            assert jot.body == expected
    database.close()



HELPER_MODULE = '''
LEVEL = "pc"


def is_staff(user):
    return user is not None and user.level == LEVEL
'''

MODEL_MODULE = '''
from repro.form import CharField, JModel, jacqueline, label_for

from jot_helpers import is_staff

LEVEL = "chair"  # same name, different value: must not leak into is_staff


class JotBadge(JModel):
    level = CharField(max_length=16)
    secret = CharField(max_length=32)

    @staticmethod
    def jacqueline_get_public_secret(badge):
        return "[hidden]"

    @staticmethod
    @label_for("secret")
    @jacqueline
    def jacqueline_restrict_secret(badge, ctxt):
        return is_staff(ctxt)
'''


def test_imported_helper_is_not_inlined_with_the_model_modules_globals(
    tmp_path, monkeypatch
):
    (tmp_path / "jot_helpers.py").write_text(HELPER_MODULE)
    (tmp_path / "jot_badges.py").write_text(MODEL_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    import jot_badges

    badge_model = jot_badges.JotBadge
    # The analysis resolves only helpers defined next to the model, so the
    # viewer escapes into an unknown call: the Python path decides.
    assert profile_for(badge_model).tier == "opaque"
    form = FORM(Database(), cache_config=CacheConfig.disabled())
    form.register_all([badge_model])
    with use_form(form):
        staff = badge_model.objects.create(level="pc", secret="s1")
        chair = badge_model.objects.create(level="chair", secret="s2")
        for viewer, expected in ((staff, ["s1", "s2"]), (chair, ["[hidden]"] * 2)):
            with viewer_context(viewer):
                badges = badge_model.objects.all().fetch()
            assert sorted(badge.secret for badge in badges) == expected
    monkeypatch.delitem(sys.modules, "jot_badges")
    monkeypatch.delitem(sys.modules, "jot_helpers")
