"""Policy pushdown: Early Pruning compiled into the SQL statement.

The PR 8 tentpole, extended with the symbolic tiers.  On models whose
policies classify as viewer-independent or equality-on-viewer, a
viewer-context ``fetch()``, ``count()`` or ``aggregate()`` appends a
pruning predicate and the database prunes -- one statement on both
backends.  The predicate now has tiers: ``direct``/``indexable`` render
the compiled symbolic predicate inline (no label store in the statement),
``store`` falls back to

    jvars = '' OR jvars IN (SELECT jvars FROM "__jacq_labels__"
                            WHERE table_name = ? AND viewer_key = ?)

populated by the same Python resolver Early Pruning uses.  Runtime
demotion (bind failures, exotic facet rows, the ``policy_pushdown_tier_cap``
knob) steps inline tiers down to the store, never straight to Python.
Opaque policies, bounded sets, pc-labelled rows and unknown viewers keep
the Python path, which doubles as the oracle throughout
(``form.policy_pushdown_enabled = False``).
"""

import pytest

from repro import obs
from repro.cache.config import CacheConfig
from repro.cache.epoch import bump_policy_epoch
from repro.cache.label_cache import viewer_cache_key
from repro.core.labels import Label
from repro.db import Database, SqliteBackend, StatementLog
from repro.form import (
    FORM,
    CharField,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form.pushdown import STORE_TABLE, profile_for


class Owner(JModel):
    name = CharField(max_length=64)


class Doc(JModel):
    """Equality-on-viewer policy reading only its own row: narrow pushdown."""

    owner = ForeignKey(Owner)
    title = CharField(max_length=128)
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(doc):
        return "[secret]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None and doc.owner_id == ctxt.jid


class Audit(JModel):
    """Equality-on-viewer policy that queries another model: eligible but
    *broad* -- outcomes may depend on Owner rows, so any write invalidates."""

    owner = ForeignKey(Owner)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(audit):
        return "[redacted]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(audit, ctxt):
        owner = Owner.objects.get(jid=audit.owner_id)
        return owner is not None and ctxt is not None and owner.jid == ctxt.jid


class Vault(JModel):
    """A policy body the classifier cannot shape: opaque, Python fallback."""

    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(vault):
        return "[vault]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(vault, ctxt):
        granted = False
        for _letter in getattr(ctxt, "name", "") or "":
            granted = not granted
        return granted


class Wiki(JModel):
    """Prefix-on-viewer policy over a non-nullable column: indexable tier."""

    path = CharField(max_length=64, nullable=False, default="/")
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(page):
        return "[wiki]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(page, ctxt):
        return ctxt is not None and page.path.startswith(ctxt.name)


class Badge(JModel):
    """Direct-shaped policy whose bound value can mismatch the column kind
    (int column vs. text viewer attribute): binding demotes to the store
    tier at runtime, never to Python."""

    code = IntegerField(default=0)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(badge):
        return "[badge]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(badge, ctxt):
        return badge.code == getattr(ctxt, "name", None)


class Diary(JModel):
    """A policy that queries its own table: eligible but broad, and store
    population re-enters the label being resolved (the guest-list shape)."""

    owner = ForeignKey(Owner)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(entry):
        return "[diary]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(entry, ctxt):
        own = Diary.objects.get(jid=entry.jid)
        return own is not None and ctxt is not None and own.owner_id == ctxt.jid


MODELS = [Owner, Doc, Audit, Vault, Wiki, Badge, Diary]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _make_form(kind, cache_config=None):
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(
        database,
        cache_config=cache_config if cache_config is not None else CacheConfig.disabled(),
    )
    form.register_all(MODELS)
    return form, database


@pytest.fixture(params=["memory", "sqlite"])
def pushdown_form(request):
    form, database = _make_form(request.param)
    with use_form(form):
        yield form
    database.close()


def _seed_docs(form):
    ada = Owner.objects.create(name="ada")
    bob = Owner.objects.create(name="bob")
    for index in range(4):
        Doc.objects.create(
            owner=ada if index % 2 else bob, title=f"t{index}", score=index
        )
    return ada, bob


def _oracle(form, run):
    """Run ``run`` on the Python pruning path (the differential oracle)."""
    form.policy_pushdown_enabled = False
    try:
        return run()
    finally:
        form.policy_pushdown_enabled = True


def test_profiles_classify_the_three_shapes():
    doc = profile_for(Doc)
    assert (doc.eligible, doc.narrow, doc.opaque) == (True, True, False)
    audit = profile_for(Audit)
    assert (audit.eligible, audit.narrow, audit.opaque) == (True, False, False)
    vault = profile_for(Vault)
    assert (vault.eligible, vault.opaque) == (False, True)
    plain = profile_for(Owner)
    assert (plain.eligible, plain.narrow) == (True, True)


def test_profiles_report_the_symbolic_tier():
    assert profile_for(Doc).tier == "direct"
    assert profile_for(Wiki).tier == "indexable"
    assert profile_for(Badge).tier == "direct"
    assert profile_for(Audit).tier == "store"  # ORM query in the body: TOP
    assert profile_for(Vault).tier == "opaque"
    assert profile_for(Owner).tier == "none"  # no policy groups at all
    assert profile_for(Doc).predicates is not None
    assert profile_for(Audit).predicates is None


def test_fetch_is_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with obs.tracing(), viewer_context(ada):
        Doc.objects.all().fetch()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            docs = Doc.objects.all().fetch()
        # The direct tier renders the predicate inline: one statement that
        # never touches (or populates) the label-assignment store.
        assert len(log.statements) == 1
        assert STORE_TABLE not in log.statements[0]
        titles = sorted(doc.title for doc in docs)
        oracle = _oracle(
            pushdown_form,
            lambda: sorted(doc.title for doc in Doc.objects.all().fetch()),
        )
    assert obs.totals.get("plan.policy_pushdown.direct") >= 1
    assert titles == oracle
    assert titles == ["[secret]", "[secret]", "t1", "t3"]


def test_store_tier_cap_restores_the_store_statement(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    pushdown_form.policy_pushdown_tier_cap = "store"
    with obs.tracing(), viewer_context(ada):
        Doc.objects.all().fetch()  # warm the label-assignment store
        with pushdown_form.database.observe_statements() as log:
            docs = Doc.objects.all().fetch()
        assert len(log.statements) == 1
        assert STORE_TABLE in log.statements[0]
        titles = sorted(doc.title for doc in docs)
        oracle = _oracle(
            pushdown_form,
            lambda: sorted(doc.title for doc in Doc.objects.all().fetch()),
        )
    assert obs.totals.get("plan.policy_pushdown.direct") == 0
    assert titles == oracle
    assert titles == ["[secret]", "[secret]", "t1", "t3"]


def test_indexable_tier_compiles_prefix_policies_to_ranges(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Wiki.objects.create(path="ada/notes", body="ada's notes")
    Wiki.objects.create(path="bob/notes", body="bob's notes")
    with obs.tracing(), viewer_context(ada):
        Wiki.objects.all().fetch()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            pages = Wiki.objects.all().order_by("path").fetch()
        assert len(log.statements) == 1
        assert STORE_TABLE not in log.statements[0]
        bodies = [page.body for page in pages]
        oracle = _oracle(
            pushdown_form,
            lambda: [
                page.body
                for page in Wiki.objects.all().order_by("path").fetch()
            ],
        )
    assert obs.totals.get("plan.policy_pushdown.indexable") >= 1
    assert bodies == oracle
    assert bodies == ["ada's notes", "[wiki]"]


def test_kind_mismatch_demotes_to_the_store_tier(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Badge.objects.create(code=7, body="lucky")
    with obs.tracing(), viewer_context(ada):
        with pushdown_form.database.observe_statements() as log:
            bodies = [badge.body for badge in Badge.objects.all().fetch()]
        # Statically direct, but the bound value ("ada", text) cannot probe
        # the int column soundly: the query demotes to the store tier --
        # still one pushed statement, never the Python path.
        assert len(log.statements) >= 1
        assert STORE_TABLE in log.statements[-1]
        oracle = _oracle(
            pushdown_form,
            lambda: [badge.body for badge in Badge.objects.all().fetch()],
        )
    assert obs.totals.get("plan.policy_pushdown.direct") == 0
    assert obs.totals.get("plan.policy_pushdown") >= 1
    assert bodies == oracle == ["[badge]"]


def test_count_and_exists_are_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().count()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            count = Doc.objects.all().count()
        assert len(log.statements) == 1
        assert STORE_TABLE not in log.statements[0]
        assert count == _oracle(pushdown_form, Doc.objects.all().count)
        assert count == 4  # every record stays visible; titles facet instead
        assert Doc.objects.filter(score=2).exists() is True
        assert Doc.objects.filter(score=9).exists() is False


def test_aggregates_are_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().avg("score")  # warm
        with pushdown_form.database.observe_statements() as log:
            average = Doc.objects.all().avg("score")
        assert len(log.statements) == 1
        for function in ("sum", "min", "max", "avg"):
            query_set = Doc.objects.all()
            assert getattr(query_set, function)("score") == _oracle(
                pushdown_form, lambda: getattr(Doc.objects.all(), function)("score")
            )
    assert average == 1.5


def test_update_is_one_statement_in_a_viewer_context(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        with pushdown_form.database.observe_statements() as log:
            changed = Doc.objects.filter(score=0).update(score=10)
        assert changed >= 1
        assert len(log.statements) == 1
        assert log.statements[0].startswith('UPDATE "Doc"')


def test_explain_sql_string_equals_the_executed_statement(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().fetch()  # warm
        report = Doc.objects.all().explain()
        assert report["mode"] == "policy-pushdown"
        assert report["tier"] == "direct"
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().fetch()
        assert log.statements == [report["sql"]]
        report = Doc.objects.all().explain("count")
        assert report["mode"] == "policy-pushdown"
        assert report["tier"] == "direct"
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().count()
        assert log.statements == [report["sql"]]


def test_explain_reports_the_tier_per_knob_and_model(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Wiki.objects.create(path="ada/notes", body="n")
    with viewer_context(ada):
        assert Wiki.objects.all().explain()["tier"] == "indexable"
        Audit.objects.all().fetch()  # warm the store for Audit
        assert Audit.objects.all().explain()["tier"] == "store"
        pushdown_form.policy_pushdown_tier_cap = "store"
        try:
            Doc.objects.all().fetch()  # warm the store for Doc
            report = Doc.objects.all().explain()
            assert report["tier"] == "store"
            with pushdown_form.database.observe_statements() as log:
                Doc.objects.all().fetch()
            assert log.statements == [report["sql"]]
        finally:
            pushdown_form.policy_pushdown_tier_cap = None


def test_explain_executes_no_statements(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().explain()
            Doc.objects.all().explain("count")
        assert log.statements == []


def test_opaque_policy_falls_back_and_is_counted(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Vault.objects.create(body="launch codes")
    with obs.tracing(), viewer_context(ada):
        vaults = Vault.objects.all().fetch()
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert obs.totals.get("plan.policy_pushdown.opaque_fallback") >= 1
    # name "ada" has odd length: the opaque policy grants access.
    assert [vault.body for vault in vaults] == ["launch codes"]


def test_disabled_flag_forces_the_python_path(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    pushdown_form.policy_pushdown_enabled = False
    with obs.tracing(), viewer_context(ada):
        titles = sorted(doc.title for doc in Doc.objects.all().fetch())
        assert Doc.objects.all().explain()["mode"] == "pruned"
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert titles == ["[secret]", "[secret]", "t1", "t3"]


def test_bounded_sets_and_first_stay_on_the_python_path(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with obs.tracing(), viewer_context(ada):
        bounded = Doc.objects.all().order_by("score").limited(2).fetch()
        assert len(bounded) == 2
        first = Doc.objects.all().order_by("-score").first()
        assert first is not None and first.score == 3
    assert obs.totals.get("plan.policy_pushdown") == 0


def test_own_table_write_invalidates_a_narrow_store(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        before = sorted(doc.title for doc in Doc.objects.all().fetch())
        Doc.objects.create(owner=ada, title="t9", score=9)
        after = sorted(doc.title for doc in Doc.objects.all().fetch())
    assert "t9" not in before and "t9" in after


def test_unrelated_write_does_not_refresh_a_narrow_store(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    pushdown_form.policy_pushdown_tier_cap = "store"  # exercise the store tier
    with viewer_context(ada):
        Doc.objects.all().fetch()  # warm: one refresh
        Owner.objects.create(name="carol")  # unrelated to Doc's outcomes
        with obs.tracing():
            Doc.objects.all().fetch()
    assert obs.totals.get("plan.policy_pushdown") == 1
    assert obs.totals.get("pushdown.store.refresh") == 0


def test_any_write_refreshes_a_broad_store(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Audit.objects.create(owner=ada, body="ada only")
    with viewer_context(ada):
        assert [audit.body for audit in Audit.objects.all().fetch()] == ["ada only"]
        Owner.objects.create(name="carol")  # Audit outcomes read Owner rows
        with obs.tracing():
            Audit.objects.all().fetch()
    assert obs.totals.get("plan.policy_pushdown") == 1
    assert obs.totals.get("pushdown.store.refresh") >= 1


def test_policy_epoch_bump_refreshes_the_store(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    pushdown_form.policy_pushdown_tier_cap = "store"  # exercise the store tier
    with viewer_context(ada):
        Doc.objects.all().fetch()  # warm
        bump_policy_epoch()
        with obs.tracing():
            Doc.objects.all().fetch()
    assert obs.totals.get("pushdown.store.refresh") >= 1


def test_pc_labelled_rows_force_the_python_fallback(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    label = Label(hint="branch")
    pushdown_form.runtime.policy_env.declare(label)
    pushdown_form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "name", None) == "ada"
    )
    with pushdown_form.runtime.under_branch(label, True):
        Doc.objects.create(owner=ada, title="guarded", score=7)
    with obs.tracing(), viewer_context(ada):
        titles = sorted(doc.title for doc in Doc.objects.all().fetch())
        oracle = _oracle(
            pushdown_form,
            lambda: sorted(doc.title for doc in Doc.objects.all().fetch()),
        )
    # The pc label is not a model label: population fails, the Python path
    # prunes, and the two paths agree bit for bit.
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert titles == oracle
    assert "guarded" in titles


def test_no_cross_viewer_leak_with_caches_enabled():
    form, database = _make_form("sqlite", cache_config=CacheConfig())
    with use_form(form):
        ada, bob = _seed_docs(form)
        for _round in range(2):  # second round hits the per-viewer cache
            with viewer_context(ada):
                ada_titles = sorted(d.title for d in Doc.objects.all().fetch())
            with viewer_context(bob):
                bob_titles = sorted(d.title for d in Doc.objects.all().fetch())
            assert ada_titles == ["[secret]", "[secret]", "t1", "t3"]
            assert bob_titles == ["[secret]", "[secret]", "t0", "t2"]
    database.close()


def test_clear_resets_the_store(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().fetch()
    pushdown_form.clear()
    ada = Owner.objects.create(name="ada")
    Doc.objects.create(owner=ada, title="fresh", score=1)
    with viewer_context(ada):
        assert [doc.title for doc in Doc.objects.all().fetch()] == ["fresh"]


# -- set-at-a-time store population ----------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_store_refill_is_one_scan_at_any_table_size(kind):
    for records in (8, 64):
        form, database = _make_form(kind)
        form.policy_pushdown_tier_cap = "store"
        with use_form(form):
            ada = Owner.objects.create(name="ada")
            bob = Owner.objects.create(name="bob")
            for index in range(records):
                Doc.objects.create(
                    owner=ada if index % 2 else bob, title=f"t{index}", score=index
                )
            store = form.pushdown_store
            key = viewer_cache_key(ada)
            with viewer_context(ada):
                assert store.ensure(form, Doc, ada, key)  # creates the store table
                bump_policy_epoch()  # invalidate: the next ensure refills
                with obs.tracing(), database.observe_statements() as log:
                    assert store.ensure(form, Doc, ada, key)
        database.close()
        # One scan of the model table plus the atomic slice swap, however
        # many labels the table holds; each label is evaluated once.
        assert [event.kind for event in log.events] == ["SELECT", "REPLACE"], (
            records, log.statements,
        )
        assert obs.totals.get("pushdown.store.refresh") == 1
        assert obs.totals.get("policy.evaluations") == records
        obs.reset()


@pytest.fixture(params=["memory", "sqlite"])
def shipped_form(request):
    """The shipped ``CacheConfig()`` with every policied read at the store tier."""
    form, database = _make_form(request.param, cache_config=CacheConfig())
    form.policy_pushdown_tier_cap = "store"
    with use_form(form):
        yield form
    database.close()


def _model_label(record, group):
    name = f"{type(record)._meta.table_name}.{record.jid}.{group}"
    return Label(hint=name, name=name)


def _assert_store_parity(form, model, viewers, view):
    """Every viewer's store-served ``fetch()`` equals the Python oracle's."""
    for viewer in viewers:
        obs.reset()
        with obs.tracing(), viewer_context(viewer):
            served = sorted(view(item) for item in model.objects.all().fetch())
            assert obs.totals.get("plan.policy_pushdown") == 1
            oracle = _oracle(
                form,
                lambda: sorted(view(item) for item in model.objects.all().fetch()),
            )
        assert served == oracle, (viewer.name, served, oracle)


def _doc_view(doc):
    return (doc.jid, doc.title, doc.score)


def test_record_without_an_all_true_row_matches_the_oracle(shipped_form):
    ada, bob = _seed_docs(shipped_form)
    first = Doc.objects.create(owner=bob, title="first", score=4)
    # Written under a negative model-label branch: no facet row of the new
    # record is satisfied by the all-True assignment (secret_row fallback).
    with shipped_form.runtime.under_branch(_model_label(first, "title"), False):
        Doc.objects.create(owner=ada, title="shadow", score=5)
    _assert_store_parity(shipped_form, Doc, [ada, bob], _doc_view)


def test_jvars_naming_another_models_label_matches_the_oracle(shipped_form):
    ada, bob = _seed_docs(shipped_form)
    badge = Badge.objects.create(code=1, body="b")
    with shipped_form.runtime.under_branch(_model_label(badge, "body"), True):
        Doc.objects.create(owner=ada, title="cross", score=6)
    _assert_store_parity(shipped_form, Doc, [ada, bob], _doc_view)


def test_policy_querying_its_own_table_matches_the_oracle(shipped_form):
    ada, bob = _seed_docs(shipped_form)
    assert profile_for(Diary).tier == "store"
    Diary.objects.create(owner=ada, body="ada's day")
    Diary.objects.create(owner=bob, body="bob's day")
    _assert_store_parity(
        shipped_form, Diary, [ada, bob], lambda entry: (entry.jid, entry.body)
    )


def test_label_of_a_deleted_record_matches_the_oracle(shipped_form):
    ada, bob = _seed_docs(shipped_form)
    doomed = Doc.objects.create(owner=bob, title="doomed", score=8)
    with shipped_form.runtime.under_branch(_model_label(doomed, "title"), True):
        Doc.objects.create(owner=ada, title="orphan", score=9)
    Doc.objects.filter(score=8).delete()
    _assert_store_parity(shipped_form, Doc, [ada, bob], _doc_view)


def _audit_view(audit):
    return (audit.jid, audit.body)


def test_write_fetch_churn_matches_the_oracle(shipped_form):
    ada, bob = _seed_docs(shipped_form)
    Audit.objects.create(owner=ada, body="first")
    _assert_store_parity(shipped_form, Audit, [ada, bob], _audit_view)
    for round_ in range(2):
        Audit.objects.create(owner=bob, body=f"round {round_}")
        Owner.objects.create(name=f"carol{round_}")  # broad: any write counts
        obs.reset()
        with obs.tracing(), viewer_context(ada):
            Audit.objects.all().fetch()
        assert obs.totals.get("pushdown.store.refresh") == 1
        _assert_store_parity(shipped_form, Audit, [ada, bob], _audit_view)
