"""Classifier-atom round-tripping into the pushdown decision procedure.

Every policy shape :func:`repro.analysis.classify.classify_policy` emits
for the four demo applications must land the model in exactly one tier:

* ``direct`` -- the compiled symbolic predicate renders inline in the
  WHERE clause; a viewer-context query counts ``plan.policy_pushdown``
  and ``plan.policy_pushdown.direct``;
* ``indexable`` -- inline with prefix/range atoms; counts
  ``plan.policy_pushdown.indexable``;
* ``store`` -- the label-assignment-store subquery; counts
  ``plan.policy_pushdown`` with neither inline counter;
* ``opaque`` -- the Python path; counts
  ``plan.policy_pushdown.opaque_fallback``.

There is no silent fifth state: a policied model the planner skips
without a counter would mean a classifier shape the decision procedure
forgot.
"""

import datetime

import pytest

from repro import obs
from repro.apps.calendar.models import CALENDAR_MODELS, Event, UserProfile
from repro.apps.conf.models import CONF_MODELS, ConfUser, Paper
from repro.apps.course.models import COURSE_MODELS, Course, CourseUser
from repro.apps.health.models import HEALTH_MODELS, HealthRecord, HealthUser
from repro.cache.config import CacheConfig
from repro.db import Database
from repro.form import FORM, use_form, viewer_context
from repro.form.pushdown import profile_for

PUSHDOWN_SHAPES = {"viewer-independent", "equality-on-viewer", "symbolic"}
POLICIED_TIERS = {"direct", "indexable", "store", "opaque"}

APPS = {
    "conf": CONF_MODELS,
    "course": COURSE_MODELS,
    "health": HEALTH_MODELS,
    "calendar": CALENDAR_MODELS,
}


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _policied_models():
    for app, models in APPS.items():
        for model in models:
            if model._meta.policy_groups:
                yield app, model


def test_every_demo_policy_shape_round_trips():
    for app, model in _policied_models():
        profile = profile_for(model)
        # Exhaustive outcome at classification time: exactly one tier.
        assert profile.tier in POLICIED_TIERS, (app, model.__name__, profile)
        assert profile.eligible != profile.opaque, (app, model.__name__, profile)
        assert profile.eligible == (profile.tier != "opaque"), (
            app, model.__name__, profile,
        )
        # Every policy group got a shape (nothing skipped silently).
        assert set(profile.shapes) == {
            group.key for group in model._meta.policy_groups
        }, (app, model.__name__)
        if profile.eligible:
            assert set(profile.shapes.values()) <= PUSHDOWN_SHAPES, (
                app, model.__name__, profile.shapes,
            )
            if profile.tier in ("direct", "indexable"):
                assert profile.predicates is not None, (app, model.__name__)
        else:
            assert "opaque" in profile.shapes.values(), (
                app, model.__name__, profile.shapes,
            )


def test_demo_tiers_are_the_expected_ones():
    """The concrete assignment the docs and benchmarks talk about: the
    conf app's viewer model is direct, the multi-group models ride the
    store, and every cross-record policy is opaque."""
    tiers = {
        model.__name__: profile_for(model).tier
        for _app, model in _policied_models()
    }
    assert tiers == {
        "ConfUser": "direct",
        "Paper": "opaque",
        "Review": "direct",
        "Course": "opaque",
        "Submission": "store",
        "HealthUser": "opaque",
        "HealthRecord": "opaque",
        "Event": "opaque",
        "EventGuest": "opaque",
    }


def _seed(app, form):
    """One viewer and one policied record per app, minimal fields."""
    if app == "conf":
        viewer = ConfUser.objects.create(
            name="ada", affiliation="a", email="a@x", level="normal"
        )
        Paper.objects.create(title="p", author=viewer)
        return viewer
    if app == "course":
        viewer = CourseUser.objects.create(name="ada", role="instructor")
        Course.objects.create(title="c", instructor=viewer)
        return viewer
    if app == "health":
        viewer = HealthUser.objects.create(
            name="ada", role="patient", email="a@x"
        )
        HealthRecord.objects.create(
            patient=viewer, doctor=viewer, diagnosis="d", notes="n",
            date=datetime.datetime(2016, 6, 13),
        )
        return viewer
    viewer = UserProfile.objects.create(name="ada", email="a@x")
    Event.objects.create(
        name="e", location="l", time=datetime.datetime(2016, 6, 13),
        description="d",
    )
    return viewer


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_demo_query_is_counted_pushdown_or_fallback(app):
    form = FORM(Database(), cache_config=CacheConfig.disabled())
    form.register_all(APPS[app])
    with use_form(form):
        viewer = _seed(app, form)
        for model in APPS[app]:
            if not model._meta.policy_groups:
                continue
            with viewer_context(viewer):
                model.objects.all().fetch()  # warm probe/store population
            obs.reset()
            with obs.tracing(), viewer_context(viewer):
                model.objects.all().fetch()
            pushed = obs.totals.get("plan.policy_pushdown")
            fallback = obs.totals.get("plan.policy_pushdown.opaque_fallback")
            inline = {
                tier: obs.totals.get(f"plan.policy_pushdown.{tier}")
                for tier in ("direct", "indexable")
            }
            profile = profile_for(model)
            assert pushed + fallback >= 1, (app, model.__name__, profile)
            if profile.tier in ("direct", "indexable"):
                assert pushed >= 1, (app, model.__name__, profile)
                assert inline[profile.tier] >= 1, (app, model.__name__, inline)
            elif profile.tier == "store":
                assert pushed >= 1, (app, model.__name__, profile)
                assert inline == {"direct": 0, "indexable": 0}, (
                    app, model.__name__, inline,
                )
            else:
                assert fallback >= 1 and pushed == 0, (app, model.__name__)
