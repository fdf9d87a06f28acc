"""The three seeded conference-manager workloads and their fixed set-up.

Every workload runs the conference application on an in-memory SQLite
database (``Database.sqlite()``) with the shipped default ``CacheConfig()``
and Early Pruning on.  One client drives it in a closed loop through
``TestClient`` -> ``Application.handle``.  The seed only shapes the request
stream; the conference itself is what ``seed_conference`` builds.

Each workload has a *primary* and a *secondary* route class; the
end-to-end latency metrics are named after these roles because every
workload must report the same metric names:

================== ======================= ==========================
workload           primary                 secondary
================== ======================= ==========================
conf-lists         ``GET /papers``         ``GET /users``
conf-records       ``GET /paper/<jid>``    ``GET /user/<jid>``
conf-review-churn  ``GET /paper/<jid>``    ``POST /review|/submit``
================== ======================= ==========================
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import build_conf_app, setup_conf
from repro.cache import CacheConfig
from repro.db.engine import Database
from repro.web import TestClient

from calibrate import Calibration
from oracle import ConferenceModel


@dataclass(frozen=True)
class Request:
    """One generated request.  ``route`` names the oracle page (or
    ``write``); ``jid`` is the record a detail page shows."""

    viewer: int  # index into Stage.viewers
    method: str
    path: str
    route: str
    jid: Optional[int] = None
    data: Optional[Dict[str, object]] = None
    #: applied to the oracle model once the write succeeded
    record: Optional[Callable[[ConferenceModel], None]] = None


@dataclass
class Stage:
    """A set-up conference ready to serve the timed phase."""

    form: object
    model: ConferenceModel
    viewers: List[int]  # ConfUser jids, one logged-in client each
    clients: List[TestClient]
    seed_s: float
    warmup_s: float
    warmup_failures: int
    #: wall-clock set-up time (``seed_s`` and ``warmup_s`` are normalised)
    raw_setup_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.seed_s + self.warmup_s


@dataclass(frozen=True)
class Workload:
    name: str
    papers: int
    #: how many authors (besides chair + PC) have a logged-in client
    author_viewers: int
    #: GET routes every viewer requests once during warm-up
    warmup_routes: Tuple[str, ...]
    primary: str
    secondary: str
    generate: Callable[["Stage", random.Random], Iterator[Request]]


def _get(viewer: int, route: str, jid: Optional[int] = None) -> Request:
    path = f"/{route}/{jid}" if jid is not None else f"/{route}"
    return Request(viewer, "GET", path, route, jid)


def _lists(stage: Stage, rng: random.Random) -> Iterator[Request]:
    """Committee viewers alternate ``/papers`` and ``/users``."""
    committee = range(len(stage.viewers))  # chair + PC only on this workload
    while True:
        yield _get(rng.choice(committee), "papers")
        yield _get(rng.choice(committee), "users")


def _records(stage: Stage, rng: random.Random) -> Iterator[Request]:
    """Any viewer opens a uniformly random paper or user page."""
    model = stage.model
    users = sorted(model.users)
    while True:
        viewer = rng.randrange(len(stage.viewers))
        if rng.random() < 0.5:
            yield _get(viewer, "paper", rng.choice(model.seeded_papers))
        else:
            yield _get(viewer, "user", rng.choice(users))


def _churn(stage: Stage, rng: random.Random) -> Iterator[Request]:
    """Rounds of one write, then one read by each viewer.

    Every fourth round's write is a ``POST /submit`` by an author, the rest
    are ``POST /review`` by a PC member on a paper it is not conflicted
    with; the fixed ratio keeps the write latency distribution the same for
    every seed.  One read per round is ``/papers`` (rotating through the
    viewers), the others are ``/paper/<jid>`` on seeded papers.
    """
    model = stage.model
    pc = [index for index, jid in enumerate(stage.viewers) if jid in model.pc]
    authors = [index for index, jid in enumerate(stage.viewers) if jid in model.authors]
    round_index = 0
    while True:
        if round_index % 4 == 3:
            viewer = rng.choice(authors)
            title = f"Churn paper {round_index}"
            author = stage.viewers[viewer]
            yield Request(
                viewer, "POST", "/submit", "write", data={"title": title},
                record=lambda m, t=title, a=author: m.add_paper(t, a),
            )
        else:
            viewer = rng.choice(pc)
            reviewer = stage.viewers[viewer]
            paper = rng.choice(model.seeded_papers)
            while model.papers[paper].conflicted_pc == reviewer:
                paper = rng.choice(model.seeded_papers)
            contents = f"Churn review {round_index}"
            score = rng.randint(1, 5)
            yield Request(
                viewer, "POST", "/review", "write",
                data={"paper": paper, "contents": contents, "score": score},
                record=lambda m, p=paper, r=reviewer, c=contents, s=score: m.add_review(p, r, c, s),
            )
        for viewer in range(len(stage.viewers)):
            if (round_index + viewer) % len(stage.viewers) == 0:
                yield _get(viewer, "papers")
            else:
                yield _get(viewer, "paper", rng.choice(model.seeded_papers))
        round_index += 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("conf-lists", 256, 0, ("papers", "users"), "papers", "users", _lists),
        Workload("conf-records", 1024, 3, ("paper", "user"), "paper", "user", _records),
        Workload("conf-review-churn", 256, 3, ("paper", "papers"), "paper", "write", _churn),
    )
}


def warmup_request(stage: Stage, viewer: int, route: str) -> Request:
    """The warm-up request of one route: detail pages show the first seeded
    paper / author."""
    if route == "paper":
        return _get(viewer, route, stage.model.seeded_papers[0])
    if route == "user":
        return _get(viewer, route, stage.model.authors[0])
    return _get(viewer, route)


def issue(stage: Stage, request: Request) -> Tuple[float, bool]:
    """Send one request; returns (seconds, correct).  The oracle check runs
    after the clock stops."""
    client = stage.clients[request.viewer]
    started = time.perf_counter()
    response = client.request(request.method, request.path, data=request.data)
    elapsed = time.perf_counter() - started
    if request.method == "POST":
        ok = response.status == 302
        if ok and request.record is not None:
            request.record(stage.model)
        return elapsed, ok
    ok = response.status == 200 and stage.model.check(
        request.route, stage.viewers[request.viewer], request.jid, response.body
    )
    return elapsed, ok


def set_up(workload: Workload) -> Stage:
    """Build the FORM, register the models, seed, log in and warm up.

    Set-up times are scaled to the reference host speed like request times
    (see :mod:`calibrate`): the seeding block by the median kernel times
    just before and after it, each warm-up request by the kernel runs just
    before and after it."""
    calibration = Calibration()
    before = calibration.median_kernel()
    started = time.perf_counter()
    form = setup_conf(Database.sqlite(), cache_config=CacheConfig())
    created = seed_conference(form, papers=workload.papers)
    app = build_conf_app(form, early_pruning=True)
    model = ConferenceModel.from_seed(created, workload.papers)
    viewers = [model.chair, *model.pc, *model.authors[: workload.author_viewers]]
    clients = []
    for jid in viewers:
        client = TestClient(app)
        client.force_login(jid, model.users[jid].name)
        clients.append(client)
    raw_seed_s = time.perf_counter() - started
    after = calibration.median_kernel()
    seed_s = raw_seed_s * Calibration.factor(before, after)
    before = after
    stage = Stage(form, model, viewers, clients, seed_s, 0.0, 0, raw_seed_s)
    for viewer in range(len(viewers)):
        for route in workload.warmup_routes:
            elapsed, ok = issue(stage, warmup_request(stage, viewer, route))
            after = calibration.kernel()
            stage.warmup_s += elapsed * Calibration.factor(before, after)
            stage.raw_setup_s += elapsed
            stage.warmup_failures += not ok
            before = after
    return stage
