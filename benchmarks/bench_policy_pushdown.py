"""Policy pushdown: compiled Early Pruning tiers vs the Python path.

On an eligible policied model (equality-on-viewer, own-row reads), a
viewer-context ``fetch()``/``count()`` compiles the pruning predicate into
the statement itself.  At the **direct tier** the predicate renders inline
-- no label store in the statement at all::

    SELECT ... FROM "BenchDoc"
    WHERE (jvars = ? OR ((jvars = (? || jid || ?) AND owner_id IS ?)
                      OR (jvars = (? || jid || ?) AND (NOT owner_id IS ?))))

Capping the planner (``form.policy_pushdown_tier_cap = "store"``) demotes
the same query to the **store tier**, which carries the label-assignment
subquery over ``__jacq_labels__``.  The Python path (Early Pruning label
resolution over the fetched secret facets) remains the fallback -- and
the differential oracle this benchmark compares against.

Per backend (memory engine and SQLite) this verifies:

* **single statement**: the warmed direct-tier fetch and count each issue
  exactly one statement with no label-store reference, the store-tier
  count carries the subquery, and ``explain()`` reports the executed SQL
  string and the serving tier (asserted on captured SQL against SQLite);
* **correctness**: direct- and store-tier results -- visible titles and
  the count -- match the Python oracle
  (``form.policy_pushdown_enabled = False``) bit for bit;
* **speedup**: at 10k records the direct-tier ``count()`` is >=5x faster
  than Python pruning (full run only; ``--smoke`` checks shape and parity
  at CI size);
* **two policy groups**: ``BenchReview`` has two groups whose predicates
  fold to booleans for each viewer at bind time, so its fetch is also one
  direct-tier statement matching each record's rows by label
  sub-assignment (``jvars IN (...)``) -- no label store, ``explain()`` SQL
  equal to the executed statement, results equal to the Python oracle.

Usage::

    python benchmarks/bench_policy_pushdown.py                  # full (10k rows)
    python benchmarks/bench_policy_pushdown.py --smoke          # CI-sized run
    python benchmarks/bench_policy_pushdown.py --fuzz-iterations=500
                               # run the differential fuzz harness instead

Exits non-zero on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cache import CacheConfig  # noqa: E402
from repro.db import (  # noqa: E402
    Database,
    MemoryBackend,
    SqliteBackend,
    StatementLog,
)
from repro.form import (  # noqa: E402
    CharField,
    FORM,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form.pushdown import STORE_TABLE  # noqa: E402


class BenchOwner(JModel):
    name = CharField(max_length=64)


class BenchDoc(JModel):
    """Two facet rows per record: a public and a secret title."""

    owner = ForeignKey(BenchOwner)
    title = CharField(max_length=64)
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(doc):
        return "[secret]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None and doc.owner_id == ctxt.jid


class BenchReview(JModel):
    """Two policy groups, both viewer-only: the multi-group direct tier."""

    owner = ForeignKey(BenchOwner)
    body = CharField(max_length=64)
    grade = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_body(review):
        return "[hidden]"

    @staticmethod
    def jacqueline_get_public_grade(review):
        return 0

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(review, ctxt):
        return ctxt is not None and ctxt.name == "alice"

    @staticmethod
    @label_for("grade")
    @jacqueline
    def jacqueline_restrict_grade(review, ctxt):
        return ctxt is not None and ctxt.name in ("alice", "bob")


def _two_group_case(backend_name: str, backend_factory, rows: int) -> List[str]:
    """Single-statement, explain-SQL and oracle-parity checks of the
    two-group direct tier.  Every third review keeps its public body, so
    those records store rows naming only the grade label."""
    failures: List[str] = []
    database = Database(backend_factory())
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all([BenchOwner, BenchReview])
    log = StatementLog(database.backend)
    with use_form(form):
        alice = BenchOwner.objects.create(name="alice")
        bob = BenchOwner.objects.create(name="bob")
        carol = BenchOwner.objects.create(name="carol")
        BenchReview.objects.bulk_create(
            [
                BenchReview(
                    owner=alice if index % 2 else bob,
                    body="[hidden]" if index % 3 == 0 else f"body{index:06d}",
                    grade=index % 5 + 1,
                )
                for index in range(rows)
            ]
        )

        def view(reviews):
            return sorted((r.jid, r.body, r.grade) for r in reviews)

        for viewer in (alice, bob, carol):
            with viewer_context(viewer):
                BenchReview.objects.all().fetch()  # warm the branch-key probe
                report = BenchReview.objects.all().explain()
                log.clear()
                served = view(BenchReview.objects.all().fetch())
                statements = list(log.statements)
                form.policy_pushdown_enabled = False
                oracle = view(BenchReview.objects.all().fetch())
                form.policy_pushdown_enabled = True
            where = f"{backend_name}: two-group fetch as {viewer.name}"
            if report.get("tier") != "direct":
                failures.append(
                    f"{where}: explain tier {report.get('tier')!r}, expected "
                    f"'direct' (demoted: {report.get('demoted')!r})"
                )
            if len(statements) != 1:
                failures.append(
                    f"{where}: {len(statements)} statements, expected 1"
                )
            elif STORE_TABLE in statements[0]:
                failures.append(f"{where}: statement references the label store")
            elif statements != [report.get("sql")]:
                failures.append(
                    f"{where}: explain() SQL differs from the executed "
                    f"statement: {report.get('sql')!r} vs {statements!r}"
                )
            if served != oracle:
                failures.append(f"{where}: diverged from the Python oracle")
    log.detach()
    database.close()
    return failures


def _build_form(backend_factory, rows: int) -> Tuple[FORM, Database, object, object]:
    database = Database(backend_factory())
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all([BenchOwner, BenchDoc])
    with use_form(form):
        alice = BenchOwner.objects.create(name="alice")
        bob = BenchOwner.objects.create(name="bob")
        BenchDoc.objects.bulk_create(
            [
                BenchDoc(
                    owner=alice if index % 2 else bob,
                    title=f"title{index:06d}",
                    score=index % 10,
                )
                for index in range(rows)
            ]
        )
    return form, database, alice, bob


def _timed(fn, repeats: int = 3) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(rows: int, smoke: bool) -> int:
    failures: List[str] = []
    timings = {}

    for backend_name, backend_factory in (
        ("memory", MemoryBackend),
        ("sqlite", SqliteBackend),
    ):
        form, database, alice, _bob = _build_form(backend_factory, rows)
        log = StatementLog(database.backend) if backend_name == "sqlite" else None

        # -- direct tier: inline predicate, no label store ------------------
        with use_form(form):
            with viewer_context(alice):
                BenchDoc.objects.all().fetch()  # warm the branch-key probe
                fetch_report = BenchDoc.objects.all().explain()
                count_report = BenchDoc.objects.all().explain("count")
                if log is not None:
                    log.clear()
                direct_fetch_time, direct_docs = _timed(
                    lambda: BenchDoc.objects.all().fetch(), repeats=1
                )
                if log is not None:
                    if len(log.statements) != 1:
                        failures.append(
                            f"sqlite: direct-tier fetch issued "
                            f"{len(log.statements)} statements, expected 1"
                        )
                    elif STORE_TABLE in log.statements[0]:
                        failures.append(
                            "sqlite: direct-tier fetch statement still "
                            f"references the label store: {log.statements[0]}"
                        )
                    elif log.statements != [fetch_report["sql"]]:
                        failures.append(
                            "sqlite: explain() SQL differs from the executed "
                            f"fetch: {fetch_report['sql']!r} vs "
                            f"{log.statements!r}"
                        )
                    log.clear()
                direct_count_time, direct_count = _timed(
                    lambda: BenchDoc.objects.all().count()
                )
                if log is not None:
                    statements = sorted(set(log.statements))
                    if len(statements) != 1:
                        failures.append(
                            f"sqlite: direct-tier count issued "
                            f"{len(statements)} distinct statements, expected 1"
                        )
                    elif statements != [count_report["sql"]]:
                        failures.append(
                            "sqlite: explain() SQL differs from the executed "
                            f"count: {count_report['sql']!r} vs {statements!r}"
                        )
                if fetch_report.get("mode") != "policy-pushdown":
                    failures.append(
                        f"{backend_name}: fetch explain mode is "
                        f"{fetch_report.get('mode')!r}, expected 'policy-pushdown'"
                    )
                if fetch_report.get("tier") != "direct":
                    failures.append(
                        f"{backend_name}: fetch explain tier is "
                        f"{fetch_report.get('tier')!r}, expected 'direct'"
                    )

            # -- store tier: the tier cap restores the label-store subquery -
            form.policy_pushdown_tier_cap = "store"
            with viewer_context(alice):
                BenchDoc.objects.all().fetch()  # warm the label store
                store_report = BenchDoc.objects.all().explain()
                if log is not None:
                    log.clear()
                store_fetch_time, store_docs = _timed(
                    lambda: BenchDoc.objects.all().fetch(), repeats=1
                )
                if log is not None:
                    if len(log.statements) != 1:
                        failures.append(
                            f"sqlite: store-tier fetch issued "
                            f"{len(log.statements)} statements, expected 1"
                        )
                    elif STORE_TABLE not in log.statements[0]:
                        failures.append(
                            "sqlite: store-tier fetch statement lacks the "
                            f"label-store subquery: {log.statements[0]}"
                        )
                store_count_time, store_count = _timed(
                    lambda: BenchDoc.objects.all().count()
                )
                if store_report.get("tier") != "store":
                    failures.append(
                        f"{backend_name}: capped explain tier is "
                        f"{store_report.get('tier')!r}, expected 'store'"
                    )
            form.policy_pushdown_tier_cap = None

            # -- the Python oracle ------------------------------------------
            form.policy_pushdown_enabled = False
            with viewer_context(alice):
                oracle_fetch_time, oracle_docs = _timed(
                    lambda: BenchDoc.objects.all().fetch(), repeats=1
                )
                oracle_count_time, oracle_count = _timed(
                    lambda: BenchDoc.objects.all().count()
                )
            form.policy_pushdown_enabled = True

        oracle_titles = sorted(doc.title for doc in oracle_docs)
        for tier_name, docs, count in (
            ("direct", direct_docs, direct_count),
            ("store", store_docs, store_count),
        ):
            titles = sorted(doc.title for doc in docs)
            if titles != oracle_titles:
                failures.append(
                    f"{backend_name}: {tier_name}-tier fetch diverged from "
                    f"the Python oracle ({len(titles)} vs "
                    f"{len(oracle_titles)} rows)"
                )
            if count != oracle_count:
                failures.append(
                    f"{backend_name}: {tier_name}-tier count {count} != "
                    f"oracle count {oracle_count}"
                )

        timings[backend_name] = (direct_count_time, oracle_count_time)
        direct_speedup = (
            oracle_count_time / direct_count_time
            if direct_count_time
            else float("inf")
        )
        fetch_speedup = (
            oracle_fetch_time / direct_fetch_time
            if direct_fetch_time
            else float("inf")
        )
        print(
            f"[{backend_name}] rows={rows}  count: "
            f"direct={direct_count_time * 1000:.2f}ms "
            f"store={store_count_time * 1000:.2f}ms "
            f"python={oracle_count_time * 1000:.2f}ms "
            f"({direct_speedup:.1f}x)  fetch: "
            f"direct={direct_fetch_time * 1000:.2f}ms "
            f"store={store_fetch_time * 1000:.2f}ms "
            f"python={oracle_fetch_time * 1000:.2f}ms ({fetch_speedup:.1f}x)"
        )
        database.close()
        failures.extend(_two_group_case(backend_name, backend_factory, rows))

    if not smoke:
        for backend_name, (pushed, oracle) in timings.items():
            if oracle < pushed * 5:
                failures.append(
                    f"{backend_name}: direct-tier count only "
                    f"{oracle / pushed:.1f}x faster than Python pruning "
                    f"(need >=5x)"
                )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok")
    return 1 if failures else 0


def run_fuzz(iterations: int) -> int:
    """Delegate to the differential fuzz harness at the given depth."""
    env = dict(os.environ)
    env["FUZZ_ITERATIONS"] = str(iterations)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            os.path.join("tests", "fuzz", "test_policy_parity.py"),
            "-q",
        ],
        env=env,
        cwd=_ROOT,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (no timing assertion)"
    )
    parser.add_argument("--rows", type=int, default=None, help="records to seed")
    parser.add_argument(
        "--fuzz-iterations",
        type=int,
        default=None,
        help="run the differential fuzz harness at this depth instead",
    )
    args = parser.parse_args()
    if args.fuzz_iterations is not None:
        return run_fuzz(args.fuzz_iterations)
    rows = args.rows if args.rows is not None else (300 if args.smoke else 10_000)
    return run(rows, smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
