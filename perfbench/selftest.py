"""Smoke-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every metric named in ``BENCHMARK.json`` is emitted, with its unit, by an
  untraced and a traced run of every workload (on a 16-paper conference),
  and that no request fails;
* a response leaking another user's email counts as a failed operation;
* the per-layer counts that must repeat do repeat exactly: a fixed prefix
  of each workload's request stream is traced twice in this process and
  once in a child process with another hash seed, and the counts compared.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys

import run  # sets up the import path of the program
from repro.web import TestClient
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_PAPERS = 16
SMOKE_SECONDS = 0.6

#: per-layer counts that must repeat exactly for a fixed request prefix
REPEATED_COUNTS = (
    "db.statements", "form.get_calls", "form.fk_calls",
    "pushdown.store_refreshes", "form.policy_evaluations",
)
#: requests in the traced prefix, per workload (churn: three rounds)
PREFIX = {"conf-lists": 40, "conf-records": 400, "conf-review-churn": 27}

failures = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def smoke(workload):
    """The workload on a 16-paper conference."""
    return dataclasses.replace(workload, papers=SMOKE_PAPERS)


def check_metrics() -> None:
    for name, workload in WORKLOADS.items():
        for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
            partials = [run.child_run(smoke(workload), f"7/{index}", SMOKE_SECONDS, trace)
                        for index in range(2)]
            result = run.aggregate(workload, partials, trace)
            check(result.attempted > 0 and result.failed == 0 and result.correct,
                  f"{name} trace={int(trace)}: {result.attempted} requests, error_rate 0")
            expected = {metric["name"]: metric["unit"] for metric in declared}
            emitted = {metric: unit for metric, (_value, unit) in result.metrics.items()}
            check(emitted == expected,
                  f"{name} trace={int(trace)}: every declared metric emitted with its unit")
            check(json.loads(result.report().splitlines()[-1])["metrics"].keys() == expected.keys(),
                  f"{name} trace={int(trace)}: last report line is the JSON result")


def check_leak_detected() -> None:
    """Rewrite one ``/users`` page so it shows a hidden email."""
    hidden = re.compile(r"<li>(\w+) \(([^)]*)\) — \[hidden email\]</li>")
    original = TestClient.request
    leaked = []

    def leaking(self, method, path, params=None, data=None):
        response = original(self, method, path, params=params, data=data)
        match = hidden.search(response.body) if path == "/users" else None
        if match is not None and not leaked:
            leak = f"<li>{match.group(1)} ({match.group(2)}) — {match.group(1)}@conf.org</li>"
            response.body = response.body.replace(match.group(0), leak)
            leaked.append(path)
        return response

    workload = smoke(WORKLOADS["conf-lists"])
    stage = run.prepare(workload)
    TestClient.request = leaking
    try:
        phase = run.run_phase(stage, workload.generate(stage, random.Random(3)), 60, limit=20)
    finally:
        TestClient.request = original
    check(len(leaked) == 1 and phase.failed == 1,
          f"a leaked email counts as a failure ({phase.failed} of {phase.attempted} failed)")


def prefix_counts(name: str) -> dict:
    """Trace the first requests of a full-size workload; its repeated counts."""
    workload = WORKLOADS[name]
    stage = run.prepare(workload)
    requests = workload.generate(stage, random.Random(5))
    phase, tracer, counters, _caches = run.traced_phase(stage, requests, 600, PREFIX[name])
    spans = tracer.summary()
    return {
        "requests": phase.attempted,
        "failed": phase.failed,
        "db.statements": spans.get("db.sql", {}).get("calls", 0),
        "form.get_calls": spans.get("form.get", {}).get("calls", 0),
        "form.fk_calls": spans.get("form.fk", {}).get("calls", 0),
        "pushdown.store_refreshes": counters.get("pushdown.store.refresh", 0),
        "form.policy_evaluations": counters.get("policy.evaluations", 0),
    }


def check_counts_repeat() -> None:
    for name in WORKLOADS:
        first, second = prefix_counts(name), prefix_counts(name)
        child = subprocess.run(
            [sys.executable, __file__, "--counts", name],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
        )
        third = json.loads(child.stdout.splitlines()[-1])
        check(first["failed"] == 0 and first["requests"] == PREFIX[name],
              f"{name}: traced prefix of {PREFIX[name]} requests served")
        for count in REPEATED_COUNTS:
            values = (first[count], second[count], third[count])
            check(len(set(values)) == 1, f"{name}: {count} repeats exactly {values}")


def main() -> int:
    if sys.argv[1:2] == ["--counts"]:
        print(json.dumps(prefix_counts(sys.argv[2])))
        return 0
    check_metrics()
    check_leak_detected()
    check_counts_repeat()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
