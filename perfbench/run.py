"""Benchmark of the conference manager through the real request path.

Run from the repository root::

    python3 perfbench/run.py --workload conf-lists --seed 1 --seconds 30 --trace 0

A run is ``PROCESSES`` child processes, one after the other.  Each child
builds the FORM on in-memory SQLite, seeds the conference, warms every
viewer's routes (its set-up) and then drives its share of ``--seconds``
as a closed loop of one client, checking every response against
:mod:`oracle`.  Separate processes average out the process-to-process
variation of memory layout: latencies are pooled over the children, and
set-up times are the median child's.  Every time reported end to end is
scaled to a reference host speed by :mod:`calibrate`, whose fixed kernel
runs between requests and around the seeding; the raw times are printed
too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of each child's share untraced and the second half with
:class:`tracer.Tracer` wrapping the layers (and the program's own counters
on), and reports the per-layer metrics of the traced halves; the spans are
written to ``perfbench/_runs/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name, with the route-level
names and sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'})")
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402

from calibrate import Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Stage, Workload, issue, set_up  # noqa: E402

PROCESSES = 3
CHILD_TIMEOUT_S = 150
RUNS_DIR = ROOT / "perfbench" / "_runs"
MAX_REPORTED_FAILURES = 5


@dataclass
class Phase:
    """What one timed loop measured."""

    samples: Dict[str, List[float]] = field(default_factory=dict)  # route -> normalised s
    raw: Dict[str, List[float]] = field(default_factory=dict)  # route -> wall-clock s
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # normalised time spent inside requests
    speed: float = 1.0  # median of the requests' calibration factors


def run_phase(stage: Stage, requests: Iterator[Request], seconds: float,
              limit: Optional[int] = None) -> Phase:
    """Issue requests in a closed loop until ``seconds`` have passed (or,
    with ``limit``, until that many requests were issued).  The calibration
    kernel runs between requests; each request's time is scaled by the
    calibration factor of the kernel runs just before and after it."""
    phase = Phase()
    calibration = Calibration()
    factors = []
    before = calibration.kernel()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and phase.attempted != limit:
        request = next(requests)
        phase.attempted += 1
        try:
            elapsed, ok = issue(stage, request)
        except Exception:  # a crashed request is a failed operation
            ok, elapsed = False, 0.0
            if phase.failed < MAX_REPORTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
        after = calibration.kernel()
        factors.append(Calibration.factor(before, after))
        before = after
        phase.busy_s += elapsed * factors[-1]
        if not ok:
            if phase.failed < MAX_REPORTED_FAILURES:
                print(f"perfbench: failed {request.method} {request.path} as viewer "
                      f"{stage.viewers[request.viewer]}", file=sys.stderr)
            phase.failed += 1
            continue
        phase.raw.setdefault(request.route, []).append(elapsed)
        phase.samples.setdefault(request.route, []).append(elapsed * factors[-1])
    if factors:
        phase.speed = statistics.median(factors)
    return phase


def traced_phase(stage: Stage, requests: Iterator[Request], seconds: float,
                 limit: Optional[int] = None) -> tuple:
    """Run a phase with the layers wrapped and the program's counters on.

    Returns the phase, the tracer, the counter deltas and the cache-stat
    deltas (hits, misses, evictions per cache layer) over the phase.
    """
    tracer = Tracer()
    counters_before = obs.totals.snapshot()
    caches_before = stage.form.caches.stats()
    obs.enable()
    try:
        with tracer.install(stage.form.database):
            phase = run_phase(stage, requests, seconds, limit)
    finally:
        obs.disable()
    counters_after = obs.totals.snapshot()
    caches_after = stage.form.caches.stats()
    counters = {name: value - counters_before.get(name, 0)
                for name, value in counters_after.items()}
    caches = {layer: {key: caches_after[layer][key] - caches_before[layer][key]
                      for key in ("hits", "misses", "evictions")}
              for layer in caches_after}
    return phase, tracer, counters, caches


def prepare(workload: Workload) -> Stage:
    """Set up, then move the set-up heap out of the collector's generations
    so full collections in the timed phase scan only what requests allocate."""
    gc.unfreeze()  # an earlier stage in this process becomes collectable again
    stage = set_up(workload)
    gc.collect()
    gc.freeze()
    return stage


# -- one child process -----------------------------------------------------------


def _phase_json(phase: Phase) -> dict:
    return {"samples": phase.samples, "raw": phase.raw, "attempted": phase.attempted,
            "failed": phase.failed, "busy_s": phase.busy_s, "speed": phase.speed}


def child_run(workload: Workload, seed: str, seconds: float, trace: bool,
              spans_path: Optional[Path] = None) -> dict:
    """One child's share of a run, as JSON-ready partial results."""
    stage = prepare(workload)
    requests = workload.generate(stage, random.Random(seed))
    partial = {
        "setup": {"setup_s": stage.setup_s, "seed_s": stage.seed_s, "warmup_s": stage.warmup_s,
                  "raw_setup_s": stage.raw_setup_s},
        "warmup_failures": stage.warmup_failures,
    }
    if not trace:
        partial["phases"] = [_phase_json(run_phase(stage, requests, seconds))]
        return partial
    untraced = run_phase(stage, requests, seconds / 2)
    traced, tracer, counters, caches = traced_phase(stage, requests, seconds / 2)
    if spans_path is not None:
        tracer.write(spans_path)
    partial.update(
        phases=[_phase_json(untraced), _phase_json(traced)],
        spans=tracer.summary(), requests=tracer.requests, counters=counters, caches=caches,
    )
    return partial


# -- aggregation -------------------------------------------------------------------


def percentile_ms(samples: List[float], percent: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1000
    if percent == 50:
        return statistics.median(samples) * 1000
    return statistics.quantiles(samples, n=100)[percent - 1] * 1000


def _throughput(phases: List[dict]) -> float:
    busy = sum(phase["busy_s"] for phase in phases)
    completed = sum(phase["attempted"] - phase["failed"] for phase in phases)
    return completed / busy if busy else 0.0


def end_to_end(workload: Workload, partials: List[dict]) -> tuple:
    """The end-to-end metrics over the children's pooled samples (``setup_s``:
    the median child), and the report lines."""
    phases = [p["phases"][0] for p in partials]
    metrics = {
        "setup_s": (statistics.median(p["setup"]["setup_s"] for p in partials), "s"),
        "throughput_rps": (_throughput(phases), "1/s"),
    }
    pooled: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    for phase in phases:
        for route, samples in phase["samples"].items():
            pooled.setdefault(route, []).extend(samples)
            raw.setdefault(route, []).extend(phase["raw"][route])
    roles = {workload.primary: "primary", workload.secondary: "secondary"}
    raw_setup = statistics.median(p["setup"]["raw_setup_s"] for p in partials)
    lines = [
        "host speed factor per child = "
        + ", ".join(f"{phase['speed']:.3f}" for phase in phases)
        + " (reference kernel time / measured; times below are scaled by it)",
        f"setup_s raw = {raw_setup:.4f} s (median child, wall clock)",
    ]
    for route in [workload.primary, workload.secondary, *sorted(set(pooled) - set(roles))]:
        samples = pooled.get(route)
        if not samples:
            raise RuntimeError(f"no successful {route} request to measure")
        role = roles.get(route)
        for percent in (50, 90) if role else (50,):
            value = percentile_ms(samples, percent)
            where = f"reported as {role}_p{percent}_ms" if role else "in throughput only"
            lines.append(f"{route}_p{percent}_ms = {value:.4f} ms (raw "
                         f"{percentile_ms(raw[route], percent):.4f} ms; n={len(samples)}; {where})")
            if role:
                metrics[f"{role}_p{percent}_ms"] = (value, "ms")
    return metrics, lines


def per_layer(partials: List[dict]) -> dict:
    """The per-layer metrics of the traced halves (per request unless a ratio)."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    caches = {"queries": {}, "labels": {}}
    for partial in partials:
        for name, entry in partial["spans"].items():
            total = spans.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
        for name, value in partial["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for layer in caches:
            for key, value in partial["caches"][layer].items():
                caches[layer][key] = caches[layer].get(key, 0) + value
    requests = max(sum(p["requests"] for p in partials), 1)

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ms(name: str, key: str) -> tuple:
        return (span(name, key) * 1000 / requests, "ms/req")

    def per_request(value: float) -> tuple:
        return (value / requests, "count/req")

    def share(part: float, other: float) -> tuple:
        return (part / (part + other) if part + other else 0.0, "ratio")

    def setup(key: str) -> tuple:
        return (statistics.median(p["setup"][key] for p in partials), "s")

    untraced = _throughput([p["phases"][0] for p in partials])
    traced = _throughput([p["phases"][1] for p in partials])
    queries, labels = caches["queries"], caches["labels"]
    return {
        "web.handle_self_ms": ms("web.handle", "self_s"),
        "web.render_ms": ms("web.render", "inclusive_s"),
        "core.concretize_calls": per_request(span("core.concretize", "calls")),
        "form.fetch_self_ms": ms("form.fetch", "self_s"),
        "form.fetch_calls": per_request(span("form.fetch", "calls")),
        "form.get_ms": ms("form.get", "inclusive_s"),
        "form.get_calls": per_request(span("form.get", "calls")),
        "form.fk_calls": per_request(span("form.fk", "calls")),
        "form.create_ms": ms("form.create", "inclusive_s"),
        "form.policy_evaluations": per_request(counters.get("policy.evaluations", 0)),
        "form.facet_rows": per_request(counters.get("facet.rows.unmarshalled", 0)),
        "pushdown.ensure_ms": ms("pushdown.ensure", "inclusive_s"),
        "pushdown.ensure_calls": per_request(span("pushdown.ensure", "calls")),
        "pushdown.store_refreshes": per_request(counters.get("pushdown.store.refresh", 0)),
        "pushdown.pushed_share": share(counters.get("plan.policy_pushdown", 0),
                                       counters.get("plan.policy_pushdown.opaque_fallback", 0)),
        "db.statements": per_request(span("db.sql", "calls")),
        "db.sql_ms": ms("db.sql", "self_s"),
        "db.rows": per_request(span("db.sql", "rows")),
        "cache.query_hit_rate": share(queries.get("hits", 0), queries.get("misses", 0)),
        "cache.query_evictions": per_request(queries.get("evictions", 0)),
        "cache.label_hit_rate": share(labels.get("hits", 0), labels.get("misses", 0)),
        "setup.seed_s": setup("seed_s"),
        "setup.warmup_s": setup("warmup_s"),
        "trace.overhead": (traced / untraced if untraced else 0.0, "ratio"),
    }


@dataclass
class Result:
    """One benchmark run: the verdict, the metrics and the report lines."""

    attempted: int
    failed: int
    warmup_failures: int
    metrics: Dict[str, tuple]  # name -> (value, unit)
    lines: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.warmup_failures == 0

    def report(self) -> str:
        """The human-readable lines, then the JSON object as the last line."""
        error_rate = self.failed / self.attempted if self.attempted else 0.0
        out = [f"error_rate = {error_rate:.6f} (failed {self.failed} / attempted "
               f"{self.attempted}; {self.warmup_failures} warm-up failures)", *self.lines]
        out += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in self.metrics.items()]
        out.append(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }))
        return "\n".join(out)


def aggregate(workload: Workload, partials: List[dict], trace: bool) -> Result:
    """Fold the children's partial results into one run's result."""
    if trace:
        metrics, lines = per_layer(partials), []
    else:
        metrics, lines = end_to_end(workload, partials)
    phases = [phase for p in partials for phase in p["phases"]]
    return Result(
        sum(phase["attempted"] for phase in phases),
        sum(phase["failed"] for phase in phases),
        sum(p["warmup_failures"] for p in partials),
        metrics, lines,
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Run ``PROCESSES`` children one after the other and aggregate them."""
    partials = []
    for index in range(PROCESSES):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--seconds", repr(seconds / PROCESSES),
            "--trace", str(int(trace)), "--child", str(index),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, check=True)
        partials.append(json.loads(child.stdout.splitlines()[-1]))
    return aggregate(workload, partials, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.child is not None:
        spans_path = RUNS_DIR / f"spans-{workload.name}-seed{args.seed}-{args.child}.jsonl"
        partial = child_run(workload, f"{args.seed}/{args.child}", args.seconds,
                            bool(args.trace), spans_path if args.trace else None)
        print(json.dumps(partial))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(result.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
