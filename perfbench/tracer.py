"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces a fixed set of the program's public functions with
thin wrappers for the duration of a ``with`` block, and attaches a
statement observer to the database.  Every call becomes a span
``[name, start, end, parent, request, rows]`` kept in memory: ``parent`` is
the index of the span that was open when the call began (``-1`` at the
top), ``request`` numbers the ``web.handle`` span the call ran under, and
``rows`` is set on ``db.sql`` leaves only.  :meth:`Tracer.write` dumps the
spans as JSON lines when the run ends.

Times are derived from the spans:

* *self time* of a span is its duration minus its children's durations
  (children never overlap: one thread issues every request);
* *inclusive time* of a name sums only its outermost spans, so a function
  that re-enters itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core.runtime import JeevesRuntime
from repro.form.manager import Manager, QuerySet
from repro.form.pushdown import LabelAssignmentStore
import repro.web.app as web_app

#: span name -> (owner, attribute) of the wrapped public function
WRAPPED: Dict[str, Tuple[Any, str]] = {
    "web.handle": (web_app.Application, "handle"),
    "web.render": (web_app, "render_template"),
    "core.concretize": (JeevesRuntime, "concretize"),
    "form.fetch": (QuerySet, "fetch"),
    "form.get": (Manager, "get"),
    "form.fk": (Manager, "get_by_jid"),
    "form.create": (Manager, "create"),
    "pushdown.ensure": (LabelAssignmentStore, "ensure"),
}

NAME, START, END, PARENT, REQUEST, ROWS = range(6)


class Tracer:
    """Record spans for the calls made inside ``with tracer.install(database):``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.requests = 0

    # -- recording ------------------------------------------------------------------

    def _wrap(self, name: str, function):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "web.handle":
                self.requests += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1, self.requests, None])
            open_.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][END] = clock()

        traced.__wrapped__ = function
        return traced

    def _on_statement(self, event) -> None:
        end = time.perf_counter()
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            ["db.sql", end - event.duration, end, parent, self.requests, event.rows]
        )

    @contextlib.contextmanager
    def install(self, database):
        """Wrap the layer functions and observe ``database`` inside the block."""
        saved = []
        for name, (owner, attribute) in WRAPPED.items():
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        database.backend.add_statement_observer(self._on_statement)
        try:
            yield self
        finally:
            database.backend.remove_statement_observer(self._on_statement)
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- derived times ----------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``inclusive_s`` and ``rows``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            name = span[NAME]
            entry = totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "rows": 0}
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["rows"] += span[ROWS] or 0
            if not self._has_ancestor(index, name):
                entry["inclusive_s"] += duration
        return totals

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request", "rows")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
