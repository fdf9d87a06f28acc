"""Host-speed calibration: a fixed piece of work timed next to the requests.

On a shared virtual machine the same request can run up to twice as slow
for stretches of a fraction of a second to minutes, and the process's own
CPU clock slows with it, so neither wall nor CPU time of a request is
steady from run to run.  :class:`Calibration` times a fixed *kernel* that
does the same kinds of work as a request — an SQLite query on an in-memory
table, rows turned into dicts, grouping, HTML rendering — but uses none of
the program's code.  The timed loop runs the kernel between consecutive
requests, so every request has a kernel run just before and just after it;
their mean measures how fast the host ran during the request, and the
request's time is scaled by ``REFERENCE_KERNEL_S / mean``.  (Host speed
changes within a second: scaling by the median kernel time of one-second
or longer windows left the tails several times noisier.)

A normalised latency is therefore the request's time on a host on which
the kernel takes ``REFERENCE_KERNEL_S``: about what the benchmark's 2-vCPU
development VM gives when nothing else loads its host.  A change to the
program moves the normalised figures as it moves the raw ones (up to the
small cold-start effect described at :meth:`Calibration.kernel`); a slower
or busier host moves both the requests and the kernel, and cancels.
The raw figures and the speed factor are printed next to the normalised
ones.
"""

from __future__ import annotations

import gc
import html
import sqlite3
import statistics
import time
from typing import Dict

#: kernel time, in seconds, of the reference host the figures are scaled to
REFERENCE_KERNEL_S = 0.0005

_ROWS = 240


class Calibration:
    """The kernel, on its own in-memory SQLite table."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            "CREATE TABLE paper (id INTEGER PRIMARY KEY, title TEXT, author INTEGER, score INTEGER)"
        )
        self._db.execute("CREATE INDEX paper_score ON paper (score)")
        self._db.executemany(
            "INSERT INTO paper VALUES (?, ?, ?, ?)",
            [(i, f"Paper <{i}> & co", i % 37, i % 5) for i in range(_ROWS)],
        )

    def _page(self) -> str:
        rows = self._db.execute(
            "SELECT id, title, author, score FROM paper WHERE score >= ? ORDER BY id", (0,)
        ).fetchall()
        records = [{"id": r[0], "title": r[1], "author": r[2], "score": r[3]} for r in rows]
        by_author: Dict[int, list] = {}
        for record in records:
            by_author.setdefault(record["author"], []).append(record)
        return "".join(
            f"<li>{html.escape(r['title'])} by {r['author']} "
            f"({len(by_author[r['author']])} papers, score {r['score']})</li>"
            for r in records
        )

    def kernel(self) -> float:
        """Run the kernel once with the collector off; its seconds.

        The kernel starts cold, as a request does: the request before it
        has evicted its code and data from the CPU caches.  On a contended
        host a cold start slows more than a warm one, and a cold kernel
        tracks the requests' slowdown best (a kernel warmed by an untimed
        first pass left the churn workload's write percentiles about half
        again as noisy).  The price is that a request which touches much
        more memory also slows the kernel run after it a little, and so
        understates its own slowdown by a little: the whole cold-start
        penalty of the kernel is about a tenth of its time."""
        gc.disable()
        try:
            started = time.perf_counter()
            page = self._page()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        assert len(page) > _ROWS
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        """The speed factor of a stretch between kernel runs of ``before`` and
        ``after`` seconds."""
        return 2 * REFERENCE_KERNEL_S / (before + after)

    def median_kernel(self, repeats: int = 5) -> float:
        """The median of ``repeats`` kernel runs made now."""
        return statistics.median(self.kernel() for _ in range(repeats))
