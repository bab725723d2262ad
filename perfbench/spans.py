"""In-memory spans recorded around calls into siterules, and self times.

A span has a name ``<layer>.<call>``, start and end (``perf_counter``
seconds), the id of the span that caused it, and the id of the traced run
it belongs to. A *rerun* span times an inner call separately on the same
inputs after the outer call returned; it is parented to the outer span so
that its duration counts as the outer span's child time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: dict | None = None):
        """Record a span; without ``parent`` it nests in the innermost open span."""
        if parent is not None:
            parent_id = parent["id"]
        else:
            parent_id = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent_id,
            "run": self.run,
            "rerun": parent is not None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    def self_times(self, run: str) -> dict[str, float]:
        """Summed self time per span name within one run: each span's duration
        minus the durations of the spans whose parent it is."""
        spans = [s for s in self.spans if s["run"] == run]
        child: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
