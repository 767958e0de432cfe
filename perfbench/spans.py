"""In-memory span recorder for the traced run.

A span is (id, name, start, end, parent). Spans are kept in a list and
written out once, when the run ends. A span's self time is its duration
minus the durations of its children. Probe spans time a layer that the
engine fuses into a larger call (for example the in-batch combine inside
``series_all_tiers``): they run just before the root span, on the same
input, and are attributed to the fused call as its children, so the
fused call's self time is the remaining layer (the fold).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Record ``name`` around the block, as a child of the enclosing
        span; yields the span id (or None when tracing is off)."""
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None, "parent": parent, "probe": probe}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def adopt(self, child: int, parent: int) -> None:
        """Attribute an already recorded probe span to ``parent``."""
        self.spans[child]["parent"] = parent

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str, facts: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"facts": facts, "spans": self.spans}, fh)
