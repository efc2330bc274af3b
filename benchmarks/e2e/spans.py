"""In-memory spans around the calls into each layer.

The traced run records one span per layer boundary — name, start, end,
parent, sample id — from the benchmark's own files; nothing inside
``src/`` is instrumented.  Spans stay in a list until the run ends and
are then written out once.  The untraced run never touches this module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Recorder:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, sample: int) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "sample": sample,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> dict[int, float]:
        """Summed duration of the spans called *name*, per sample."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                out[s["sample"]] = out.get(s["sample"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: str, header: Optional[dict] = None) -> None:
        with open(path, "w") as f:
            json.dump({"header": header or {}, "spans": self.spans}, f)


def self_times(spans: list[dict]) -> dict[int, float]:
    """A span's self time: its duration minus its children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
