"""Span recording for the traced replay, and layer self times from the spans.

A span is one call into a layer, recorded from the benchmark's own code:
name, start, end, the index of the enclosing span (-1 for a root) and a tag
naming the trial or call it belongs to.  Spans stay in memory until
`write_jsonl` is called at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: every span is a no-op, so the replay's own cost remains."""

    enabled = False
    _null = nullcontext()

    def span(self, name, tag=None):
        return self._null


class Tracer:
    """Tracing on: records every span in a flat list, parents by index."""

    enabled = True

    def __init__(self):
        # [name, parent index, tag, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, tag=None):
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][2]
        index = len(self.spans)
        record = [name, parent, tag, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = perf_counter()

    def self_times(self) -> tuple[dict, dict, float]:
        """Per-name (self seconds, span count) and the summed root duration.

        A span's self time is its duration minus the durations of its direct
        children; the spans are strictly nested because the replay is
        single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, parent, _tag, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        count: dict = defaultdict(int)
        root_total = 0.0
        for i, (name, parent, _tag, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            count[name] += 1
            if parent < 0:
                root_total += end - start
        return dict(self_s), dict(count), root_total

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, tag, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "tag": tag, "start": start, "end": end}))
                fh.write("\n")
