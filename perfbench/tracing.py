"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the lozo modules from the benchmark's
own code: a public function is replaced, for the duration of a traced
section, by a wrapper that records (name, start, end, parent, tag). Nothing
inside lozo is changed. Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


class Tracer:
    """Collects nested spans; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []

    def begin(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1], tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a traced wrapper until unpatch_all()."""
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._patches.append((owner, attr, previous))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                kids[s[3]].append(i)
        return kids

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def duration_ns(span) -> int:
    return span[2] - span[1]


def self_ns(tracer: Tracer, kids: dict[int, list[int]], idx: int, only: tuple[str, ...] = ()) -> int:
    """Span duration minus its children (or only the children named in `only`)."""
    spans = tracer.spans
    covered = sum(duration_ns(spans[c]) for c in kids.get(idx, ()) if not only or spans[c][0] in only)
    return duration_ns(spans[idx]) - covered
