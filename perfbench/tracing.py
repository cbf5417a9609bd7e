"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent, op]: perf_counter times, the index of
the enclosing span (-1 for a root) and the op it belongs to. Spans stay in
memory and are written out once, when the traced process ends. Child
interpreters record their own spans; perf_counter is CLOCK_MONOTONIC on
Linux, so their times line up with the parent's when merged.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def current(self) -> str:
        """Name of the innermost open span ("" at the root)."""
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def adopt(self, spans: list, parent: int) -> None:
        """Merge spans recorded by a child process under span `parent`."""
        offset = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            up = parent if child_parent < 0 else child_parent + offset
            self.spans.append([name, start, end, up, self.op])

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load(path) -> list:
    with open(path) as handle:
        return json.load(handle)


@contextmanager
def patched(patches):
    """Swap (module, attribute, replacement) triples in, restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_self(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's.

    Spans nest strictly (one thread per process), so the direct children's
    durations are exactly the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, span_self(spans)):
        totals[span[0]] += own
    return dict(totals)
