"""In-memory span tracer for the traced benchmark run.

A span records name, start, end, parent span, op id and thread. Spans are
taken by replacing a callable at the name its caller looks up (a class
attribute, a module global) with a timing wrapper, and every replacement is
undone by :meth:`Tracer.uninstall`. Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.

Work fanned out to a thread pool has no span open in its own thread; its
parent is the innermost span open in the thread that created the tracer,
which is blocked waiting for the pool.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError
from pathlib import Path

_MISSING = object()


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, op id, thread id); list.append
        # is atomic, so pool threads can record without a lock.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.active = True  # False runs wrapped calls without spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span; ``name`` may be a function of the arguments.

        ``hook(args, kwargs, result, seconds)`` runs after a successful call,
        outside the span, to record counts.
        """
        if not self.active:
            return fn(*args, **kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, span_name, start, end, parent, self.op, threading.get_ident())
            )
        if hook is not None:
            hook(args, kwargs, result, end - start)
        return result

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Trace every call made through ``owner.attr`` until uninstall."""
        original = getattr(owner, attr)
        prior = vars(owner).get(attr, _MISSING)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, hook=hook, **kwargs)

        _set(owner, attr, traced)
        self._patches.append((owner, attr, prior))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, prior = self._patches.pop()
            if prior is _MISSING:
                _delete(owner, attr)
            else:
                _set(owner, attr, prior)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            children[parent].append((start, end))
        result = {}
        for span_id, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span_id] = (end - start) - covered
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and total self seconds."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, name, start, end, _, _, _ in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own[span_id]
        return dict(table)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps(span) + "\n")


def _set(owner, attr, value) -> None:
    try:
        setattr(owner, attr, value)
    except FrozenInstanceError:
        object.__setattr__(owner, attr, value)


def _delete(owner, attr) -> None:
    try:
        delattr(owner, attr)
    except FrozenInstanceError:
        object.__delattr__(owner, attr)
