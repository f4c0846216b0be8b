"""A chat backend that stands in for a remote LLM by waiting before it answers."""

from __future__ import annotations

import threading
import time
from collections import Counter

# Calls kept per template id for the response self-check.
SAMPLE_PER_TEMPLATE = 16


class LatencyChatBackend:
    """Sleeps ``delay_s`` per call, then answers with the wrapped backend.

    The sleep releases the interpreter lock as a network wait would, so a
    thread pool overlaps it. Calls and prompt characters are counted by
    template id; wait (the injected delay) and busy (the wrapped backend's
    own compute) time are summed separately. The first calls of every
    template are kept so that :meth:`mismatches` can show the responses are
    the wrapped backend's own.
    """

    def __init__(self, inner, delay_s: float):
        if delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        self.inner = inner
        self.delay_s = delay_s
        self.calls: Counter[str] = Counter()
        self.prompt_chars: Counter[str] = Counter()
        self.wait_s = 0.0
        self.busy_s = 0.0
        self.sample: list[tuple[str, object, str | None, str]] = []
        self._lock = threading.Lock()

    def complete(self, prompt, *, template=None, payload=None) -> str:
        start = time.perf_counter()
        time.sleep(self.delay_s)
        woke = time.perf_counter()
        response = self.inner.complete(prompt, template=template, payload=payload)
        done = time.perf_counter()
        template_id = template.id if template is not None else "none"
        with self._lock:
            self.calls[template_id] += 1
            self.prompt_chars[template_id] += len(prompt)
            self.wait_s += woke - start
            self.busy_s += done - woke
            if self.calls[template_id] <= SAMPLE_PER_TEMPLATE:
                self.sample.append((prompt, template, payload, response))
        return response

    def totals(self) -> tuple[int, float]:
        """(calls so far, seconds they spent in the injected wait)."""
        with self._lock:
            return sum(self.calls.values()), self.wait_s

    def mismatches(self, reference) -> int:
        """Sampled calls whose response differs from ``reference``'s answer."""
        return sum(
            reference.complete(prompt, template=template, payload=payload) != response
            for prompt, template, payload, response in self.sample
        )
