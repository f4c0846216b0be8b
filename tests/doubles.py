"""Test doubles for the chat backend protocol."""

import hashlib
import threading
from collections import Counter
from typing import Sequence

from memaug.annotations import parse_turn_annotations, render_annotation
from memaug.errors import BackendRefusal, TransportError


class StaticChatBackend:
    """Returns canned responses in order; repeats the last one when exhausted.

    Useful in tests for failure paths (empty responses, refusals).
    """

    def __init__(self, responses: Sequence[str]):
        if not responses:
            raise ValueError("at least one response is required")
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt, *, template=None, payload=None) -> str:
        index = min(self.calls, len(self.responses) - 1)
        self.calls += 1
        return self.responses[index]


class CountingChatBackend:
    """Wraps a backend and counts its calls by template id; safe across threads."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self._lock = threading.Lock()

    def complete(self, prompt, *, template=None, payload=None) -> str:
        with self._lock:
            self.calls[template.id] += 1
        return self.inner.complete(prompt, template=template, payload=payload)


class FlakyChatBackend:
    """Wraps a backend and fails some calls, chosen by :func:`flaky_outcome`.

    The attempt number counts earlier calls with the same payload, so the
    outcome of a call never depends on the order in which threads make them.
    """

    def __init__(self, inner):
        self.inner = inner
        self.attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt, *, template=None, payload=None) -> str:
        key = prompt if payload is None else payload
        with self._lock:
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
        outcome = flaky_outcome(key, attempt)
        if outcome == "transport":
            raise TransportError(f"injected transport error (attempt {attempt})", transient=True)
        if outcome == "refusal":
            raise BackendRefusal("injected refusal")
        if outcome == "unparseable":
            return "no pairs in this reply"
        return self.inner.complete(prompt, template=template, payload=payload)


FLAKY_OUTCOMES = ("ok", "transport", "refusal", "unparseable")


def flaky_outcome(payload: str, attempt: int) -> str:
    """What :class:`FlakyChatBackend` does on call ``attempt`` for ``payload``."""
    digest = hashlib.sha256(f"{attempt}\n{payload}".encode("utf-8")).digest()
    return FLAKY_OUTCOMES[digest[0] % len(FLAKY_OUTCOMES)]


SESSION_FAULTS = ("refusal", "transport", "drop", "no_pairs", "repeat")


class SessionFaultChatBackend:
    """Wraps a turn-scoped backend and spoils every reply to a prompt of more than one turn.

    A one-line payload gets the wrapped backend's reply. A longer one is
    refused, fails in transport, or is answered line by line with one
    line's group dropped, emptied of its pairs, or repeated ahead of itself
    with the pairs of the next line's group, as ``fault`` says. The line is
    picked by a hash of the payload, so the reply never depends on the
    order in which threads call.
    """

    def __init__(self, inner, fault: str):
        if fault not in SESSION_FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        self.inner = inner
        self.fault = fault

    def complete(self, prompt, *, template=None, payload=None) -> str:
        lines = payload.splitlines()
        if len(lines) < 2:
            return self.inner.complete(prompt, template=template, payload=payload)
        if self.fault == "refusal":
            raise BackendRefusal("injected session refusal")
        if self.fault == "transport":
            raise TransportError("injected session transport error", transient=True)
        groups = [self.inner.complete(line, template=template, payload=line) for line in lines]
        victim = hashlib.sha256(payload.encode("utf-8")).digest()[0] % len(groups)
        if self.fault == "drop":
            del groups[victim]
        elif self.fault == "no_pairs":
            groups[victim] = _regroup(groups[victim], "")
        else:
            others = parse_turn_annotations(groups[(victim + 1) % len(groups)])
            pairs = " ".join(render_annotation(group.annotation) for group in others)
            groups.insert(victim, _regroup(groups[victim], pairs))
        return "".join(groups)


def _regroup(reply: str, pairs: str) -> str:
    """The turn groups of ``reply`` with ``pairs`` in place of their own."""
    return "".join(
        f"{{{group.speaker}:[{group.dialog_id}]:{pairs}}}" for group in parse_turn_annotations(reply)
    )
