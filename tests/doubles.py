"""Test doubles for the chat backend protocol."""

from typing import Sequence


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
