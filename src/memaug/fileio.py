"""Atomic file replacement for everything the package saves, and the JSON
object reader its input loaders share."""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping

from .errors import SchemaError


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; a missing file raises ``FileNotFoundError``
    ("<what> not found"), anything but a JSON object :class:`SchemaError`."""
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"{what} not found: {source}")
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"{what} {source} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{what} {source} must hold a JSON object, not {type(data).__name__}")
    return data


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write a temporary file beside ``path``; on success it replaces ``path``.

    Readers see the old file or the whole new one, never a partial write.
    If the body raises, the temporary file is removed and ``path`` is left
    as it was. Text modes write UTF-8.
    """
    target = Path(path)
    tmp = _temp_path(target)
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def replace_together(contents: Mapping[Path, str | Callable[[IO[str]], object] | None]) -> None:
    """Replace UTF-8 text files as one set.

    Each file's new content is a string, a writer called with the open
    temporary file, or None to remove the file. All temporaries are written
    first; if a write, replace or removal fails, the files already changed
    get their earlier bytes back (or are removed if new) before the error
    re-raises, and no temporary file is left.
    """
    previous = {path: path.read_bytes() if path.exists() else None for path in contents}
    temps = {path: _temp_path(path) for path, content in contents.items() if content is not None}
    changed: list[Path] = []
    try:
        for path, tmp in temps.items():
            content = contents[path]
            with open(tmp, "w", encoding="utf-8") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    content(fh)
        for path in contents:
            if path in temps:
                os.replace(temps[path], path)
            else:
                path.unlink(missing_ok=True)
            changed.append(path)
    except BaseException:
        for path in changed:
            if previous[path] is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(previous[path])
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise


def _temp_path(target: Path) -> Path:
    return target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
