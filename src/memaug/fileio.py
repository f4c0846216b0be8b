"""Atomic file replacement for everything the package saves (stores with
their report sidecars, vector indexes, eval reports), and the JSON object
reader its input loaders share."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Callable, Mapping

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


def replace_together(contents: Mapping[Path, str | Callable[[IO[bytes]], object] | None]) -> None:
    """Replace files as one set; readers see each file whole, old or new.

    Each file's new content is a string (written as UTF-8), a writer called
    with the open binary temporary file, or None to remove the file. All
    temporaries are written first; if a write, replace or removal fails, the
    files already changed get their earlier bytes back (or are removed if
    new) before the error re-raises, and no temporary file is left. Only the
    files a later failure could restore, all but the last, have their
    earlier bytes read.
    """
    paths = list(contents)
    previous = {path: path.read_bytes() if path.exists() else None for path in paths[:-1]}
    temps = {path: _temp_path(path) for path, content in contents.items() if content is not None}
    changed: list[Path] = []
    try:
        for path, tmp in temps.items():
            content = contents[path]
            with open(tmp, "wb") as fh:
                if isinstance(content, str):
                    fh.write(content.encode("utf-8"))
                else:
                    content(fh)
        for path in paths:
            if path in temps:
                os.replace(temps[path], path)
            else:
                path.unlink(missing_ok=True)
            changed.append(path)
    except BaseException:
        # Nothing fails once the last file is in place, so it is never restored.
        for path in changed[: len(previous)]:
            if previous[path] is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(previous[path])
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise


def _temp_path(target: Path) -> Path:
    return target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
