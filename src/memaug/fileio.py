"""Atomic file replacement for everything the package saves."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write a temporary file beside ``path``; on success it replaces ``path``.

    Readers see the old file or the whole new one, never a partial write.
    If the body raises, the temporary file is removed and ``path`` is left
    as it was. Text modes write UTF-8.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
