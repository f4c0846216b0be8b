"""Tests for the atomic writer every saved file goes through."""

import os
from pathlib import Path

import pytest

from memaug.fileio import replace_together


def test_one_file_replace_reads_no_old_bytes(tmp_path, monkeypatch):
    # A single file is the last one replaced, so no failure can need its
    # earlier bytes back.
    path = tmp_path / "big.bin"
    path.write_bytes(b"old")

    def no_read(self):
        raise AssertionError(f"read {self}")

    monkeypatch.setattr(Path, "read_bytes", no_read)
    replace_together({path: lambda fh: fh.write(b"new \xff")})
    monkeypatch.undo()
    assert path.read_bytes() == b"new \xff"
    assert [p.name for p in tmp_path.iterdir()] == ["big.bin"]


def test_strings_are_written_as_utf8_and_writers_get_binary_files(tmp_path):
    text, data = tmp_path / "a.txt", tmp_path / "b.bin"
    replace_together({text: "café\n", data: lambda fh: fh.write(b"\x00\x01")})
    assert text.read_bytes() == "café\n".encode("utf-8")
    assert data.read_bytes() == b"\x00\x01"


def test_failed_last_replace_restores_the_earlier_files(tmp_path, monkeypatch):
    first, gone, last = tmp_path / "first", tmp_path / "gone", tmp_path / "last"
    first.write_bytes(b"first")
    gone.write_bytes(b"gone")
    real_replace = os.replace

    def fail_on_last(src, dst):
        if Path(dst) == last:
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr("memaug.fileio.os.replace", fail_on_last)
    with pytest.raises(OSError):
        replace_together({first: "new", gone: None, last: "new"})
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == [
        ("first", b"first"), ("gone", b"gone"),
    ]
