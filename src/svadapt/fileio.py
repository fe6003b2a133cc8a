"""File helpers shared by the readers and writers.

Reads: every reader opens its file through `reading`, so a missing or
unreadable file raises DataError naming it, and in a line-record file a
malformed or non-UTF-8 line raises ParseError naming it. Atomic writes: a
writer fills a temp file beside the target, and only a write that
completes replaces the target, in one `os.replace`."""

from __future__ import annotations

import io
import os
from contextlib import contextmanager

from .errors import DataError, ParseError


@contextmanager
def reading(path, what: str, mode: str = "rb", **open_kwargs):
    """The file at `path`, open for reading. A missing file raises
    DataError "{what} {path} not found", and any other OSError from opening
    or reading it DataError "cannot read {what} {path}: {strerror}"."""
    try:
        with open(path, mode, **open_kwargs) as fh:
            yield fh
    except FileNotFoundError as exc:
        raise DataError(f"{what} {path} not found") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new temp file in `path`'s directory for writing (`mode` is
    "w" or "wb"). When the block ends normally the temp file replaces
    `path`; when it raises, the temp file is removed and `path` is left
    as it was. An OSError names `path`, not the temp file. The file gets
    the permissions a new file made by `open` gets; it is not fsynced."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def text_records(path, n_fields: int, what: str):
    """(line number, fields) of each line of a UTF-8 text file, split on
    whitespace, with line breaks as text mode reads them: "\n", "\r\n"
    and a lone "\r". A byte that is not UTF-8, or a line without exactly
    `n_fields` fields, raises ParseError naming its line; a file that
    cannot be read raises DataError naming `what` and `path`."""
    with reading(path, what) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        parts = line.split()
        if len(parts) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: a {what} line has {n_fields} fields, got {line.rstrip()!r}"
            )
        yield lineno, parts
