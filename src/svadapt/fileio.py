"""Atomic file writes: a writer fills a temp file beside the target, and
only a write that completes replaces the target, in one `os.replace`."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new temp file in `path`'s directory for writing (`mode` is
    "w" or "wb"). When the block ends normally the temp file replaces
    `path`; when it raises, the temp file is removed and `path` is left
    as it was. The file gets the permissions a new file made by `open`
    gets; it is not fsynced."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    except OSError as exc:
        # name the target, as a plain open(path) would, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
