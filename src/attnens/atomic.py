"""Whole-file replacement for every artifact the package writes.

A writer fills a fresh temporary file in the target's directory and, once
the file is complete and closed, moves it over the target with
``os.replace``.  Readers then see the old file or the new one, never a
partial write: a run that fails or is killed while saving leaves the
previous artifact as it was.  (The rename is atomic; the data is not
fsynced, so this guards against a dying process, not a power cut.)
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a temporary beside ``path`` for writing; replace ``path`` on success.

    ``mode`` is a write mode (``"w"`` or ``"wb"``) and ``kwargs`` go to
    ``open``.  If the block raises, the temporary is removed and ``path`` is
    untouched.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
    f = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
