"""Whole-or-nothing output files.

Every file lexstable writes goes through ``atomic_write``: the text goes
to a temporary file in the target's directory, which replaces the target
only once it is complete. A run that fails or is interrupted midway
leaves any earlier file at the path as it was, and no partial one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Open ``path`` for writing UTF-8 text with ``\\n`` line endings.

    The file handed out is a temporary one beside ``path``; on a clean
    exit it is closed and moved onto ``path`` with ``os.replace``. On any
    exception it is deleted and the exception propagates. Data is not
    fsynced: the guarantee covers a failing run, not a power cut.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        exc.filename = path  # name the output asked for, not the temporary file
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
