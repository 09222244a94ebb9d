"""How every output file is written: to ``<path>.tmp``, which replaces
``path`` only once the write is complete."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing.  On a clean exit it replaces
    ``path``; on an error it is removed, so a write that fails part-way
    leaves any previous file at ``path`` as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def link(src, path) -> None:
    """Give the file ``src`` the second name ``path``, a hard link, so no
    byte is written.  The link is made at ``<path>.tmp`` and then replaces
    ``path``, as every write does."""
    tmp = f"{os.fspath(path)}.tmp"
    if os.path.lexists(tmp):
        os.remove(tmp)
    os.link(src, tmp)
    os.replace(tmp, path)
