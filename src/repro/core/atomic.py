"""Atomic file publication for the on-disk stores.

The result cache, the demand-trace store and the workload store all
publish immutable entries that concurrent readers and writers may race
on.  :func:`atomic_write_text` writes to a temporary file in the target
directory and :func:`os.replace`\\ s it into place, so a crashed or
concurrent writer can never leave a truncated file a later reader would
trust: the path holds either nothing or a complete document.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path`` atomically, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
