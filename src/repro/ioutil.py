"""File I/O shared across the repo: crash-safe writes for checkpoints,
tools and benches, and the one reader of Teapot source files.

Every JSON artifact the repo persists -- checkpoints, fault matrices,
bench reports -- goes through :func:`atomic_write_json`: serialize to a
sibling temp file, ``fsync``, then ``os.replace`` into place.  A crash
mid-write therefore leaves either the previous complete file or a
stray ``*.tmp``, never a parseable-but-partial artifact.
"""

from __future__ import annotations

import json
import os

from repro.lang.errors import TeapotError


def read_source(path: str) -> tuple[bytes, str]:
    """A Teapot source file as ``(bytes, text)``: read once, decoded as
    strict UTF-8.  The bytes key the compile cache, the text feeds the
    front end.  A path that cannot be read (missing, a directory, no
    permission) or does not decode is a :class:`TeapotError` naming it,
    which the CLI prints as one ``error:`` line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data, data.decode("utf-8")
    except OSError as error:
        raise TeapotError(f"{path}: {error.strerror}") from None
    except UnicodeDecodeError as error:
        raise TeapotError(
            f"{path}: not UTF-8 text ({error.reason} at byte "
            f"{error.start})") from None


def atomic_write_json(path: str, payload, indent=None) -> None:
    """Write ``payload`` as JSON to ``path`` atomically (tmp + fsync +
    rename).  The temp file lives next to the target so the rename
    never crosses a filesystem boundary."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=indent)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Write pre-serialized ``text`` with the same tmp + fsync + rename
    discipline, for callers that already hold the bytes (the checkpoint
    writer serializes once and reuses the seal's canonical JSON).

    ``fsync=False`` keeps the rename atomicity (a crashed *process*
    still leaves either the old complete file or the new one) but skips
    the page-cache flush, for high-frequency writers whose durability
    window is the next write anyway -- periodic checkpoints fire many
    times a second and the fsync was a third of their cost."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
