"""File I/O shared across the repo: the one reader and the one writer
of every file the repo persists (docs/OBSERVABILITY.md, "Artifacts",
lists the JSON kinds, their version keys and ``json.dumps`` keywords).

Reading.  One strict read (bytes -> UTF-8) sits under
:func:`read_source` (Teapot sources), :func:`read_json` (check profile,
coverage report, metrics export, fault plan, checkpoint -- the state
atlas is one) and :func:`read_text` (the JSONL trace loader's lines).
Each failure -- missing, a directory, no permission, not UTF-8, empty,
not JSON, not an object and, through :func:`check_envelope`, a wrong
``kind`` or version -- is one ``"<path>: ..."`` line of the error class
the caller passes in, so this module imports none of theirs.

Writing.  Every artifact goes through :func:`atomic_write_json` (or
:func:`atomic_write_text`, for a caller that holds the text): a sibling
temp file, ``fsync``, then ``os.replace`` into place.  A crash mid-write
leaves the previous complete file or a stray ``*.tmp``, never a
parseable-but-partial artifact; a write that *raises* removes its temp
file; :func:`check_output_paths` refuses a destination before the run.
"""

from __future__ import annotations

import contextlib
import errno
import os

from repro.lang.errors import TeapotError


def _read_strict(path: str, error, missing: str) -> tuple[bytes, str]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data, data.decode("utf-8")
    except FileNotFoundError:
        raise error(f"{path}: {missing}") from None
    except OSError as failure:
        raise error(f"{path}: {failure.strerror}") from None
    except UnicodeDecodeError as failure:
        raise error(f"{path}: not UTF-8 text ({failure.reason} at byte "
                    f"{failure.start})") from None


def read_text(path: str, error) -> str:
    """``path`` decoded as strict UTF-8, or one ``error`` line naming it:
    ``no such file``, else the OS's words (a directory, no permission)."""
    return _read_strict(path, error, "no such file")[1]


def read_source(path: str) -> tuple[bytes, str]:
    """A Teapot source file as ``(bytes, text)``: read once, decoded as
    strict UTF-8.  The bytes key the compile cache, the text feeds the
    front end.  A path that cannot be read (missing, a directory, no
    permission) or does not decode is a :class:`TeapotError` naming it,
    which the CLI prints as one ``error:`` line."""
    return _read_strict(path, TeapotError, os.strerror(errno.ENOENT))


def parse_json_object(text: str, path: str, error, what: str) -> dict:
    """The JSON object ``text`` (the content of ``path``) holds; ``what``
    names the artifact expected there ("check profile")."""
    import json     # here, not at the top: a plain verify reads and writes none

    if not text.strip():
        raise error(f"{path}: empty file")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as failure:
        raise error(f"{path}: not valid JSON ({failure.msg} at line "
                    f"{failure.lineno})") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: not a {what} (not an object)")
    return payload


def read_json(path: str, error, what: str) -> dict:
    """File -> JSON object, every failure one ``error`` line."""
    return parse_json_object(read_text(path, error), path, error, what)


def check_envelope(payload: dict, path: str, error, what: str, source: str,
                   kind: str, version: int, version_key="version") -> dict:
    """``payload`` if it carries this build's ``kind`` and version of a
    ``what``; ``source`` is the command that writes one."""
    if payload.get("kind") != kind:
        raise error(f"{path}: not a {what} (kind={payload.get('kind')!r}); "
                    f"expected a `{source}` export")
    if payload.get(version_key) != version:
        raise error(f"{path}: {what} version {payload.get(version_key)!r}, "
                    f"expected {version} -- regenerate with `{source}`")
    return payload


def check_output_paths(error, *paths) -> None:
    """Refuse, before the run that would fill them, ``paths`` (None
    skipped) whose directory is missing or not writable, as ``error``."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(parent, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        raise error(f"{path}: {os.strerror(code)}")


def atomic_write_json(path: str, payload, **dumps) -> None:
    """Write ``payload`` as JSON plus a newline to ``path`` atomically;
    ``dumps`` are the ``json.dumps`` keywords of the artifact's format
    (``indent``, ``sort_keys``, ``separators``).  Serialized before the
    temp file is opened, so a payload that does not serialize touches
    nothing on disk."""
    import json

    atomic_write_text(path, json.dumps(payload, **dumps) + "\n")


def atomic_write_text(path: str, text, fsync: bool = True) -> None:
    """Write ``text`` -- a string, or an iterable of byte pieces written
    as they come -- to ``path`` atomically (tmp + fsync + rename).  The
    temp file lives next to the target so the rename never crosses a
    filesystem boundary, and is removed if the write raises.

    ``fsync=False`` keeps the rename atomicity (a crashed *process*
    still leaves either the old complete file or the new one) but skips
    the page-cache flush, for writers whose durability window is the
    next write anyway -- checkpoint snapshots, where the fsync was a
    third of a write's cost."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.writelines([text.encode()] if isinstance(text, str)
                              else text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
