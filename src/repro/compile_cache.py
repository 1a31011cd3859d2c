"""The compile cache: a ``.tea`` file is compiled once per source, not
once per process (DESIGN.md, "Cold start").

:func:`compile_file` is the one way a file becomes a
:class:`CompiledProtocol`.  Behind it sit the protocols this process
already holds and, on disk, one *entry* per (file, opt level, flavor) in
the ``__pycache__/`` beside the source: the key, then a pickle of the
protocol and of the marshalled code objects of its handlers
(``CompiledProtocol.handler_code``), each compiled -- one at a time, as
on first dispatch -- when the entry is written.

Anything but a complete entry under the right key is a miss, rebuilt
and overwritten without a word; a location that cannot be written means
no entry, also without a word.  Trust is ``.pyc``'s: entries sit where
byte code sits, whoever can write one can write the other, and no flag,
option or file argument names one.  Unlike ``.pyc`` files they are
written whatever ``sys.dont_write_bytecode`` says; deleting
``__pycache__/`` clears them.
"""

from __future__ import annotations

import marshal
import os
import pickle
from contextlib import suppress
from functools import lru_cache
from hashlib import blake2b
from importlib.util import MAGIC_NUMBER
from typing import Optional

import repro
from repro.ioutil import read_source
from repro.runtime.protocol import CompiledProtocol, Flavor, OptLevel

# What this process has loaded or built, by key.  The objects are shared:
# callers must not mutate them (code that wants a private protocol to
# patch compiles source text through compile_source).
_LOADED: dict = {}


@lru_cache(maxsize=None)
def _toolchain_stamp() -> bytes:
    """Name, size and ``mtime_ns`` of every source file whose code
    shapes an entry: the front end, the middle end, the Python back end
    and the classes that are pickled."""
    root = os.path.dirname(__file__)
    files = [os.path.join(root, "backends", "python_backend.py"),
             os.path.join(root, "runtime", "protocol.py")]
    for package in ("lang", "compiler"):
        files += (entry.path
                  for entry in os.scandir(os.path.join(root, package))
                  if entry.name.endswith(".py"))
    stats = ((os.path.relpath(file, root), os.stat(file))
             for file in sorted(files))
    return repr([(name, info.st_size, info.st_mtime_ns)
                 for name, info in stats]).encode()


def _key(data: bytes, opt_level: OptLevel, flavor: Flavor,
         initial_states: Optional[tuple[str, str]]) -> bytes:
    """Everything an entry depends on: an edited source, another
    configuration, release, interpreter (``MAGIC_NUMBER`` is the marshal
    format) or an edited compiler each miss."""
    config = repr((opt_level.name, flavor.value, initial_states,
                   repro.__version__)).encode()
    digest = blake2b(digest_size=16)
    for part in (data, config, MAGIC_NUMBER, _toolchain_stamp()):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.digest()


def compile_file(path: str,
                 opt_level: OptLevel = OptLevel.O2,
                 flavor: Flavor = Flavor.TEAPOT,
                 initial_states: Optional[tuple[str, str]] = None,
                 ) -> CompiledProtocol:
    """The compiled form of the ``.tea`` file at ``path``: from the
    cache when its key matches, else compiled and cached."""
    data, text = read_source(path)
    key = _key(data, opt_level, flavor, initial_states)
    protocol = _LOADED.get(key)
    if protocol is None:
        directory, name = os.path.split(path)
        slot = os.path.join(
            directory, "__pycache__",
            f"{name}.{opt_level.name}-{flavor.value}.compiled")
        protocol = _read_entry(slot, key)
        if protocol is None:
            from repro.compiler.pipeline import compile_source

            protocol = compile_source(text, opt_level, flavor,
                                      initial_states, filename=path)
            _write_entry(slot, key, protocol)
        _LOADED[key] = protocol
    return protocol


def _read_entry(slot: str, key: bytes) -> Optional[CompiledProtocol]:
    try:
        with open(slot, "rb") as handle:
            blob = handle.read()
        if blob[:len(key)] != key:
            return None
        protocol, code = pickle.loads(memoryview(blob)[len(key):])
        protocol.handler_code = marshal.loads(code)
    except Exception:
        # Corrupt bytes can make pickle and marshal raise nearly
        # anything; whatever it is, the entry is unusable: a miss.
        return None
    return protocol


def _write_entry(slot: str, key: bytes, protocol: CompiledProtocol) -> None:
    from repro.backends.python_backend import emit_handler, emit_header

    # A temp file per process, then os.replace: readers see a whole
    # entry or none, and two writers never share a temp file.
    tmp = f"{slot}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(slot), exist_ok=True)
        with open(tmp, "wb") as handle:
            filename = f"<{protocol.name}.py>"
            code = {"": compile(emit_header(protocol), filename, "exec")}
            for handler in protocol.handlers.values():
                code[handler.qualified_name] = compile(
                    emit_handler(protocol, handler), filename, "exec")
            handle.write(key)
            pickle.dump((protocol, marshal.dumps(code)), handle,
                        pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, slot)
        protocol.handler_code = code
    except OSError:
        pass    # cannot write here: no entry, as for a .pyc
    finally:
        with suppress(OSError):
            os.unlink(tmp)
