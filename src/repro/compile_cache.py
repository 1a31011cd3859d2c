"""The compile cache: a ``.tea`` file is compiled once per source, not
once per process (DESIGN.md, "Cold start").

:func:`compile_file` is the one way a file becomes a
:class:`CompiledProtocol`.  Behind it sit the protocols this process
already holds and, on disk, one *entry* per (file, opt level, flavor) in
the ``__pycache__/`` beside the source: the key, then two sections.  The
first is a pickle of the protocol's run tables with the marshalled code
objects of its handlers (``CompiledProtocol.handler_code``), each
compiled -- one at a time, as on first dispatch -- when the entry is
written; the second is a pickle of its IR (:class:`ProtocolIR`).  A hit
unpickles the first section only.  The second is unpickled when
something first asks for ``protocol.ir`` -- an emitter, ``analysis/``,
the reference interpreter -- so a run that only executes never imports
the AST, IR or type-checker modules.

Anything but a complete first section under the right key is a miss,
rebuilt and overwritten without a word; an IR section that does not
unpickle is rebuilt the same way, from the source the entry was keyed
on, when it is asked for.  A location that cannot be written means no
entry, also without a word.  Trust is ``.pyc``'s: entries sit where
byte code sits, whoever can write one can write the other, and no flag,
option or file argument names one.  Unlike ``.pyc`` files they are
written whatever ``sys.dont_write_bytecode`` says; deleting
``__pycache__/`` clears them.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress
from dataclasses import replace
from functools import lru_cache
from importlib.util import MAGIC_NUMBER
from typing import NamedTuple, Optional

from _blake2 import blake2b     # hashlib's, without its OpenSSL load

import repro
from repro.ioutil import read_source
from repro.runtime.protocol import (
    CompiledProtocol,
    Flavor,
    OptLevel,
    ProtocolIR,
)

# What this process has loaded or built, by key.  The objects are shared:
# callers must not mutate them (code that wants a private protocol to
# patch compiles source text through compile_source).
_LOADED: dict = {}


@lru_cache(maxsize=None)
def _toolchain_stamp() -> bytes:
    """Name, size and ``mtime_ns`` of every source file whose code
    shapes an entry: the front end, the middle end, the Python back end
    and the tables it bakes into handler code (``runtime/builtins.py``:
    ``costs.<attr>`` per ``BUILTIN_COSTS`` entry, one ``BI_<name>`` per
    ``BUILTIN_IMPLS`` key), the engine that runs that code, the classes
    that are pickled and this module, which lays the entry out."""
    root = os.path.dirname(__file__)
    files = [os.path.join(root, *path) for path in (
        ("backends", "python_backend.py"), ("runtime", "builtins.py"),
        ("runtime", "engine.py"), ("runtime", "protocol.py"),
        ("compile_cache.py",))]
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


class _Source(NamedTuple):
    """What an entry is built from, and where it goes."""

    path: str
    text: str
    opt_level: OptLevel
    flavor: Flavor
    initial_states: Optional[tuple[str, str]]
    key: bytes
    slot: str

    def build(self) -> CompiledProtocol:
        """Run the front end, and write the entry."""
        from repro.compiler.pipeline import compile_source

        protocol = compile_source(self.text, self.opt_level, self.flavor,
                                  self.initial_states, filename=self.path)
        _write_entry(self.slot, self.key, protocol)
        return protocol


class _IRSection:
    """An entry's second section, unpickled on first use: a section
    that does not unpickle to a :class:`ProtocolIR` is rebuilt from the
    source (and the entry rewritten).  Plain data, so a protocol from a
    hit pickles (the sharded checker's ``spawn`` start method)."""

    def __init__(self, data: bytes, source: _Source):
        self.data = data
        self.source = source

    def __call__(self) -> ProtocolIR:
        try:
            ir = pickle.loads(self.data)
        except Exception:
            ir = None       # corrupt bytes can make pickle raise anything
        if isinstance(ir, ProtocolIR):
            return ir
        return self.source.build().ir


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
        source = _Source(path, text, opt_level, flavor, initial_states,
                         key, slot)
        protocol = _read_entry(source) or source.build()
        _LOADED[key] = protocol
    return protocol


# An entry: the key, the first section's length, the first section (the
# run tables), the second (the IR).
_LENGTH = 8


def _read_entry(source: _Source) -> Optional[CompiledProtocol]:
    key = source.key
    try:
        with open(source.slot, "rb") as handle:
            blob = handle.read()
        if blob[:len(key)] != key:
            return None
        start = len(key) + _LENGTH
        end = start + int.from_bytes(blob[len(key):start], "little")
        protocol = pickle.loads(memoryview(blob)[start:end])
    except Exception:
        # Corrupt bytes can make pickle and marshal raise nearly
        # anything; whatever it is, the entry is unusable: a miss.
        return None
    if not isinstance(protocol, CompiledProtocol):
        return None
    protocol.ir_part = _IRSection(blob[end:], source)
    return protocol


def _write_entry(slot: str, key: bytes, protocol: CompiledProtocol) -> None:
    from repro.backends.python_backend import compile_part

    # A temp file per process, then os.replace: readers see a whole
    # entry or none, and two writers never share a temp file.
    tmp = f"{slot}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(slot), exist_ok=True)
        with open(tmp, "wb") as handle:
            code = {name: compile_part(protocol, name) for name in (
                "", *(handler.qualified_name
                      for handler in protocol.handlers.values()))}
            tables = pickle.dumps(
                replace(protocol, handler_code=code, ir_part=None),
                pickle.HIGHEST_PROTOCOL)
            handle.write(key)
            handle.write(len(tables).to_bytes(_LENGTH, "little"))
            handle.write(tables)
            pickle.dump(protocol.ir, handle, pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, slot)
        protocol.handler_code = code
    except OSError:
        pass    # cannot write here: no entry, as for a .pyc
    finally:
        with suppress(OSError):
            os.unlink(tmp)
