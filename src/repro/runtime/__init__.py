"""Executable semantics for compiled Teapot protocols.

The runtime is deliberately split from :mod:`repro.tempest` (the
multiprocessor simulator): the same compiled handlers
(:mod:`repro.backends.python_backend`) execute both under the simulator
and under the model checker in :mod:`repro.verify`, which supplies a
different :class:`~repro.runtime.context.ProtocolContext`.
:class:`HandlerInterpreter` is their reference semantics.
"""

from repro.runtime.protocol import CompiledProtocol, CompiledStateInfo
from repro.runtime.continuation import ContinuationRecord
from repro.runtime.exec import HandlerInterpreter

__all__ = [
    "CompiledProtocol",
    "CompiledStateInfo",
    "ContinuationRecord",
    "HandlerInterpreter",
]
