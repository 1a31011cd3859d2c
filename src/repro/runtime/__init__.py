"""Executable semantics for compiled Teapot protocols.

The runtime is deliberately split from :mod:`repro.tempest` (the
multiprocessor simulator): the same compiled handlers
(:mod:`repro.backends.python_backend`) execute both under the simulator
and under the model checker in :mod:`repro.verify`, which supplies a
different :class:`~repro.runtime.context.ProtocolContext`.
:class:`HandlerInterpreter` is their reference semantics.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.runtime.protocol": ("CompiledProtocol", "CompiledStateInfo"),
    "repro.runtime.continuation": ("ContinuationRecord",),
    "repro.runtime.exec": ("HandlerInterpreter",),
})

__all__ = [
    "CompiledProtocol",
    "CompiledStateInfo",
    "ContinuationRecord",
    "HandlerInterpreter",
]
