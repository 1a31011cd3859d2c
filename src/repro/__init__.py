"""Teapot: language support for writing memory coherence protocols.

A from-scratch reproduction of the PLDI 1996 paper by Chandra, Richards,
and Larus.  The package contains:

- ``repro.api``       -- the typed programmatic facade (compile, check,
  simulate) -- start here
- ``repro.lang``      -- the Teapot DSL front end (lexer, parser, checker)
- ``repro.compiler``  -- handler splitting, liveness, and the constant
  continuation optimisation
- ``repro.backends``  -- Python, C, and Mur-phi code generators
- ``repro.runtime``   -- executable semantics for compiled protocols
- ``repro.tempest``   -- a Tempest-interface multiprocessor simulator
- ``repro.protocols`` -- Stache, LCM, and their variants, in Teapot
- ``repro.verify``    -- explicit-state model checkers (serial and
  hash-partitioned parallel)
- ``repro.workloads`` -- the paper's application workloads, synthesised
- ``repro.analysis``  -- state graphs, extension diffing, LoC and
  value-consistency analyses

The supported entry points are the :mod:`repro.api` facade, re-exported
here.  Machinery classes (``Machine``, ``ModelChecker``,
``compile_source``, ...) live in their home modules.

Every package re-exports lazily (:func:`_lazy_exports`): ``teapot
verify`` starts in a fresh process each time, and importing the
simulator, the profiler and three back ends it never calls was a third
of a small run (DESIGN.md, "Cold start").
"""

import sys
from importlib import import_module


def _lazy_exports(package: str, homes: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``.  ``homes``
    maps a home module to the names re-exported from it; a name is
    imported from its home on first access and then bound on the
    package, so it resolves once."""
    namespace = vars(sys.modules[package])
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | home_of.keys())

    return __getattr__, __dir__


__all__ = [
    # The facade.
    "compile_protocol",
    "check",
    "simulate",
    "CompileOptions",
    "CheckOptions",
    "SimOptions",
    "SimulateResult",
    "CheckResult",
    # Stable core types and errors.
    "CompiledProtocol",
    "OptLevel",
    "Flavor",
    "TeapotError",
    "LexError",
    "ParseError",
    "CheckError",
]

__version__ = "2.0.0"

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.api": ("compile_protocol", "check", "simulate", "CompileOptions",
                  "CheckOptions", "SimOptions", "SimulateResult"),
    "repro.verify.checker": ("CheckResult",),
    "repro.runtime.protocol": ("CompiledProtocol", "OptLevel", "Flavor"),
    "repro.lang.errors": ("TeapotError", "LexError", "ParseError",
                          "CheckError"),
})
