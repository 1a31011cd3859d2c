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
"""

from repro.api import (
    CheckOptions,
    CompileOptions,
    SimOptions,
    SimulateResult,
    check,
    compile_protocol,
    simulate,
)
from repro.lang.errors import CheckError, LexError, ParseError, TeapotError
from repro.runtime.protocol import CompiledProtocol, Flavor, OptLevel
from repro.verify.checker import CheckResult

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
