"""The Teapot compiler middle end.

Transforms checked handler bodies into control-flow graphs, splits them
at ``Suspend`` points into atomically executable fragments (Figures 9 and
10 of the paper), runs live-variable analysis to shrink continuation
records, and applies the constant-continuation optimisation (Section 5).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.compiler.pipeline": ("compile_protocol", "compile_source",
                                "OptLevel"),
})

__all__ = ["compile_protocol", "compile_source", "OptLevel"]
