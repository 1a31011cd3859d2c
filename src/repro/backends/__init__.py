"""Code generators for compiled Teapot protocols.

The paper's compiler has two back ends fed from one source (its central
verification claim): executable C and Mur-phi model-checker input.  This
package adds a third, executable Python, which is the form this
reproduction actually runs: the simulator and the checker execute its
functions through :class:`~repro.runtime.engine.CompiledEngine` (the C
text is emitted for fidelity and golden-tested, but no C toolchain is
assumed).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.backends.python_backend": ("emit_python",),
    "repro.backends.c_backend": ("emit_c",),
    "repro.backends.murphi_backend": ("emit_murphi",),
})

__all__ = [
    "emit_python",
    "emit_c",
    "emit_murphi",
]
