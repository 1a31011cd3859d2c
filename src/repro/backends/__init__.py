"""Code generators for compiled Teapot protocols.

The paper's compiler has two back ends fed from one source (its central
verification claim): executable C and Mur-phi model-checker input.  This
package adds a third, executable Python, which is the form this
reproduction actually runs: the simulator and the checker execute its
functions through :class:`CompiledEngine` (the C text is emitted for
fidelity and golden-tested, but no C toolchain is assumed).
"""

from repro.backends.python_backend import (
    CompiledEngine,
    emit_python,
)
from repro.backends.c_backend import emit_c
from repro.backends.murphi_backend import emit_murphi

__all__ = [
    "emit_python",
    "CompiledEngine",
    "emit_c",
    "emit_murphi",
]
