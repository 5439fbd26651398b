"""Kernel selection: the compiled closure kernel if the extension built.

Without it, FiniteGroup.closure_bits runs Dimino's algorithm in pure Python.
FORMATIONS_PURE=1 ignores a built extension (used by tests and the
benchmark to time the pure path).
"""

import os

closure_packed = None
BACKEND = "python"
if not os.environ.get("FORMATIONS_PURE"):
    try:
        from ._closure import closure_packed  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        pass
