"""Selects the kernel implementation at import time.

The compiled extension is used when it imports cleanly; otherwise the pure
numpy fallback takes over.  Set ``SBFMC_PURE_PY=1`` to force the fallback
(useful for the kernel benchmark and for debugging).
"""

import os

from . import _kernels_py

if os.environ.get("SBFMC_PURE_PY", "") not in ("", "0"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl
    except ImportError:
        _impl = _kernels_py

e1 = _impl.e1
e1_scaled = _impl.e1_scaled
e1_array = _impl.e1_array
e1_scaled_array = _impl.e1_scaled_array


def backend_name():
    """Name of the active kernel implementation ("cython" or "python")."""
    return _impl.BACKEND
