"""Hot-kernel backend selection.

The compiled kernel (``_mnp.c``, plain C99 built by ``setup.py`` and loaded
with ctypes) is used when it is present.  Otherwise the pure-NumPy
implementation of the same algorithm in ``pywolfe`` takes over, with one
``RuntimeWarning`` that names the reason.  Set ``VALGEO_PURE_PYTHON=1`` to
choose the pure kernel without a warning.  Both backends validate their
inputs with ``pywolfe.check_inputs``.
"""

import ctypes
import os
import warnings

import numpy as np

from . import pywolfe

BUILD_COMMAND = "python setup.py build_ext --inplace"


def load_compiled(directory: str = os.path.dirname(__file__)):
    """``hull_distances`` backed by the compiled kernel built into ``directory``.

    Raises ``OSError`` if the library is missing or cannot be loaded, and
    ``AttributeError`` if it does not export the kernel.
    """
    kernel = np.ctypeslib.load_library("_mnp", directory).valgeo_hull_distances
    kernel.restype = ctypes.c_int
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p,
                       ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_void_p)

    def hull_distances(points, vertices, max_iter: int = 1000) -> np.ndarray:
        """Euclidean distance from each row of ``points`` to conv(vertices)."""
        pts, verts = pywolfe.check_inputs(points, vertices)
        out = np.empty(pts.shape[0])
        m, n = verts.shape
        if kernel(pts.ctypes.data, pts.shape[0], verts.ctypes.data, m, n, max_iter,
                  out.ctypes.data):
            raise MemoryError("hull_distances: cannot allocate the kernel workspace")
        return out

    return hull_distances


if os.environ.get("VALGEO_PURE_PYTHON"):
    BACKEND, hull_distances = pywolfe.BACKEND, pywolfe.hull_distances
else:
    try:
        BACKEND, hull_distances = "c", load_compiled()
    except (OSError, AttributeError) as exc:
        BACKEND, hull_distances = pywolfe.BACKEND, pywolfe.hull_distances
        reason = ("is not built" if "no file with expected extension" in str(exc)
                  else f"failed to load ({exc})")
        warnings.warn(
            f"valgeo: the compiled hull-distance kernel {reason}; using the "
            f"slower pure-NumPy kernel (benchmarks/bench_kernels.py measures by "
            f"how much). Build it with `{BUILD_COMMAND}` (needs only a C compiler).",
            RuntimeWarning,
        )

__all__ = ["BACKEND", "BUILD_COMMAND", "hull_distances", "load_compiled", "pywolfe"]
