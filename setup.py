"""Build script: compiles the optional min-norm-point kernel.

The kernel ``src/valgeo/_kernels/_mnp.c`` is plain C99 with no Python C-API;
any C compiler builds it, and ``valgeo._kernels`` loads the result with
ctypes.  The package works without it (a pure-NumPy implementation of the
same algorithm is selected at import time); the compiled kernel is only a
speedup for the Monte-Carlo membership loops.  In a checkout, build it with
``python setup.py build_ext --inplace``.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Degrade to the pure-Python backend if the C toolchain is missing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain dependent
            print(f"warning: skipping compiled kernel ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain dependent
            print(f"warning: skipping {ext.name} ({exc})", file=sys.stderr)

    def get_export_symbols(self, ext):
        # A ctypes library, not an extension module: it has no PyInit_ symbol.
        return ext.export_symbols


KERNEL = Extension(
    "valgeo._kernels._mnp",
    ["src/valgeo/_kernels/_mnp.c"],
    export_symbols=["valgeo_hull_distances"],
    extra_compile_args=["-O3"],
)

setup(ext_modules=[KERNEL], cmdclass={"build_ext": OptionalBuildExt})
