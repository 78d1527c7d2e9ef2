"""Build hooks: the optional compiled batch-step kernel.

``pip install -e .`` compiles ``repro.faults._cstep._cstep`` from the
single C translation unit below; the extension is *optional* — any
build failure (no compiler, broken headers) is swallowed and the
install completes and campaigns fall back to the scalar injection
engine at run time (see repro/faults/kernels.py).  The dev flow without an install
(``PYTHONPATH=src``) doesn't need this file at all: the ``_cstep``
package auto-builds into a user cache with the system cc on first use.
"""
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

# The drive loop dispatches lane slices to a persistent pthread pool;
# -pthread must reach both the compile and the link step (MSVC's CRT
# is always thread-capable, so Windows needs no flag).
_THREAD_FLAGS = [] if sys.platform == "win32" else ["-pthread"]


class optional_build_ext(build_ext):
    """build_ext that degrades to a warning instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler / missing headers
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: building the optional _cstep extension failed "
              f"({exc}); campaigns will run the scalar engine instead.")


setup(
    ext_modules=[
        Extension(
            "repro.faults._cstep._cstep",
            sources=["src/repro/faults/_cstep/_cstepmodule.c"],
            extra_compile_args=_THREAD_FLAGS,
            extra_link_args=_THREAD_FLAGS,
            optional=True,
        ),
    ],
    cmdclass={"build_ext": optional_build_ext},
)
