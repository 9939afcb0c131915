"""Packaging entry point with the *optional* native-extension build.

The compiled backend (``repro.backend._native``) is strictly a
performance add-on: every install must succeed without a C toolchain,
and every feature must work (via the ``reference`` fallback) when the
extension is absent.  The build therefore treats any compile failure as
a warning, not an error — unless ``REPRO_NATIVE_REQUIRE=1`` is set, in
which case a failed build fails the install (the CI ``native-smoke``
job sets it so a silently-skipped extension can't masquerade as a
passing native run).

Build in place for development:

    python setup.py build_ext --inplace

The build stamps the extension with the SHA-256 of ``_native.c``
(``_native.SOURCE_SHA256``); at import ``repro.backend.native`` compares
it with the source it finds checked out and refuses a shared object
built from another one, so rerun the command after editing the file.

The default build drops the debug information the interpreter's own
``-g`` asks for (a fifth of the compile time, and nothing reads it); a
build that brings its own ``CFLAGS`` — the sanitizer job — keeps it.
"""

import hashlib
import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


_REQUIRED = os.environ.get("REPRO_NATIVE_REQUIRE", "") == "1"
_SOURCE = "src/repro/backend/native/_native.c"


def _source_sha256() -> str:
    with open(os.path.join(os.path.dirname(__file__) or ".", _SOURCE), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class OptionalBuildExt(build_ext):
    """build_ext that degrades compile failures to a warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._handle(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._handle(exc)

    def _handle(self, exc):
        if _REQUIRED:
            raise
        print(
            f"WARNING: building the optional repro.backend._native "
            f"extension failed ({exc}); the package will fall back to "
            f"the pure-Python 'reference' backend at runtime",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "repro.backend.native._native",
            sources=[_SOURCE],
            define_macros=[
                ("REPRO_NATIVE_SOURCE_SHA256", f'"{_source_sha256()}"')
            ],
            extra_compile_args=[] if "CFLAGS" in os.environ else ["-g0"],
            optional=not _REQUIRED,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
