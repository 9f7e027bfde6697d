"""Build shim: compiles the adaptive-RK kernel extension ``predbif._rk_cy``
from the hand-written C source ``src/predbif/_rk_cy.c``.  It is compiled
with ``-ffp-contract=off``, so that no multiply and add are fused into one
rounding and the kernel keeps the bits of its Python twin ``_rk_py`` on
FMA-capable targets.  The extension is optional: without a C compiler the
build goes on, and the package falls back to the pure-Python kernel at
import time."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("predbif._rk_cy", ["src/predbif/_rk_cy.c"],
                             extra_compile_args=["-ffp-contract=off"], optional=True)])
