"""Build shim: compiles the adaptive-RK kernel extension from the shipped
C source ``src/predbif/_rk_cy.c`` (generated from ``_rk_cy.pyx``; Cython is
not needed to build).  The extension is optional: without a C compiler the
build goes on, and the package falls back to the pure-Python kernel at
import time."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("predbif._rk_cy", ["src/predbif/_rk_cy.c"], optional=True)])
