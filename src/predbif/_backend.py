"""Kernel backend selection: the compiled extension when it is built, the
pure-Python twin otherwise; both give the same bits."""

from __future__ import annotations

try:
    from . import _rk_cy as _kernel_mod  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    from . import _rk_py as _kernel_mod

    BACKEND = "python"

integrate_kernel = _kernel_mod.integrate_kernel
