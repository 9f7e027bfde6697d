"""Kernel backend selection: compiled extension when available, pure Python
otherwise.  ``PREDBIF_FORCE_PY=1`` forces the fallback, e.g. to run the
Python kernel where the extension is built; both give the same bits."""

from __future__ import annotations

import os

if os.environ.get("PREDBIF_FORCE_PY") == "1":
    from . import _rk_py as _kernel_mod

    BACKEND = "python"
else:
    try:
        from . import _rk_cy as _kernel_mod  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _rk_py as _kernel_mod

        BACKEND = "python"

integrate_kernel = _kernel_mod.integrate_kernel
ESCAPE_RADIUS = 1.0e3
