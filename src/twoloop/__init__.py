"""twoloop: exact truncated expansions of genus-two Siegel modular forms,
the torus-sewing map, and two-loop chiral partition functions.

All series arithmetic is exact (Gaussian rational coefficients) and carries
per-variable validity bounds, so no operation can fabricate a coefficient
its inputs do not determine.  Numeric evaluation and modular transformation
checks live in :mod:`twoloop.verify`; the full acceptance suite is
:func:`twoloop.acceptance.run_all` (CLI: ``twoloop verify-all``).
"""

from .series import (
    GaussRat,
    MultiSeries,
    PrefSeries,
    UNBOUNDED,
    VarSpec,
)

__all__ = [
    "GaussRat",
    "MultiSeries",
    "PrefSeries",
    "UNBOUNDED",
    "VarSpec",
]

__version__ = "0.1.0"
