"""Exact symbolic toolkit for two-parameter (q, z) spinor recoupling:
coefficient field, extended q-combinatorics, closed recoupling values,
explicit braid/R-matrix verification, and independent classical oracles.
"""

# The CLI is not imported here: `python -m qspin.cli` would otherwise find
# it in sys.modules before running it.  `from qspin import cli` still works.
from . import errors, matrixlab, networks, poly, qcomb, recoupling, scalar

__all__ = [
    "cli",
    "errors",
    "matrixlab",
    "networks",
    "poly",
    "qcomb",
    "recoupling",
    "scalar",
]

__version__ = "0.1.0"
