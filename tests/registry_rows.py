"""Running the rows of the check registry (``qspin.matrixlab.CHECKS``).

``test_matrixlab.test_registry_row`` runs every row once; the acceptance
criteria run their rows again through ``rows_hold``.
"""

from qspin.matrixlab import CHECKS


def rows_hold(name: str) -> bool:
    """Whether every row of the entry ``name`` holds."""
    check = CHECKS[name]
    return all(check.fn(**params) for params in check.grid)
