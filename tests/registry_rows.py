"""The rows of the check registry (``qspin.matrixlab.CHECKS``) for the tests.

Tier-1 runs each row once: the named unit tests run the rows of the entries
in ``NAMED`` through ``rows_hold``, and ``test_matrixlab.test_registry_row``
runs every other row.  The acceptance criteria run their rows again.
"""

from qspin.matrixlab import CHECKS

#: Entries whose rows a named test in test_matrixlab, test_qcomb,
#: test_recoupling or test_networks runs.
NAMED = frozenset({
    "braid-invariants", "sigma-inverse-display", "ybe", "unitarity", "tower",
    "quantum-dims", "hecke-tower", "hecke-quotient", "crossing-symmetry-D",
    "crossing-prefactor", "addition", "cac", "cac-sign", "hecke-dims",
    "bracket-shift", "double-shift", "dimq-recurrence", "dimq-closed-form",
    "bubble", "threej-double", "theta-vector", "theta-spinor-empty",
    "fierz-symmetry", "fierz-bar", "fierz-a0", "fierz-recurrence",
    "fierz-recurrence-coefficient", "exp-coeff-half-form", "clifford",
})

#: The rows no named unit test runs.
OTHER_ROWS = [(name, params) for name, check in CHECKS.items() if name not in NAMED
              for params in check.grid]


def row_id(name: str, params: dict) -> str:
    return "-".join([name, *(f"{k}={v}" for k, v in params.items())])


def rows_hold(name: str, **fixed) -> bool:
    """Whether every row of the entry ``name`` whose params include
    ``fixed`` holds."""
    check = CHECKS[name]
    rows = [params for params in check.grid if fixed.items() <= params.items()]
    assert rows, f"no row of {name} has {fixed}"
    return all(check.fn(**params) for params in rows)
