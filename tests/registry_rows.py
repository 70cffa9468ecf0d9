"""Running the rows of the check registry (``qspin.matrixlab.CHECKS``).

Each row runs at most once per test session: its verdict is kept, keyed
by the entry name and the row's params as JSON.
``test_matrixlab.test_registry_row`` asserts every row through
``row_holds``, and the acceptance criteria assert theirs again through
``rows_hold``; both read the same verdicts.
"""

import json

from qspin.matrixlab import CHECKS

_VERDICTS: dict = {}


def row_holds(name: str, params: dict) -> bool:
    """Whether the row ``params`` of the entry ``name`` holds."""
    key = (name, json.dumps(params, sort_keys=True))
    if key not in _VERDICTS:
        _VERDICTS[key] = bool(CHECKS[name].fn(**params))
    return _VERDICTS[key]


def rows_hold(name: str) -> bool:
    """Whether every row of the entry ``name`` holds."""
    return all(row_holds(name, params) for params in CHECKS[name].grid)
