"""The workload guard's names, apart from the array engine.

Every listing in ``bulk`` checks its stratum's candidate count against a
limit before any row is built and raises ``WorkloadExceeded`` over it.
The names live here, in pure Python, so that the CLI can catch the error
and read the limit without importing numpy; ``bulk``, ``construct`` and
the package re-export these same objects.
"""

from __future__ import annotations

import os

__all__ = ["WorkloadExceeded", "default_max_work"]


class WorkloadExceeded(RuntimeError):
    """Raised when an enumeration would generate more candidates than allowed."""


def default_max_work() -> int:
    """The workload guard's limit: $BISMASH_MAX_WORK if set, else 10**8.
    Raises ValueError unless the variable is a non-negative integer."""
    env = os.environ.get("BISMASH_MAX_WORK")
    try:
        limit = int(env) if env else 10**8
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise ValueError(f"BISMASH_MAX_WORK must be a non-negative integer, got {env!r}")
