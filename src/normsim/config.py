"""Dense-simulation dimension cap and the order-finding grid size.

The CLI checks its own flag values; this module holds only the defaults the
engines and algorithms share, and the NORMSIM_CAP environment override.
"""

from __future__ import annotations

import os

DEFAULT_DENSE_CAP = 4096
DEFAULT_GRID_SIZE = 1 << 16

ENV_DENSE_CAP = "NORMSIM_CAP"


def dense_cap(override: int | None = None) -> int:
    """Dense-simulation dimension cap; NORMSIM_CAP overrides the default."""
    if override is not None:
        return override
    env = os.environ.get(ENV_DENSE_CAP)
    return int(env) if env else DEFAULT_DENSE_CAP
