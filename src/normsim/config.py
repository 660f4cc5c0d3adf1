"""Dense-simulation dimension cap and the order-finding grid size.

The CLI checks its own flag values; this module holds only the defaults the
engines and algorithms share.
"""

from __future__ import annotations

DEFAULT_DENSE_CAP = 4096
DEFAULT_GRID_SIZE = 1 << 16

