"""Run configuration: caps, precision parameters, output knobs."""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_DENSE_CAP = 4096
DEFAULT_GRID_SIZE = 1 << 16

ENV_DENSE_CAP = "NORMSIM_CAP"


def dense_cap(override: int | None = None) -> int:
    """Dense-simulation dimension cap; NORMSIM_CAP overrides the default."""
    if override is not None:
        return override
    env = os.environ.get(ENV_DENSE_CAP)
    return int(env) if env else DEFAULT_DENSE_CAP


@dataclass
class RunConfig:
    """Knobs shared by the CLI and the algorithm entry points."""

    seed: int = 0
    shots: int = 1000
    dense_cap: int | None = None
    comb_m: int | None = None  # half-length M of the order-finding comb
    resolution: float | None = None  # measurement window Delta on the torus
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.dense_cap is not None and self.dense_cap < 1:
            raise ValueError("caps must be positive")
        if self.resolution is not None and self.resolution <= 0:
            raise ValueError("resolution must be positive")
