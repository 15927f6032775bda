"""Uniform time grid for the discrete Gaussian model.

The horizon ``[0, T)`` is split into ``M`` equal cells; cell ``i`` covers
``[i*step, (i+1)*step)``.  Every random object in this package lives on one
grid, and all operators check grid identity before combining operands.

Only uniform grids are supported: uniformity keeps multiset multiplicity
weights and Hermite evaluation exact.
"""

from __future__ import annotations

from dataclasses import dataclass

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of ``[0, horizon)`` into ``cells`` cells."""

    horizon: float
    cells: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")

    @property
    def step(self) -> float:
        return self.horizon / self.cells

    def cell(self, t: float) -> int:
        """Cell index covering time ``t``; total on ``[0, horizon)``.  A time
        within the alignment tolerance of a boundary is that boundary, as in
        ``snap_down``: ``t = 0.3`` on a step of 0.1 is in cell 3."""
        if not (0.0 <= t < self.horizon):
            raise ValueError(f"time {t} outside [0, {self.horizon})")
        return min(self.snap_down(t), self.cells - 1)

    def t_left(self, j: int) -> float:
        """Left endpoint of cell ``j``."""
        return j * self.step

    def t_mid(self, j: int) -> float:
        """Midpoint of cell ``j``; the representative point for evaluating
        deterministic kernels inside operators."""
        return (j + 0.5) * self.step

    def is_aligned(self, t: float) -> bool:
        r = t / self.step
        return abs(r - round(r)) < _ALIGN_TOL

    def snap_down(self, t: float) -> int:
        """Boundary index at or below ``t`` (in cell units, range 0..cells)."""
        if t < -_ALIGN_TOL * self.step or t > self.horizon * (1 + _ALIGN_TOL):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        r = t / self.step
        if abs(r - round(r)) < _ALIGN_TOL:
            return int(round(r))
        return int(r)

    def to_json(self) -> dict:
        return {"T": self.horizon, "M": self.cells}

    @staticmethod
    def from_json(obj: dict) -> "GridSpec":
        return GridSpec(horizon=float(obj["T"]), cells=int(obj["M"]))


def make_grid(horizon: float, cells: int) -> GridSpec:
    """Build a uniform grid; rejects non-positive horizon or zero cells."""
    return GridSpec(horizon=float(horizon), cells=int(cells))


def same_grid(a: GridSpec, b: GridSpec) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")
