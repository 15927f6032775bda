"""Composition of the point-mass functional of Brownian motion.

``delta_0(B(t))`` has no square-integrable version, but on the weighted
scale it lives at every negative index, with an explicit even-order chaos
expansion: order ``2n`` carries the constant

    (-1)^n / (sqrt(2 pi t) (2t)^n n!)

on ``[0,t)^{2n}``.  The squared norm at index ``-lam`` is the series

    (1/(2 pi t)) sum_n  (2n)! / (4^n (n!)^2 e^{4 lam n}),

summable exactly via central binomials to ``1 / (2 pi t sqrt(1 - e^{-4 lam}))``.
Components are stored in the layered form, so order ~40 stays cheap.

The experiment in this module integrates the left-cut process
``1_{[eps, inf)}(t) delta_0(B(t))`` against an exponential-decay Volterra
kernel and checks the integrability diagnostics against the closed-form
domination ``4 C (1/s) (1 - e^{-alpha (t-s)})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chaos import ChaosProcess, ChaosVector
from .grid import GridSpec
from .kernels import LayeredKernel, SymKernel
from .vmbv import _integral
from .volterra import FbmKernel, OuKernel


def _check_aligned_time(grid: GridSpec, t: float, name: str) -> int:
    if not grid.is_aligned(t):
        raise ValueError(f"{name}={t} must be cell-aligned on step {grid.step}")
    return grid.snap_down(t)


def donsker_delta(t: float, N: int, grid: GridSpec) -> ChaosVector:
    """Truncated chaos expansion of the Brownian point mass at time ``t``.

    Keeps orders ``0, 2, ..., 2N``.  ``t`` must be positive and cell-aligned
    so indicator norms are exact on the grid.
    """
    if t <= 0:
        raise ValueError("the point-mass functional does not exist at t = 0")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    k_cells = _check_aligned_time(grid, t, "t")
    pref = 1.0 / math.sqrt(2.0 * math.pi * t)
    comps: dict[int, object] = {0: SymKernel.scalar(grid, pref)}
    coeff = pref
    for n in range(1, N + 1):
        coeff *= -1.0 / (2.0 * t * n)
        comps[2 * n] = LayeredKernel.prefix_constant(2 * n, grid, coeff, k_cells)
    return ChaosVector(grid, comps)


def donsker_norm_series(t: float, lam: float, N: int) -> float:
    """Partial sum of the squared-norm series at index ``-lam``.

    Equals the squared weighted norm of the truncated tensor build exactly
    whenever ``t`` is a whole number of cells.  Diverges for ``lam <= 0``.
    """
    if lam <= 0:
        raise ValueError(f"series diverges for lam <= 0, got {lam}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    x = math.exp(-4.0 * lam) / 4.0
    term = 1.0
    total = 1.0
    for n in range(N):
        term *= 2.0 * (2 * n + 1) / (n + 1) * x
        total += term
    return total / (2.0 * math.pi * t)


def donsker_norm_limit(t: float, lam: float) -> float:
    """Closed form of the full series via the central-binomial generating
    function: ``1 / (2 pi t sqrt(1 - e^{-4 lam}))``."""
    if lam <= 0:
        raise ValueError(f"series diverges for lam <= 0, got {lam}")
    return 1.0 / (2.0 * math.pi * t * math.sqrt(1.0 - math.exp(-4.0 * lam)))


@dataclass(frozen=True)
class DonskerSpec:
    """Evaluation time, truncation index and left cut for the delta process."""

    t: float
    N: int
    eps: float

    def validate(self, grid: GridSpec):
        if not (0.0 < self.eps < self.t <= grid.horizon * (1 + 1e-12)):
            raise ValueError(f"need 0 < eps < t <= horizon, got eps={self.eps}, t={self.t}")
        _check_aligned_time(grid, self.t, "t")
        _check_aligned_time(grid, self.eps, "eps")


def donsker_process(grid: GridSpec, N: int, eps: float) -> ChaosProcess:
    """The left-cut process: zero below ``eps``, the point-mass composition
    at the cell's left endpoint from ``eps`` on."""
    eps_cell = _check_aligned_time(grid, eps, "eps")
    if eps_cell < 1:
        raise ValueError("eps must cover at least one cell: the t=0 value does not exist")

    def value(j: int) -> ChaosVector:
        if j < eps_cell:
            return ChaosVector.zero(grid)
        return donsker_delta(grid.t_left(j), N, grid)

    return ChaosProcess.from_function(grid, value)


@dataclass(frozen=True)
class DonskerLambdaRow:
    lam: float
    norm_sq: float
    a3_max: float
    bound_max: float
    finite: bool
    dominated: bool


@dataclass(frozen=True)
class DonskerReport:
    spec: DonskerSpec
    alpha: float
    grid: GridSpec
    rows: tuple[DonskerLambdaRow, ...]
    a3_by_lambda: dict
    bound_by_lambda: dict
    kg_layer0: dict
    sign_pattern_ok: bool
    diverges_at_zero_cut: bool


def donsker_vmbv_experiment(alpha: float, eps: float, t: float, N: int,
                            lambdas, grid: GridSpec) -> DonskerReport:
    """Integrate the cut delta process against an exponential-decay kernel.

    Per weight index: the per-cell integrability values are compared with the
    closed-form domination ``4 * series(s) * (1 - e^{-alpha (t - s)})`` at the
    cell's left endpoint, and the integral's weighted norm is reported.  The
    leading layer values of the kernel action are returned so the alternating
    sign across orders can be inspected.
    """
    spec = DonskerSpec(t=t, N=N, eps=eps)
    spec.validate(grid)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    kernel = OuKernel(alpha) if alpha > 0 else FbmKernel(0.5)
    proc = donsker_process(grid, N, eps)
    t_cell = grid.snap_down(t)

    if isinstance(lambdas, (int, float)):
        lambdas = [float(lambdas)]
    # one integral gates every weight index from the same diagnostic tables
    value, _, _, reports, _, acted = _integral(proc, kernel, t, lambdas)

    rows = []
    a3_by_lambda = {}
    bound_by_lambda = {}
    for lam, report in zip(lambdas, reports):
        bounds = []
        for s_cell in range(t_cell):
            s_left = grid.t_left(s_cell)
            if s_left <= 0.0:
                bounds.append(math.inf)
                continue
            decay = 1.0 - math.exp(-alpha * (t - s_left)) if alpha > 0 else 0.0
            bounds.append(4.0 * donsker_norm_series(s_left, lam, N) * decay)
        dominated = all(
            a <= b * (1 + 1e-12) + 1e-300 for a, b in zip(report.a3, bounds)
        )
        norm_sq = value.gnorm_sq(-lam)
        rows.append(
            DonskerLambdaRow(
                lam=lam,
                norm_sq=norm_sq,
                a3_max=report.a3_max,
                bound_max=max(b for b in bounds if math.isfinite(b)) if any(map(math.isfinite, bounds)) else math.inf,
                finite=math.isfinite(norm_sq),
                dominated=dominated,
            )
        )
        a3_by_lambda[lam] = tuple(report.a3)
        bound_by_lambda[lam] = tuple(bounds)

    # layer-0 values of the kernel action at a few cells, keyed (s_cell, order)
    eps_cell = grid.snap_down(eps)
    kg_layer0 = {}
    sign_ok = True
    probe_cells = sorted({eps_cell, (eps_cell + t_cell) // 2, t_cell - 1})
    layered = {stack.order: stack.rows for stack in acted if stack.layered}
    for s_cell in probe_cells:
        for n in range(1, N + 1):
            action_rows = layered.get(2 * n)
            if action_rows is None or not action_rows[s_cell].any():
                continue
            v0 = float(action_rows[s_cell, 0])
            kg_layer0[(s_cell, 2 * n)] = v0
            if v0 != 0.0 and math.copysign(1.0, v0) != (-1.0) ** n:
                sign_ok = False

    # the uncut process diverges like 1/s at the origin; flag when the
    # per-cell values scaled by s stay bounded away from zero (the last cell
    # has an empty measure interval and is skipped)
    lam0 = float(lambdas[0])
    a3_scaled = [
        a * grid.t_left(s)
        for s, a in enumerate(a3_by_lambda[lam0])
        if eps_cell <= s < t_cell - 1
    ]
    diverges = bool(a3_scaled) and min(a3_scaled) > 0.0

    return DonskerReport(
        spec=spec,
        alpha=alpha,
        grid=grid,
        rows=tuple(rows),
        a3_by_lambda=a3_by_lambda,
        bound_by_lambda=bound_by_lambda,
        kg_layer0=kg_layer0,
        sign_pattern_ok=sign_ok,
        diverges_at_zero_cut=diverges,
    )
