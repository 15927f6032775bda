"""Stochastic integrals driven by Brownian Volterra processes.

All four variants share one pipeline: apply the kernel action to the
integrand, multiply per cell by the volatility (nothing, pointwise by a
smooth process, Wick by a generalized process, or pointwise under a strong
independence gate), then take a Skorohod step plus the weak time integral of
the diagonal derivative:

    value = skorohod(s -> product(action(t,s), vol(s)))
          + time_integral(s -> product(D_s action(t,s), vol(s))).

One driver (``_integral``) runs the pipeline for every mode: a mode only
picks the volatility gate, the product and whether strong independence is
checked.  The pipeline runs on order stacks, all cells of one chaos order
at once (``stacked._integrate``); the per-cell operators of ``operators``
compute the same and serve the tests as its reference.

The two independent consistency oracles (the white-noise definition, each
cell's Wick product with its increment, and the scalar transform identity)
are implemented on their own code paths and must agree with the pipelines
exactly in the discrete model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosProcess, ChaosVector, linear_combine, order_weighted_sum
from .errors import IndependenceError, IntegrabilityError, StabilityLawError, TruncationOverflowError
from .grid import GridSpec, same_grid
from .kernels import SymKernel
from .operators import TestFunctionXi, derivative_at, s_transform, wick
from .stacked import _integrate, _order_stacks, _OrderStack
from .volterra import AssumptionReport, VolterraKernel, _stieltjes_weights, kernel_action


@dataclass(frozen=True)
class VmbvResult:
    """Integral value with its two-term decomposition and the diagnostics
    snapshot taken before integration."""

    value: ChaosVector
    skorohod_part: ChaosVector
    drift_part: ChaosVector
    diagnostics: AssumptionReport
    extra_diagnostics: dict

    def expectation(self) -> float:
        return self.value.expectation()


def _sigma_process(grid: GridSpec, sigma) -> ChaosProcess:
    if isinstance(sigma, ChaosProcess):
        same_grid(grid, sigma.grid)
        return sigma
    if isinstance(sigma, ChaosVector):
        same_grid(grid, sigma.grid)
        return ChaosProcess.constant(grid, sigma)
    raise TypeError(f"volatility must be a process or vector, got {type(sigma).__name__}")


# mode -> (volatility gate, sign of its index, pointwise product, strong
# independence checked).  Under strongind's gate every contraction term of
# the pointwise product is zero, so it runs the Wick product.
_MODES = {
    "plain": (None, None, False, False),
    "sigma": ("C(2)", 1.0, True, False),
    "wick": ("D(10)", -1.0, False, False),
    "strongind": ("D(10)", -1.0, False, True),
}


def _integral(phi: ChaosProcess, kernel: VolterraKernel, t: float, lambdas,
              vol=None, mode: str = "plain", max_order: int | None = None):
    """The one integral pipeline behind every mode.

    Builds the kernel action and the order stacks of the integrand and of
    the volatility (a process or a vector; ignored in plain mode) once, then
    checks in one fixed order: strong independence (strongind only), the
    volatility norm and the diagnostics at every weight index in
    ``lambdas``, the order cap.  Returns the value, its Skorohod and drift
    parts, one report per index, the extra diagnostics (the volatility norm
    at the first index) and the acted stacks.
    """
    gate, sign, contract, independent = _MODES[mode]
    grid = phi.grid
    vol = None if gate is None else _sigma_process(grid, vol)
    action = kernel_action(kernel, grid, t)
    t_cell = action.t_cell
    stacks = _order_stacks(phi, t_cell)
    acted = action.act(stacks)
    vols = None if vol is None else _order_stacks(vol, t_cell)
    if independent:
        overlap = _support(acted, grid, t_cell) & _support(vols, grid, t_cell)
        bad = np.flatnonzero(overlap.any(axis=1))
        if bad.size:
            s = int(bad[0])
            raise IndependenceError(s, f"supports overlap at cell {int(np.flatnonzero(overlap[s])[0])}")
    extra = {}
    if gate is not None:
        norms = [_volatility_gate(vol, t_cell, sign * lam, gate) for lam in lambdas]
        extra = {gate: norms[0], "sigma_max_order": _top_order(vols)}
    tables = action.tables(stacks, acted)
    reports = [tables.report(lam) for lam in lambdas]
    for report in reports:
        failing = report.failing_assumption()
        if failing is not None:
            raise IntegrabilityError(failing, f"non-finite diagnostic at lambda={report.lam}")
    if max_order is not None:
        natural = _top_order(stacks) + (0 if vols is None else _top_order(vols)) + 1
        if natural > max_order:
            raise TruncationOverflowError(natural, max_order)
    value, skor, drift = _integrate(grid, t_cell, acted, vols, contract)
    return value, skor, drift, reports, extra, acted


def _top_order(stacks: list[_OrderStack]) -> int:
    """The highest chaos order of a process at the cells below ``t``, given
    by its order stacks (0 when there are none)."""
    return max((stack.order for stack in stacks), default=0)


def _volatility_gate(vol: ChaosProcess, t_cell: int, index: float, assumption: str) -> float:
    """Step-weighted time integral of the volatility's squared weighted norm
    at ``index`` over the cells below ``t``; raises when it is non-finite.

    The per-order norms of every cell form one ``[order, cell]`` table, so
    the index enters through one contraction."""
    cells = [vol.at(s).order_norms_sq() for s in range(t_cell)]
    orders = sorted(set().union(*cells))
    table = np.array([[c.get(n, 0.0) for c in cells] for n in orders]).reshape(len(orders), t_cell)
    norm = vol.grid.step * sum(order_weighted_sum(orders, table, index).tolist())
    if not math.isfinite(norm):
        raise IntegrabilityError(assumption, "volatility norm integral non-finite")
    return norm


def integrate_plain(phi: ChaosProcess, kernel: VolterraKernel, t: float,
                    lam: float = 1.0, max_order: int | None = None) -> VmbvResult:
    """Integral with unit volatility: Skorohod of the kernel action plus the
    weak integral of its diagonal derivative."""
    value, skor, drift, (report,), extra, _ = _integral(phi, kernel, t, [lam], max_order=max_order)
    return VmbvResult(value, skor, drift, report, extra)


def integrate_sigma(phi: ChaosProcess, sigma, kernel: VolterraKernel, t: float,
                    lam: float = 1.0, max_order: int | None = None) -> VmbvResult:
    """Integral with a smooth volatility entering both terms pointwise.

    ``max_order`` defaults to integrand order + volatility order + 1; an
    explicit lower cap raises rather than silently truncating.
    """
    value, skor, drift, (report,), extra, _ = _integral(phi, kernel, t, [lam], sigma, "sigma", max_order)
    return VmbvResult(value, skor, drift, report, extra)


def integrate_wick(phi: ChaosProcess, Sigma, kernel: VolterraKernel, t: float,
                   lam: float = 1.0, max_order: int | None = None) -> VmbvResult:
    """Integral with a generalized volatility entering through Wick products."""
    value, skor, drift, (report,), extra, _ = _integral(phi, kernel, t, [lam], Sigma, "wick", max_order)
    return VmbvResult(value, skor, drift, report, extra)


def integrate_strongind(phi: ChaosProcess, Sigma, kernel: VolterraKernel, t: float,
                        lam: float = 1.0, max_order: int | None = None) -> VmbvResult:
    """Pointwise-volatility integral gated on strong independence.

    The gate checks the kernel action against the volatility at every cell
    (the action mixes future integrand values into each cell, so integrand
    support alone is not enough), then D(10) and the diagnostics as in
    ``integrate_wick``.  Under the gate every contraction term of the
    pointwise product vanishes, so the integral runs the Wick product; the
    tests assert that it equals the pointwise integral, nothing re-checks
    it at run time.
    """
    value, skor, drift, (report,), extra, _ = _integral(
        phi, kernel, t, [lam], Sigma, "strongind", max_order)
    return VmbvResult(value, skor, drift, report, extra)


def _support(stacks: list[_OrderStack], grid: GridSpec, t_cell: int) -> np.ndarray:
    """``[cell, grid cell]`` mask of the cells the components above order 0
    of each cell depend on, as ``ChaosVector.support_cells``."""
    out = np.zeros((t_cell, grid.cells), dtype=bool)
    for stack in stacks:
        if stack.order > 0:
            out |= stack.support()
    return out


# ---------------------------------------------------------------------------
# Consistency oracles
# ---------------------------------------------------------------------------


def chaos_formula_oracle(phi: ChaosProcess, kernel: VolterraKernel, t: float,
                         Sigma: ChaosProcess | None = None) -> ChaosVector:
    """The integral by its white-noise definition, cell by cell.

    At each cell ``s`` below ``t`` the kernel action ``a(s) = g(t, s) phi(s)
    + sum_u w_u (phi(u) - phi(s))`` is summed into one dict per order.  The
    Skorohod integral of a step process is the sum of its Wick products with
    the cell increments, so the integral is

        sum_s a(s) <> (v(s) <> dB_s) + step * sum_s (D_s a(s)) <> v(s),

    with ``v`` the volatility (1 without one), ``dB_s`` the order-1 kernel
    equal to 1 at cell ``s``, ``<>`` the Wick product and ``D_s`` the
    stochastic derivative at ``s``; both sums go into one dict per output
    order.  Must reproduce the pipeline exactly.
    """
    grid = phi.grid
    t_cell = grid.snap_down(t)
    if t_cell < 1:
        raise ValueError(f"t={t} must cover at least one cell")
    if Sigma is not None:
        same_grid(grid, Sigma.grid)
    step = grid.step
    # the action reads the integrand at the cells below t only, each densified once
    values = [ChaosVector(grid, {n: k.to_sparse() for n, k in phi.at(u).components.items()})
              for u in range(t_cell)]
    sums: dict[int, dict[tuple[int, ...], float]] = {}

    def accumulate(acc: dict, vec: ChaosVector, weight: float = 1.0):
        for n, k in vec.components.items():
            into = acc.setdefault(n, {})
            for tup, c in k.to_sparse().entries.items():
                into[tup] = into.get(tup, 0.0) + weight * c

    for s in range(t_cell):
        g_ts, _ = kernel.evaluate_clipped(t, grid.t_mid(s), step)
        weights = list(_stieltjes_weights(kernel, grid, s, t_cell).items())
        action: dict[int, dict[tuple[int, ...], float]] = {}
        for u, w in [(s, g_ts)] + weights + [(s, -sum(w for _, w in weights))]:
            accumulate(action, values[u], w)
        a = ChaosVector(grid, {n: SymKernel(n, grid, acc) for n, acc in action.items()})
        increment = ChaosVector.from_kernel(SymKernel(1, grid, {(s,): 1.0}))
        drift = derivative_at(a, s)
        if Sigma is not None:
            increment = wick(Sigma.at(s), increment)
            drift = wick(drift, Sigma.at(s))
        accumulate(sums, wick(a, increment))
        accumulate(sums, drift, step)
    return ChaosVector(grid, {n: SymKernel(n, grid, acc) for n, acc in sorted(sums.items())})


def s_transform_oracle(phi: ChaosProcess, kernel: VolterraKernel, t: float,
                       xi: TestFunctionXi, Sigma: ChaosProcess | None = None) -> float:
    """Scalar transform of the integral computed on the transform side only.

    The kernel action commutes with the transform, so the integral's
    transform is the time integral of the transformed action times the test
    function, plus the time integral of its functional derivative along the
    diagonal (with the volatility's transform multiplying each term and its
    own functional derivative entering the second term).
    """
    grid = phi.grid
    same_grid(grid, xi.grid)
    t_cell = grid.snap_down(t)
    if t_cell < 1:
        raise ValueError(f"t={t} must cover at least one cell")
    step = grid.step
    arr = xi.as_array()

    # the action reads the integrand at the cells below t only
    s_phi = np.array([s_transform(phi.at(u), xi) for u in range(t_cell)])
    # functional derivative of the integrand transform: d[u, s]
    d_phi = np.array([[s_transform(derivative_at(phi.at(u), s), xi) for s in range(t_cell)]
                      for u in range(t_cell)])

    def scalar_action(values: np.ndarray, s_cell: int) -> float:
        g_ts, _ = kernel.evaluate_clipped(t, grid.t_mid(s_cell), grid.step)
        mw = _stieltjes_weights(kernel, grid, s_cell, t_cell)
        out = g_ts * values[s_cell]
        for u, w in mw.items():
            out += w * (values[u] - values[s_cell])
        return out

    if Sigma is None:
        sig_vals = np.ones(t_cell)
    else:
        same_grid(grid, Sigma.grid)
        sig_vals = np.array([s_transform(Sigma.at(s), xi) for s in range(t_cell)])

    # The functional derivative acts on the kernel-action factor only; the
    # volatility transform multiplies both terms from outside.
    total = 0.0
    for s in range(t_cell):
        k_val = scalar_action(s_phi, s)
        k_frechet = scalar_action(d_phi[:, s], s)
        total += step * k_val * sig_vals[s] * arr[s]
        total += step * k_frechet * sig_vals[s]
    return total


def stability_suite(phi: ChaosProcess, psi: ChaosProcess, kernel: VolterraKernel,
                    t: float, lam: float, n_max: int, variant: str = "plain",
                    vol=None, eps: float = 0.1) -> list[dict]:
    """Perturbation decay table for ``phi_n = phi + psi / n``.

    By linearity the residual norm must equal ``(1/n)`` times the norm of the
    integral of the perturbation, so consecutive residuals contract by
    ``n/(n+1)`` exactly; a violation raises ``StabilityLawError``.  The Wick
    variant is normed at the shifted index ``-lam - 1/2 - eps``.
    """
    if variant not in ("plain", "sigma", "wick"):
        raise ValueError(f"unknown variant {variant!r}")
    norm_index = -lam - eps if variant != "wick" else -lam - 0.5 - eps

    def run(proc: ChaosProcess) -> ChaosVector:
        return _integral(proc, kernel, t, [lam], vol, variant)[0]

    base = run(phi)
    pert_norm = run(psi).gnorm(norm_index)

    rows = []
    for n in range(1, n_max + 1):
        shifted = ChaosProcess.from_function(
            phi.grid, lambda j, n=n: linear_combine(1.0, phi.at(j), 1.0 / n, psi.at(j))
        )
        residual = run(shifted).sub(base).gnorm(norm_index)
        expected = pert_norm / n
        if abs(residual - expected) > 1e-9 * max(expected, 1.0):
            raise StabilityLawError(n, residual, expected)
        rows.append({"n": n, "residual": residual, "expected": expected})
    return rows
