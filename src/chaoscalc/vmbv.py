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

The two independent consistency oracles (direct per-order kernel assembly,
and the scalar transform identity) are implemented on their own code paths
and must agree with the pipelines exactly in the discrete model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosProcess, ChaosVector, linear_combine, order_weighted_sum
from .errors import IndependenceError, IntegrabilityError, StabilityLawError, TruncationOverflowError
from .grid import GridSpec, same_grid
from .kernels import SymKernel
from .operators import TestFunctionXi, derivative_at, s_transform
from .stacked import _integrate
from .volterra import (
    AssumptionReport,
    VolterraKernel,
    _order_stacks,
    _OrderStack,
    _stieltjes_weights,
    kernel_action,
)


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
        extra = {gate: norms[0], "sigma_max_order": vol.max_order()}
    tables = action.tables(stacks, acted)
    reports = [tables.report(lam) for lam in lambdas]
    for report in reports:
        failing = report.failing_assumption()
        if failing is not None:
            raise IntegrabilityError(failing, f"non-finite diagnostic at lambda={report.lam}")
    if max_order is not None:
        natural = phi.max_order() + (0 if vol is None else vol.max_order()) + 1
        if natural > max_order:
            raise TruncationOverflowError(natural, max_order)
    value, skor, drift = _integrate(grid, t_cell, acted, vols, contract)
    return value, skor, drift, reports, extra, acted


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


def _kernel_action_on_component(phi: ChaosProcess, kernel: VolterraKernel,
                                t_cell: int, order: int, s_cell: int) -> SymKernel:
    """Kernel action applied to the order-``order`` kernel family of the
    process, as pure kernel arithmetic (no chaos-vector machinery)."""
    grid = phi.grid
    base = phi.at(s_cell).component(order).to_sparse()
    g_ts, _ = kernel.evaluate_clipped(grid.t_left(t_cell), grid.t_mid(s_cell), grid.step)
    out = base.scale(g_ts)
    mw = _stieltjes_weights(kernel, grid, s_cell, t_cell)
    wsum = 0.0
    for u, w in mw.items():
        if w == 0.0:
            continue
        out = out.add(phi.at(u).component(order).to_sparse().scale(w))
        wsum += w
    if wsum != 0.0:
        out = out.add(base.scale(-wsum))
    return out


def _append_time_slot(acc: dict, kern: SymKernel, s_cell: int):
    """Accumulate the symmetrization of ``kern`` with ``s_cell`` appended as
    one more slot.  Same algebra as the Skorohod step, restated locally so the
    oracle does not run through the pipeline code."""
    n1 = kern.order + 1
    for tup, c in kern.entries.items():
        w = tuple(sorted(tup + (s_cell,)))
        acc[w] = acc.get(w, 0.0) + c * (tup.count(s_cell) + 1) / n1


def chaos_formula_oracle(phi: ChaosProcess, kernel: VolterraKernel, t: float,
                         Sigma: ChaosProcess | None = None) -> ChaosVector:
    """Direct per-order chaos assembly of the integral.

    Output order ``n`` collects (i) the time-slot symmetrization of the
    kernel action applied to the order-``n-1`` kernel family and (ii) the
    step-weighted time sum of the action applied to the order-``n+1`` family
    with one slot pinned to the running cell, scaled by ``n+1``.  With a
    volatility process, each piece is tensor-convolved with its kernels
    first.  Must reproduce the pipeline exactly.
    """
    grid = phi.grid
    t_cell = grid.snap_down(t)
    if t_cell < 1:
        raise ValueError(f"t={t} must cover at least one cell")
    max_phi = max(phi.at(s).max_order() for s in range(grid.cells))
    if Sigma is not None:
        same_grid(grid, Sigma.grid)
        max_sig = max(Sigma.at(s).max_order() for s in range(grid.cells))
    else:
        max_sig = 0
    out_orders = max_phi + max_sig + 1

    # cache the per-(order, s) kernel action
    action: dict[tuple[int, int], SymKernel] = {}

    def act(order: int, s_cell: int) -> SymKernel:
        key = (order, s_cell)
        if key not in action:
            action[key] = _kernel_action_on_component(phi, kernel, t_cell, order, s_cell)
        return action[key]

    comps: dict[int, SymKernel] = {}

    def add_comp(n: int, kern: SymKernel):
        if kern.is_zero():
            return
        comps[n] = comps[n].add(kern) if n in comps else kern

    step = grid.step
    for n in range(out_orders + 1):
        slot_acc: dict[tuple[int, ...], float] = {}
        drift_acc = SymKernel.zero(n, grid)
        for s in range(t_cell):
            if Sigma is None:
                if n >= 1:
                    _append_time_slot(slot_acc, act(n - 1, s), s)
                if n + 1 <= max_phi:
                    sliced = act(n + 1, s).slice_at(s).scale(float(n + 1))
                    drift_acc = drift_acc.add(sliced)
            else:
                sig = Sigma.at(s)
                for m in range(0, max_sig + 1):
                    sig_k = sig.component(m).to_sparse()
                    if sig_k.is_zero():
                        continue
                    if n >= 1 and 0 <= n - 1 - m <= max_phi:
                        _append_time_slot(slot_acc, act(n - 1 - m, s).tensor_sym(sig_k), s)
                    q = n - m
                    if 0 <= q and q + 1 <= max_phi:
                        sliced = act(q + 1, s).slice_at(s).scale(float(q + 1))
                        drift_acc = drift_acc.add(sliced.tensor_sym(sig_k))
        add_comp(n, SymKernel(n, grid, slot_acc))
        add_comp(n, drift_acc.scale(step))
    return ChaosVector(grid, {n: k for n, k in comps.items() if not k.is_zero()})


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

    s_phi = np.array([s_transform(phi.at(u), xi) for u in range(grid.cells)])
    # functional derivative of the integrand transform: d[u, s]
    d_phi = np.zeros((grid.cells, t_cell))
    for u in range(grid.cells):
        vec = phi.at(u)
        for s in range(t_cell):
            d_phi[u, s] = s_transform(derivative_at(vec, s), xi)

    def scalar_action(values: np.ndarray, s_cell: int) -> float:
        g_ts, _ = kernel.evaluate_clipped(grid.t_left(t_cell), grid.t_mid(s_cell), grid.step)
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
