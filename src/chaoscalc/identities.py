"""Executable identity battery.

Every identity of the calculus that holds exactly in the discrete model is
run over seeded random draws and reported as a maximal relative residual.
Shared by the command-line front end and the acceptance suite.
"""

from __future__ import annotations

import math

from .chaos import ChaosProcess, ChaosVector, linear_combine
from .grid import GridSpec
from .kernels import SymKernel
from .operators import (
    derivative_at,
    pettis_time_integral,
    pointwise,
    skorohod,
    wick,
)
from .testing import random_chaos_process, random_chaos_vector, rng_from
from .vmbv import integrate_plain, integrate_sigma
from .volterra import FbmKernel, OuKernel


def chaos_rel_error(a: ChaosVector, b: ChaosVector) -> float:
    """Componentwise relative L2 error across chaos orders."""
    worst = 0.0
    for n in set(a.orders()) | set(b.orders()):
        ka, kb = a.component(n), b.component(n)
        diff = ka.add(kb.scale(-1.0))
        denom = max(math.sqrt(ka.norm_sq()), math.sqrt(kb.norm_sq()), 1.0)
        worst = max(worst, math.sqrt(diff.norm_sq()) / denom)
    return worst


def identity_residuals(grid: GridSpec, seed: int, n_draws: int = 50,
                       max_order: int = 3) -> dict[str, float]:
    """Max relative residual per identity over ``n_draws`` seeded draws."""
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    rng = rng_from(seed)
    res = {
        "ftc": 0.0,
        "integration_by_parts": 0.0,
        "wick_product_rule": 0.0,
        "pointwise_product_rule": 0.0,
        "skorohod_additivity": 0.0,
        "skorohod_indicator": 0.0,
        "localization": 0.0,
        "linearity": 0.0,
        "pullout": 0.0,
    }
    kernels = [OuKernel(alpha=1.0), FbmKernel(H=0.5)]
    horizon = grid.horizon
    mid = grid.t_left(grid.cells // 2)

    for draw in range(n_draws):
        phi = random_chaos_vector(grid, max_order, rng)
        psi = random_chaos_vector(grid, max_order, rng)
        proc = random_chaos_process(grid, max_order, rng)
        proc2 = random_chaos_process(grid, max_order, rng)
        j = int(rng.integers(0, grid.cells))
        kern = kernels[draw % len(kernels)]

        # derivative of the Skorohod integral returns the integrand plus the
        # integral of the derivative
        total = skorohod(proc, 0.0, horizon)
        dproc = ChaosProcess.from_function(grid, lambda s: derivative_at(proc.at(s), j))
        lhs = derivative_at(total, j)
        rhs = proc.at(j).add(skorohod(dproc, 0.0, horizon))
        res["ftc"] = max(res["ftc"], chaos_rel_error(lhs, rhs))

        # moving a fixed factor out of the Skorohod integral costs the time
        # integral of (integrand times the factor's derivative)
        prod_proc = ChaosProcess.from_function(grid, lambda s: pointwise(phi, proc.at(s)))
        lhs = skorohod(prod_proc, 0.0, horizon)
        corr = ChaosProcess.from_function(
            grid, lambda s: pointwise(proc.at(s), derivative_at(phi, s))
        )
        rhs = pointwise(phi, skorohod(proc, 0.0, horizon)).add(
            pettis_time_integral(corr, 0.0, horizon).scale(-1.0)
        )
        res["integration_by_parts"] = max(
            res["integration_by_parts"], chaos_rel_error(lhs, rhs)
        )

        # product rules
        lhs = derivative_at(wick(phi, psi), j)
        rhs = wick(derivative_at(phi, j), psi).add(wick(phi, derivative_at(psi, j)))
        res["wick_product_rule"] = max(res["wick_product_rule"], chaos_rel_error(lhs, rhs))

        lhs = derivative_at(pointwise(phi, psi), j)
        rhs = pointwise(derivative_at(phi, j), psi).add(
            pointwise(phi, derivative_at(psi, j))
        )
        res["pointwise_product_rule"] = max(
            res["pointwise_product_rule"], chaos_rel_error(lhs, rhs)
        )

        # interval additivity and the indicator integral
        lhs = skorohod(proc, 0.0, mid).add(skorohod(proc, mid, horizon))
        rhs = skorohod(proc, 0.0, horizon)
        res["skorohod_additivity"] = max(
            res["skorohod_additivity"], chaos_rel_error(lhs, rhs)
        )

        ones = ChaosProcess.constant(grid, ChaosVector.deterministic(grid, 1.0))
        ind = skorohod(ones, mid, horizon)
        want = ChaosVector.from_kernel(SymKernel.indicator(grid, mid, horizon))
        res["skorohod_indicator"] = max(
            res["skorohod_indicator"], chaos_rel_error(ind, want)
        )

        # cutting the integrand equals shortening the interval
        cut = ChaosProcess.from_function(
            grid, lambda s: proc.at(s) if grid.t_left(s) < mid else ChaosVector.zero(grid)
        )
        lhs = integrate_plain(cut, kern, horizon).value
        rhs = integrate_plain(proc, kern, mid).value
        res["localization"] = max(res["localization"], chaos_rel_error(lhs, rhs))

        # linearity of the integral
        combo = ChaosProcess.from_function(
            grid, lambda s: linear_combine(2.0, proc.at(s), -0.5, proc2.at(s))
        )
        lhs = integrate_plain(combo, kern, horizon).value
        rhs = linear_combine(
            2.0,
            integrate_plain(proc, kern, horizon).value,
            -0.5,
            integrate_plain(proc2, kern, horizon).value,
        )
        res["linearity"] = max(res["linearity"], chaos_rel_error(lhs, rhs))

        # fixed chaos factors pull out of the modulated integral
        low_phi = random_chaos_vector(grid, 1, rng)
        low_proc = random_chaos_process(grid, 1, rng)
        sigma = ChaosProcess.from_function(
            grid, lambda s: ChaosVector.deterministic(grid, 1.0 + 0.05 * s)
        )
        lifted = ChaosProcess.from_function(
            grid, lambda s: pointwise(low_phi, low_proc.at(s))
        )
        lhs = integrate_sigma(lifted, sigma, kern, horizon).value
        rhs = pointwise(low_phi, integrate_sigma(low_proc, sigma, kern, horizon).value)
        res["pullout"] = max(res["pullout"], chaos_rel_error(lhs, rhs))

    return res
