"""Pathwise evaluation of chaos vectors and Monte Carlo cross-checks.

The finite model makes every chaos vector a polynomial in the standard
normal coordinates ``xi_i = <omega, 1_cell_i / sqrt(step)>``: an elementary
symmetric tensor on cells with repeat counts ``a_1..a_k`` evaluates to the
product of probabilists' Hermite polynomials ``He_{a_i}(xi_i)``.  Cell-basis
coefficients convert to the orthonormal basis with the factor
``step^{n/2} * multiplicity``.

``evaluate_block`` is a blocked gather over the canonical index arrays
(``SymKernel.arrays``): one ``[degree, cell, path]`` Hermite table holds
every factor, each tuple position selects the row ``He_run(xi_cell)`` of the
run of equal cells that starts there (``He_0 = 1`` inside a run), and a block
of entries multiplies its gathered rows and contracts them with
``coef * multiplicity * step^{n/2}``.  Blocks keep each temporary near
``_BLOCK_ELEMENTS`` values.  The summation order is fixed, so equal inputs
give equal bytes.

The generator is counter-based (Philox keyed by the seed), so path blocks
are reproducible and safely parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosProcess, ChaosVector
from .grid import GridSpec, same_grid
from .kernels import multiplicities, run_lengths


@dataclass(frozen=True)
class NoiseVector:
    """One standard-normal draw per cell; reproducible from the seed."""

    grid: GridSpec
    xi: np.ndarray
    seed: int

    def increments(self) -> np.ndarray:
        """Brownian increments per cell: sqrt(step) * xi."""
        return math.sqrt(self.grid.step) * self.xi


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_noise(grid: GridSpec, seed: int) -> NoiseVector:
    """Draw the cell coordinates for one path."""
    xi = _generator(seed).standard_normal(grid.cells)
    return NoiseVector(grid=grid, xi=xi, seed=seed)


def sample_noise_block(grid: GridSpec, n_paths: int, seed: int) -> np.ndarray:
    """Matrix of coordinates for ``n_paths`` paths, shape (paths, cells)."""
    return _generator(seed).standard_normal((n_paths, grid.cells))


def _hermite_table(xi_block: np.ndarray, max_degree: int) -> np.ndarray:
    """Probabilists' Hermite values, shape ``[degree, cell, path]``."""
    x = xi_block.T
    table = np.empty((max_degree + 1,) + x.shape)
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = x
    for d in range(2, max_degree + 1):
        table[d] = x * table[d - 1] - (d - 1) * table[d - 2]
    return table


# Elements per gathered temporary: the entry block holds about this many
# (entry, path) factors.
_BLOCK_ELEMENTS = 1 << 16


def evaluate_block(phi: ChaosVector, xi_block: np.ndarray) -> np.ndarray:
    """Evaluate a chaos vector on a block of paths, shape (paths,)."""
    grid = phi.grid
    if xi_block.ndim != 2 or xi_block.shape[1] != grid.cells:
        raise ValueError(f"xi block must be (paths, {grid.cells})")
    n_paths = xi_block.shape[0]
    terms = []
    max_deg = 0
    for n, k in sorted(phi.components.items()):
        tuples, coef = k.to_sparse().arrays()
        runs = run_lengths(tuples)
        max_deg = max(max_deg, int(runs.max(initial=0)))
        weight = coef * multiplicities(tuples).astype(float) * grid.step ** (n / 2.0)
        # row of He_run(xi_cell) in the flattened table; He_0 = 1 inside a run
        terms.append((runs * grid.cells + tuples, weight))
    he = _hermite_table(xi_block, max_deg).reshape((max_deg + 1) * grid.cells, n_paths)
    out = np.zeros(n_paths)
    rows = max(1, _BLOCK_ELEMENTS // max(1, n_paths))
    for he_rows, weight in terms:
        if he_rows.shape[1] == 0:
            out += weight.sum()
            continue
        for lo in range(0, len(weight), rows):
            idx = he_rows[lo:lo + rows]
            prod = he[idx[:, 0]]
            for j in range(1, idx.shape[1]):
                prod *= he[idx[:, j]]
            out += weight[lo:lo + rows] @ prod
    return out


def evaluate(phi: ChaosVector, omega: NoiseVector) -> float:
    """Evaluate a chaos vector on one path."""
    same_grid(phi.grid, omega.grid)
    return float(evaluate_block(phi, omega.xi[None, :])[0])


def ito_oracle(phi: ChaosProcess, omega: NoiseVector) -> float:
    """Forward stochastic sum ``sum_s phi(s) * dB_s`` for adapted integrands.

    Adaptedness (each value supported strictly on earlier cells) is checked
    and violations rejected; for such integrands this classical sum agrees
    pathwise with the Skorohod construction.
    """
    same_grid(phi.grid, omega.grid)
    db = omega.increments()
    total = 0.0
    for s in range(phi.grid.cells):
        vec = phi.at(s)
        sup = vec.support_cells()
        if any(c >= s for c in sup):
            raise ValueError(f"integrand at cell {s} is not adapted (support {sorted(sup)})")
        if not vec.is_zero():
            total += evaluate(vec, omega) * db[s]
    return total


@dataclass(frozen=True)
class McMoments:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n_samples: int


def mc_moments(phi: ChaosVector, n_samples: int, seed: int) -> McMoments:
    """Sample mean and variance with jackknife standard errors.

    The mean estimates the order-0 coefficient; the variance estimates the
    squared plain norm minus the squared mean.  The leave-one-out variances
    behind ``se_variance`` need at least 3 samples.
    """
    if n_samples < 3:
        raise ValueError(f"need at least 3 samples, got {n_samples}")
    xi = sample_noise_block(phi.grid, n_samples, seed)
    vals = evaluate_block(phi, xi)
    n = n_samples
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    se_mean = math.sqrt(var / n)

    # leave-one-out variances from the power sums
    s1 = float(np.sum(vals))
    s2 = float(np.sum(vals * vals))
    loo_mean = (s1 - vals) / (n - 1)
    loo_var = (s2 - vals * vals - (n - 1) * loo_mean ** 2) / (n - 2)
    se_var = math.sqrt((n - 1) / n * float(np.sum((loo_var - np.mean(loo_var)) ** 2)))
    return McMoments(mean=mean, variance=var, se_mean=se_mean, se_variance=se_var, n_samples=n)
