"""Deterministic Volterra kernels and the kernel action on processes.

Evaluates the built-in kernel families, shows the exact Stieltjes cell
measure with its telescoping total variation, reproduces the rough-path
covariance, and applies the two-term kernel action to a process.
"""

import math

from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    FbmKernel,
    OuKernel,
    TurbulenceKernel,
    kernel_eval,
    kernel_measure,
    kg_apply,
    make_grid,
)

grid = make_grid(1.0, 64)

# The three analytic families.
ou = OuKernel(alpha=2.0)
turb = TurbulenceKernel(alpha=1.0, nu=1.5)
rough = FbmKernel(H=0.7)
print(f"exponential kernel g(1, 0.5)   = {kernel_eval(ou, 1.0, 0.5):.6f} "
      f"(= e^-1 = {math.exp(-1):.6f})")
print(f"turbulence kernel g(1, 0.5)    = {kernel_eval(turb, 1.0, 0.5):.6f}")
print(f"rough kernel H=0.7 g(1, 0.5)   = {kernel_eval(rough, 1.0, 0.5):.6f}")
print(f"rough kernel H=0.5 g(t, s)     = {kernel_eval(FbmKernel(H=0.5), 1.0, 0.5):.1f} "
      f"(constant one)")

# Exact cell measure: increments between cell boundaries telescope.
mw = kernel_measure(ou, grid, 0.25, 0.5, 1.0)
total = sum(mw.weights)
print(f"\nmeasure of (0.5, 1.0] for the exponential kernel: {total:+.6f}")
print(f"exact endpoint difference:                        "
      f"{kernel_eval(ou, 1.0, 0.25) - kernel_eval(ou, 0.5, 0.25):+.6f}")
print(f"total variation (monotone, exact): {mw.total_variation:.6f}")

# Covariance reproduction: the first-order integral of the rough kernel has
# the power-law covariance.
for H in (0.6, 0.7, 0.8):
    k = FbmKernel(H=H)
    t, s = 1.0, 0.5
    acc = grid.step * sum(
        kernel_eval(k, t, grid.t_mid(u)) * kernel_eval(k, s, grid.t_mid(u))
        for u in range(grid.snap_down(s))
    )
    exact = 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))
    print(f"H={H}: discrete covariance {acc:.4f} vs exact {exact:.4f} "
          f"({abs(acc - exact) / exact:.1%} off at {grid.cells} cells)")

# The kernel action: value part plus the Stieltjes correction of increments.
g8 = make_grid(1.0, 8)
ramp = ChaosProcess.from_function(g8, lambda j: ChaosVector.deterministic(g8, g8.t_mid(j)))
acted = kg_apply(ramp, OuKernel(alpha=1.0), 1.0)
print("\nkernel action on the deterministic ramp (expectations per cell):")
print("  " + ", ".join(f"{acted.at(s).expectation():+.4f}" for s in range(g8.cells)))
