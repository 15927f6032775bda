"""The calculus on chaos expansions.

Stochastic derivative (kernel slicing), Skorohod integral (time-slot
symmetrization one order up), Wick and pointwise products, the pairing
transform against exponential test directions, the weak time integral, and
the strong-independence support check.

Conventions, fixed once:

* A derivative at a time strictly inside a cell acts at that covering cell.
* Interval endpoints snap down to cell boundaries; an interval that snaps
  empty is an error.
* The Skorohod step introduces no explicit step factor in coefficients; the
  new tensor slot picks up its step weight through the higher-order norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chaos import ChaosProcess, ChaosVector
from .grid import GridSpec, same_grid
from .kernels import LayeredKernel, SymKernel, TimeSlotSymKernel, multiplicity, remove_once


@dataclass(frozen=True)
class TestFunctionXi:
    """Step-function test direction: one value per grid cell."""

    __test__ = False  # not a pytest class

    grid: GridSpec
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.grid.cells:
            raise ValueError(f"need {self.grid.cells} values, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("test function values must be finite")

    @staticmethod
    def from_values(grid: GridSpec, values) -> "TestFunctionXi":
        return TestFunctionXi(grid, tuple(float(v) for v in values))

    @staticmethod
    def from_callable(grid: GridSpec, f) -> "TestFunctionXi":
        return TestFunctionXi(grid, tuple(f(grid.t_mid(j)) for j in range(grid.cells)))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def norm_l2(self) -> float:
        arr = self.as_array()
        return math.sqrt(self.grid.step * float(np.dot(arr, arr)))

    def bump(self, cell: int, height: float) -> "TestFunctionXi":
        vals = list(self.values)
        vals[cell] += height
        return TestFunctionXi(self.grid, tuple(vals))


@dataclass(frozen=True)
class IndependenceSupportReport:
    """Kernel supports of two vectors and whether they are disjoint."""

    support_left: frozenset[int]
    support_right: frozenset[int]
    disjoint: bool
    first_overlap: int | None


def derivative_at(phi: ChaosVector, cell: int) -> ChaosVector:
    """Stochastic derivative at a cell: order-n kernels slide down one order,
    one slot fixed at the cell, scaled by n.  Deterministic input maps to 0.
    """
    if not (0 <= cell < phi.grid.cells):
        raise ValueError(f"cell {cell} outside grid with {phi.grid.cells} cells")
    comps = {}
    for n, k in phi.components.items():
        if n == 0:
            continue
        comps[n - 1] = k.slice_at(cell).scale(float(n))
    return ChaosVector(phi.grid, comps)


def derivative_process(phi: ChaosVector) -> ChaosProcess:
    """The derivative as a process over cells."""
    return ChaosProcess.from_function(phi.grid, lambda j: derivative_at(phi, j))


def _snap_interval(grid: GridSpec, a: float, b: float) -> tuple[int, int]:
    lo, hi = grid.snap_down(a), grid.snap_down(b)
    if hi <= lo:
        raise ValueError(f"interval [{a}, {b}) snaps empty on this grid")
    return lo, hi


def skorohod(psi: ChaosProcess, a: float, b: float) -> ChaosVector:
    """Skorohod integral of a process over ``[a, b)``.

    Each order-n component family becomes the order-(n+1) symmetrization of
    the tensor with the time variable as an extra slot.  Layered components
    give the time-slot form ``TimeSlotSymKernel``, one row of its table per
    cell; every other component accumulates canonically in one sparse
    time-slot accumulator.  An order that holds both forms is their sum,
    ``SymKernel.add``.  The outputs are stored in ascending order.
    """
    grid = psi.grid
    lo, hi = _snap_interval(grid, a, b)

    sparse_acc: dict[int, dict[tuple[int, ...], float]] = {}
    layered_rows: dict[int, np.ndarray] = {}

    for j in range(lo, hi):
        vec = psi.at(j)
        for n, k in vec.components.items():
            if isinstance(k, LayeredKernel):
                layered_rows.setdefault(n, np.zeros((grid.cells, grid.cells)))[j] += k.layers
                continue
            acc = sparse_acc.setdefault(n, {})
            for tup, c in k.to_sparse().entries.items():
                w = tuple(sorted(tup + (j,)))
                weight = (tup.count(j) + 1) / (n + 1)
                acc[w] = acc.get(w, 0.0) + c * weight

    comps = {n + 1: SymKernel(n + 1, grid, acc) for n, acc in sparse_acc.items()}
    for n, mat in layered_rows.items():
        slot = TimeSlotSymKernel(n + 1, grid, mat)
        comps[n + 1] = comps[n + 1].add(slot) if n + 1 in comps else slot
    return ChaosVector(grid, dict(sorted(comps.items())))


def pettis_time_integral(psi: ChaosProcess, a: float, b: float) -> ChaosVector:
    """Weak time integral: order-wise step-weighted sum of the kernels.

    One pass over the cells adds each order's kernels with the kernel-level
    ``add``; orders that sum to zero are dropped, and the step scales each
    sum once.
    """
    grid = psi.grid
    lo, hi = _snap_interval(grid, a, b)
    sums: dict[int, object] = {}
    for j in range(lo, hi):
        for n, k in psi.at(j).components.items():
            sums[n] = sums[n].add(k) if n in sums else k
    return ChaosVector(grid, {n: k.scale(grid.step) for n, k in sums.items()})


def _by_sub_multiset(kern: SymKernel, k: int) -> dict[tuple[int, ...], list]:
    """The entries of a sparse kernel by their distinct ``k``-sub-multisets
    ``c``: ``c -> [(x, coefficient * mult(x))]``, ``x`` the rest of the
    entry's tuple, in multiplicity coordinates."""
    out: dict[tuple[int, ...], list] = {}
    for tup, coef in kern.entries.items():
        for c in set(combinations(tup, k)):
            x = remove_once(tup, c)
            out.setdefault(c, []).append((x, coef * multiplicity(x)))
    return out


def _product(phi: ChaosVector, psi: ChaosVector, contract: bool) -> ChaosVector:
    """The product formula for multiple integrals: the sum over order pairs
    ``(n, m)`` and contraction orders ``k`` (all ``k`` when ``contract``,
    else only ``k = 0``) of ``k! C(n, k) C(m, k)`` times the symmetrized
    ``k``-contraction.

    When a factor has no component above order 0 its order-0 kernel is a
    scalar, which scales the other factor in its storage form.  Otherwise
    each factor component is densified once, and each ``k`` is one join in
    multiplicity coordinates ``d = c * mult(tuple)``, the rule of
    ``stacked._contract``: the right entries are indexed by their
    ``k``-sub-multisets ``c`` as ``y = b - c`` with ``d_y = c_b mult(y)``,
    each left split ``x = a - c`` has ``d_x = c_a mult(x) mult(c) step^k``,
    and ``k! C(n, k) C(m, k) d_x d_y`` adds to ``d_{x+y}``.  Each output
    order is one dict, divided by the multiplicities once."""
    same_grid(phi.grid, psi.grid)
    grid = phi.grid
    for scalar, other in ((psi, phi), (phi, psi)):
        if set(scalar.components) <= {0}:
            c = scalar.expectation()
            return ChaosVector(grid, {n: k.scale(c) for n, k in other.components.items()})
    left = {n: k.to_sparse() for n, k in phi.components.items()}
    right = {m: k.to_sparse() for m, k in psi.components.items()}
    sums: dict[int, dict[tuple[int, ...], float]] = {}
    for k in range(min(max(left), max(right)) + 1 if contract else 1):
        step_k = grid.step ** k
        ys_of = {m: _by_sub_multiset(kb, k) for m, kb in right.items() if m >= k}
        for n, ka in left.items():
            if n < k:
                continue
            xs_of = _by_sub_multiset(ka, k)
            for m, ys_by_c in ys_of.items():
                coef = float(math.factorial(k) * math.comb(n, k) * math.comb(m, k))
                acc = sums.setdefault(n + m - 2 * k, {})
                for c, xs in xs_of.items():
                    ys = ys_by_c.get(c)
                    if ys is None:
                        continue
                    weight = coef * multiplicity(c) * step_k
                    for x, dx in xs:
                        dx *= weight
                        for y, dy in ys:
                            w = tuple(sorted(x + y))
                            acc[w] = acc.get(w, 0.0) + dx * dy
    return ChaosVector(grid, {order: SymKernel(order, grid, {w: d / multiplicity(w) for w, d in acc.items()})
                              for order, acc in sorted(sums.items())})


def wick(phi: ChaosVector, psi: ChaosVector) -> ChaosVector:
    """Wick product: chaos-order convolution of symmetrized tensor products,
    the zero-contraction term of ``pointwise``."""
    return _product(phi, psi, contract=False)


def pointwise(phi: ChaosVector, psi: ChaosVector) -> ChaosVector:
    """Pointwise product via the full contraction expansion, every
    contraction order computed exactly.  With disjoint kernel supports only
    the zero-contraction term survives and the result equals the Wick
    product.
    """
    return _product(phi, psi, contract=True)


def s_transform(phi: ChaosVector, xi: TestFunctionXi) -> float:
    """Pair against the exponential vector of ``xi``: sum_n <phi_n, xi^{(x)n}>.

    Multiplicative over Wick products and injective on the discrete model.
    """
    same_grid(phi.grid, xi.grid)
    arr = xi.as_array()
    return sum(k.s_transform(arr) for k in phi.components.values())


def s_transform_frechet(phi: ChaosVector, xi: TestFunctionXi, cell: int) -> float:
    """Functional derivative of the transform in the unit-mass direction at a
    cell; equals the transform of the stochastic derivative there."""
    return s_transform(derivative_at(phi, cell), xi)


def strongly_independent(phi: ChaosVector, psi: ChaosVector) -> IndependenceSupportReport:
    """Support-disjointness check; zero coefficients never contribute."""
    same_grid(phi.grid, psi.grid)
    sa = frozenset(phi.support_cells())
    sb = frozenset(psi.support_cells())
    overlap = sa & sb
    return IndependenceSupportReport(
        support_left=sa,
        support_right=sb,
        disjoint=not overlap,
        first_overlap=min(overlap) if overlap else None,
    )
