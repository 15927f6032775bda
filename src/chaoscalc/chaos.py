"""Finite chaos expansions and the weighted norm family.

A ``ChaosVector`` is a finite sum of iterated integrals of symmetric kernels,
one component per chaos order.  All elements here are truncated, so every
exponentially weighted norm is finite and each vector is simultaneously a
test and a generalized random variable; the weight index only changes the
numbers, never well-definedness.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, same_grid
from .kernels import SymKernel, kernel_from_json

# Orders above this use log-space weights exp(lgamma(n+1) + 2*lambda*n) to
# dodge overflow of n! * e^{2 lambda n} before the tiny kernel norm cancels it.
_LOG_GUARD_ORDER = 30


def _weight(n: int, lam: float) -> float:
    """``n! e^{2 lam n}``, ``inf`` where it overflows a float."""
    # 2.0 * (lam * n): order 0 gets weight 1 at every finite lam, where
    # (2.0 * lam) * n would be inf * 0 once 2.0 * lam overflows
    try:
        return math.factorial(n) * math.exp(2.0 * (lam * n))
    except OverflowError:
        return math.inf


def order_weighted_sum(orders, values, lam: float):
    """``sum_n n! e^{2 lam n} values[n]``: the weight index enters every
    weighted norm only through this last contraction over chaos orders.

    ``values`` holds one entry per order (the result is a float) or one row
    per order of an ``[order, cell]`` table (the result is one value per
    cell).  The orders are summed in ascending order, whatever order they
    come in, so equal per-order values give equal bits.  A zero value
    contributes exactly 0, and orders above ``_LOG_GUARD_ORDER`` are weighted
    in log space, so a weight never overflows into ``inf * 0``.

    Raises ``OverflowError`` naming the order and ``lam`` when a finite
    value has a weighted term that is not finite; a value that is itself
    infinite or NaN passes through to the caller's gates.
    """
    orders = np.asarray(orders, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    table = values.ndim == 2
    rank = np.argsort(orders, kind="stable")
    orders = orders[rank]
    rows = (values if table else values[:, None])[rank]
    live = rows.any(axis=1)
    weights = [_weight(n, lam) if alive and n <= _LOG_GUARD_ORDER else 0.0
               for n, alive in zip(orders.tolist(), live.tolist())]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, zeroed below
        terms = np.array(weights)[:, None] * rows
    big = live & (orders > _LOG_GUARD_ORDER)
    if big.any():
        n, v = orders[big], rows[big]
        log_n_fact = np.array([math.lgamma(k + 1) for k in n.tolist()])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_terms = (log_n_fact + 2.0 * (lam * n))[:, None] + np.log(np.abs(v))
            terms[big] = np.copysign(np.exp(log_terms), v)
    terms[rows == 0.0] = 0.0
    # the running sum adds the orders one after another in every column
    total = np.cumsum(terms, axis=0)[-1] if len(orders) else np.zeros(rows.shape[1])
    if not np.isfinite(total).all():  # a term that is not finite leaves its column's sum so
        overflow = (np.isfinite(rows) & ~np.isfinite(terms)).any(axis=1)
        if overflow.any():
            raise OverflowError(f"weighted term of order {orders[overflow][0]} overflows at lam={lam}")
    return total if table else float(total[0])


class ChaosVector:
    """Finite chaos expansion: map chaos order -> kernel component.

    A vector is immutable: nothing writes ``components`` after ``__init__``,
    and every operation returns a new vector.  That is what lets the
    per-order squared norms be computed once, on first use, and serve every
    weight index.
    """

    __slots__ = ("grid", "components", "_norms")

    def __init__(self, grid: GridSpec, components: dict[int, object] | None = None):
        self.grid = grid
        self._norms = None
        self.components = {}
        if components:
            for n, k in components.items():
                if k.order != n:
                    raise ValueError(f"component at position {n} has order {k.order}")
                same_grid(grid, k.grid)
                if not k.is_zero():
                    self.components[n] = k

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(grid: GridSpec) -> "ChaosVector":
        return ChaosVector(grid)

    @staticmethod
    def deterministic(grid: GridSpec, value: float) -> "ChaosVector":
        return ChaosVector(grid, {0: SymKernel.scalar(grid, value)})

    @staticmethod
    def from_kernel(kernel) -> "ChaosVector":
        return ChaosVector(kernel.grid, {kernel.order: kernel})

    @staticmethod
    def wiener_integral(grid: GridSpec, values) -> "ChaosVector":
        """First-order integral of a step function given per cell."""
        return ChaosVector.from_kernel(SymKernel.from_cell_values(grid, values))

    @staticmethod
    def brownian_at(grid: GridSpec, t: float) -> "ChaosVector":
        return ChaosVector.from_kernel(SymKernel.indicator(grid, 0.0, t))

    # -- queries -------------------------------------------------------------

    def component(self, n: int):
        k = self.components.get(n)
        if k is None:
            return SymKernel.zero(n, self.grid)
        return k

    def max_order(self) -> int:
        return max(self.components) if self.components else 0

    def orders(self):
        return sorted(self.components)

    def is_zero(self) -> bool:
        return not self.components

    def expectation(self) -> float:
        c = self.components.get(0)
        return c.entries.get((), 0.0) if c is not None else 0.0

    def support_cells(self) -> set[int]:
        cells: set[int] = set()
        for n, k in self.components.items():
            if n > 0:
                cells.update(k.support_cells())
        return cells

    # -- linear structure -------------------------------------------------------

    def scale(self, a: float) -> "ChaosVector":
        if a == 0.0:
            return ChaosVector(self.grid)
        return ChaosVector(self.grid, {n: k.scale(a) for n, k in self.components.items()})

    def add(self, other: "ChaosVector") -> "ChaosVector":
        same_grid(self.grid, other.grid)
        out = dict(self.components)
        for n, k in other.components.items():
            if n in out:
                out[n] = out[n].add(k)
            else:
                out[n] = k
        return ChaosVector(self.grid, out)

    def sub(self, other: "ChaosVector") -> "ChaosVector":
        return self.add(other.scale(-1.0))

    # -- metric --------------------------------------------------------------

    def _order_norm_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Orders and squared component norms, computed on first use; the
        arrays are read-only."""
        if self._norms is None:
            orders = np.array(sorted(self.components), dtype=np.int64)
            norms = np.array([self.components[n].norm_sq() for n in orders.tolist()])
            orders.flags.writeable = False
            norms.flags.writeable = False
            self._norms = (orders, norms)
        return self._norms

    def order_norms_sq(self) -> dict[int, float]:
        """Squared L2 norm of each component, in ascending order; free of any
        weight index.  A new dict on every call."""
        orders, norms = self._order_norm_arrays()
        return dict(zip(orders.tolist(), norms.tolist()))

    def gnorm_sq(self, lam: float) -> float:
        """Squared weighted norm ``sum_n n! e^{2 lam n} |phi_n|^2``; the
        component norms are computed once per vector."""
        return order_weighted_sum(*self._order_norm_arrays(), lam)

    def gnorm(self, lam: float) -> float:
        return math.sqrt(self.gnorm_sq(lam))

    def pairing(self, other: "ChaosVector") -> float:
        same_grid(self.grid, other.grid)
        shared = [n for n in self.components if n in other.components]
        inners = [self.components[n].inner(other.components[n]) for n in shared]
        return order_weighted_sum(shared, inners, 0.0)

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "components": [self.components[n].to_json() for n in sorted(self.components)],
        }

    @staticmethod
    def from_json(obj: dict) -> "ChaosVector":
        grid = GridSpec.from_json(obj["grid"])
        comps = {}
        for kj in obj["components"]:
            k = kernel_from_json(kj)
            comps[k.order] = k
        return ChaosVector(grid, comps)

    def __repr__(self):
        return f"ChaosVector(orders={self.orders()})"


def gnorm(phi: ChaosVector, lam: float) -> float:
    """Exponentially weighted norm sqrt(sum_n n! e^{2 lam n} |phi_n|^2)."""
    return phi.gnorm(lam)


def pairing(phi: ChaosVector, psi: ChaosVector) -> float:
    """Bilinear dual pairing sum_n n! <phi_n, psi_n>."""
    return phi.pairing(psi)


def truncate(phi: ChaosVector, n_max: int) -> ChaosVector:
    """Drop every component of order above ``n_max``."""
    if n_max < 0:
        raise ValueError(f"truncation order must be >= 0, got {n_max}")
    return ChaosVector(phi.grid, {n: k for n, k in phi.components.items() if n <= n_max})


def linear_combine(a: float, phi: ChaosVector, b: float, psi: ChaosVector) -> ChaosVector:
    """Order-wise ``a*phi + b*psi``."""
    same_grid(phi.grid, psi.grid)
    return phi.scale(a).add(psi.scale(b))


class ChaosProcess:
    """Time-cell-indexed family of chaos vectors on one grid.

    A process holds one of three storage forms: a list of values (one
    vector per cell), a generator function ``cell -> ChaosVector``
    materialized lazily and cached, or its order stacks (``stacks``, built
    and read by ``stacked``).  ``at(j)`` builds cell ``j``'s vector from
    each stack's ``kernel_at(j)`` when asked, and the integrals read the
    stacks themselves (``stacked._order_stacks``).
    """

    __slots__ = ("grid", "stacks", "_values", "_fn")

    def __init__(self, grid: GridSpec, values=None, fn=None, stacks=None):
        self.grid = grid
        if (values is None) + (fn is None) + (stacks is None) != 2:
            raise ValueError("provide exactly one of values, fn or stacks")
        if values is not None:
            values = list(values)
            if len(values) != grid.cells:
                raise ValueError(f"need {grid.cells} values, got {len(values)}")
            for v in values:
                same_grid(grid, v.grid)
        if stacks is not None:
            stacks = tuple(stacks)
            for stack in stacks:
                same_grid(grid, stack.grid)
                if len(stack.rows) > grid.cells:
                    raise ValueError(f"order-{stack.order} stack has {len(stack.rows)} rows, "
                                     f"more than {grid.cells} cells")
        self.stacks = stacks
        self._values = values if values is not None else [None] * grid.cells
        self._fn = fn

    @staticmethod
    def from_values(grid: GridSpec, values) -> "ChaosProcess":
        return ChaosProcess(grid, values=values)

    @staticmethod
    def from_function(grid: GridSpec, fn) -> "ChaosProcess":
        return ChaosProcess(grid, fn=fn)

    @staticmethod
    def from_stacks(grid: GridSpec, stacks) -> "ChaosProcess":
        """The process held as its order stacks, by ascending order."""
        return ChaosProcess(grid, stacks=stacks)

    @staticmethod
    def constant(grid: GridSpec, vec: ChaosVector) -> "ChaosProcess":
        return ChaosProcess(grid, values=[vec] * grid.cells)

    def at(self, j: int) -> ChaosVector:
        if not (0 <= j < self.grid.cells):
            raise ValueError(f"cell {j} outside grid with {self.grid.cells} cells")
        v = self._values[j]
        if v is None:
            if self.stacks is not None:
                v = ChaosVector(self.grid, {stack.order: k for stack in self.stacks
                                            if (k := stack.kernel_at(j)) is not None})
            else:
                v = self._fn(j)
                same_grid(self.grid, v.grid)
            self._values[j] = v
        return v

    def max_order(self) -> int:
        return max(self.at(j).max_order() for j in range(self.grid.cells))

    def __iter__(self):
        return (self.at(j) for j in range(self.grid.cells))
