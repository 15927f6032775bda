"""Deterministic Volterra kernels g(t,s), their Stieltjes cell measures, and
the kernel action on chaos processes.

Measure weights are exact per-cell increments of ``g(., s)`` between cell
boundaries, so the action is exact for monotone kernels and the reported
total variation telescopes exactly.  Inside operators the s-argument of a
kernel is taken at the cell midpoint; measure integration bounds stay on the
boundaries.

The built-in kernel families:

* exponential decay ``exp(-alpha (t - s))``,
* power-times-exponential ``(t-s)^(nu-1) exp(-alpha (t-s))`` (singular at the
  diagonal when nu < 1),
* the rough-path kernel with roughness index H in (0,1) whose first-order
  integral reproduces the power-law covariance
  ``(t^{2H} + s^{2H} - |t-s|^{2H}) / 2``; at H = 1/2 it collapses to 1,
* a user-supplied table of node values.

The kernel action ``(K phi)(s) = g(t,s) phi(s) + sum_u w_u (phi(u) - phi(s))``
is linear in the cell values of ``phi``, so at a fixed horizon it is one
matrix ``A(t) = diag(g - sum_u W) + W`` (``KernelAction``).  It is built once
per integral and acts on each chaos order as one matmul, over the stacked
layers of layered kernels or the canonical tuples of sparse ones.  The
integrability diagnostics A(3), B(4), B(5) and their aggregate are norms on
the weighted scale, so they come from lambda-free per-order tables
(``DiagnosticTables``); the weight index enters only as the last
contraction with the order weights ``n! e^{-2 lam n}``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .chaos import ChaosProcess, ChaosVector, order_weighted_sum
from .grid import GridSpec
from .kernels import _multisets, LayeredKernel, SymKernel, layer_weights, multiplicities, unique_rows

# Nodes per panel of the rough kernel's composite Gauss rule.  Every panel
# lies at least its own width away from the singularity at u = 0, so each
# converges like 5.8^(-2n): 24 nodes are far below roundoff.
_GAUSS_NODES = 24


class VolterraKernel:
    """Base evaluator for ``g(t, s)`` with ``0 <= s < t <= horizon``."""

    kind = "abstract"
    singular_at_diagonal = False
    diagonal_offset = 0.5  # in step units; clip distance for singular kernels

    def _eval(self, t: float, s: float) -> float:
        raise NotImplementedError

    def evaluate(self, t: float, s: float) -> float:
        if s >= t:
            raise ValueError(f"need s < t, got s={s}, t={t}")
        if s < 0:
            raise ValueError(f"need s >= 0, got {s}")
        return self._eval(t, s)

    def evaluate_clipped(self, t: float, s: float, step: float) -> tuple[float, bool]:
        """Evaluate with the diagonal clipped away for singular kernels.

        Returns ``(value, clipped)``; non-singular kernels never clip.
        """
        if s >= t:
            raise ValueError(f"need s < t, got s={s}, t={t}")
        if self.singular_at_diagonal:
            min_gap = self.diagonal_offset * step
            if t - s < min_gap:
                return self._eval(s + min_gap, s), True
        return self._eval(t, s), False

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class OuKernel(VolterraKernel):
    """Exponential-decay shift kernel ``exp(-alpha (t - s))``."""

    alpha: float
    kind = "ou"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def _eval(self, t, s):
        return math.exp(-self.alpha * (t - s))

    def measure_density(self, u: float, s: float) -> float:
        return -self.alpha * math.exp(-self.alpha * (u - s))

    def to_config(self):
        return {"kind": "ou", "alpha": self.alpha}


@dataclass(frozen=True)
class TurbulenceKernel(VolterraKernel):
    """Power-law times exponential shift kernel ``(t-s)^(nu-1) e^{-alpha(t-s)}``."""

    alpha: float
    nu: float
    kind = "turbulence"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.nu > 0.5:
            raise ValueError(f"nu must exceed 1/2, got {self.nu}")

    @property
    def singular_at_diagonal(self) -> bool:  # type: ignore[override]
        return self.nu < 1.0

    def _eval(self, t, s):
        u = t - s
        return u ** (self.nu - 1.0) * math.exp(-self.alpha * u)

    def measure_density(self, u: float, s: float) -> float:
        d = u - s
        return math.exp(-self.alpha * d) * d ** (self.nu - 2.0) * ((self.nu - 1.0) - self.alpha * d)

    def to_config(self):
        return {"kind": "turbulence", "alpha": self.alpha, "nu": self.nu}


def _fbm_c(H: float) -> float:
    return math.sqrt(2.0 * H * math.gamma(1.5 - H)) / math.sqrt(math.gamma(H + 0.5) * math.gamma(2.0 - 2.0 * H))


@functools.cache
def _gauss_jacobi(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GAUSS_NODES``-point Gauss rule for
    ``int_0^1 x^beta f(x) dx`` (``beta > -1``; ``beta = 0`` is Gauss-Legendre).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi polynomials for the weight ``(1 + y)^beta`` on ``[-1, 1]``,
    and the weights are the squared first eigenvector components times the
    weight's mass; both are then mapped to ``[0, 1]``.  Read-only arrays,
    built once per exponent.
    """
    n = np.arange(1, _GAUSS_NODES, dtype=float)
    k = 2.0 * n + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta * beta / (k * (k + 2.0))))
    off = np.sqrt(4.0 * n * n * (n + beta) ** 2 / (k * k * (k + 1.0) * (k - 1.0)))
    y, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # mass of (1 + y)^beta on [-1, 1] is 2^(beta+1) / (beta+1); x = (1 + y) / 2
    # scales it by 2^-(beta+1)
    x, w = 0.5 * (1.0 + y), vecs[0] ** 2 / (beta + 1.0)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _rough_integral(span: float, s: float, beta: float, smooth) -> float:
    """``int_0^span d^beta smooth(d) dd`` where ``smooth`` is analytic on
    ``[0, span]`` and singular at ``d = -s``.

    A Gauss-Jacobi panel ``[0, L]``, ``L = min(span, s)``, carries the
    endpoint power; Gauss-Legendre panels ``[L, 3L], [3L, 7L], ...`` of
    doubling width cover the rest, the last one cut at ``span``.
    """
    x, w = _gauss_jacobi(beta)
    width = min(span, s)
    total = width ** (beta + 1.0) * float(np.dot(w, smooth(width * x)))
    edges = [width]
    while edges[-1] < span:
        edges.append(min(2.0 * edges[-1] + width, span))
    if len(edges) > 1:
        x, w = _gauss_jacobi(0.0)
        lo, size = np.array(edges[:-1]), np.diff(edges)
        d = lo[:, None] + size[:, None] * x
        total += float(np.dot(size, (d ** beta * smooth(d)) @ w))
    return total


@dataclass(frozen=True)
class FbmKernel(VolterraKernel):
    """Rough-path kernel with index H; H = 1/2 reduces to the constant 1.

    For H > 1/2 the two defining terms cancel analytically into the single
    integral ``c(H) (H - 1/2) s^{1/2-H} int_s^t u^{H-1/2} (u-s)^{H-3/2} du``,
    which is what gets evaluated (better conditioned).  For H < 1/2 the
    two-term form ``c(H) ((t-s)^{H-1/2} + (1/2-H) int_s^t (u-s)^{H-1/2} q(u) du)``
    is used, with the smooth factor ``q(u) = (1 - (s/u)^{1/2-H}) / (u-s)``
    computed by ``expm1``/``log1p`` so that it keeps its digits near ``u = s``.

    Both integrals are of the form ``(u-s)^beta`` times a factor analytic on
    ``[s, t]`` but singular at ``u = 0``.  They are evaluated by a composite
    Gauss rule of ``_GAUSS_NODES`` nodes per panel: a Gauss-Jacobi panel
    ``[s, s + min(t-s, s)]`` that carries the endpoint power, then
    Gauss-Legendre panels doubling in width up to ``t``, so that each panel
    lies at least its own width away from ``u = 0``.  The nodes come from
    Golub-Welsch and are built once per exponent.  Values are memoized per
    ``(t, s)``.
    """

    H: float
    kind = "fbm"
    _memo: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if not (0.0 < self.H < 1.0):
            raise ValueError(f"H must lie in (0,1), got {self.H}")

    @property
    def singular_at_diagonal(self) -> bool:  # type: ignore[override]
        return self.H < 0.5

    def _eval(self, t, s):
        H = self.H
        if abs(H - 0.5) < 1e-14:
            return 1.0
        key = (t, s)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        c = _fbm_c(H)
        if s == 0.0:
            # limiting form: the bracket reduces to the pure power term
            val = c * t ** (H - 0.5) if H > 0.5 else math.inf
            self._memo[key] = val
            return val
        # d = u - s throughout, so no node loses digits to the difference
        if H > 0.5:
            intval = _rough_integral(t - s, s, H - 1.5, lambda d: (s + d) ** (H - 0.5))
            val = c * (H - 0.5) * s ** (0.5 - H) * intval
        else:
            intval = _rough_integral(t - s, s, H - 0.5, lambda d: -np.expm1((H - 0.5) * np.log1p(d / s)) / d)
            val = c * ((t - s) ** (H - 0.5) + (0.5 - H) * intval)
        self._memo[key] = val
        return val

    def to_config(self):
        return {"kind": "fbm", "H": self.H}


@dataclass(frozen=True)
class TableKernel(VolterraKernel):
    """Kernel given by node values ``values[i][j] = g(i*step_t, j*step_t)``.

    Evaluation snaps both arguments down to nodes; the measure weights are
    the raw increments of the table rows.
    """

    values: tuple
    horizon: float
    kind = "table"

    @staticmethod
    def from_array(values, horizon: float) -> "TableKernel":
        arr = tuple(tuple(float(v) for v in row) for row in values)
        return TableKernel(values=arr, horizon=horizon)

    @property
    def _nodes(self) -> int:
        return len(self.values)

    def _node_step(self) -> float:
        return self.horizon / (self._nodes - 1)

    def _snap(self, t: float) -> int:
        h = self._node_step()
        return min(int(t / h + 1e-12), self._nodes - 1)

    def _eval(self, t, s):
        return self.values[self._snap(t)][self._snap(s)]

    def to_config(self):
        return {"kind": "table", "values": [list(r) for r in self.values]}


def kernel_from_config(cfg: dict, horizon: float | None = None) -> VolterraKernel:
    kind = cfg.get("kind")
    if kind == "ou":
        return OuKernel(alpha=float(cfg["alpha"]))
    if kind == "turbulence":
        return TurbulenceKernel(alpha=float(cfg["alpha"]), nu=float(cfg["nu"]))
    if kind == "fbm":
        return FbmKernel(H=float(cfg["H"]))
    if kind == "table":
        if horizon is None:
            raise ValueError("table kernel config needs the grid horizon")
        return TableKernel.from_array(cfg["values"], horizon)
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_eval(k: VolterraKernel, t: float, s: float) -> float:
    """Evaluate ``g(t, s)``; raises for ``s >= t``."""
    return k.evaluate(t, s)


@dataclass(frozen=True)
class MeasureWeights:
    """Per-cell signed Stieltjes weights of ``g(du, s)`` plus total variation."""

    cells: tuple[int, ...]
    weights: tuple[float, ...]
    total_variation: float
    clipped: bool

    def items(self):
        return zip(self.cells, self.weights)


def kernel_measure(k: VolterraKernel, grid: GridSpec, s: float, u_lo: float, u_hi: float) -> MeasureWeights:
    """Exact per-cell increments of ``g(., s)`` over ``[u_lo, u_hi)`` cells.

    Weight of cell ``j`` is ``g(t_{j+1}, s) - g(t_j, s)``; the sum telescopes
    to the endpoint difference, and for a monotone kernel the absolute sum is
    the exact total variation.
    """
    if not (s < u_lo < u_hi <= grid.horizon * (1 + 1e-12)):
        raise ValueError(f"need s < u_lo < u_hi <= horizon, got {s}, {u_lo}, {u_hi}")
    lo, hi = grid.snap_down(u_lo), grid.snap_down(u_hi)
    if hi <= lo:
        raise ValueError(f"measure interval [{u_lo}, {u_hi}) snaps empty")
    cells = []
    weights = []
    clipped = False
    prev, was_clipped = k.evaluate_clipped(grid.t_left(lo), s, grid.step)
    clipped |= was_clipped
    for j in range(lo, hi):
        nxt, was_clipped = k.evaluate_clipped(grid.t_left(j + 1), s, grid.step)
        clipped |= was_clipped
        cells.append(j)
        weights.append(nxt - prev)
        prev = nxt
    tv = float(sum(abs(w) for w in weights))
    return MeasureWeights(tuple(cells), tuple(weights), tv, clipped)


def _stieltjes_weights(k: VolterraKernel, grid: GridSpec, s_cell: int, t_cell: int) -> MeasureWeights:
    """Measure weights used by the kernel action: cells strictly above the
    s-cell up to ``t``, with the s-argument at the cell midpoint."""
    s_rep = grid.t_mid(s_cell)
    if t_cell <= s_cell + 1:
        return MeasureWeights((), (), 0.0, False)
    return kernel_measure(k, grid, s_rep, grid.t_left(s_cell + 1), grid.t_left(t_cell))


# Elements per temporary array of cell-pair differences in the diagnostics;
# larger tables are processed in blocks of cells.
_DIFF_BLOCK = 1 << 18


class _OrderStack:
    """The order-``n`` components of a process at the cells below ``t``, one
    row per cell in shared coordinates.

    The coordinates are the layers (``tuples`` is None) when every component
    is layered, else the canonical tuples: an ``(K, n)`` matrix of distinct
    sorted tuples in lexicographic order, with ``rows[s, j]`` the coefficient
    of tuple ``j`` at cell ``s``.  Layered and time-slot components of a
    sparse stack are densified, as adding them to a sparse kernel would.
    """

    __slots__ = ("grid", "order", "tuples", "rows", "_mult")

    def __init__(self, grid: GridSpec, order: int, tuples: np.ndarray | None, rows: np.ndarray):
        self.grid = grid
        self.order = order
        self.tuples = tuples
        self.rows = rows
        self._mult = None

    @staticmethod
    def of(grid: GridSpec, order: int, comps: list) -> "_OrderStack":
        """Stack of one component (or None) per cell."""
        if order > 0 and all(c is None or isinstance(c, LayeredKernel) for c in comps):
            zero = np.zeros(grid.cells)
            return _OrderStack(grid, order, None, np.array([zero if c is None else c.layers for c in comps]))
        entries = [(s, c.to_sparse().entries) for s, c in enumerate(comps) if c is not None]
        sizes = [len(e) for _, e in entries]
        total = sum(sizes)
        tuples = np.fromiter(chain.from_iterable(chain.from_iterable(e) for _, e in entries),
                             dtype=np.int64, count=total * order).reshape(total, order)
        keys, index = unique_rows(tuples)
        rows = np.zeros((len(comps), len(keys)))
        rows[np.repeat([s for s, _ in entries], sizes), index] = np.fromiter(
            chain.from_iterable(e.values() for _, e in entries), dtype=float, count=total)
        return _OrderStack(grid, order, keys, rows)

    @property
    def layered(self) -> bool:
        return self.tuples is None

    def with_rows(self, rows: np.ndarray) -> "_OrderStack":
        """The same coordinates with other rows."""
        out = _OrderStack(self.grid, self.order, self.tuples, rows)
        out._mult = self._mult
        return out

    def multiplicities(self) -> np.ndarray:
        """Orderings of each tuple, as floats: ``d = c * multiplicity`` are
        the coordinates in which products and the Skorohod step are
        multiset unions."""
        if self._mult is None:
            self._mult = multiplicities(self.tuples).astype(float)
        return self._mult

    def norm_weights(self) -> np.ndarray:
        """A row's squared norm is ``row**2 @ norm_weights()``."""
        if self.layered:
            return layer_weights(self.grid, self.order)
        return self.grid.step ** self.order * self.multiplicities()

    def kernel(self, row: np.ndarray):
        if self.layered:
            return LayeredKernel(self.order, self.grid, row)
        return SymKernel.from_arrays(self.order, self.grid, self.tuples, row)

    def support(self) -> np.ndarray:
        """``[cell, grid cell]`` mask of the cells each row's kernel
        depends on, as ``support_cells`` of that kernel."""
        if self.layered:
            live = self.rows != 0.0
            return np.logical_or.accumulate(live[:, ::-1], axis=1)[:, ::-1]
        out = np.zeros((len(self.rows), self.grid.cells), dtype=bool)
        s, j = np.nonzero(self.rows)
        out[np.repeat(s, self.order), self.tuples[j].ravel()] = True
        return out

    def densify(self, cells: np.ndarray) -> "_OrderStack":
        """The sparse form of a layered stack's rows at the marked cells,
        other rows zero: every multiset up to the top non-zero layer, valued
        at its largest cell.  Raises ``RepresentationLimitError`` where
        ``LayeredKernel.to_sparse`` of one of those rows would."""
        rows = np.where(cells[:, None], self.rows, 0.0)
        keys = _multisets(self.order, rows.any(axis=0))
        return _OrderStack(self.grid, self.order, keys, rows[:, keys[:, -1]])

    def derivative(self) -> "_OrderStack":
        """The stochastic derivative of each row at its own cell, one order
        down: ``n`` times the kernel with one slot fixed at the cell.  A
        layered row becomes the gather ``n * rows[s, max(r, s)]``."""
        n, rows = self.order, self.rows
        cells = np.arange(len(rows))
        if self.layered:
            if n == 1:
                return _OrderStack(self.grid, 0, np.zeros((1, 0), dtype=np.int64),
                                   n * rows[cells, cells][:, None])
            at = np.maximum.outer(cells, np.arange(self.grid.cells))
            return _OrderStack(self.grid, n - 1, None, n * np.take_along_axis(rows, at, axis=1))
        # one slice per distinct cell of a tuple: drop the first slot of its run
        tuples = self.tuples
        keys, cols, sliced = [], [], []
        for j in range(n):
            hit = tuples[:, j] < len(rows)
            if j:
                hit &= tuples[:, j] != tuples[:, j - 1]
            hit = np.flatnonzero(hit)
            keys.append(hit)
            cols.append(tuples[hit, j])
            sliced.append(tuples[hit][:, [i for i in range(n) if i != j]])
        keys, cols = np.concatenate(keys), np.concatenate(cols)
        out_keys, index = unique_rows(np.concatenate(sliced))
        out = np.zeros((len(rows), len(out_keys)))
        out[cols, index] = n * rows[cols, keys]
        return _OrderStack(self.grid, n - 1, out_keys, out)


def _order_stacks(phi: ChaosProcess, t_cell: int) -> list[_OrderStack]:
    """The order stacks of a process over the cells below ``t``, by
    ascending order."""
    cells = [phi.at(s).components for s in range(t_cell)]
    orders = sorted(set().union(*cells))
    return [_OrderStack.of(phi.grid, n, [c.get(n) for c in cells]) for n in orders]


@dataclass(frozen=True)
class KernelAction:
    """The kernel action at one horizon ``t`` as a fixed matrix.

    Row ``s`` of ``matrix`` holds the coefficients of ``(K phi)(s)`` in the
    cell values ``phi(0), ..., phi(t_cell - 1)``:

        A(t) = diag(g - sum_u W) + W,

    with ``g[s] = g(t, s)`` at the cell midpoint and ``W[s, u]`` the exact
    Stieltjes weight of cell ``u`` over ``(s, t)``.  Cells at or above ``t``
    get no weight and have no column.

    The integrals work on order stacks (``_order_stacks``): ``act`` maps the
    integrand's stacks to those of ``K phi`` with one matmul per order, and
    ``tables`` reads the diagnostics off the same stacks.  ``kg_apply`` and
    ``assumption_report`` are the per-process views of these two.
    """

    grid: GridSpec
    t: float
    g: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    clipped_cells: int

    @property
    def t_cell(self) -> int:
        return len(self.g)

    def act(self, stacks: list[_OrderStack]) -> list[_OrderStack]:
        """The order stacks of ``K phi`` from those of ``phi``."""
        return [stack.with_rows(self.matrix @ stack.rows) for stack in stacks]

    def tables(self, stacks: list[_OrderStack], acted: list[_OrderStack]) -> "DiagnosticTables":
        """Per-order, per-cell squared norms behind the integrability
        conditions, from the integrand's order stacks and their images under
        ``act``; no weight index enters."""
        t_cell = self.t_cell
        w = self.weights
        abs_w = np.abs(w)
        g_sq = self.g * self.g
        orders, a3, b4, b5, aggregate = [], [], [], [], []
        for stack, image in zip(stacks, acted):
            x, m = stack.rows, stack.norm_weights()
            a3_n = np.empty(t_cell)
            b5_n = np.empty(t_cell)
            block = max(1, _DIFF_BLOCK // x.size)
            for lo in range(0, t_cell, block):
                hi = min(lo + block, t_cell)
                diff = x[None, :, :] - x[lo:hi, None, :]  # [s, u] -> phi(u) - phi(s)
                a3_n[lo:hi] = np.sum(abs_w[lo:hi] * ((diff * diff) @ m), axis=1)
                stieltjes = np.einsum("su,suk->sk", w[lo:hi], diff)
                b5_n[lo:hi] = (stieltjes * stieltjes) @ m
            orders.append(stack.order)
            a3.append(a3_n)
            b4.append(g_sq * ((x * x) @ m))
            b5.append(b5_n)
            aggregate.append((image.rows * image.rows) @ m)

        def table(rows):
            return np.array(rows).reshape(len(orders), t_cell)

        return DiagnosticTables(self.grid, self.t, tuple(orders), table(a3), table(b4),
                                table(b5), table(aggregate), self.clipped_cells)


def kernel_action(k: VolterraKernel, grid: GridSpec, t: float) -> KernelAction:
    """Build the kernel action matrix of ``k`` at horizon ``t``."""
    t_cell = grid.snap_down(t)
    if t_cell < 1:
        raise ValueError(f"t={t} must cover at least one cell")
    g = np.empty(t_cell)
    weights = np.zeros((t_cell, t_cell))
    clipped = 0
    for s in range(t_cell):
        g[s], was_clipped = k.evaluate_clipped(t, grid.t_mid(s), grid.step)
        mw = _stieltjes_weights(k, grid, s, t_cell)
        weights[s, list(mw.cells)] = mw.weights
        clipped += int(was_clipped) + int(mw.clipped)
    matrix = weights + np.diag(g - weights.sum(axis=1))
    return KernelAction(grid, t, g, weights, matrix, clipped)


def kg_apply(phi: ChaosProcess, k: VolterraKernel, t: float) -> ChaosProcess:
    """Kernel action on a process: for each cell ``s`` below ``t``,

        value(s) = g(t, s) * phi(s) + sum_u w_u * (phi(u) - phi(s)),

    with ``w`` the exact Stieltjes cell weights over ``(s, t)``.  Cells at or
    above ``t`` map to zero.  One matmul per chaos order.
    """
    grid = phi.grid
    action = kernel_action(k, grid, t)
    comps: list[dict] = [{} for _ in range(action.t_cell)]
    for stack in action.act(_order_stacks(phi, action.t_cell)):
        for s in np.flatnonzero(stack.rows.any(axis=1)).tolist():
            comps[s][stack.order] = stack.kernel(stack.rows[s])
    values = [ChaosVector(grid, c) for c in comps]
    values += [ChaosVector.zero(grid)] * (grid.cells - action.t_cell)
    return ChaosProcess.from_values(grid, values)


@dataclass(frozen=True)
class AssumptionReport:
    """Discrete values of the integrability conditions for one (process,
    kernel, weight index, horizon) choice.

    ``a3`` is the per-cell Stieltjes integral of the squared increment norm;
    ``b4``/``b5`` are the time integrals controlling the Skorohod step; the
    aggregate is the weaker combined condition that can replace them.
    """

    lam: float
    t: float
    a3: tuple[float, ...]
    b4: float
    b5: float
    aggregate: float
    clipped_cells: int
    a3_times_s_max: float

    @property
    def a3_max(self) -> float:
        return max(self.a3) if self.a3 else 0.0

    def all_finite(self) -> bool:
        vals = list(self.a3) + [self.b4, self.b5, self.aggregate]
        return all(math.isfinite(v) for v in vals)

    def failing_assumption(self) -> str | None:
        if not all(math.isfinite(v) for v in self.a3):
            return "A(3)"
        if not math.isfinite(self.b4):
            return "B(4)"
        if not math.isfinite(self.b5):
            return "B(5)"
        if not math.isfinite(self.aggregate):
            return "aggregate"
        return None


@dataclass(frozen=True)
class DiagnosticTables:
    """Lambda-free tables of the integrability conditions, ``[order, cell]``.

    Row ``i`` belongs to chaos order ``orders[i]``.  Per cell ``s``: ``a3``
    is the Stieltjes integral of ``|phi_n(u) - phi_n(s)|^2``, ``b4`` the
    squared norm of ``g(t, s) phi_n(s)``, ``b5`` that of the Stieltjes part
    ``sum_u w_u (phi_n(u) - phi_n(s))`` and ``aggregate`` that of the whole
    action.  A weight index enters only in ``report``, as the contraction
    with the order weights ``n! e^{-2 lam n}``.
    """

    grid: GridSpec
    t: float
    orders: tuple[int, ...]
    a3: np.ndarray
    b4: np.ndarray
    b5: np.ndarray
    aggregate: np.ndarray
    clipped_cells: int

    def report(self, lam: float) -> AssumptionReport:
        """The diagnostics at weight index ``-lam``: one contraction over the
        orders of the whole ``a3`` table and the cell sums of the others."""
        step = self.grid.step
        sums = np.column_stack([self.a3, self.b4.sum(axis=1), self.b5.sum(axis=1),
                                self.aggregate.sum(axis=1)])
        contracted = order_weighted_sum(self.orders, sums, -lam)
        a3 = contracted[:-3]
        b4, b5, aggregate = (step * contracted[-3:]).tolist()
        return AssumptionReport(
            lam=lam,
            t=self.t,
            a3=tuple(a3.tolist()),
            b4=b4,
            b5=b5,
            aggregate=aggregate,
            clipped_cells=self.clipped_cells,
            # fmax skips a NaN cell, as a running max over the cells would
            a3_times_s_max=float(np.fmax.reduce(a3 * (np.arange(len(a3)) * step), initial=0.0)),
        )


def assumption_report(phi: ChaosProcess, k: VolterraKernel, lam: float, t: float) -> AssumptionReport:
    """Evaluate the integrability diagnostics at weight index ``-lam``."""
    action = kernel_action(k, phi.grid, t)
    stacks = _order_stacks(phi, action.t_cell)
    return action.tables(stacks, action.act(stacks)).report(lam)
