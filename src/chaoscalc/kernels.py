"""Symmetric kernel tensors on the grid.

An order-``n`` kernel is a symmetric, cell-wise constant function on
``[0,T)^n``.  Three storage forms cover the workloads:

``SymKernel``
    Canonical sparse form: a map from sorted (non-decreasing) cell tuples to
    the coefficient the function takes on every permutation of that tuple.
    Symmetry is structural, fixed at ingestion, never re-checked numerically.

``LayeredKernel``
    Dense structured form for kernels whose value depends only on the largest
    cell index in the argument (constants on ``[0,t)^n`` and their linear
    combinations).  Keeps delta-function experiments at chaos order ~40
    tractable; sparse tuples would be astronomically many.

``TimeSlotSymKernel``
    The symmetrization, over all slots, of a family ``(x, s) -> f_s(max x)``
    of layered kernels indexed by a distinguished time slot.  Produced when
    the Skorohod step runs over layered-valued processes.  Norms and inner
    products are evaluated through the symmetrization projector rather than
    by materializing the tensor.

Squared L2 norms carry the weight ``step**n`` per tuple times the number of
distinct orderings of the tuple, i.e. the Lebesgue volume of the orbit.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, combinations_with_replacement
from typing import Iterable

import numpy as np

from .errors import RepresentationLimitError
from .grid import GridSpec, same_grid

# Converting a structured kernel to sparse tuples is only allowed below this
# many multisets; beyond it ``to_sparse`` raises RepresentationLimitError.
_DENSIFY_LIMIT = 500_000


def multiplicity(tup: tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted tuple: n! / prod(counts!)."""
    n = len(tup)
    if n <= 1:
        return 1
    m = math.factorial(n)
    run = 1
    for i in range(1, n):
        if tup[i] == tup[i - 1]:
            run += 1
        else:
            m //= math.factorial(run)
            run = 1
    m //= math.factorial(run)
    return m


def run_lengths(tuples: np.ndarray) -> np.ndarray:
    """Length of the run of equal cells that starts at each position of each
    sorted row of an ``(nnz, n)`` tuple matrix; 0 inside a run."""
    nnz, n = tuples.shape
    differs = tuples[:, 1:] != tuples[:, :-1]
    starts = np.ones((nnz, n), dtype=bool)
    starts[:, 1:] = differs
    ends = np.ones((nnz, n), dtype=bool)
    ends[:, :-1] = differs
    # the k-th run start and the k-th run end belong to the same run
    first = starts.ravel().nonzero()[0]
    runs = np.zeros(nnz * n, dtype=np.int64)
    runs[first] = ends.ravel().nonzero()[0] - first + 1
    return runs.reshape(nnz, n)


# 20! is the largest factorial that fits in int64.
_FACTORIALS = np.array([math.factorial(k) for k in range(21)], dtype=np.int64)


def multiplicities(tuples: np.ndarray) -> np.ndarray:
    """``multiplicity`` of every sorted row of an ``(nnz, n)`` tuple matrix:
    ``n!`` over the product of each slot's 1-based position in its run of
    equal cells, which is the product of the run factorials.

    Exact: int64 through order 20, Python integers (object dtype) above,
    where ``n!`` no longer fits in int64.
    """
    nnz, n = tuples.shape
    big = n >= len(_FACTORIALS)
    position = np.ones(nnz, dtype=np.int64)
    runs = np.ones(nnz, dtype=object if big else np.int64)
    for j in range(1, n):
        position = np.where(tuples[:, j] == tuples[:, j - 1], position + 1, 1)
        runs = runs * position
    return (math.factorial(n) if big else _FACTORIALS[n]) // runs


def unique_rows(tuples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an ``(L, n)`` non-negative int matrix, in
    lexicographic order, and the index of each input row among them.

    Rows are ranked through one int64 code per row (base ``max + 1``) when
    that fits, and by a column-wise lexsort when it does not.
    """
    count, n = tuples.shape
    if count == 0 or n == 0:
        return tuples[:min(count, 1)], np.zeros(count, dtype=np.int64)
    new = np.ones(count, dtype=bool)
    base = int(tuples.max()) + 1
    if n * math.log2(max(base, 2)) < 62:
        codes = tuples[:, 0].astype(np.int64)
        for j in range(1, n):
            codes = codes * base + tuples[:, j]
        rank = np.argsort(codes, kind="stable")
        ranked = codes[rank]
        new[1:] = ranked[1:] != ranked[:-1]
    else:
        rank = np.lexsort(tuples.T[::-1])
        ranked = tuples[rank]
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(count, dtype=np.int64)
    inverse[rank] = np.cumsum(new) - 1
    return tuples[rank[new]], inverse


def remove_once(tup: tuple[int, ...], values: Iterable[int]) -> tuple[int, ...]:
    """Remove one occurrence of each value in ``values`` from ``tup``."""
    out = list(tup)
    for v in values:
        out.remove(v)
    return tuple(out)


def _multisets(order: int, live: np.ndarray) -> np.ndarray:
    """Every multiset of ``order`` cells up to the last cell marked in
    ``live``: the ``(K, order)`` matrix of sorted rows in lexicographic
    order.  Raises ``RepresentationLimitError`` when there are too many."""
    nz = np.flatnonzero(live)
    top = int(nz[-1]) if nz.size else -1
    count = math.comb(top + order + 1, order) if nz.size else 0
    if count > _DENSIFY_LIMIT:
        raise RepresentationLimitError(f"kernel too large to densify ({count} multisets)")
    tuples = np.array(list(combinations_with_replacement(range(top + 1), order)), dtype=np.int64)
    return tuples.reshape(len(tuples), order)


class SymKernel:
    """Canonical sparse symmetric kernel: sorted tuple -> coefficient."""

    __slots__ = ("order", "grid", "entries")

    def __init__(self, order: int, grid: GridSpec, entries: dict[tuple[int, ...], float] | None = None):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.grid = grid
        self.entries = {}
        if entries:
            for tup, c in entries.items():
                if c != 0.0:
                    self.entries[tup] = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order: int, grid: GridSpec) -> "SymKernel":
        return SymKernel(order, grid)

    @staticmethod
    def scalar(grid: GridSpec, value: float) -> "SymKernel":
        return SymKernel(0, grid, {(): float(value)} if value != 0.0 else {})

    @staticmethod
    def from_arrays(order: int, grid: GridSpec, tuples: np.ndarray, coef: np.ndarray) -> "SymKernel":
        """Kernel from a canonical COO form: an ``(nnz, order)`` matrix of
        distinct sorted tuples and their coefficients.  Zero coefficients are
        dropped by one mask, and the entries keep the row order, so rows in
        lexicographic order give a kernel whose ``arrays()`` needs no sort."""
        out = SymKernel(order, grid)
        live = coef != 0.0
        if order == 0:
            if live.any():
                out.entries[()] = float(coef[live][0])
            return out
        out.entries = dict(zip(zip(*tuples[live].T.tolist()), coef[live].tolist()))
        return out

    @staticmethod
    def from_cell_values(grid: GridSpec, values) -> "SymKernel":
        """Order-1 kernel from one value per grid cell."""
        ent = {(j,): float(v) for j, v in enumerate(values) if v != 0.0}
        return SymKernel(1, grid, ent)

    @staticmethod
    def indicator(grid: GridSpec, a: float, b: float) -> "SymKernel":
        """Order-1 kernel equal to 1 on cells covering ``[a, b)``."""
        lo, hi = grid.snap_down(a), grid.snap_down(b)
        return SymKernel(1, grid, {(j,): 1.0 for j in range(lo, hi)})

    # -- basic queries -----------------------------------------------------

    def coeff(self, tup: tuple[int, ...]) -> float:
        return self.entries.get(tuple(sorted(tup)), 0.0)

    def is_zero(self) -> bool:
        return not self.entries

    def support_cells(self) -> set[int]:
        cells: set[int] = set()
        for tup in self.entries:
            cells.update(tup)
        return cells

    def to_sparse(self) -> "SymKernel":
        """Already sparse: the kernel itself."""
        return self

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical COO form: the ``(nnz, order)`` int tuple matrix, rows in
        lexicographic order, and the matching coefficient vector."""
        nnz = len(self.entries)
        tuples = np.fromiter(chain.from_iterable(self.entries), dtype=np.int64,
                             count=nnz * self.order).reshape(nnz, self.order)
        coef = np.fromiter(self.entries.values(), dtype=float, count=nnz)
        if self.order == 0 or nnz < 2:
            return tuples, coef
        # sort only when some consecutive pair of rows is out of order: the
        # first column where two neighbours differ decides their order
        step = tuples[1:] - tuples[:-1]
        first = (step != 0).argmax(axis=1)
        if (step[np.arange(nnz - 1), first] > 0).all():
            return tuples, coef
        rank = np.lexsort(tuples.T[::-1])
        return tuples[rank], coef[rank]

    # -- linear structure ---------------------------------------------------

    def scale(self, a: float) -> "SymKernel":
        if a == 0.0:
            return SymKernel(self.order, self.grid)
        return SymKernel(self.order, self.grid, {t: a * c for t, c in self.entries.items()})

    def add(self, other) -> "SymKernel":
        other = other.to_sparse()
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        same_grid(self.grid, other.grid)
        out = dict(self.entries)
        for t, c in other.entries.items():
            s = out.get(t, 0.0) + c
            if s == 0.0:
                out.pop(t, None)
            else:
                out[t] = s
        return SymKernel(self.order, self.grid, out)

    # -- metric -------------------------------------------------------------

    def norm_sq(self) -> float:
        w = self.grid.step ** self.order
        return w * sum(multiplicity(t) * c * c for t, c in self.entries.items())

    def inner(self, other) -> float:
        if isinstance(other, LayeredKernel):
            return other.inner(self)
        if isinstance(other, TimeSlotSymKernel):
            return other.inner(self)
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        same_grid(self.grid, other.grid)
        small, big = self.entries, other.entries
        if len(big) < len(small):
            small, big = big, small
        w = self.grid.step ** self.order
        return w * sum(multiplicity(t) * c * big[t] for t, c in small.items() if t in big)

    # -- calculus primitives -------------------------------------------------

    def slice_at(self, cell: int) -> "SymKernel":
        """Fix one slot at ``cell``.  No derivative factor is applied."""
        if self.order == 0:
            raise ValueError("cannot slice an order-0 kernel")
        out: dict[tuple[int, ...], float] = {}
        for tup, c in self.entries.items():
            if cell in tup:
                out[remove_once(tup, (cell,))] = c
        return SymKernel(self.order - 1, self.grid, out)

    def tensor_sym(self, other) -> "SymKernel":
        """Symmetrized tensor product with another kernel: the contraction
        of no slot pairs."""
        return self.contract_sym(other, 0)

    def contract_sym(self, other, k: int) -> "SymKernel":
        """Contract ``k`` slot pairs (step-weighted sums), then symmetrize.

        The one product loop over pairs of entries.  Each left tuple is split
        once into its ``k``-sub-multisets, the rest and the weight
        ``multiplicity(sub) * step**k``; at ``k = 0`` the split is the tuple
        itself with weight 1."""
        other = other.to_sparse()
        same_grid(self.grid, other.grid)
        n, m = self.order, other.order
        if k < 0 or k > min(n, m):
            raise ValueError(f"cannot contract {k} slots of orders {n}, {m}")
        out: dict[tuple[int, ...], float] = {}
        step_k = self.grid.step ** k
        denom = math.comb(n + m - 2 * k, n - k)
        for ta, ca in self.entries.items():
            splits = [((), ta, 1.0)] if k == 0 else [
                (c_ms, remove_once(ta, c_ms), multiplicity(c_ms) * step_k)
                for c_ms in set(combinations(ta, k))]
            for tb, cb in other.entries.items():
                for c_ms, x, weight in splits:
                    y = tb
                    if c_ms:
                        if any(tb.count(v) < c_ms.count(v) for v in set(c_ms)):
                            continue
                        y = remove_once(tb, c_ms)
                    w = tuple(sorted(x + y))
                    comb_w = 1
                    for v in set(x):
                        comb_w *= math.comb(w.count(v), x.count(v))
                    out[w] = out.get(w, 0.0) + ca * cb * weight * comb_w / denom
        return SymKernel(n + m - 2 * k, self.grid, out)

    # -- transforms -----------------------------------------------------------

    def s_transform(self, xi: np.ndarray) -> float:
        """Pair against ``xi^{(x)n}``; factorizes over slots."""
        w = self.grid.step ** self.order
        total = 0.0
        for tup, c in self.entries.items():
            prod = c
            for v in tup:
                prod *= xi[v]
            total += multiplicity(tup) * prod
        return w * total

    # -- io --------------------------------------------------------------------

    def to_json(self) -> dict:
        ents = sorted(self.entries.items())
        return {
            "order": self.order,
            "grid": self.grid.to_json(),
            "entries": [[list(t), c] for t, c in ents],
        }

    @staticmethod
    def from_json(obj: dict) -> "SymKernel":
        grid = GridSpec.from_json(obj["grid"])
        order = int(obj["order"])
        ent: dict[tuple[int, ...], float] = {}
        for t, c in obj["entries"]:
            tup = tuple(int(i) for i in t)
            if len(tup) != order:
                raise ValueError(f"tuple length {len(tup)} != order {order}")
            if tuple(sorted(tup)) != tup:
                raise ValueError(f"tuple {tup} not in canonical sorted form")
            ent[tup] = ent.get(tup, 0.0) + float(c)
        return SymKernel(order, grid, ent)

    def __repr__(self):
        return f"SymKernel(order={self.order}, entries={len(self.entries)})"


def sym_store(order: int, raw_entries, grid: GridSpec, mode: str = "canonical") -> SymKernel:
    """Ingest raw (tuple, coefficient) pairs into canonical form.

    ``mode="canonical"``: tuples name multisets; duplicates accumulate by sum.
    ``mode="positional"``: tuples name positional tensor entries; the stored
    object is the symmetrization of the raw input, so each entry contributes
    ``c / (number of distinct orderings)`` to its canonical slot and missing
    orderings count as zero.
    """
    if mode not in ("canonical", "positional"):
        raise ValueError(f"unknown mode {mode!r}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    out: dict[tuple[int, ...], float] = {}
    for tup, c in raw_entries:
        tup = tuple(int(i) for i in tup)
        if len(tup) != order:
            raise ValueError(f"tuple {tup} has length {len(tup)}, expected {order}")
        for i in tup:
            if not (0 <= i < grid.cells):
                raise ValueError(f"cell index {i} outside grid with {grid.cells} cells")
        key = tuple(sorted(tup))
        c = float(c)
        if mode == "positional":
            c /= multiplicity(key)
        out[key] = out.get(key, 0.0) + c
    return SymKernel(order, grid, out)


def inner_product(f, g) -> float:
    """Discrete L2 inner product of two same-order kernels."""
    return f.inner(g)


def layer_weights(grid: GridSpec, q: int) -> np.ndarray:
    """Lebesgue volume of the region {max cell index == r} in ``[0,T)^q``.

    Computed as ``t_{r+1}^q - t_r^q`` with physical times, which avoids
    overflow of ``(r+1)^q`` against ``step^q`` at large order.
    """
    t = np.arange(grid.cells + 1) * grid.step
    return t[1:] ** q - t[:-1] ** q


class LayeredKernel:
    """Symmetric kernel whose value depends only on the maximal cell index.

    ``layers[r]`` is the value on every argument tuple with max cell ``r``.
    Closed under linear combination, slot slicing and max-prefix indicator
    constructions; exactly the closure of constants on ``[0,t)^n``.
    """

    __slots__ = ("order", "grid", "layers")

    def __init__(self, order: int, grid: GridSpec, layers: np.ndarray):
        if order < 1:
            raise ValueError("layered kernels need order >= 1; use SymKernel.scalar")
        layers = np.asarray(layers, dtype=float)
        if layers.shape != (grid.cells,):
            raise ValueError(f"layers must have shape ({grid.cells},)")
        self.order = order
        self.grid = grid
        self.layers = layers

    @staticmethod
    def prefix_constant(order: int, grid: GridSpec, value: float, n_cells: int) -> "LayeredKernel":
        """Kernel constant = ``value`` on ``[0, n_cells*step)^order``, else 0."""
        layers = np.zeros(grid.cells)
        layers[:n_cells] = value
        return LayeredKernel(order, grid, layers)

    def is_zero(self) -> bool:
        return not self.layers.any()

    def support_cells(self) -> set[int]:
        nz = np.nonzero(self.layers)[0]
        if nz.size == 0:
            return set()
        return set(range(int(nz[-1]) + 1))

    def scale(self, a: float) -> "LayeredKernel":
        return LayeredKernel(self.order, self.grid, a * self.layers)

    def add(self, other) -> "LayeredKernel | SymKernel | TimeSlotSymKernel":
        """Sum in the storage form that holds both addends: layered, the
        time-slot form for a time-slot addend, sparse for a sparse one."""
        if isinstance(other, TimeSlotSymKernel):
            return other.add(self)
        if isinstance(other, SymKernel):
            return self.to_sparse().add(other)
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        same_grid(self.grid, other.grid)
        return LayeredKernel(self.order, self.grid, self.layers + other.layers)

    def norm_sq(self) -> float:
        return float(np.dot(layer_weights(self.grid, self.order), self.layers ** 2))

    def inner(self, other) -> float:
        if isinstance(other, LayeredKernel):
            if self.order != other.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
            same_grid(self.grid, other.grid)
            return float(np.dot(layer_weights(self.grid, self.order), self.layers * other.layers))
        if isinstance(other, SymKernel):
            if self.order != other.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
            same_grid(self.grid, other.grid)
            w = self.grid.step ** self.order
            return w * sum(
                multiplicity(t) * c * self.layers[max(t)] for t, c in other.entries.items()
            )
        if isinstance(other, TimeSlotSymKernel):
            return other.inner(self)
        raise TypeError(f"cannot pair LayeredKernel with {type(other).__name__}")

    def slice_at(self, cell: int) -> "LayeredKernel | SymKernel":
        """Fix one slot at ``cell``: layer function becomes r -> h(max(r, cell))."""
        if self.order == 1:
            return SymKernel.scalar(self.grid, float(self.layers[cell]))
        new = self.layers.copy()
        new[:cell] = self.layers[cell]
        return LayeredKernel(self.order - 1, self.grid, new)

    def s_transform(self, xi: np.ndarray) -> float:
        prefix = np.concatenate(([0.0], np.cumsum(xi) * self.grid.step))
        powers = prefix ** self.order
        return float(np.dot(self.layers, powers[1:] - powers[:-1]))

    def to_sparse(self) -> SymKernel:
        """Materialize as sparse canonical tuples.  Guarded by size."""
        tuples = _multisets(self.order, self.layers != 0.0)
        return SymKernel.from_arrays(self.order, self.grid, tuples, self.layers[tuples[:, -1]])

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "grid": self.grid.to_json(),
            "layers": [float(v) for v in self.layers],
        }

    @staticmethod
    def from_json(obj: dict) -> "LayeredKernel":
        grid = GridSpec.from_json(obj["grid"])
        return LayeredKernel(int(obj["order"]), grid, np.array(obj["layers"], dtype=float))

    def __repr__(self):
        return f"LayeredKernel(order={self.order}, cells={self.grid.cells})"


class TimeSlotSymKernel:
    """Symmetrization of ``G(x_1..x_q, s) = phi[s, max(x)]``, total order
    ``q+1``.

    A symmetric layered kernel ``L`` of the same order is the table
    ``phi[s, r] = L[max(s, r)]``: each symmetrized term
    ``phi[x_i, max(x without x_i)]`` is ``L[max x]``.  So adding a layered
    kernel adds its table, and ``phi`` is the only field.

    Norms and inner products use that the symmetrization projector ``P`` is
    orthogonal: ``<PG, PG> = <G, PG>`` reduces everything to closed forms on
    the ``[cell, cell]`` grid, independent of the chaos order.
    """

    __slots__ = ("order", "grid", "phi")
    # Always None: layered addends are folded into ``phi``.  Kept for
    # ``stored_entries`` in bench/tracer.py, which still reads it.
    extra = None

    def __init__(self, order: int, grid: GridSpec, phi: np.ndarray):
        if order < 2:
            raise ValueError("TimeSlotSymKernel needs total order >= 2")
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (grid.cells, grid.cells):
            raise ValueError("phi must be (cells, cells): [time slot, layer]")
        self.order = order
        self.grid = grid
        self.phi = phi

    @property
    def _q(self) -> int:
        return self.order - 1

    def is_zero(self) -> bool:
        return not self.phi.any()

    def support_cells(self) -> set[int]:
        s_nz, r_nz = np.nonzero(self.phi)
        if not s_nz.size:
            return set()
        return set(s_nz.tolist()) | set(range(int(r_nz.max()) + 1))

    def scale(self, a: float) -> "TimeSlotSymKernel":
        return TimeSlotSymKernel(self.order, self.grid, a * self.phi)

    def _table_of(self, other) -> np.ndarray:
        """The table of a layered or time-slot kernel of the same order."""
        if not isinstance(other, (TimeSlotSymKernel, LayeredKernel)):
            raise TypeError(f"expected a layered or time-slot kernel, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        same_grid(self.grid, other.grid)
        if isinstance(other, TimeSlotSymKernel):
            return other.phi
        idx = np.arange(self.grid.cells)
        return other.layers[np.maximum.outer(idx, idx)]

    def add(self, other) -> "TimeSlotSymKernel | SymKernel":
        if isinstance(other, SymKernel):
            return self.to_sparse().add(other)
        return TimeSlotSymKernel(self.order, self.grid, self.phi + self._table_of(other))

    def _gg_inner(self, p2: np.ndarray) -> float:
        """<G1, P G2> for the raw (pre-symmetrization) families of this
        table and the table ``p2``.

        Besides the direct term, ``P`` swaps the time slot with one of the
        ``q`` layer slots, which gives ``step**2`` times

            sum_r wq1[r] sum_{s,a} phi1[s, max(r, a)] phi2[a, max(r, s)],

        ``r`` the largest of the other ``q - 1`` slots.  Split by where ``r``
        falls against ``s`` and ``a``, with the column prefix sums
        ``C[r, a] = sum_{s <= r} phi[s, a]``, this is three closed forms on
        the ``[cell, cell]`` grid: ``C1[r, r] C2[r, r]`` for ``r >= s, a``;
        ``C1[r, a] phi2[a, r] + C2[r, a] phi1[a, r]`` for ``a > r`` and the
        other index at most ``r``; and ``phi1[s, a] phi2[a, s]`` weighted by
        ``sum_{r < min(s, a)} wq1[r] = t_min(s, a) ** (q - 1)`` for ``r``
        below both.  At ``q = 1`` only the last term is left, with weight 1.
        """
        q = self._q
        step = self.grid.step
        p1 = self.phi
        wq = layer_weights(self.grid, q)
        direct = step * float(np.einsum("sr,sr,r->", p1, p2, wq))
        wq1 = layer_weights(self.grid, q - 1)
        c1, c2 = np.cumsum(p1, axis=0), np.cumsum(p2, axis=0)
        idx = np.arange(self.grid.cells)
        below = (idx * step) ** (q - 1)
        swapped = (np.einsum("rr,rr,r->", c1, c2, wq1)
                   + np.einsum("r,ra->", wq1, np.triu(c1 * p2.T + c2 * p1.T, 1))
                   + np.einsum("sa,as,sa->", p1, p2, below[np.minimum.outer(idx, idx)]))
        return (direct + q * step * step * float(swapped)) / (q + 1)

    def inner(self, other) -> float:
        if isinstance(other, SymKernel):
            return self.to_sparse().inner(other)
        return self._gg_inner(self._table_of(other))

    def norm_sq(self) -> float:
        return self._gg_inner(self.phi)

    def s_transform(self, xi: np.ndarray) -> float:
        step = self.grid.step
        prefix = np.concatenate(([0.0], np.cumsum(xi) * step))
        powers = prefix ** self._q
        return step * float(np.einsum("s,sr,r->", xi, self.phi, powers[1:] - powers[:-1]))

    def to_sparse(self) -> SymKernel:
        """Materialize every multiset of the support at once: a run of
        ``len`` equal cells ``v`` adds ``len * phi[v, max(rest)]``, where the
        rest's largest cell is the tuple's unless ``v`` is its unique
        largest, and the sum is divided by the order.  Guarded by size."""
        n = self.order
        tuples = _multisets(n, self.phi.any(axis=0) | self.phi.any(axis=1))
        runs = run_lengths(tuples)
        top = tuples[:, -1:]
        rest_max = np.where((tuples == top) & (runs == 1), tuples[:, -2:-1], top)
        values = (runs * self.phi[tuples, rest_max]).sum(axis=1) / n
        return SymKernel.from_arrays(n, self.grid, tuples, values)

    def __repr__(self):
        return f"TimeSlotSymKernel(order={self.order}, cells={self.grid.cells})"


def kernel_from_json(obj: dict):
    if "entries" in obj:
        return SymKernel.from_json(obj)
    if "layers" in obj:
        return LayeredKernel.from_json(obj)
    raise ValueError("unrecognized kernel serialization")
