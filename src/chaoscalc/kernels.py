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
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .errors import RepresentationLimitError
from .grid import GridSpec, same_grid

# Converting a structured kernel to sparse tuples is only allowed below this
# many multisets; beyond it ``to_sparse`` raises RepresentationLimitError.
_DENSIFY_LIMIT = 500_000

# ``SymKernel.from_arrays`` keeps the canonical arrays as the storage from
# this many live entries on, and builds the tuple -> coefficient dict below.
_ARRAY_MIN_ENTRIES = 256


def multiplicity(tup: tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted tuple: n! / prod(counts!).
    One factorial per run of two or more equal cells, none when every cell
    is distinct."""
    n = len(tup)
    if n <= 1:
        return 1
    m = math.factorial(n)
    run = 1
    prev = tup[0]
    for v in tup[1:]:
        if v == prev:
            run += 1
        else:
            if run > 1:
                m //= math.factorial(run)
                run = 1
            prev = v
    return m // math.factorial(run) if run > 1 else m


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
    order, grown one slot at a time, each row repeated once per cell from
    its last cell to the top.  Raises ``RepresentationLimitError`` when
    there are too many."""
    nz = np.flatnonzero(live)
    top = int(nz[-1]) if nz.size else -1
    count = math.comb(top + order, order) if nz.size else 0
    if count > _DENSIFY_LIMIT:
        raise RepresentationLimitError(f"kernel too large to densify ({count} multisets)")
    tuples = np.zeros((1 if nz.size else 0, 0), dtype=np.int64)
    last = np.zeros(len(tuples), dtype=np.int64)
    for _ in range(order):
        reps = top + 1 - last
        first = np.cumsum(reps) - reps
        last = np.repeat(last, reps) + np.arange(int(reps.sum())) - np.repeat(first, reps)
        tuples = np.column_stack([np.repeat(tuples, reps, axis=0), last])
    return tuples


def _splits(tuples: np.ndarray, k: int):
    """Every distinct size-``k`` sub-multiset ``c`` of each sorted row, with
    the rest of the row: ``(row index, c, rest)``.  Taking the leftmost
    slots of each run of equal cells picks one slot set per multiset."""
    count, n = tuples.shape
    rows, subs, rests = [], [], []
    for combo in combinations(range(n), k):
        keep = np.ones(count, dtype=bool)
        for j in combo:
            if j > 0 and j - 1 not in combo:
                keep &= tuples[:, j] != tuples[:, j - 1]
        hit = np.flatnonzero(keep)
        picked = tuples[hit]
        rows.append(hit)
        subs.append(picked[:, list(combo)])
        rests.append(picked[:, [j for j in range(n) if j not in combo]])
    return np.concatenate(rows), np.concatenate(subs), np.concatenate(rests)


class SymKernel:
    """Canonical sparse symmetric kernel: sorted tuple -> coefficient.

    A kernel holds one of two forms.  Built from a dict, or by
    ``from_arrays`` with fewer than ``_ARRAY_MIN_ENTRIES`` live entries, it
    holds the dict.  Built by ``from_arrays`` with at least that many, it
    holds the canonical arrays, and ``entries`` builds the dict from them
    on first read; ``norm_sq``, ``add``, ``scale``, ``arrays``,
    ``support_cells`` and ``to_json`` run on the arrays.  Kernels are
    immutable, so the dict and the sorted ``arrays()`` are cached.
    """

    __slots__ = ("order", "grid", "_entries", "_rows", "_sorted")

    def __init__(self, order: int, grid: GridSpec, entries: dict[tuple[int, ...], float] | None = None):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.grid = grid
        self._entries = out = {}
        self._rows = None
        self._sorted = None
        if entries:
            for tup, c in entries.items():
                if c != 0.0:
                    out[tup] = c

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
        dropped by one mask.  From ``_ARRAY_MIN_ENTRIES`` live entries on the
        kernel holds the masked arrays (read-only); below, it holds a dict in
        row order.  Rows in lexicographic order give a kernel whose
        ``arrays()`` needs no sort."""
        out = SymKernel(order, grid)
        live = coef != 0.0
        if order == 0:
            if live.any():
                out._entries[()] = float(coef[live][0])
            return out
        tuples, coef = tuples[live], coef[live]
        if len(coef) < _ARRAY_MIN_ENTRIES:
            out._entries = dict(zip(zip(*tuples.T.tolist()), coef.tolist()))
            return out
        tuples.flags.writeable = False
        coef.flags.writeable = False
        out._entries = None
        out._rows = (tuples, coef)
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

    @property
    def entries(self) -> dict[tuple[int, ...], float]:
        """Sorted tuple -> coefficient.  A kernel that holds arrays builds
        the dict on first read, in row order."""
        if self._entries is None:
            tuples, coef = self._rows
            self._entries = dict(zip(zip(*tuples.T.tolist()), coef.tolist()))
        return self._entries

    def nnz(self) -> int:
        """Number of stored coefficients, read from the form the kernel holds."""
        return len(self._entries) if self._rows is None else len(self._rows[1])

    def is_zero(self) -> bool:
        # a kernel that holds arrays holds at least _ARRAY_MIN_ENTRIES of them
        return self._rows is None and not self._entries

    def support_cells(self) -> set[int]:
        if self._rows is not None:
            return set(np.unique(self._rows[0]).tolist())
        cells: set[int] = set()
        for tup in self._entries:
            cells.update(tup)
        return cells

    def to_sparse(self) -> "SymKernel":
        """Already sparse: the kernel itself."""
        return self

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical COO form: the ``(nnz, order)`` int tuple matrix, rows in
        lexicographic order, and the matching coefficient vector.  Computed
        once; the arrays are read-only."""
        if self._sorted is not None:
            return self._sorted
        if self._rows is not None:
            tuples, coef = self._rows
        else:
            nnz = len(self._entries)
            tuples = np.fromiter(chain.from_iterable(self._entries), dtype=np.int64,
                                 count=nnz * self.order).reshape(nnz, self.order)
            coef = np.fromiter(self._entries.values(), dtype=float, count=nnz)
        if self.order > 0 and len(coef) > 1:
            # sort only when some consecutive pair of rows is out of order: the
            # first column where two neighbours differ decides their order
            step = tuples[1:] - tuples[:-1]
            first = (step != 0).argmax(axis=1)
            if not (step[np.arange(len(step)), first] > 0).all():
                rank = np.lexsort(tuples.T[::-1])
                tuples, coef = tuples[rank], coef[rank]
        tuples.flags.writeable = False
        coef.flags.writeable = False
        self._sorted = (tuples, coef)
        return self._sorted

    # -- linear structure ---------------------------------------------------

    def scale(self, a: float) -> "SymKernel":
        if a == 0.0:
            return SymKernel(self.order, self.grid)
        if self._rows is not None:
            tuples, coef = self._rows
            return SymKernel.from_arrays(self.order, self.grid, tuples, a * coef)
        return SymKernel(self.order, self.grid, {t: a * c for t, c in self._entries.items()})

    def add(self, other) -> "SymKernel":
        """Sum of two kernels of one order.  When either holds arrays, the
        sum runs on ``arrays()`` (one ``unique_rows`` and one ``bincount``,
        which adds each tuple's coefficients in the order the dict loop
        does) and returns through ``from_arrays``."""
        other = other.to_sparse()
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        same_grid(self.grid, other.grid)
        if self._rows is not None or other._rows is not None:
            (t1, c1), (t2, c2) = self.arrays(), other.arrays()
            tuples, index = unique_rows(np.concatenate([t1, t2]))
            coef = np.bincount(index, weights=np.concatenate([c1, c2]), minlength=len(tuples))
            return SymKernel.from_arrays(self.order, self.grid, tuples, coef)
        out = dict(self._entries)
        for t, c in other._entries.items():
            s = out.get(t, 0.0) + c
            if s == 0.0:
                out.pop(t, None)
            else:
                out[t] = s
        return SymKernel(self.order, self.grid, out)

    # -- metric -------------------------------------------------------------

    def norm_sq(self) -> float:
        """``step**n`` times the sum of ``multiplicity * c**2``, summed in the
        order of the entries; on held arrays the terms come from
        ``multiplicities`` and are summed in row order."""
        w = self.grid.step ** self.order
        if self._rows is not None:
            tuples, coef = self._rows
            return w * sum((multiplicities(tuples) * coef * coef).tolist())
        return w * sum(multiplicity(t) * c * c for t, c in self._entries.items())

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
        """Entries in lexicographic order; on held arrays the rows of
        ``arrays()``, which is the order ``sorted(entries.items())`` gives."""
        if self._rows is not None:
            # each row of ``tolist`` is already a list of its own
            tuples, coef = self.arrays()
            entries = list(map(list, zip(tuples.tolist(), coef.tolist())))
        else:
            entries = [[list(t), c] for t, c in sorted(self._entries.items())]
        return {
            "order": self.order,
            "grid": self.grid.to_json(),
            "entries": entries,
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
            if tup and (tup[0] < 0 or tup[-1] >= grid.cells):
                raise ValueError(f"tuple {tup} has a cell outside grid with {grid.cells} cells")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"tuple {tup} has a non-finite coefficient {c}")
            ent[tup] = ent.get(tup, 0.0) + c
        return SymKernel(order, grid, ent)

    def __repr__(self):
        return f"SymKernel(order={self.order}, entries={self.nnz()})"


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
        layers = np.array(obj["layers"], dtype=float)
        if not np.isfinite(layers).all():
            raise ValueError("layers must be finite")
        return LayeredKernel(int(obj["order"]), grid, layers)

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
        # one power table: the layer weights of orders q and q - 1 are its
        # differences (``layer_weights``), and ``below[r] = t_r ** (q - 1)``
        t = np.arange(self.grid.cells + 1) * step
        pq, pq1 = t ** q, t ** (q - 1)
        wq, wq1, below = pq[1:] - pq[:-1], pq1[1:] - pq1[:-1], pq1[:-1]
        direct = step * float(np.einsum("sr,sr,r->", p1, p2, wq))
        c1 = np.cumsum(p1, axis=0)
        if p2 is p1:  # a norm: both cross terms are the same product
            c2 = c1
            cross = c1 * p1.T
            cross = cross + cross
        else:
            c2 = np.cumsum(p2, axis=0)
            cross = c1 * p2.T + c2 * p1.T
        # ``below`` is non-decreasing, so its value at min(s, a) is the smaller one
        swapped = (np.einsum("rr,rr,r->", c1, c2, wq1)
                   + np.einsum("r,ra->", wq1, np.triu(cross, 1))
                   + np.einsum("sa,as,sa->", p1, p2, np.minimum.outer(below, below)))
        return (direct + q * step * step * float(swapped)) / (q + 1)

    def inner(self, other) -> float:
        if isinstance(other, SymKernel):
            return self.to_sparse().inner(other)
        return self._gg_inner(self._table_of(other))

    def norm_sq(self) -> float:
        return self._gg_inner(self.phi)

    def slice_at(self, cell: int) -> "TimeSlotSymKernel | SymKernel":
        """Fix one slot at ``cell``.  No derivative factor is applied.

        Of the ``q + 1`` symmetrized terms, the one whose time slot is fixed
        leaves the layered kernel ``phi[cell, max(y)]``, and the ``q`` whose
        layer slot is fixed leave the family ``phi[s, max(cell, r)]``: the
        order-``q`` table ``(phi[cell, max(s, r)] + q phi[s, max(cell, r)])
        / (q + 1)``.  At ``q = 1`` no layer slot is left, and the slice is
        the order-1 kernel ``(phi[cell, y] + phi[y, cell]) / 2``.
        """
        q, phi = self._q, self.phi
        if q == 1:
            return SymKernel.from_cell_values(self.grid, (phi[cell] + phi[:, cell]) / 2)
        idx = np.arange(self.grid.cells)
        table = phi[cell, np.maximum.outer(idx, idx)] + q * phi[:, np.maximum(cell, idx)]
        return TimeSlotSymKernel(q, self.grid, table / (q + 1))

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
