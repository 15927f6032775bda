"""The stochastic integral on order stacks.

A process enters as its order stacks (``_OrderStack``, built by
``_order_stacks``): one chaos order, one row per cell below the horizon, in
one shared set of coordinates.  ``volterra.KernelAction`` maps them and
reads the diagnostics off them.  ``_integrate`` takes the stacks of the
kernel action and of the volatility to the Skorohod step and the drift
integral with one pass per (integrand order, volatility order, contraction
order) over all cells.  In multiplicity coordinates
``d = c * multiplicity(tuple)`` every step is a multiset union:

* the Wick term is ``d_w = sum_{a+b=w} d_a d_b``;
* the Skorohod step appends the cell, ``d_{t+{s}} += d_t``, because
  ``(count_t(s) + 1) / (n + 1) = mult(t) / mult(t+{s})``;
* the ``k``-contraction of the pointwise product adds
  ``k! C(n,k) C(m,k) step^k c_a c_b mult(c) mult(x) mult(y)`` to
  ``d_{x+y}``, with ``x = a - c`` and ``y = b - c`` over the shared
  sub-multisets ``c``.

Each output order is reduced to distinct tuples by sorting them, encoded as
one integer each, and summing; the sum is divided by the multiplicities
once.  Entries, the pair structure of a contraction and densified layered
rows are built in blocks of about ``_ENTRY_BLOCK`` elements.  An order that
holds a structured part beside its sparse sum is merged with
``SymKernel.add``.  The per-cell operators of ``operators`` compute the
same on dict kernels; the tests compare the two.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .chaos import ChaosProcess, ChaosVector
from .grid import GridSpec
from .kernels import (LayeredKernel, SymKernel, TimeSlotSymKernel, _multisets, _splits, layer_weights,
                      multiplicities, unique_rows)

# Elements per temporary array of the stacked integral; larger products,
# pair structures and densified stacks are built in blocks.
_ENTRY_BLOCK = 1 << 18


def _multiplicities(tuples: np.ndarray) -> np.ndarray:
    """``multiplicities`` as floats.  Products of several multiplicities
    are taken in floats: two int64 factors of high orders can overflow
    (``13! * 13! > 2**63``)."""
    return multiplicities(tuples).astype(float)


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
            return layered_stack(grid, order, np.array([zero if c is None else c.layers for c in comps]))
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

    def below(self, t_cell: int) -> "_OrderStack | None":
        """The rows of the cells below ``t``, rows past the last zero, and
        of a sparse stack only the keys live there: what ``of`` gives for
        the kernels of those rows.  None when every row there is zero."""
        rows = self.rows[:t_cell]
        if len(rows) < t_cell:
            rows = np.concatenate([rows, np.zeros((t_cell - len(rows), rows.shape[1]))])
        if self.layered:
            return self.with_rows(rows) if rows.any() else None
        live = rows.any(axis=0)
        if not live.any():
            return None
        if live.all():
            return self.with_rows(rows)
        return _OrderStack(self.grid, self.order, self.tuples[live], rows[:, live])

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
            self._mult = _multiplicities(self.tuples)
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

    def kernel_at(self, j: int):
        """Cell ``j``'s component; None where its row is zero, and past the
        last row, where the cells are zero."""
        if j >= len(self.rows) or not self.rows[j].any():
            return None
        return self.kernel(self.rows[j])

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
                return scalar_stack(self.grid, n * rows[cells, cells])
            at = np.maximum.outer(cells, np.arange(self.grid.cells))
            return layered_stack(self.grid, n - 1, n * np.take_along_axis(rows, at, axis=1))
        # one slice per distinct cell of a tuple at a cell below t
        keys, cols, sliced = _splits(self.tuples, 1)
        cols = cols[:, 0]
        hit = cols < len(rows)
        keys, cols = keys[hit], cols[hit]
        out_keys, index = unique_rows(sliced[hit])
        out = np.zeros((len(rows), len(out_keys)))
        out[cols, index] = n * rows[cols, keys]
        return _OrderStack(self.grid, n - 1, out_keys, out)


def layered_stack(grid: GridSpec, order: int, rows: np.ndarray) -> _OrderStack:
    """The order-``order`` stack of layered components: ``rows[s, r]`` is
    cell ``s``'s value on layer ``r``."""
    return _OrderStack(grid, order, None, rows)


def scalar_stack(grid: GridSpec, values: np.ndarray) -> _OrderStack:
    """The order-0 stack of one scalar per cell."""
    return _OrderStack(grid, 0, np.zeros((1, 0), dtype=np.int64), values[:, None])


def _order_stacks(phi: ChaosProcess, t_cell: int) -> list[_OrderStack]:
    """The order stacks of a process over the cells below ``t``, by
    ascending order.  A process held as stacks gives its rows below ``t``
    (``_OrderStack.below``); any other is stacked from its cell values."""
    if phi.stacks is not None:
        return [b for b in (stack.below(t_cell) for stack in phi.stacks) if b is not None]
    cells = [phi.at(s).components for s in range(t_cell)]
    orders = sorted(set().union(*cells))
    return [_OrderStack.of(phi.grid, n, [c.get(n) for c in cells]) for n in orders]


class _SparseSum:
    """Running sum of ``(tuple, d)`` entries of one order in multiplicity
    coordinates ``d = c * multiplicity(tuple)``.  A row need not be sorted
    when it is added.  ``parts[0]`` holds distinct sorted tuples when
    ``pending`` is 0.  Pending elements are reduced with it once they pass
    both ``_ENTRY_BLOCK`` and the elements already reduced, so the reduced
    part about doubles between two reductions and an entry is sorted again
    O(log n) times.  ``bincount`` adds each tuple's terms in input order
    wherever the reductions fall, so the sum does not depend on them."""

    def __init__(self, order: int):
        self.order = order
        self.parts: list[tuple[np.ndarray, np.ndarray]] = []
        self.pending = 0
        self.reduced = 0

    def add(self, tuples: np.ndarray, d: np.ndarray, canonical: bool = False):
        """Add entries; ``canonical`` rows are distinct, sorted and in
        lexicographic order, and need no reduction on their own."""
        live = d != 0.0
        if not live.any():
            return
        self.parts.append((tuples[live], d[live]))
        size = int(live.sum()) * max(self.order, 1)
        if canonical and len(self.parts) == 1:
            self.reduced = size
            return
        self.pending += size
        if self.pending > max(_ENTRY_BLOCK, self.reduced):
            self._reduce()

    def _reduce(self):
        tuples = np.concatenate([t for t, _ in self.parts])
        tuples.sort(axis=1)
        keys, index = unique_rows(tuples)
        d = np.bincount(index, weights=np.concatenate([v for _, v in self.parts]), minlength=len(keys))
        self.parts = [(keys, d)]
        self.pending = 0
        self.reduced = len(keys) * max(self.order, 1)

    def kernel(self, grid: GridSpec, scale: float = 1.0) -> SymKernel | None:
        """The sum as a sparse kernel in ``c`` coordinates, times ``scale``;
        None when nothing was added."""
        if not self.parts:
            return None
        if self.pending:
            self._reduce()
        keys, d = self.parts[0]
        return SymKernel.from_arrays(self.order, grid, keys, d / _multiplicities(keys) * scale)


def _expand(counts: np.ndarray, width: int):
    """Blocks of ``(owner, offset)``: owner ``i`` repeated ``counts[i]``
    times with offsets ``0 .. counts[i] - 1``, about ``_ENTRY_BLOCK /
    width`` rows per block and at least one owner."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _ENTRY_BLOCK // width, side="right")))
        c = counts[lo:hi]
        owner = np.repeat(np.arange(lo, hi), c)
        yield owner, np.arange(len(owner)) - np.repeat(ends[lo:hi] - c - start, c)
        lo = hi


def _key_splits(tuples: np.ndarray, k: int):
    """``_splits`` of consecutive blocks of keys, about ``_ENTRY_BLOCK``
    elements each, with the row indices of the whole key matrix."""
    n = tuples.shape[1]
    step = max(1, _ENTRY_BLOCK // (math.comb(n, k) * n))
    for lo in range(0, len(tuples), step):
        rows, subs, rests = _splits(tuples[lo:lo + step], k)
        yield rows + lo, subs, rests


def _contraction_pairs(x: _OrderStack, v: _OrderStack, k: int):
    """The pair structure of a ``k``-contraction (``k >= 1``) of two sparse
    stacks: every key pair ``(a, b)`` and shared sub-multiset ``c`` of size
    ``k``, joined on ``c``.  Yields blocks of about ``_ENTRY_BLOCK``
    elements, each sorted by ``a``: the key indices, the unsorted output
    rows ``(a - c, b - c)`` and the pointwise weight
    ``k! C(n, k) C(m, k) step^k mult(c) mult(a - c) mult(b - c)``."""
    n, m = x.order, v.order
    width = n + m - 2 * k + 1
    coef = math.factorial(k) * math.comb(n, k) * math.comb(m, k) * x.grid.step ** k
    for rv, cv, restv in _key_splits(v.tuples, k):
        for rx, cx, restx in _key_splits(x.tuples, k):
            _, ids = unique_rows(np.concatenate([cx, cv]))
            idx, idv = ids[:len(rx)], ids[len(rx):]
            rank = np.argsort(idv, kind="stable")
            lo = np.searchsorted(idv[rank], idx, side="left")
            counts = np.searchsorted(idv[rank], idx, side="right") - lo
            for owner, offset in _expand(counts, width):
                if not len(owner):
                    continue
                by_a = np.argsort(rx[owner], kind="stable")
                owner, partner = owner[by_a], rank[lo[owner] + offset][by_a]
                weight = (coef * _multiplicities(cx[owner]) * _multiplicities(restx[owner])
                          * _multiplicities(restv[partner]))
                yield rx[owner], rv[partner], np.hstack([restx[owner], restv[partner]]), weight


def _contract(x: _OrderStack, v: _OrderStack, k: int):
    """The ``k``-contraction term of the per-cell product of two sparse
    stacks of the same cells, as blocks ``(cells, unsorted tuples, d)`` of
    order ``n + m - 2k``.  ``k = 0`` is the symmetrized tensor product (the
    Wick term): ``d_{a+b} += d_a d_b`` over the non-zero entries of each
    cell.  ``k >= 1`` applies each block of the pair structure to the
    non-zero entries of its keys."""
    width = x.order + v.order - 2 * k + 1
    xs, xi = np.nonzero(x.rows)
    if k == 0:
        vs, vj = np.nonzero(v.rows)
        xd = x.rows[xs, xi] * x.multiplicities()[xi]
        vd = v.rows[vs, vj] * v.multiplicities()[vj]
        per_cell = np.bincount(vs, minlength=len(x.rows))
        first = np.cumsum(per_cell) - per_cell
        for e, off in _expand(per_cell[xs], width):
            p = first[xs[e]] + off
            yield xs[e], np.hstack([x.tuples[xi[e]], v.tuples[vj[p]]]), xd[e] * vd[p]
        return
    for ia, ib, rest, weight in _contraction_pairs(x, v, k):
        a0 = ia[0]
        per_key = np.bincount(ia - a0)
        first = np.cumsum(per_key) - per_key
        mine = (xi >= a0) & (xi < a0 + len(per_key))
        es, ei = xs[mine], xi[mine]
        for e, off in _expand(per_key[ei - a0], width):
            p = first[ei[e] - a0] + off
            s = es[e]
            yield s, rest[p], x.rows[s, ei[e]] * v.rows[s, ib[p]] * weight[p]


def _random_cells(stacks: list[_OrderStack], t_cell: int) -> np.ndarray:
    """Cells where some component above order 0 is non-zero."""
    out = np.zeros(t_cell, dtype=bool)
    for stack in stacks:
        if stack.order > 0:
            out |= stack.rows.any(axis=1)
    return out


def _scalars(stacks: list[_OrderStack]) -> np.ndarray | None:
    """The order-0 rows ``[cell, 1]`` of a list of order stacks, if any."""
    return next((stack.rows for stack in stacks if stack.order == 0), None)


def _cell_blocks(stacks: list[_OrderStack], both: np.ndarray):
    """Blocks ``lo:hi`` of the cells, all of one size: about
    ``4 * _ENTRY_BLOCK`` floats (``2^20``; a float matrix holds no tuples)
    over the multisets that the layered stacks densify at the marked cells,
    ``sum_n C(top_n + n, n)`` per cell, ``top_n`` the top live layer of a
    stack there; at least one cell per block, one block without such rows."""
    width = 0
    for stack in stacks:
        if stack.layered:
            live = np.flatnonzero(stack.rows[both].any(axis=0))
            if live.size:
                width += math.comb(int(live[-1]) + stack.order, stack.order)
    size = max(1, 4 * _ENTRY_BLOCK // width) if width else len(both)
    return [(lo, min(lo + size, len(both))) for lo in range(0, len(both), size)]


def _sparse_rows(stack: _OrderStack, lo: int, hi: int, cells: np.ndarray) -> _OrderStack | None:
    """The stack's rows ``lo:hi`` at the marked cells of the block, other
    rows zero, in sparse coordinates: layered rows are densified there.
    None when no row is non-zero there.  The one place that picks the
    cells whose products ``_contract`` computes."""
    rows = stack.rows[lo:hi]
    hit = cells & rows.any(axis=1)
    if not hit.any():
        return None
    block = stack.with_rows(rows)
    return block.densify(hit) if block.layered else block.with_rows(np.where(hit[:, None], rows, 0.0))


def _products(xs: list[_OrderStack], vs: list[_OrderStack], t_cell: int, contract: bool):
    """The per-cell product of two processes given by their order stacks,
    one pass per (order, order, contraction order) over all cells.

    Yields ``(order, part)``.  A part is an ``_OrderStack`` of product rows
    in a factor's coordinates, or a block ``(cells, unsorted tuples, d)``.
    The rule of ``operators._product``, in two cases.  At a cell where one
    factor has no component above order 0, that factor's order-0 row scales
    the other factor's rows in their storage form.  At a cell where both
    factors are random, ``_contract`` joins every pair of components, for
    ``k = 0`` only unless ``contract``; ``_sparse_rows`` puts the rows of
    those cells in sparse coordinates, by blocks of cells of one size
    (``_cell_blocks``).
    """
    both = _random_cells(xs, t_cell) & _random_cells(vs, t_cell)
    v0, x0 = _scalars(vs), _scalars(xs)
    for factor, stacks in ((v0, xs), (x0, [v for v in vs if v.order > 0])):
        if factor is not None:
            for stack in stacks:
                rows = factor * stack.rows
                rows[both] = 0.0
                yield stack.order, stack.with_rows(rows)
    if not both.any():
        return
    for lo, hi in _cell_blocks(xs + vs, both):
        cells = both[lo:hi]
        gx = [g for g in (_sparse_rows(x, lo, hi, cells) for x in xs) if g is not None]
        gv = [h for h in (_sparse_rows(v, lo, hi, cells) for v in vs) if h is not None]
        for g in gx:
            for h in gv:
                for k in range(min(g.order, h.order) + 1 if contract else 1):
                    for s, tuples, d in _contract(g, h, k):
                        yield g.order + h.order - 2 * k, (s + lo, tuples, d)


def _skorohod_step(grid: GridSpec, t_cell: int, parts) -> ChaosVector:
    """The Skorohod integral over the cells below ``t`` of a process given
    by ``_products`` parts: in multiplicity coordinates every entry gets
    its cell appended, ``d_{t+{s}} += d_t``, and each output order is
    summed in one ``_SparseSum``.  Layered rows give
    ``TimeSlotSymKernel(rows)``."""
    cells = grid.cells
    sums: dict[int, _SparseSum] = {}
    slots: dict[int, np.ndarray] = {}
    for n, part in parts:
        if not isinstance(part, _OrderStack):
            s, tuples, d = part
            sums.setdefault(n + 1, _SparseSum(n + 1)).add(np.column_stack([tuples, s]), d)
            continue
        if part.layered:
            slots.setdefault(n + 1, np.zeros((cells, cells)))[:t_cell] += part.rows
            continue
        mult = part.multiplicities()
        block = max(1, _ENTRY_BLOCK // (part.rows.shape[1] * (n + 1) + 1))
        for lo in range(0, t_cell, block):
            s, j = np.nonzero(part.rows[lo:lo + block])
            sums.setdefault(n + 1, _SparseSum(n + 1)).add(
                np.column_stack([part.tuples[j], s + lo]), part.rows[s + lo, j] * mult[j])
    return _vector(grid, sums, {n: TimeSlotSymKernel(n, grid, slot)
                                for n, slot in slots.items() if slot.any()})


def _time_integral(grid: GridSpec, parts) -> ChaosVector:
    """The step-weighted sum over the cells of a process given by
    ``_products`` parts.  An order stays layered when all its parts are."""
    sums: dict[int, _SparseSum] = {}
    layers: dict[int, np.ndarray] = {}
    for n, part in parts:
        if not isinstance(part, _OrderStack):
            _, tuples, d = part
            sums.setdefault(n, _SparseSum(n)).add(tuples, d)
        elif part.layered:
            layers[n] = layers.get(n, 0.0) + part.rows.sum(axis=0)
        else:
            sums.setdefault(n, _SparseSum(n)).add(part.tuples, part.rows.sum(axis=0) * part.multiplicities(),
                                                  canonical=True)
    return _vector(grid, sums, {n: LayeredKernel(n, grid, lay).scale(grid.step)
                                for n, lay in layers.items() if lay.any()}, grid.step)


def _vector(grid: GridSpec, sums: dict[int, _SparseSum], structured: dict, scale: float = 1.0) -> ChaosVector:
    """The chaos vector of the sparse sums, times ``scale``, and of the
    structured kernels; an order that holds both is their sum,
    ``SymKernel.add``, as in ``operators.skorohod``."""
    comps = {n: kern for n, s in sums.items() if (kern := s.kernel(grid, scale)) is not None}
    for n, kern in structured.items():
        comps[n] = comps[n].add(kern) if n in comps else kern
    return ChaosVector(grid, dict(sorted(comps.items())))


def _integrate(grid: GridSpec, t_cell: int, acted: list[_OrderStack],
               vols: list[_OrderStack] | None = None, contract: bool = False):
    """Skorohod step plus drift integral of the kernel action, given by its
    order stacks ``acted`` over the cells below ``t``, times the volatility
    with order stacks ``vols`` (None: unit volatility): the pointwise
    product when ``contract`` is set, else the Wick product,

        value = skorohod(s -> product(action(t, s), vol(s)))
              + time_integral(s -> product(D_s action(t, s), vol(s))).

    Everything runs on order stacks, one pass per (integrand order,
    volatility order, contraction order) over all cells (``_products``),
    and each output order is summed in one ``_SparseSum``.  The public ``wick``,
    ``pointwise``, ``skorohod``, ``derivative_at`` and
    ``pettis_time_integral`` compute the same cell by cell on dict kernels;
    the integral calls none of them.
    """
    if vols is None:
        vols = [scalar_stack(grid, np.ones(t_cell))]
    skor = _skorohod_step(grid, t_cell, _products(acted, vols, t_cell, contract))
    # a sparse stack whose tuples hold no cell below t has a derivative with no entry
    derivatives = [d for d in (x.derivative() for x in acted if x.order > 0) if d.rows.any()]
    drift = _time_integral(grid, _products(derivatives, vols, t_cell, contract))
    return skor.add(drift), skor, drift
