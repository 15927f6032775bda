"""Brute-force dense reference implementations used as test oracles.

Kernels are positional numpy tensors of shape ``(M,) * n``; all operations
are written in the most literal way possible (explicit permutation sums,
explicit contraction loops) and independently of the library's sparse
combinatorics.  Feasible only for tiny grids and low orders, which is the
point: the library must agree with these on that common domain.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from chaoscalc import (
    AssumptionReport,
    ChaosProcess,
    ChaosVector,
    GridSpec,
    SymKernel,
    TimeSlotSymKernel,
    derivative_at,
    kernel_measure,
    kg_apply,
    pettis_time_integral,
    skorohod,
)
from chaoscalc.kernels import layer_weights, multiplicity
from chaoscalc.volterra import _stieltjes_weights


def dense_from_kernel(k) -> np.ndarray:
    """Materialize a library kernel as a positional tensor."""
    M = k.grid.cells
    if k.order == 0:
        return np.array(k.entries.get((), 0.0) if isinstance(k, SymKernel) else 0.0)
    out = np.zeros((M,) * k.order)
    if isinstance(k, SymKernel):
        for tup, c in k.entries.items():
            for perm in set(itertools.permutations(tup)):
                out[perm] = c
    elif isinstance(k, TimeSlotSymKernel):
        return dense_from_kernel(time_slot_to_sparse_per_multiset(k))
    else:
        return dense_from_kernel(k.to_sparse())
    return out


def kernel_from_dense(grid: GridSpec, arr: np.ndarray) -> SymKernel:
    """Canonicalize a symmetric positional tensor back into sparse form."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0:
        return SymKernel.scalar(grid, float(arr))
    ent = {}
    for tup in itertools.combinations_with_replacement(range(grid.cells), arr.ndim):
        v = float(arr[tup])
        if v != 0.0:
            ent[tup] = v
    return SymKernel(arr.ndim, grid, ent)


def symmetrize(arr: np.ndarray) -> np.ndarray:
    if arr.ndim <= 1:
        return arr
    out = np.zeros_like(arr)
    perms = list(itertools.permutations(range(arr.ndim)))
    for p in perms:
        out += np.transpose(arr, p)
    return out / len(perms)


def dense_norm_sq(grid: GridSpec, arr: np.ndarray) -> float:
    if arr.ndim == 0:
        return float(arr) ** 2
    return grid.step ** arr.ndim * float(np.sum(arr * arr))


def dense_inner(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    if a.ndim == 0:
        return float(a) * float(b)
    return grid.step ** a.ndim * float(np.sum(a * b))


def dense_tensor_sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim == 0:
        return float(a) * b
    if b.ndim == 0:
        return float(b) * a
    return symmetrize(np.multiply.outer(a, b))


def dense_contract(grid: GridSpec, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Contract the last k slots of a against the last k slots of b, then
    symmetrize the remainder."""
    if k == 0:
        return dense_tensor_sym(a, b)
    n, m = a.ndim, b.ndim
    axes_a = list(range(n - k, n))
    axes_b = list(range(m - k, m))
    raw = np.tensordot(a, b, axes=(axes_a, axes_b)) * grid.step ** k
    raw = np.asarray(raw)
    if raw.ndim == 0:
        return raw
    return symmetrize(raw)


def dense_slice(arr: np.ndarray, cell: int) -> np.ndarray:
    return np.asarray(arr[..., cell])


def dense_vector(vec: ChaosVector, n_max: int | None = None) -> dict[int, np.ndarray]:
    top = vec.max_order() if n_max is None else n_max
    return {n: dense_from_kernel(vec.component(n)) for n in range(top + 1)}


def dense_wick(grid: GridSpec, A: dict, B: dict) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for n, a in A.items():
        for m, b in B.items():
            t = dense_tensor_sym(a, b)
            if n + m in out:
                out[n + m] = out[n + m] + t
            else:
                out[n + m] = t
    return out


def dense_pointwise(grid: GridSpec, A: dict, B: dict) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for n, a in A.items():
        for m, b in B.items():
            for k in range(min(n, m) + 1):
                coeff = math.factorial(k) * math.comb(m, k) * math.comb(n, k)
                t = coeff * dense_contract(grid, a, b, k)
                key = n + m - 2 * k
                if key in out:
                    out[key] = out[key] + t
                else:
                    out[key] = t
    return out


def dense_skorohod(grid: GridSpec, values: list[dict], lo: int, hi: int) -> dict[int, np.ndarray]:
    """Literal symmetrization of the process tensor with an appended slot."""
    orders = set()
    for j in range(lo, hi):
        orders.update(values[j])
    out: dict[int, np.ndarray] = {}
    M = grid.cells
    for n in orders:
        raw = np.zeros((M,) * (n + 1))
        for j in range(lo, hi):
            comp = values[j].get(n)
            if comp is None:
                continue
            raw[..., j] += comp
        out[n + 1] = symmetrize(raw)
    return out


def compare_dense(grid: GridSpec, A: dict, B: dict, tol: float = 1e-12) -> float:
    """Max absolute elementwise difference across all orders."""
    worst = 0.0
    for n in set(A) | set(B):
        a = A.get(n)
        b = B.get(n)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        worst = max(worst, float(np.max(np.abs(a - b))) if np.size(a) else 0.0)
    return worst


def _cell_weights(k, grid: GridSpec, s_cell: int, t_cell: int):
    """Stieltjes weights of the cells strictly between ``s_cell`` and ``t``,
    with the clip flag of the measure."""
    if t_cell <= s_cell + 1:
        return [], False
    mw = kernel_measure(k, grid, grid.t_mid(s_cell), grid.t_left(s_cell + 1), grid.t_left(t_cell))
    return list(mw.items()), mw.clipped


def kernel_action_per_cell(k, grid: GridSpec, t: float):
    """``(g, weights, matrix, clipped_cells)`` of the kernel action assembled
    row by row from ``_stieltjes_weights``, one ``kernel_measure`` per cell."""
    t_cell = grid.snap_down(t)
    g = np.empty(t_cell)
    weights = np.zeros((t_cell, t_cell))
    clipped = 0
    for s in range(t_cell):
        g[s], was_clipped = k.evaluate_clipped(t, grid.t_mid(s), grid.step)
        mw = _stieltjes_weights(k, grid, s, t_cell)
        weights[s, list(mw.cells)] = mw.weights
        clipped += int(was_clipped) + int(mw.clipped)
    return g, weights, weights + np.diag(g - weights.sum(axis=1)), clipped


def kg_apply_per_cell(phi, k, t: float) -> list[ChaosVector]:
    """The kernel action cell by cell, as a chain of chaos-vector sums:
    ``g(t, s) phi(s) + sum_u w_u phi(u) - (sum_u w_u) phi(s)``."""
    grid = phi.grid
    t_cell = grid.snap_down(t)
    out = []
    for s in range(grid.cells):
        if s >= t_cell:
            out.append(ChaosVector.zero(grid))
            continue
        g_ts, _ = k.evaluate_clipped(t, grid.t_mid(s), grid.step)
        base = phi.at(s)
        acc = base.scale(g_ts)
        wsum = 0.0
        for u, w in _cell_weights(k, grid, s, t_cell)[0]:
            if w != 0.0:
                acc = acc.add(phi.at(u).scale(w))
                wsum += w
        if wsum != 0.0:
            acc = acc.add(base.scale(-wsum))
        out.append(acc)
    return out


def assumption_report_per_cell(phi, k, lam: float, t: float) -> AssumptionReport:
    """The integrability diagnostics cell by cell at one weight index, each
    increment norm taken from the chaos-vector difference."""
    grid = phi.grid
    t_cell = grid.snap_down(t)
    kg = kg_apply_per_cell(phi, k, t)
    a3 = []
    clipped = 0
    b4 = b5 = aggregate = a3_s_max = 0.0
    for s in range(t_cell):
        base = phi.at(s)
        g_ts, was_clipped = k.evaluate_clipped(t, grid.t_mid(s), grid.step)
        weights, measure_clipped = _cell_weights(k, grid, s, t_cell)
        clipped += int(was_clipped) + int(measure_clipped)
        a3_val = 0.0
        stieltjes = ChaosVector.zero(grid)
        for u, w in weights:
            if w == 0.0:
                continue
            diff = phi.at(u).sub(base)
            a3_val += abs(w) * diff.gnorm_sq(-lam)
            stieltjes = stieltjes.add(diff.scale(w))
        a3.append(a3_val)
        a3_s_max = max(a3_s_max, a3_val * grid.t_left(s))
        b4 += grid.step * g_ts * g_ts * base.gnorm_sq(-lam)
        b5 += grid.step * stieltjes.gnorm_sq(-lam)
        aggregate += grid.step * kg[s].gnorm_sq(-lam)
    return AssumptionReport(lam=lam, t=t, a3=tuple(a3), b4=b4, b5=b5, aggregate=aggregate,
                            clipped_cells=clipped, a3_times_s_max=a3_s_max)


def evaluate_block_per_entry(phi: ChaosVector, xi_block: np.ndarray) -> np.ndarray:
    """Pathwise evaluation entry by entry: each canonical tuple contributes
    ``c * multiplicity * step^{n/2} * prod_cells He_count(xi_cell)``."""
    grid = phi.grid
    comps = []
    max_deg = 0
    for n, k in sorted(phi.components.items()):
        k = k if isinstance(k, SymKernel) else k.to_sparse()
        comps.append((n, k))
        for tup in k.entries:
            max_deg = max([max_deg] + [tup.count(v) for v in tup])
    he = [np.ones_like(xi_block)]
    if max_deg >= 1:
        he.append(xi_block.copy())
    for d in range(2, max_deg + 1):
        he.append(xi_block * he[d - 1] - (d - 1) * he[d - 2])
    out = np.zeros(xi_block.shape[0])
    for n, k in comps:
        basis_factor = grid.step ** (n / 2.0)
        for tup, c in k.entries.items():
            term = np.full(xi_block.shape[0], c * multiplicity(tup) * basis_factor)
            for cell in sorted(set(tup)):
                term = term * he[tup.count(cell)][:, cell]
            out += term
    return out


def gg_inner_per_cell(a, b) -> float:
    """``<G1, P G2>`` of two time-slot kernels with a loop over the cells of
    the largest remaining slot."""
    q = a.order - 1
    grid = a.grid
    step = grid.step
    M = grid.cells
    wq = layer_weights(grid, q)
    direct = step * float(np.einsum("sr,sr,r->", a.phi, b.phi, wq))
    if q == 1:
        swapped = step * step * float(np.sum(a.phi * b.phi.T))
    else:
        wq1 = layer_weights(grid, q - 1)
        swapped = 0.0
        idx = np.arange(M)
        for r in range(M):
            if wq1[r] == 0.0:
                continue
            mx = np.maximum(idx, r)
            a_mat = a.phi[:, mx]        # [s, a] = phi1_s(max(r, a))
            b_mat = b.phi[:, mx]        # [a, s] = phi2_a(max(r, s))
            swapped += wq1[r] * float(np.sum(a_mat * b_mat.T))
        swapped *= step * step
    return (direct + q * swapped) / (q + 1)


def g_layered_inner_per_cell(a, layers: np.ndarray) -> float:
    """``<G, L>`` of a time-slot family and a layered kernel, time slot by
    time slot."""
    grid = a.grid
    wq = layer_weights(grid, a.order - 1)
    idx = np.arange(grid.cells)
    total = 0.0
    for s in range(grid.cells):
        row = a.phi[s]
        if not np.any(row):
            continue
        total += float(np.dot(wq, row * layers[np.maximum(idx, s)]))
    return grid.step * total


def time_slot_to_sparse_per_multiset(k) -> SymKernel:
    """The sparse form of a time-slot kernel from its definition, one
    multiset of all the grid's cells at a time: the mean over the slots of
    ``phi[slot cell, largest other cell]``."""
    ent: dict[tuple[int, ...], float] = {}
    for tup in itertools.combinations_with_replacement(range(k.grid.cells), k.order):
        val = 0.0
        for v in set(tup):
            rest = list(tup)
            rest.remove(v)
            val += tup.count(v) * k.phi[v, max(rest)]
        val /= k.order
        if val != 0.0:
            ent[tup] = val
    return SymKernel(k.order, k.grid, ent)


def pettis_per_cell(psi, a: float, b: float) -> ChaosVector:
    """Weak time integral as a chain of chaos-vector sums, cell by cell."""
    grid = psi.grid
    lo, hi = grid.snap_down(a), grid.snap_down(b)
    total = ChaosVector.zero(grid)
    for j in range(lo, hi):
        total = total.add(psi.at(j))
    return total.scale(grid.step)


def order_weighted_sum_scalar(orders, values, lam: float) -> float:
    """``sum_n n! e^{2 lam n} value_n`` term by term in the given order, with
    log-space weights above order 30 and exact zeros for zero values."""
    total = 0.0
    for n, v in zip(orders, values):
        v = float(v)
        if v == 0.0:
            continue
        if n <= 30:
            total += math.factorial(n) * math.exp(2.0 * lam * n) * v
        else:
            log_term = math.lgamma(n + 1) + 2.0 * lam * n + math.log(abs(v))
            total += math.copysign(math.exp(log_term), v)
    return total


def composed_integral(phi, kernel, t: float, product=None, vol=None):
    """The integral as a per-cell composition of the public operators: the
    Skorohod integral of ``product(K phi (s), vol(s))`` plus the weak time
    integral of ``product(D_s K phi (s), vol(s))``; ``product`` is None,
    ``wick`` or ``pointwise``.  Returns ``(value, skorohod part, drift)``."""
    grid = phi.grid
    kg = kg_apply(phi, kernel, t)
    if product is None:
        def product(a, b):
            return a
    if vol is None or isinstance(vol, ChaosVector):
        vol = ChaosProcess.constant(grid, vol if vol is not None else ChaosVector.deterministic(grid, 1.0))
    integrand = ChaosProcess.from_function(grid, lambda s: product(kg.at(s), vol.at(s)))
    drift_values = ChaosProcess.from_function(
        grid, lambda s: product(derivative_at(kg.at(s), s), vol.at(s)))
    upper = grid.t_left(grid.snap_down(t))
    skor = skorohod(integrand, 0.0, upper)
    drift = pettis_time_integral(drift_values, 0.0, upper)
    return skor.add(drift), skor, drift
