"""The stacked integral against the per-cell composition of the public
operators (``dense_ref.composed_integral``), the structure of its pipeline,
and the canonical COO constructor of sparse kernels."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import chaoscalc.kernels as kernels_mod
import chaoscalc.operators as operators_mod
import chaoscalc.stacked as stacked_mod
import chaoscalc.vmbv as vmbv_mod
from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    LayeredKernel,
    OuKernel,
    SymKernel,
    TurbulenceKernel,
    chaos_formula_oracle,
    donsker_process,
    integrate_plain,
    integrate_sigma,
    integrate_strongind,
    integrate_wick,
    kg_apply,
    make_grid,
    pointwise,
    wick,
)
from chaoscalc.kernels import TimeSlotSymKernel, kernel_from_json
from chaoscalc.stacked import _order_stacks, _OrderStack
from chaoscalc.testing import random_chaos_process, random_chaos_vector, random_sym_kernel, rng_from

from dense_ref import composed_integral

MODES = {
    "plain": (lambda phi, vol, k: integrate_plain(phi, k, 1.0), None),
    "sigma": (lambda phi, vol, k: integrate_sigma(phi, vol, k, 1.0), pointwise),
    "wick": (lambda phi, vol, k: integrate_wick(phi, vol, k, 1.0), wick),
    "strongind": (lambda phi, vol, k: integrate_strongind(phi, vol, k, 1.0), pointwise),
}


def per_order_error(got: ChaosVector, want: ChaosVector) -> float:
    """Largest relative difference over the orders, each order compared as
    sparse tuples; the storage forms must agree as well."""
    assert {n: type(k) for n, k in got.components.items()} == \
        {n: type(k) for n, k in want.components.items()}
    worst = 0.0
    for n in set(got.orders()) | set(want.orders()):
        a, b = got.component(n).to_sparse(), want.component(n).to_sparse()
        scale = math.sqrt(max(a.norm_sq(), b.norm_sq()))
        worst = max(worst, math.sqrt(a.add(b.scale(-1.0)).norm_sq()) / scale)
    return worst


def brownian(grid) -> ChaosProcess:
    return ChaosProcess.from_function(
        grid, lambda j: ChaosVector.brownian_at(grid, grid.t_left(j)) if j else ChaosVector.zero(grid))


def mixed_volatility(grid, rng) -> ChaosProcess:
    """Zero, deterministic, random sparse and layered cells in turn: the
    products hold every storage form, at some orders side by side."""
    values = []
    for s in range(grid.cells):
        kind = s % 4
        if kind == 0:
            values.append(ChaosVector.zero(grid) if s else ChaosVector.deterministic(grid, 0.5))
        elif kind == 1:
            values.append(ChaosVector.deterministic(grid, float(rng.standard_normal())))
        elif kind == 2:
            values.append(random_chaos_vector(grid, 2, rng))
        else:
            values.append(ChaosVector.from_kernel(LayeredKernel.prefix_constant(2, grid, 0.7, s + 1)))
    return ChaosProcess.from_values(grid, values)


def case(name: str, M: int, mode: str):
    """Integrand and volatility of a named case on ``M`` cells; strongind
    gets disjoint supports, integrand low and volatility high."""
    grid = make_grid(1.0, M)
    rng = rng_from(1000 * M + len(name))
    low, high = list(range(M // 2)), list(range(M // 2, M))
    if mode == "strongind":
        phi = random_chaos_process(grid, 2, rng, cells=low)
        return phi, random_chaos_process(grid, 2, rng, cells=high)
    eps = grid.t_left(max(1, M // 4))
    if name == "sparse":
        return random_chaos_process(grid, 2, rng), random_chaos_process(grid, 2, rng)
    if name == "layered":
        return donsker_process(grid, 2, eps), brownian(grid)
    if name == "mixed":
        return donsker_process(grid, 1, eps), mixed_volatility(grid, rng)
    return random_chaos_process(grid, 3, rng, n_entries=3), mixed_volatility(grid, rng)


CASES = [(name, M) for M in (4, 8) for name in ("sparse", "layered", "mixed", "custom")]
CASES += [("sparse", 33)]


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name,M", CASES)
def test_stacked_integral_matches_per_cell_composition(name, M, mode):
    integrate, product = MODES[mode]
    phi, vol = case(name, M, mode)
    for kernel in (OuKernel(alpha=1.0), TurbulenceKernel(alpha=1.0, nu=0.8)):
        got = integrate(phi, vol, kernel)
        want = composed_integral(phi, kernel, 1.0, product, None if product is None else vol)
        for g, w in zip((got.value, got.skorohod_part, got.drift_part), want):
            assert per_order_error(g, w) <= 1e-12


@pytest.mark.parametrize("mode", ["sigma", "wick"])
@pytest.mark.parametrize("integrand", ["sparse", "point mass"])
def test_stacked_integral_across_block_boundaries(monkeypatch, integrand, mode):
    """With a block budget of a few entries every product, pair structure,
    densified layered stack, Skorohod append and reduction runs in many
    blocks and gives the same integral."""
    integrate, product = MODES[mode]
    grid = make_grid(1.0, 8)
    rng = rng_from(77)
    if integrand == "sparse":
        phi = random_chaos_process(grid, 3, rng, n_entries=3)
    else:
        phi = donsker_process(grid, 1, grid.t_left(2))
    vol = mixed_volatility(grid, rng)
    kernel = OuKernel(alpha=1.3)
    whole = integrate(phi, vol, kernel).value
    budget = 24
    blocks = Counter()
    expand, pairs, key_splits = stacked_mod._expand, stacked_mod._contraction_pairs, stacked_mod._key_splits
    densify = _OrderStack.densify

    def counted(counts, width):
        for block in expand(counts, width):
            blocks["entries"] += 1
            assert len(block[0]) * width <= budget or len(set(block[0])) == 1
            yield block

    def counted_pairs(x, v, k):
        for block in pairs(x, v, k):
            blocks["pairs"] += 1
            yield block

    def counted_key_splits(tuples, k):
        for rows, subs, rests in key_splits(tuples, k):
            assert len(set(rows.tolist())) == 1 or subs.size + rests.size <= budget
            yield rows, subs, rests

    def counted_densify(stack, cells):
        out = densify(stack, cells)
        blocks["densified"] += 1
        assert out.rows.size <= 4 * budget or len(out.rows) == 1
        return out

    monkeypatch.setattr(stacked_mod, "_ENTRY_BLOCK", budget)
    monkeypatch.setattr(stacked_mod, "_expand", counted)
    monkeypatch.setattr(stacked_mod, "_contraction_pairs", counted_pairs)
    monkeypatch.setattr(stacked_mod, "_key_splits", counted_key_splits)
    monkeypatch.setattr(_OrderStack, "densify", counted_densify)
    blocked = integrate(phi, vol, kernel)
    assert blocks["entries"] > 50
    if mode == "sigma":
        assert blocks["pairs"] > 10
    if integrand == "point mass":  # whole, each of the two layered stacks densifies once
        assert blocks["densified"] > 2
    assert per_order_error(blocked.value, whole) <= 1e-13
    want = composed_integral(phi, kernel, 1.0, product, vol)
    for g, w in zip((blocked.value, blocked.skorohod_part, blocked.drift_part), want):
        assert per_order_error(g, w) <= 1e-12


def test_stacked_integral_high_order_contraction_weights():
    """An order-4 integrand under an order-21 volatility of distinct cells,
    sharing one cell: the one-cell contraction weight holds
    ``mult(a - c) * mult(b - c) = 3! * 20!``, which does not fit in int64."""
    M = 24
    grid = make_grid(1.0, M)
    rng = rng_from(83)

    def process(tup):
        return ChaosProcess.from_values(grid, [
            ChaosVector.from_kernel(SymKernel(len(tup), grid, {tup: float(rng.standard_normal())}))
            for _ in range(M)])

    phi, vol = process((0, 1, 2, 3)), process(tuple(range(3, M)))
    kernel = OuKernel(alpha=1.0)
    got = integrate_sigma(phi, vol, kernel, 1.0)
    want = composed_integral(phi, kernel, 1.0, pointwise, vol)
    assert got.value.max_order() == 4 + 21 + 1
    for g, w in zip((got.value, got.skorohod_part, got.drift_part), want):
        assert per_order_error(g, w) <= 1e-12


@pytest.mark.parametrize("mode", ["sigma", "wick"])
def test_layered_rows_at_random_cells_densify_at_their_own_order(monkeypatch, mode):
    """A layered volatility row at a cell where the integrand is random is
    densified at its own order n, not carried to the order-(n+1) time-slot
    table of the Skorohod step: with the densify limit between the two
    counts the integral still computes, and matches the composition."""
    integrate, product = MODES[mode]
    grid = make_grid(1.0, 8)
    phi = random_chaos_process(grid, 2, rng_from(88))
    vol = donsker_process(grid, 2, grid.t_left(2))
    top = max(int(np.flatnonzero(k.layers)[-1]) for s in range(grid.cells)
              for k in vol.at(s).components.values() if isinstance(k, LayeredKernel))
    limit = math.comb(grid.cells - 1 + 5, 5) - 1  # the order-5 table would not densify
    assert math.comb(top + 4, 4) <= limit  # every order-4 layered row does
    monkeypatch.setattr(kernels_mod, "_DENSIFY_LIMIT", limit)
    got = integrate(phi, vol, OuKernel(alpha=1.0))
    want = composed_integral(phi, OuKernel(alpha=1.0), 1.0, product, vol)
    for g, w in zip((got.value, got.skorohod_part, got.drift_part), want):
        assert per_order_error(g, w) <= 1e-12


def test_integral_calls_no_per_cell_operator(monkeypatch):
    """Every mode runs without the dict operators, and builds the order
    stacks of the integrand and of the volatility once each."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-cell operator called")

    for name in ("wick", "pointwise", "skorohod", "pettis_time_integral", "derivative_at"):
        for module in (operators_mod, vmbv_mod, stacked_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    built = Counter()
    order_stacks = vmbv_mod._order_stacks

    def counted(proc, t_cell):
        built[id(proc)] += 1
        return order_stacks(proc, t_cell)

    monkeypatch.setattr(vmbv_mod, "_order_stacks", counted)
    grid = make_grid(1.0, 8)
    rng = rng_from(79)
    for mode, (integrate, _) in sorted(MODES.items()):
        phi, vol = case("sparse", 8, mode)
        built.clear()
        integrate(phi, vol, OuKernel(alpha=1.0))
        assert built[id(phi)] == 1, mode
        assert built[id(vol)] == (0 if mode == "plain" else 1), mode
    phi = donsker_process(grid, 3, 0.25)
    assert integrate_wick(phi, mixed_volatility(grid, rng), OuKernel(alpha=1.0), 1.0).value.max_order() > 0


def test_point_mass_skorohod_step_keeps_time_slot_form():
    """The layered point-mass integrand keeps its structure through the
    stacked Skorohod step and drift."""
    grid = make_grid(1.0, 16)
    res = integrate_plain(donsker_process(grid, 4, 0.25), OuKernel(alpha=1.0), 1.0)
    forms = {n: type(k) for n, k in res.value.components.items()}
    assert forms[1] is SymKernel
    assert all(forms[n] is TimeSlotSymKernel for n in (3, 5, 7, 9))
    assert all(type(res.drift_part.components[n]) is LayeredKernel for n in (1, 3, 5, 7))


def _assembled(parts, grid, t_cell) -> list[ChaosVector]:
    """The per-cell values of a process given by ``_products`` parts."""
    acc = [{} for _ in range(t_cell)]
    for n, part in parts:
        if isinstance(part, _OrderStack):
            for s in range(t_cell):
                for tup, c in part.kernel(part.rows[s]).to_sparse().entries.items():
                    acc[s].setdefault(n, Counter())[tup] += c
            continue
        for s, tup, d in zip(*part):
            tup = tuple(sorted(tup.tolist()))
            acc[s].setdefault(n, Counter())[tup] += d / kernels_mod.multiplicity(tup)
    return [ChaosVector(grid, {n: SymKernel(n, grid, dict(e)) for n, e in cell.items()}) for cell in acc]


@pytest.mark.parametrize("mode", ["sigma", "wick"])
def test_products_join_every_pair_at_cells_where_both_factors_are_random(mode):
    """Order-0, sparse and layered rows on both sides: at a cell where both
    factors are random every product comes from ``_contract``, elsewhere a
    factor's order-0 row scales the other's rows; each cell's product is
    the per-call one."""
    _, product = MODES[mode]
    grid = make_grid(1.0, 8)
    rng = rng_from(97)
    phi = ChaosProcess.from_values(grid, [
        random_chaos_vector(grid, 2, rng) if s % 3 else ChaosVector.deterministic(grid, float(rng.standard_normal()))
        for s in range(grid.cells)])
    vol = mixed_volatility(grid, rng)
    xs, vs = vmbv_mod._order_stacks(phi, grid.cells), vmbv_mod._order_stacks(vol, grid.cells)
    assert xs[0].order == 0 and vs[0].order == 0
    both = np.array([phi.at(s).max_order() > 0 and vol.at(s).max_order() > 0 for s in range(grid.cells)])
    assert both.any() and not both.all()
    parts = list(stacked_mod._products(xs, vs, grid.cells, mode == "sigma"))
    for n, part in parts:
        if isinstance(part, _OrderStack):
            assert not part.rows[both].any()
        else:
            assert both[part[0]].all()
    assert {n for n, part in parts if not isinstance(part, _OrderStack)} >= {1, 2}
    for s, got in enumerate(_assembled(parts, grid, grid.cells)):
        want = product(phi.at(s), vol.at(s))
        assert got.sub(want).gnorm(0.0) <= 1e-12 * want.gnorm(0.0)


def layered_integrand(grid, rng) -> ChaosProcess:
    """Order 0, layered order 1 and layered order 2 at every cell."""
    return ChaosProcess.from_values(grid, [ChaosVector(grid, {
        0: SymKernel.scalar(grid, float(rng.standard_normal())),
        1: LayeredKernel(1, grid, rng.standard_normal(grid.cells)),
        2: LayeredKernel(2, grid, rng.standard_normal(grid.cells))}) for _ in range(grid.cells)])


def densified(vec: ChaosVector) -> ChaosVector:
    return ChaosVector(vec.grid, {n: k.to_sparse() for n, k in vec.components.items()})


@pytest.mark.parametrize("case", ["plain", "constant wick", "random sigma", "random wick"])
def test_layered_rows_of_every_order_match_composition_and_oracle(case):
    """Layered integrand rows of orders 1 and 2 beside an order-0 row, in
    every product case; the order-1 rows give an order-2 time-slot kernel
    in the Skorohod step wherever the volatility is deterministic."""
    grid = make_grid(1.0, 6)
    rng = rng_from(101)
    phi = layered_integrand(grid, rng)
    kernel = OuKernel(alpha=1.0)
    vol = None
    if case == "constant wick":
        vol = ChaosProcess.constant(grid, ChaosVector.deterministic(grid, 1.7))
    elif case != "plain":
        vol = random_chaos_process(grid, 2, rng)
    integrate, product = MODES[case.split()[-1]]
    got = integrate(phi, vol, kernel)
    want = composed_integral(phi, kernel, 1.0, product, vol)
    for g, w in zip((got.value, got.skorohod_part, got.drift_part), want):
        assert per_order_error(g, w) <= 1e-12
    if case in ("plain", "constant wick"):
        assert type(got.skorohod_part.components[2]) is TimeSlotSymKernel
    if product is not pointwise:
        oracle = chaos_formula_oracle(phi, kernel, 1.0, vol)
        assert per_order_error(densified(got.value), oracle) <= 1e-12


def test_skorohod_of_layered_order_1_rows_is_a_time_slot_kernel():
    """Both Skorohod steps turn layered rows of order 1 into an order-2
    ``TimeSlotSymKernel``, which matches the densified rows' integral."""
    grid = make_grid(1.0, 6)
    rng = rng_from(103)
    rows = rng.standard_normal((grid.cells, grid.cells))
    proc = ChaosProcess.from_values(grid, [ChaosVector.from_kernel(LayeredKernel(1, grid, r)) for r in rows])
    per_call = operators_mod.skorohod(proc, 0.0, 1.0)
    stack = _OrderStack(grid, 1, None, rows)
    stacked = stacked_mod._skorohod_step(grid, grid.cells, [(1, stack)])
    dense = operators_mod.skorohod(ChaosProcess.from_values(grid, [densified(proc.at(s)) for s in range(grid.cells)]),
                                   0.0, 1.0)
    for out in (per_call, stacked):
        assert out.orders() == [2] and type(out.component(2)) is TimeSlotSymKernel
        assert per_order_error(densified(out), dense) <= 1e-14


def test_random_volatility_over_an_integrand_with_no_derivative_below_t():
    """At t of one cell, an integrand whose value there lives on a later
    cell has a derivative stack with no entry; under a random volatility
    each mode computes order 3 and matches its oracle."""
    grid = make_grid(1.0, 4)
    phi = ChaosProcess.from_values(grid, [ChaosVector.from_kernel(SymKernel(1, grid, {(2,): 1.0}))]
                                   + [ChaosVector.zero(grid)] * 3)
    vol = ChaosProcess.constant(grid, ChaosVector.from_kernel(SymKernel(1, grid, {(0,): 1.0, (1,): 1.0})))
    kernel = OuKernel(alpha=1.0)
    oracle = chaos_formula_oracle(phi, kernel, 0.25, vol)
    assert oracle.orders() == [3]
    for integrate in (integrate_wick, integrate_strongind):
        assert per_order_error(integrate(phi, vol, kernel, 0.25).value, oracle) <= 1e-12
    want, _, _ = composed_integral(phi, kernel, 0.25, pointwise, vol)
    assert per_order_error(integrate_sigma(phi, vol, kernel, 0.25).value, want) <= 1e-12


def test_expand_blocks_stay_within_budget():
    counts = np.array([0, 3, 5, 0, 2, 40, 1, 1, 0, 7])
    owners, offsets = [], []
    for owner, offset in stacked_mod._expand(counts, 4):
        assert len(owner) * 4 <= stacked_mod._ENTRY_BLOCK or len(set(owner.tolist())) == 1
        owners.append(owner)
        offsets.append(offset)
    owner, offset = np.concatenate(owners), np.concatenate(offsets)
    assert owner.tolist() == np.repeat(np.arange(len(counts)), counts).tolist()
    assert offset.tolist() == [j for c in counts for j in range(c)]


@pytest.mark.parametrize("tuples", ["distinct", "repeated"])
def test_sparse_sum_reduces_by_its_own_size(monkeypatch, tuples):
    """A canonical part, then 300 parts of unsorted rows with some zero
    values, summed with a block of 48 elements.  On distinct tuples the sum
    reduces about ``log2(total / block)`` times, not once per block; on
    repeated tuples (about 20 terms each) the reductions fall between terms
    of one tuple.  Either way the kernel is one reduction of all the parts,
    bit for bit."""
    block, order = 48, 3
    grid = make_grid(1.0, 40)
    rng = rng_from(29)
    pool = kernels_mod._multisets(order, np.ones(grid.cells, dtype=bool))
    if tuples == "distinct":
        rows = pool[rng.permutation(len(pool) - 200)[:6000]]
    else:
        rows = pool[rng.integers(0, 300, 6000)]
    parts = [(pool[-200:], rng.standard_normal(200))]
    for chunk in np.array_split(rng.permuted(rows, axis=1), 300):
        d = rng.standard_normal(len(chunk))
        d[::7] = 0.0
        parts.append((chunk, d))
    calls = Counter()
    reduce = stacked_mod._SparseSum._reduce

    def counted(self):
        calls["reduce"] += 1
        reduce(self)

    monkeypatch.setattr(stacked_mod, "_ENTRY_BLOCK", block)
    monkeypatch.setattr(stacked_mod._SparseSum, "_reduce", counted)
    total = stacked_mod._SparseSum(order)
    for i, (t, d) in enumerate(parts):
        total.add(t, d, canonical=i == 0)
    got_tuples, got_coef = total.kernel(grid, scale=grid.step).arrays()

    live = np.concatenate([d for _, d in parts]) != 0.0
    keys, index = kernels_mod.unique_rows(np.sort(np.concatenate([t for t, _ in parts])[live], axis=1))
    coef = np.bincount(index, weights=np.concatenate([d for _, d in parts])[live], minlength=len(keys))
    coef = coef / kernels_mod.multiplicities(keys).astype(float) * grid.step
    assert np.array_equal(got_tuples, keys[coef != 0.0])
    assert got_coef.tobytes() == coef[coef != 0.0].tobytes()
    if tuples == "distinct":
        assert calls["reduce"] <= math.log2(live.sum() * order / block) + 2


# -- the canonical COO constructor ------------------------------------------


def lexsorted(kernel: SymKernel):
    keys = sorted(kernel.entries)
    tuples = np.array(keys, dtype=np.int64).reshape(len(keys), kernel.order)
    return tuples, np.array([kernel.entries[k] for k in keys])


@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_from_arrays_round_trips_through_json(order):
    grid = make_grid(1.0, 6)
    rng = rng_from(83 + order)
    src = random_sym_kernel(grid, order, rng, n_entries=12)
    tuples, coef = lexsorted(src)
    coef[::3] = 0.0  # zero coefficients are dropped
    k = SymKernel.from_arrays(order, grid, tuples, coef)
    assert k.entries == {tuple(t): c for t, c in zip(tuples.tolist(), coef.tolist()) if c != 0.0}
    assert all(type(c) is float for c in k.entries.values())
    back = kernel_from_json(json.loads(json.dumps(k.to_json())))
    assert back.entries == k.entries and list(back.entries) == list(k.entries)
    got_t, got_c = k.arrays()
    want_t, want_c = lexsorted(k)
    assert np.array_equal(got_t, want_t) and np.array_equal(got_c, want_c)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_arrays_of_shuffled_and_canonical_kernels_equal_lexsorted_form(order):
    """``arrays()`` skips the sort only for rows already in lexicographic
    order; either way it returns the lexsorted form bit for bit."""
    grid = make_grid(1.0, 7)
    rng = rng_from(89 + order)
    src = random_sym_kernel(grid, order, rng, n_entries=40)
    want_t, want_c = lexsorted(src)
    for trial in range(5):
        perm = rng.permutation(len(want_c))
        shuffled = SymKernel(order, grid, {tuple(want_t[i].tolist()): float(want_c[i]) for i in perm})
        got_t, got_c = shuffled.arrays()
        assert np.array_equal(got_t, want_t) and np.array_equal(got_c, want_c)
    got_t, got_c = SymKernel.from_arrays(order, grid, want_t, want_c).arrays()
    assert np.array_equal(got_t, want_t) and np.array_equal(got_c, want_c)


# -- held order stacks -------------------------------------------------------


def cell_stacks(proc: ChaosProcess, t_cell: int) -> list[_OrderStack]:
    """The order stacks of the process's cell values, stacked cell by cell."""
    return _order_stacks(ChaosProcess.from_values(proc.grid, list(proc)), t_cell)


def assert_same_stacks(got: list[_OrderStack], want: list[_OrderStack]):
    """Orders, storage forms, keys and rows equal to the last bit."""
    assert [s.order for s in got] == [s.order for s in want]
    for a, b in zip(got, want):
        assert a.layered == b.layered
        if not a.layered:
            assert a.tuples.shape == b.tuples.shape and a.tuples.tobytes() == b.tuples.tobytes()
        assert a.rows.shape == b.rows.shape and a.rows.tobytes() == b.rows.tobytes()


HELD = {
    "point mass": lambda grid: donsker_process(grid, 6, 0.25),
    # the top coefficients underflow on the cells far from 0
    "point mass, N = 160": lambda grid: donsker_process(grid, 160, 0.25),
    "kg_apply of a sparse process": lambda grid: kg_apply(
        random_chaos_process(grid, 3, rng_from(101), n_entries=4), OuKernel(alpha=1.0), 1.0),
    # rows stop at t = 0.5: the stacks below a later horizon are padded
    "kg_apply of a sparse process at t = 0.5": lambda grid: kg_apply(
        random_chaos_process(grid, 2, rng_from(103), n_entries=4), TurbulenceKernel(alpha=1.0, nu=0.8), 0.5),
    "kg_apply of the point mass": lambda grid: kg_apply(donsker_process(grid, 4, 0.25), OuKernel(alpha=1.0), 0.75),
}


@pytest.mark.parametrize("M", [16, 32])
@pytest.mark.parametrize("name", sorted(HELD))
def test_held_stacks_equal_the_stacks_of_their_cell_values(name, M):
    grid = make_grid(1.0, M)
    proc = HELD[name](grid)
    assert proc.stacks is not None
    for t_cell in (M, M // 2, 3):
        assert_same_stacks(_order_stacks(proc, t_cell), cell_stacks(proc, t_cell))

