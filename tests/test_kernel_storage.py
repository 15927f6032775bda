"""The two storage forms of a sparse kernel.

``SymKernel.from_arrays`` keeps the canonical arrays as the storage from
``_ARRAY_MIN_ENTRIES`` live entries on, and builds a dict below.  A kernel
built from the same rows as a dict (its twin) must give the same answers on
every method, bit for bit where the rows come in the same order."""

import json

import numpy as np
import pytest

from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    LayeredKernel,
    OuKernel,
    SymKernel,
    TimeSlotSymKernel,
    integrate_wick,
    make_grid,
)
from chaoscalc.kernels import _ARRAY_MIN_ENTRIES, _multisets
from chaoscalc.montecarlo import evaluate_block, sample_noise_block
from chaoscalc.testing import random_chaos_process, rng_from

GRID = make_grid(1.0, 32)


def holds_arrays(k: SymKernel) -> bool:
    return k._rows is not None


def canonical_rows(order: int, size: int, seed: int):
    """``size`` distinct multisets of ``order`` cells of ``GRID`` in
    lexicographic order, with random non-zero coefficients."""
    rng = rng_from(seed)
    every = _multisets(order, np.ones(GRID.cells, dtype=bool))
    tuples = every[np.sort(rng.choice(len(every), size=size, replace=False))]
    return tuples, rng.standard_normal(size) + 3.0


def twins(order: int, size: int, seed: int, shuffled: bool = False):
    """A kernel from ``from_arrays`` and one from a dict of the same rows,
    in the same order: lexicographic, or shuffled."""
    tuples, coef = canonical_rows(order, size, seed)
    if shuffled:
        perm = rng_from(seed + 1).permutation(size)
        tuples, coef = tuples[perm], coef[perm]
    held = SymKernel.from_arrays(order, GRID, tuples, coef)
    twin = SymKernel(order, GRID, dict(zip(map(tuple, tuples.tolist()), coef.tolist())))
    return held, twin


def same_kernel(a: SymKernel, b: SymKernel):
    assert a.order == b.order
    (ta, ca), (tb, cb) = a.arrays(), b.arrays()
    assert np.array_equal(ta, tb) and np.array_equal(ca, cb)
    assert a.entries == b.entries
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


SIZES = [_ARRAY_MIN_ENTRIES - 1, _ARRAY_MIN_ENTRIES]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("order", [2, 3])
def test_held_kernel_and_dict_twin_agree(order, size, shuffled):
    held, twin = twins(order, size, 100 + order + size, shuffled)
    assert holds_arrays(held) == (size >= _ARRAY_MIN_ENTRIES)
    assert not holds_arrays(twin)
    assert held.is_zero() == twin.is_zero() is False
    assert held.nnz() == twin.nnz() == size
    assert held.support_cells() == twin.support_cells()
    assert held.norm_sq() == twin.norm_sq()  # bit for bit: same rows in the same order
    assert json.dumps(held.to_json()) == json.dumps(twin.to_json())
    (ht, hc), (tt, tc) = held.arrays(), twin.arrays()
    assert np.array_equal(ht, tt) and np.array_equal(hc, tc)
    assert held.arrays() is held.arrays()  # cached
    assert not ht.flags.writeable and not hc.flags.writeable
    for a in (1.0, -2.5, 0.0, 5e-324):  # 5e-324 underflows most coefficients to 0
        same_kernel(held.scale(a), twin.scale(a))
    assert held.scale(0.0).is_zero()
    assert holds_arrays(held.scale(-2.5)) == holds_arrays(held)
    # the round trip through the dict keeps the row order
    assert list(held.entries) == list(twin.entries)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("order", [2, 3])
def test_sums_of_held_kernels_and_dict_twins_agree(order, size):
    held, twin = twins(order, size, 200 + order + size)
    other_held, other_twin = twins(order, size, 300 + order + size)
    # a partner that cancels every third entry exactly and shares the rest
    tuples, coef = held.arrays()
    part = coef.copy()
    part[::3] *= -1.0
    cancel = SymKernel.from_arrays(order, GRID, tuples, part)
    cancel_twin = SymKernel(order, GRID, dict(zip(map(tuple, tuples.tolist()), part.tolist())))
    layered = LayeredKernel(order, GRID, rng_from(7).standard_normal(GRID.cells))
    time_slot = TimeSlotSymKernel(order, GRID, rng_from(8).standard_normal((GRID.cells, GRID.cells)))
    partners = [(other_held, other_twin), (cancel, cancel_twin), (other_twin, other_twin),
                (layered, layered), (time_slot, time_slot)]
    for x, x_twin in partners:
        same_kernel(held.add(x), twin.add(x_twin))
        same_kernel(x.add(held), x_twin.add(twin))
        assert held.add(x).norm_sq() == pytest.approx(twin.add(x_twin).norm_sq(), rel=1e-14)
    gone = held.add(cancel)
    assert gone.nnz() == len(coef) - len(coef[::3])
    assert held.add(held.scale(-1.0)).is_zero()


def test_order_0_and_empty_kernels_are_dicts():
    g = GRID
    scalar = SymKernel.from_arrays(0, g, np.zeros((1, 0), dtype=np.int64), np.array([2.5]))
    assert not holds_arrays(scalar)
    same_kernel(scalar, SymKernel.scalar(g, 2.5))
    assert scalar.norm_sq() == SymKernel.scalar(g, 2.5).norm_sq() == 6.25
    all_zero = SymKernel.from_arrays(2, g, canonical_rows(2, 300, 5)[0], np.zeros(300))
    for order, k in [(0, SymKernel.from_arrays(0, g, np.zeros((0, 0), dtype=np.int64), np.zeros(0))),
                     (2, SymKernel.from_arrays(2, g, np.zeros((0, 2), dtype=np.int64), np.zeros(0))),
                     (2, all_zero)]:
        twin = SymKernel(order, g)
        assert not holds_arrays(k)
        assert k.is_zero() and twin.is_zero()
        same_kernel(k, twin)
        assert k.norm_sq() == twin.norm_sq() == 0.0
        assert k.support_cells() == twin.support_cells() == set()
    held, twin = twins(2, _ARRAY_MIN_ENTRIES, 9)
    same_kernel(held.add(SymKernel(2, GRID)), twin.add(SymKernel(2, GRID)))
    same_kernel(SymKernel(2, GRID).add(held), SymKernel(2, GRID).add(twin))


def test_large_wick_integral_norms_and_paths_leave_the_dict_unbuilt():
    """The M = 64 random integrand under a Brownian Wick volatility: the
    integral's large orders hold arrays, and its norms, pathwise values and
    JSON are read from them without building a dict."""
    grid = make_grid(1.0, 64)
    phi = random_chaos_process(grid, 2, rng_from(64))
    vol = ChaosProcess.from_function(
        grid, lambda j: ChaosVector.brownian_at(grid, grid.t_left(j)) if j > 0 else ChaosVector.zero(grid))
    value = integrate_wick(phi, vol, OuKernel(alpha=1.0), 1.0).value
    held = [k for k in value.components.values() if isinstance(k, SymKernel) and holds_arrays(k)]
    assert held
    assert all(v > 0.0 for v in (value.gnorm(lam) for lam in (-1.0, 0.0, 1.0)))
    assert np.isfinite(evaluate_block(value, sample_noise_block(grid, 8, 3))).all()
    value.to_json()
    assert all(k._entries is None for k in held)
