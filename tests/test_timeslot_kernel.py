"""The structured symmetrized-time-slot kernel against literal densification."""

import math

import numpy as np
import pytest

from chaoscalc import ChaosProcess, ChaosVector, LayeredKernel, TimeSlotSymKernel, make_grid, skorohod
from chaoscalc.kernels import layer_weights
from chaoscalc.testing import rng_from

from dense_ref import (
    dense_from_kernel,
    dense_inner,
    dense_norm_sq,
    g_layered_inner_per_cell,
    gg_inner_per_cell,
)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_norm_matches_densified(order):
    g = make_grid(1.0, 4)
    rng = rng_from(order)
    phi = rng.standard_normal((4, 4))
    slot = TimeSlotSymKernel(order, g, phi)
    dense = dense_from_kernel(slot.to_sparse())
    assert slot.norm_sq() == pytest.approx(dense_norm_sq(g, dense), rel=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_norm_with_layered_addend(order):
    g = make_grid(1.0, 4)
    rng = rng_from(10 + order)
    phi = rng.standard_normal((4, 4))
    extra = rng.standard_normal(4)
    slot = TimeSlotSymKernel(order, g, phi, extra)
    dense = dense_from_kernel(slot.to_sparse())
    assert slot.norm_sq() == pytest.approx(dense_norm_sq(g, dense), rel=1e-12)


def test_inner_between_slot_kernels():
    g = make_grid(1.0, 4)
    rng = rng_from(77)
    a = TimeSlotSymKernel(3, g, rng.standard_normal((4, 4)), rng.standard_normal(4))
    b = TimeSlotSymKernel(3, g, rng.standard_normal((4, 4)), rng.standard_normal(4))
    da = dense_from_kernel(a.to_sparse())
    db = dense_from_kernel(b.to_sparse())
    assert a.inner(b) == pytest.approx(dense_inner(g, da, db), rel=1e-11)
    assert a.inner(b) == pytest.approx(b.inner(a), rel=1e-12)


def test_inner_against_layered():
    g = make_grid(1.0, 4)
    rng = rng_from(88)
    a = TimeSlotSymKernel(3, g, rng.standard_normal((4, 4)))
    lk = LayeredKernel(3, g, rng.standard_normal(4))
    da = dense_from_kernel(a.to_sparse())
    dl = dense_from_kernel(lk.to_sparse())
    assert a.inner(lk) == pytest.approx(dense_inner(g, da, dl), rel=1e-11)


def test_add_and_scale():
    g = make_grid(1.0, 4)
    rng = rng_from(99)
    a = TimeSlotSymKernel(2, g, rng.standard_normal((4, 4)))
    lk = LayeredKernel(2, g, rng.standard_normal(4))
    summed = a.add(lk).scale(2.0)
    dense = 2.0 * (dense_from_kernel(a.to_sparse()) + dense_from_kernel(lk.to_sparse()))
    assert np.max(np.abs(dense_from_kernel(summed.to_sparse()) - dense)) < 1e-12


def test_s_transform_matches_sparse():
    g = make_grid(1.0, 4)
    rng = rng_from(111)
    slot = TimeSlotSymKernel(3, g, rng.standard_normal((4, 4)), rng.standard_normal(4))
    xi = rng.standard_normal(4)
    assert slot.s_transform(xi) == pytest.approx(slot.to_sparse().s_transform(xi), rel=1e-11)


def test_skorohod_layered_process_matches_sparse_path():
    """The structured Skorohod output agrees with the sparse pipeline run on
    the densified process."""
    g = make_grid(1.0, 4)
    rng = rng_from(123)
    layered_vals = []
    sparse_vals = []
    for j in range(4):
        lk = LayeredKernel(2, g, rng.standard_normal(4))
        layered_vals.append(ChaosVector(g, {2: lk}))
        sparse_vals.append(ChaosVector(g, {2: lk.to_sparse()}))
    out_struct = skorohod(ChaosProcess.from_values(g, layered_vals), 0.0, 1.0)
    out_sparse = skorohod(ChaosProcess.from_values(g, sparse_vals), 0.0, 1.0)
    a = out_struct.component(3)
    b = out_sparse.component(3)
    assert isinstance(a, TimeSlotSymKernel)
    da = dense_from_kernel(a.to_sparse())
    db = dense_from_kernel(b)
    assert np.max(np.abs(da - db)) < 1e-12
    assert a.norm_sq() == pytest.approx(b.norm_sq(), rel=1e-12)


def _family_norm(k: TimeSlotSymKernel) -> float:
    """L2 norm of the raw family ``G(x, s) = phi[s, max x]`` before the
    symmetrization, which bounds every inner product with it."""
    wq = layer_weights(k.grid, k.order - 1)
    return math.sqrt(k.grid.step * float(np.einsum("sr,sr,r->", k.phi, k.phi, wq)))


def _layered_norm(grid, order: int, layers: np.ndarray) -> float:
    return math.sqrt(float(np.dot(layer_weights(grid, order), layers * layers)))


@pytest.mark.parametrize("cells", [2, 5, 33, 80])
@pytest.mark.parametrize("order", [2, 3, 7])
def test_time_slot_inner_products_match_per_cell_loops(order, cells):
    """The closed forms against the loops over cells, on random signed
    tables."""
    g = make_grid(1.0, cells)
    rng = rng_from(1000 * order + cells)
    a = TimeSlotSymKernel(order, g, rng.standard_normal((cells, cells)))
    b = TimeSlotSymKernel(order, g, rng.standard_normal((cells, cells)))
    layers = rng.standard_normal(cells)
    scale = _family_norm(a) * _family_norm(b)
    assert abs(a._gg_inner(b) - gg_inner_per_cell(a, b)) <= 1e-12 * scale
    assert abs(a._gg_inner(a) - gg_inner_per_cell(a, a)) <= 1e-12 * _family_norm(a) ** 2
    scale = _family_norm(a) * _layered_norm(g, order, layers)
    assert abs(a._g_layered_inner(layers) - g_layered_inner_per_cell(a, layers)) <= 1e-12 * scale
