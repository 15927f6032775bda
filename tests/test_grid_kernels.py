"""Grid, sparse kernels, chaos vectors: contracts and properties."""

import json
import math
import re
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscalc import (
    ChaosVector,
    LayeredKernel,
    OuKernel,
    SymKernel,
    TimeSlotSymKernel,
    donsker_process,
    gnorm,
    inner_product,
    integrate_plain,
    linear_combine,
    make_grid,
    pairing,
    sym_store,
    truncate,
)
import chaoscalc.kernels as kernels_mod
from chaoscalc.chaos import order_weighted_sum
from chaoscalc.testing import random_chaos_vector, random_sym_kernel, rng_from

from dense_ref import dense_from_kernel, dense_inner, dense_norm_sq, order_weighted_sum_scalar


def test_make_grid_basic():
    g = make_grid(1.0, 8)
    assert g.step == 0.125
    assert g.cell(0.3) == 2
    g1 = make_grid(2.0, 1)
    assert g1.step == 2.0
    assert g1.cell(1.99) == 0


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(-1.0, 4)


def test_cell_lookup_total_on_horizon():
    g = make_grid(1.0, 8)
    for t in np.linspace(0.0, 1.0, 101)[:-1]:
        j = g.cell(t)
        assert g.t_left(j) <= t < g.t_left(j + 1)
    with pytest.raises(ValueError):
        g.cell(1.0)


def test_cell_of_a_boundary_time_is_the_cell_it_starts():
    """0.3 / 0.1 rounds to 2.9999999999999996; within the alignment
    tolerance it is boundary 3, as ``snap_down`` says."""
    g = make_grid(1.0, 10)
    assert g.cell(0.3) == g.snap_down(0.3) == 3
    assert g.cell(0.29) == 2
    assert g.cell(0.9999999999) == 9
    for j in range(10):
        assert g.cell(j / 10) == j


def test_sym_store_positional_averaging():
    g = make_grid(1.0, 8)
    k = sym_store(2, [((0, 1), 1.0), ((1, 0), 0.0)], g, mode="positional")
    assert k.entries == {(0, 1): 0.5}


def test_sym_store_canonical_identity_and_accumulation():
    g = make_grid(1.0, 8)
    k = sym_store(1, [((3,), 2.0)], g)
    assert k.entries == {(3,): 2.0}
    k2 = sym_store(2, [((1, 0), 1.0), ((0, 1), 2.0)], g)
    assert k2.entries == {(0, 1): 3.0}


def test_sym_store_rejects_out_of_range_and_length_mismatch():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        sym_store(2, [((0, 9), 1.0)], g)
    with pytest.raises(ValueError):
        sym_store(2, [((0,), 1.0)], g)


def test_inner_product_examples():
    g4 = make_grid(1.0, 4)
    ind = SymKernel.indicator(g4, 0.0, 1.0)
    assert inner_product(ind, ind) == pytest.approx(1.0, rel=1e-15)

    g = make_grid(1.0, 8)
    a = SymKernel.scalar(g, 3.0)
    b = SymKernel.scalar(g, 2.0)
    assert inner_product(a, b) == 6.0

    g2 = make_grid(1.0, 2)
    f = sym_store(2, [((0, 1), 1.0)], g2)
    # brute force over the 4 positional index pairs
    dense = dense_from_kernel(f)
    brute = g2.step ** 2 * float(np.sum(dense * dense))
    assert inner_product(f, f) == pytest.approx(brute, rel=1e-15)
    assert brute == pytest.approx(0.5, rel=1e-15)


def test_inner_product_rejects_mismatch():
    g = make_grid(1.0, 4)
    h = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        inner_product(SymKernel.scalar(g, 1.0), SymKernel.indicator(g, 0, 1))
    with pytest.raises(ValueError):
        inner_product(SymKernel.indicator(g, 0, 1), SymKernel.indicator(h, 0, 1))


def test_norm_matches_dense_reference():
    g = make_grid(1.0, 4)
    rng = rng_from(7)
    for order in range(4):
        vec = random_chaos_vector(g, order, rng, n_entries=5)
        for n, k in vec.components.items():
            dense = dense_from_kernel(k)
            assert k.norm_sq() == pytest.approx(dense_norm_sq(g, dense), rel=1e-13)


def test_gnorm_examples():
    g = make_grid(1.0, 8)
    c = ChaosVector.deterministic(g, -2.5)
    for lam in (-1.0, 0.0, 2.0):
        assert gnorm(c, lam) == pytest.approx(2.5, rel=1e-15)
    one = ChaosVector.brownian_at(g, 1.0)
    for lam in (-0.5, 0.0, 1.3):
        assert gnorm(one, lam) == pytest.approx(math.exp(lam), rel=1e-14)


def test_gnorm_zero_is_l2_norm():
    g = make_grid(1.0, 4)
    vec = random_chaos_vector(g, 3, rng_from(3), n_entries=4)
    l2_sq = sum(math.factorial(n) * k.norm_sq() for n, k in vec.components.items())
    assert gnorm(vec, 0.0) == pytest.approx(math.sqrt(l2_sq), rel=1e-14)


def _mixed_form_value():
    """A point-mass integral: sparse, layered and time-slot components."""
    g = make_grid(1.0, 8)
    value = integrate_plain(donsker_process(g, 3, 0.25), OuKernel(alpha=1.0), 1.0).value
    assert {type(k) for k in value.components.values()} == {SymKernel, TimeSlotSymKernel}
    return value


def test_norms_computed_once_per_vector(monkeypatch):
    value = _mixed_form_value()
    calls = Counter()
    for cls in (SymKernel, LayeredKernel, TimeSlotSymKernel):
        original = cls.norm_sq

        def counting(self, _original=original):
            calls[id(self)] += 1
            return _original(self)

        monkeypatch.setattr(cls, "norm_sq", counting)
    norms = [value.gnorm(lam) for lam in (-1.0, 0.0, 0.5)]
    assert value.gnorm(-1.0) == norms[0]
    assert sorted(calls) == sorted(id(k) for k in value.components.values())
    assert set(calls.values()) == {1}
    # callers get a copy: changing it leaves the stored norms alone
    per_order = value.order_norms_sq()
    per_order[max(per_order)] = 1e300
    assert value.gnorm(0.5) == norms[2]


def test_gnorm_independent_of_storage_order():
    """Equal kernels inserted in another order give bit-equal norms."""
    g = make_grid(1.0, 4)
    rng = rng_from(17)
    for _ in range(20):
        vec = random_chaos_vector(g, 6, rng, n_entries=3)
        ascending = ChaosVector(g, dict(sorted(vec.components.items())))
        descending = ChaosVector(g, dict(sorted(vec.components.items(), reverse=True)))
        for lam in (-1.3, -0.2, 0.0, 0.7, 2.0):
            assert ascending.gnorm(lam) == descending.gnorm(lam)
            assert ascending.pairing(vec) == descending.pairing(vec)


def test_order_weighted_sum_table_matches_scalar_contraction():
    """A table contracts column by column like the scalar sum, with zero
    rows and entries, orders above the log-space guard and both signs of
    the weight index; the order the rows come in does not matter."""
    rng = rng_from(29)
    orders = [40, 0, 3, 31, 2, 30]
    table = rng.uniform(0.0, 2.0, (len(orders), 9))
    table[2] = 0.0
    table[:, 4] = 0.0
    table[3, 1] = 0.0
    for lam in (-2.0, -0.5, 0.0, 0.8):
        got = order_weighted_sum(orders, table, lam)
        for j in range(table.shape[1]):
            want = order_weighted_sum_scalar(sorted(orders), table[np.argsort(orders), j], lam)
            assert got[j] == pytest.approx(want, rel=1e-13, abs=0.0)
            assert got[j] == order_weighted_sum(orders, table[:, j], lam)
        assert got[4] == 0.0
    # a zero next to a weight that overflows to inf still contributes 0, and
    # an infinite value passes through to the caller's gates
    got = order_weighted_sum([30, 2], np.array([[0.0, math.inf], [1.0, 1.0]]), 11.5)
    assert got[0] == math.factorial(2) * math.exp(2 * 11.5 * 2)
    assert math.isinf(got[1])


@pytest.mark.parametrize("orders, lam", [([30, 2], 11.5), ([2], 400.0), ([0, 1], 1e308), ([40], 1e308), ([40], 20.0)])
def test_order_weighted_sum_overflow_names_order_and_lam(orders, lam):
    """A finite value whose weighted term is not finite raises, in the
    direct and the log-space branch, whether ``math.exp`` raises on the
    weight or returns inf (the exponent itself overflowing)."""
    top = max(orders)
    with pytest.raises(OverflowError, match=re.escape(f"order {top} overflows at lam={lam}")):
        order_weighted_sum(orders, np.ones((len(orders), 2)), lam)
    with pytest.raises(OverflowError, match=f"order {top} "):
        order_weighted_sum(orders, np.ones(len(orders)), lam)


def test_pairing_examples():
    g = make_grid(1.0, 8)
    one = ChaosVector.brownian_at(g, 1.0)
    assert pairing(one, one) == pytest.approx(1.0, rel=1e-15)
    two = ChaosVector.from_kernel(sym_store(2, [((0, 1), 1.0)], g))
    assert pairing(two, one) == 0.0


def test_pairing_duality_bound_seeded():
    g = make_grid(1.0, 8)
    rng = rng_from(11)
    for _ in range(100):
        a = random_chaos_vector(g, 3, rng)
        b = random_chaos_vector(g, 3, rng)
        p = abs(pairing(a, b))
        for lam in (0.3, 0.5, 1.0):
            assert p <= gnorm(a, -lam) * gnorm(b, lam) * (1 + 1e-12)


def test_truncate():
    g = make_grid(1.0, 8)
    vec = random_chaos_vector(g, 3, rng_from(5))
    assert truncate(vec, 5).orders() == vec.orders()
    t0 = truncate(vec, 0)
    assert t0.orders() in ([], [0])
    assert t0.expectation() == vec.expectation()
    for lam in (-1.0, 0.0, 1.0):
        assert gnorm(truncate(vec, 2), lam) <= gnorm(vec, lam) + 1e-15
    with pytest.raises(ValueError):
        truncate(vec, -1)


def test_linear_combine():
    g = make_grid(1.0, 8)
    vec = random_chaos_vector(g, 3, rng_from(9))
    zero = linear_combine(1.0, vec, -1.0, vec)
    assert zero.is_zero()
    a = ChaosVector.deterministic(g, 1.0)
    assert linear_combine(2.0, a, 3.0, a).expectation() == 5.0
    f = ChaosVector.from_kernel(sym_store(1, [((0,), 1.0)], g))
    h = ChaosVector.from_kernel(sym_store(2, [((0, 1), 1.0)], g))
    both = linear_combine(1.0, f, 1.0, h)
    assert both.orders() == [1, 2]


def test_linear_combine_rejects_grid_mismatch():
    a = ChaosVector.deterministic(make_grid(1.0, 4), 1.0)
    b = ChaosVector.deterministic(make_grid(1.0, 8), 1.0)
    with pytest.raises(ValueError):
        linear_combine(1.0, a, 1.0, b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.floats(-5, 5, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_canonical_form_closure(raw):
    """Every stored tuple is sorted; re-canonicalizing is a no-op."""
    g = make_grid(1.0, 4)
    k = sym_store(2, raw, g, mode="positional")
    for tup in k.entries:
        assert tuple(sorted(tup)) == tup
    rebuilt = sym_store(2, list(k.entries.items()), g, mode="canonical")
    for tup, c in k.entries.items():
        assert rebuilt.entries[tup] == pytest.approx(c, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2, allow_nan=False), st.floats(0, 2, allow_nan=False), st.integers(0, 10_000))
def test_norm_lattice_monotone(lam, bump, seed):
    g = make_grid(1.0, 4)
    vec = random_chaos_vector(g, 3, rng_from(seed))
    assert gnorm(vec, lam) <= gnorm(vec, lam + bump) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bilinearity_of_pairing_and_inner(seed):
    g = make_grid(1.0, 4)
    rng = rng_from(seed)
    a = random_chaos_vector(g, 2, rng)
    b = random_chaos_vector(g, 2, rng)
    c = random_chaos_vector(g, 2, rng)
    lhs = pairing(linear_combine(2.0, a, -3.0, b), c)
    rhs = 2.0 * pairing(a, c) - 3.0 * pairing(b, c)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_inner_positive_definite():
    g = make_grid(1.0, 4)
    rng = rng_from(21)
    for order in range(4):
        for _ in range(20):
            from chaoscalc.testing import random_sym_kernel

            k = random_sym_kernel(g, order, rng, n_entries=4)
            n = k.norm_sq()
            assert n >= 0.0
            if k.entries:
                assert n > 0.0
    assert SymKernel.zero(2, g).norm_sq() == 0.0


def test_json_round_trip_bit_exact():
    g = make_grid(1.0, 8)
    vec = random_chaos_vector(g, 3, rng_from(13), n_entries=5)
    blob = json.dumps(vec.to_json())
    back = ChaosVector.from_json(json.loads(blob))
    assert back.grid == vec.grid
    assert back.orders() == vec.orders()
    for n in vec.orders():
        assert back.component(n).entries == vec.component(n).entries


def test_json_rejects_non_canonical():
    g = make_grid(1.0, 8)
    obj = {"order": 2, "grid": g.to_json(), "entries": [[[1, 0], 1.0]]}
    with pytest.raises(ValueError):
        SymKernel.from_json(obj)


def test_layered_kernel_norm_and_inner_match_sparse():
    g = make_grid(1.0, 4)
    rng = rng_from(17)
    for order in (1, 2, 3):
        layers = rng.standard_normal(4)
        lk = LayeredKernel(order, g, layers)
        sp = lk.to_sparse()
        assert lk.norm_sq() == pytest.approx(sp.norm_sq(), rel=1e-13)
        other = LayeredKernel(order, g, rng.standard_normal(4))
        assert lk.inner(other) == pytest.approx(sp.inner(other.to_sparse()), rel=1e-12)
        assert lk.inner(sp) == pytest.approx(sp.norm_sq(), rel=1e-13)


def test_layered_slice_matches_sparse_slice():
    g = make_grid(1.0, 4)
    rng = rng_from(19)
    lk = LayeredKernel(3, g, rng.standard_normal(4))
    for cell in range(4):
        a = lk.slice_at(cell)
        b = lk.to_sparse().slice_at(cell)
        assert a.to_sparse().add(b.scale(-1.0)).norm_sq() == pytest.approx(0.0, abs=1e-26)


def test_densify_limit_raises_representation_limit_error():
    from chaoscalc import RepresentationLimitError
    from chaoscalc.kernels import TimeSlotSymKernel

    g = make_grid(1.0, 32)
    k = SymKernel.scalar(g, 2.0)
    assert k.to_sparse() is k
    with pytest.raises(RepresentationLimitError, match="too large to densify"):
        LayeredKernel.prefix_constant(12, g, 1.0, 32).to_sparse()
    with pytest.raises(RepresentationLimitError):
        TimeSlotSymKernel(6, g, np.ones((32, 32))).to_sparse()


def test_densify_limit_counts_the_listed_multisets(monkeypatch):
    """The limit is checked against the multisets that are listed: a kernel
    of exactly ``_DENSIFY_LIMIT`` multisets densifies, one more raises with
    the true count, and a one-multiset kernel densifies at a limit of 1."""
    from chaoscalc import RepresentationLimitError

    g = make_grid(1.0, 8)
    k = LayeredKernel.prefix_constant(3, g, 1.5, 5)  # top cell 4
    count = math.comb(4 + 3, 3)
    monkeypatch.setattr(kernels_mod, "_DENSIFY_LIMIT", count)
    assert len(k.to_sparse().entries) == count
    monkeypatch.setattr(kernels_mod, "_DENSIFY_LIMIT", count - 1)
    with pytest.raises(RepresentationLimitError, match=rf"\({count} multisets\)"):
        k.to_sparse()
    monkeypatch.setattr(kernels_mod, "_DENSIFY_LIMIT", 1)
    assert LayeredKernel.prefix_constant(2, g, 1.5, 1).to_sparse().entries == {(0, 0): 1.5}


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_multisets_list_every_sorted_tuple_in_lexicographic_order(order):
    for top in range(-1, 6):
        live = np.zeros(8, dtype=bool)
        live[:top + 1:2] = True
        live[max(top, 0)] = top >= 0
        want = list(combinations_with_replacement(range(top + 1), order))
        got = kernels_mod._multisets(order, live)
        assert got.shape == (len(want), order)
        assert [tuple(row) for row in got.tolist()] == want


STORAGE_FORMS = {
    "sparse": lambda g, rng: random_sym_kernel(g, 3, rng, n_entries=5),
    "layered": lambda g, rng: LayeredKernel(3, g, rng.standard_normal(g.cells)),
    "timeslot": lambda g, rng: TimeSlotSymKernel(3, g, rng.standard_normal((g.cells, g.cells))).add(
        LayeredKernel(3, g, rng.standard_normal(g.cells))),
}


@pytest.mark.parametrize("right", sorted(STORAGE_FORMS))
@pytest.mark.parametrize("left", sorted(STORAGE_FORMS))
def test_add_and_inner_for_every_pair_of_storage_forms(left, right):
    """Equal forms add in their form, a layered and a time-slot kernel in
    the time-slot form, every other mixed pair in sparse form; the sums and
    inner products match the dense tensors, also through the vectors."""
    g = make_grid(1.0, 4)
    a = STORAGE_FORMS[left](g, rng_from(401))
    b = STORAGE_FORMS[right](g, rng_from(402))
    da, db = dense_from_kernel(a), dense_from_kernel(b)
    forms = {left, right}
    want_type = type(a) if len(forms) == 1 else (
        TimeSlotSymKernel if forms == {"layered", "timeslot"} else SymKernel)
    total = a.add(b)
    assert type(total) is want_type
    np.testing.assert_allclose(dense_from_kernel(total), da + db, rtol=0.0, atol=1e-12)
    assert a.inner(b) == pytest.approx(dense_inner(g, da, db), rel=1e-11)
    va, vb = ChaosVector.from_kernel(a), ChaosVector.from_kernel(b)
    np.testing.assert_allclose(dense_from_kernel(va.add(vb).component(3)), da + db, rtol=0.0, atol=1e-12)
    assert pairing(va, vb) == pytest.approx(math.factorial(3) * dense_inner(g, da, db), rel=1e-11)
