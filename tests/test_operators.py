"""Derivative, Skorohod step, products, transform: contracts and the exact
discrete identities, cross-validated against brute-force dense tensors."""

import math

import numpy as np
import pytest

from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    SymKernel,
    TestFunctionXi,
    derivative_at,
    derivative_process,
    gnorm,
    linear_combine,
    make_grid,
    pettis_time_integral,
    pointwise,
    s_transform,
    s_transform_frechet,
    skorohod,
    strongly_independent,
    sym_store,
    wick,
)
from chaoscalc.kernels import LayeredKernel, TimeSlotSymKernel
from chaoscalc.testing import random_chaos_process, random_chaos_vector, random_sym_kernel, rng_from

from dense_ref import (
    compare_dense,
    dense_pointwise,
    dense_skorohod,
    dense_slice,
    dense_vector,
    dense_wick,
    pettis_per_cell,
)


def rel_error(a: ChaosVector, b: ChaosVector) -> float:
    """Componentwise relative L2 error across chaos orders."""
    worst = 0.0
    for n in set(a.orders()) | set(b.orders()):
        ka, kb = a.component(n), b.component(n)
        diff = ka.add(kb.scale(-1.0))
        denom = max(math.sqrt(ka.norm_sq()), math.sqrt(kb.norm_sq()), 1.0)
        worst = max(worst, math.sqrt(diff.norm_sq()) / denom)
    return worst


GRID = make_grid(1.0, 4)


# -- derivative ---------------------------------------------------------------


def test_derivative_order1_slices_to_values():
    f = ChaosVector.from_kernel(sym_store(1, [((0,), 2.0), ((3,), -1.0)], GRID))
    assert derivative_at(f, 0).expectation() == 2.0
    assert derivative_at(f, 3).expectation() == -1.0
    assert derivative_at(f, 1).is_zero()


def test_derivative_of_deterministic_is_zero():
    c = ChaosVector.deterministic(GRID, 4.2)
    for j in range(GRID.cells):
        assert derivative_at(c, j).is_zero()


def test_derivative_dense_order2():
    g = make_grid(1.0, 4)
    ent = {(i, j): 1.0 for i in range(4) for j in range(i, 4)}
    phi = ChaosVector.from_kernel(SymKernel(2, g, ent))
    ref = ChaosVector.from_kernel(SymKernel(1, g, {(i,): 2.0 for i in range(4)}))
    for j in range(4):
        assert rel_error(derivative_at(phi, j), ref) < 1e-14


def test_derivative_matches_dense_slices():
    rng = rng_from(23)
    phi = random_chaos_vector(GRID, 3, rng, n_entries=6)
    dense = dense_vector(phi)
    for j in range(GRID.cells):
        d = derivative_at(phi, j)
        got = dense_vector(d, n_max=2)
        want = {n - 1: n * dense_slice(dense[n], j) for n in range(1, 4)}
        assert compare_dense(GRID, got, want) < 1e-12


def test_derivative_cell_out_of_range():
    with pytest.raises(ValueError):
        derivative_at(ChaosVector.deterministic(GRID, 1.0), 4)


def test_derivative_process_values():
    f = ChaosVector.from_kernel(sym_store(1, [((1,), 3.0)], GRID))
    proc = derivative_process(f)
    assert proc.at(1).expectation() == 3.0
    assert proc.at(0).is_zero()


def test_derivative_integrated_norm_bound():
    """Summed derivative norms against the explicit spectral constant.

    The sharp discrete constant for the bound at shift eps carries a factor
    e^{2(lam+eps)}; asserted both ways."""
    rng = rng_from(29)
    for _ in range(50):
        phi = random_chaos_vector(GRID, 3, rng)
        eps = float(rng.uniform(0.2, 1.0))
        sup = max(n * math.exp(-2 * eps * n) for n in range(1, 200))
        # at lam = -eps the bare constant is exact
        lam = -eps
        lhs = GRID.step * sum(
            gnorm(derivative_at(phi, j), -lam - eps) ** 2 for j in range(GRID.cells)
        )
        assert lhs <= max(1.0, sup) * gnorm(phi, -lam) ** 2 * (1 + 1e-12)
        # for positive lam the constant gains e^{2(lam+eps)}
        lam = float(rng.uniform(0.0, 1.0))
        lhs = GRID.step * sum(
            gnorm(derivative_at(phi, j), -lam - eps) ** 2 for j in range(GRID.cells)
        )
        c = max(1.0, sup) * math.exp(2 * (lam + eps))
        assert lhs <= c * gnorm(phi, -lam) ** 2 * (1 + 1e-12)


# -- skorohod -----------------------------------------------------------------


def test_skorohod_of_unit_is_increment():
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    out = skorohod(proc, 0.25, 0.75)
    ref = ChaosVector.from_kernel(SymKernel.indicator(GRID, 0.25, 0.75))
    assert rel_error(out, ref) < 1e-15


def test_skorohod_of_zero_is_zero():
    proc = ChaosProcess.constant(GRID, ChaosVector.zero(GRID))
    assert skorohod(proc, 0.0, 1.0).is_zero()


def test_skorohod_explicit_two_cell_tensor():
    g = make_grid(1.0, 2)
    k = 0
    val = ChaosVector.from_kernel(sym_store(1, [((k,), 1.0)], g))
    proc = ChaosProcess.constant(g, val)
    out = skorohod(proc, 0.0, 1.0)
    comp = out.component(2)
    # positional symmetrization of 1_{cell k} (x) 1_{[0,1)}
    assert comp.entries[(0, 0)] == pytest.approx(1.0)
    assert comp.entries[(0, 1)] == pytest.approx(0.5)
    assert (1, 1) not in comp.entries


def test_skorohod_matches_dense_symmetrization():
    rng = rng_from(31)
    proc = random_chaos_process(GRID, 2, rng, n_entries=3)
    dense_vals = [dense_vector(proc.at(j), n_max=2) for j in range(GRID.cells)]
    for (a, b) in [(0, 4), (1, 3), (0, 2)]:
        got = dense_vector(
            skorohod(proc, GRID.t_left(a), GRID.t_left(b)), n_max=3
        )
        want = dense_skorohod(GRID, dense_vals, a, b)
        assert compare_dense(GRID, got, want) < 1e-12


def test_skorohod_mixed_storage_forms_match_dense():
    """Order-0 scalars, order-1 layered kernels and sparse order-1/2 kernels
    at different cells share one sparse time-slot accumulator."""
    rng = rng_from(47)

    def cell(j):
        comps = {2: random_sym_kernel(GRID, 2, rng)} if j % 4 != 1 else {}
        if j % 2 == 0:
            comps[0] = SymKernel.scalar(GRID, float(rng.standard_normal()))
        if j % 3 == 0:
            comps[1] = LayeredKernel(1, GRID, rng.standard_normal(GRID.cells))
        else:
            comps[1] = random_sym_kernel(GRID, 1, rng)
        return ChaosVector(GRID, comps)

    proc = ChaosProcess.from_values(GRID, [cell(j) for j in range(GRID.cells)])
    dense_vals = [dense_vector(proc.at(j), n_max=2) for j in range(GRID.cells)]
    for (a, b) in [(0, GRID.cells), (1, 3), (2, 3)]:
        out = skorohod(proc, GRID.t_left(a), GRID.t_left(b))
        assert all(isinstance(k, SymKernel) for k in out.components.values())
        # the outputs are stored in ascending order
        assert next(iter(out.components)) == 1
        want = dense_skorohod(GRID, dense_vals, a, b)
        assert compare_dense(GRID, dense_vector(out, n_max=3), want) < 1e-12


def test_skorohod_additivity_and_empty_interval():
    rng = rng_from(37)
    proc = random_chaos_process(GRID, 2, rng)
    left = skorohod(proc, 0.0, 0.5)
    right = skorohod(proc, 0.5, 1.0)
    whole = skorohod(proc, 0.0, 1.0)
    assert rel_error(left.add(right), whole) < 1e-13
    with pytest.raises(ValueError):
        skorohod(proc, 0.5, 0.5)


def test_skorohod_norm_bound_explicit_constant():
    rng = rng_from(41)
    for _ in range(50):
        proc = random_chaos_process(GRID, 3, rng)
        lam = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.2, 1.0))
        sup = max((n + 1) * math.exp(-2 * eps * n) for n in range(0, 200))
        c = max(1.0, sup)
        lhs = gnorm(skorohod(proc, 0.0, 1.0), -lam - eps) ** 2
        rhs = c * GRID.step * sum(gnorm(proc.at(j), -lam) ** 2 for j in range(GRID.cells))
        assert lhs <= rhs * (1 + 1e-12)


def test_symmetrization_is_contraction():
    rng = rng_from(43)
    for _ in range(30):
        proc = random_chaos_process(GRID, 2, rng)
        out = skorohod(proc, 0.0, 1.0)
        for n in range(3):
            raw_sq = GRID.step * sum(
                proc.at(j).component(n).norm_sq() for j in range(GRID.cells)
            )
            assert out.component(n + 1).norm_sq() <= raw_sq * (1 + 1e-12)


# -- time integral --------------------------------------------------------------


def test_pettis_constant_process():
    vec = random_chaos_vector(GRID, 2, rng_from(47))
    out = pettis_time_integral(ChaosProcess.constant(GRID, vec), 0.0, 1.0)
    assert rel_error(out, vec.scale(GRID.horizon)) < 1e-14


def test_pettis_left_riemann_ramp():
    g = make_grid(1.0, 8)
    proc = ChaosProcess.from_function(
        g, lambda j: ChaosVector.deterministic(g, g.t_left(j))
    )
    out = pettis_time_integral(proc, 0.0, 1.0)
    assert out.expectation() == pytest.approx(0.5 - g.step / 2, rel=1e-12)


def test_pettis_commutes_with_s_transform():
    rng = rng_from(53)
    proc = random_chaos_process(GRID, 2, rng)
    xi = TestFunctionXi.from_values(GRID, rng.standard_normal(GRID.cells))
    lhs = s_transform(pettis_time_integral(proc, 0.0, 1.0), xi)
    rhs = GRID.step * sum(s_transform(proc.at(j), xi) for j in range(GRID.cells))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


PETTIS_GRID = make_grid(1.0, 8)


def _pettis_processes():
    g = PETTIS_GRID
    rng = rng_from(59)
    sparse = random_chaos_process(g, 3, rng)
    layered = ChaosProcess.from_values(g, [
        ChaosVector(g, {n: LayeredKernel(n, g, rng.standard_normal(g.cells)) for n in (3, 1, 2)})
        for _ in range(g.cells)
    ])
    # order 2 cancels over cells 1 and 2, order 1 only over the whole grid,
    # and order 3 meets a sparse kernel at the last cell
    a = random_sym_kernel(g, 2, rng)
    lk = LayeredKernel(1, g, rng.standard_normal(g.cells))
    cells = [ChaosVector(g, {1: lk, 3: LayeredKernel(3, g, np.ones(g.cells))})]
    cells += [ChaosVector(g, {2: a}), ChaosVector(g, {2: a.scale(-1.0), 0: SymKernel.scalar(g, 2.0)})]
    cells += [ChaosVector.zero(g)] * (g.cells - 5)
    cells += [ChaosVector(g, {3: random_sym_kernel(g, 3, rng)}), ChaosVector(g, {1: lk.scale(-1.0)})]
    cancelling = ChaosProcess.from_values(g, cells)
    return {"sparse": sparse, "layered": layered, "cancelling": cancelling}


@pytest.mark.parametrize("name", ["sparse", "layered", "cancelling"])
def test_pettis_one_pass_matches_chained_vector_sums(name):
    """The one-pass order-wise sum equals the chain of chaos-vector sums
    bit for bit, with the same components in the same order."""
    proc = _pettis_processes()[name]
    for a, b in [(0.0, 1.0), (PETTIS_GRID.t_left(1), PETTIS_GRID.t_left(3))]:
        got = pettis_time_integral(proc, a, b)
        want = pettis_per_cell(proc, a, b)
        assert list(got.components) == list(want.components)
        for n, k in want.components.items():
            assert type(got.components[n]) is type(k)
            assert got.components[n].to_json() == k.to_json()
    if name == "cancelling":
        assert 2 not in pettis_time_integral(proc, 0.0, 1.0).components


# -- products --------------------------------------------------------------------


def test_wick_unit_and_scalar():
    rng = rng_from(59)
    psi = random_chaos_vector(GRID, 3, rng)
    unit = ChaosVector.deterministic(GRID, 1.0)
    assert rel_error(wick(unit, psi), psi) < 1e-14
    a = ChaosVector.deterministic(GRID, -2.0)
    assert rel_error(wick(a, psi), psi.scale(-2.0)) < 1e-14


def test_wick_single_term_tensor():
    f = ChaosVector.from_kernel(sym_store(1, [((0,), 1.0)], GRID))
    h = ChaosVector.from_kernel(sym_store(1, [((2,), 1.0)], GRID))
    prod = wick(f, h)
    assert prod.orders() == [2]
    comp = prod.component(2)
    assert comp.entries[(0, 2)] == pytest.approx(0.5)


def test_wick_matches_dense():
    rng = rng_from(61)
    for _ in range(10):
        a = random_chaos_vector(GRID, 2, rng, n_entries=3)
        b = random_chaos_vector(GRID, 2, rng, n_entries=3)
        got = dense_vector(wick(a, b), n_max=4)
        want = dense_wick(GRID, dense_vector(a), dense_vector(b))
        assert compare_dense(GRID, got, want) < 1e-12


def test_wick_commutative_bilinear():
    rng = rng_from(67)
    a = random_chaos_vector(GRID, 2, rng)
    b = random_chaos_vector(GRID, 2, rng)
    c = random_chaos_vector(GRID, 2, rng)
    assert rel_error(wick(a, b), wick(b, a)) < 1e-13
    lhs = wick(linear_combine(2.0, a, -1.0, b), c)
    rhs = linear_combine(2.0, wick(a, c), -1.0, wick(b, c))
    assert rel_error(lhs, rhs) < 1e-12


def test_wick_norm_bound_explicit_constant():
    rng = rng_from(71)
    for _ in range(50):
        a = random_chaos_vector(GRID, 3, rng)
        b = random_chaos_vector(GRID, 3, rng)
        lam = float(rng.uniform(0.0, 1.0))
        lam_p = lam - float(rng.uniform(0.6, 1.5))
        d = lam - lam_p
        c = (2 * d - 1) ** -0.5 * math.exp(d - 1)
        assert gnorm(wick(a, b), lam_p) <= c * gnorm(a, lam) * gnorm(b, lam) * (1 + 1e-12)


def test_pointwise_hermite_square():
    g = make_grid(1.0, 4)
    f = ChaosVector.from_kernel(SymKernel.indicator(g, 0.0, 1.0))  # |f| = 1
    prod = pointwise(f, f)
    assert prod.expectation() == pytest.approx(1.0, rel=1e-13)
    two = prod.component(2)
    want = f.component(1).tensor_sym(f.component(1))
    assert two.add(want.scale(-1.0)).norm_sq() < 1e-26


def test_pointwise_scalar_and_matches_dense():
    rng = rng_from(73)
    psi = random_chaos_vector(GRID, 2, rng)
    a = ChaosVector.deterministic(GRID, 3.0)
    assert rel_error(pointwise(a, psi), psi.scale(3.0)) < 1e-14
    for _ in range(10):
        x = random_chaos_vector(GRID, 2, rng, n_entries=3)
        y = random_chaos_vector(GRID, 2, rng, n_entries=3)
        got = dense_vector(pointwise(x, y), n_max=4)
        want = dense_pointwise(GRID, dense_vector(x), dense_vector(y))
        assert compare_dense(GRID, got, want) < 1e-11


def test_pointwise_equals_wick_on_disjoint_supports():
    rng = rng_from(79)
    for _ in range(20):
        a = random_chaos_vector(GRID, 2, rng, cells=[0, 1])
        b = random_chaos_vector(GRID, 2, rng, cells=[2, 3])
        assert rel_error(pointwise(a, b), wick(a, b)) < 1e-14


def _storage_form_vectors(rng) -> dict[str, ChaosVector]:
    """One random vector per storage form on ``GRID``, orders up to 3."""
    M = GRID.cells
    return {
        "sparse": random_chaos_vector(GRID, 3, rng, n_entries=3),
        "layered": ChaosVector(GRID, {1: LayeredKernel(1, GRID, rng.standard_normal(M)),
                                      3: LayeredKernel(3, GRID, rng.standard_normal(M))}),
        "timeslot": ChaosVector(GRID, {
            0: SymKernel.scalar(GRID, 0.5),
            2: TimeSlotSymKernel(2, GRID, rng.standard_normal((M, M))),
            3: TimeSlotSymKernel(3, GRID, rng.standard_normal((M, M))).add(
                LayeredKernel(3, GRID, rng.standard_normal(M))),
        }),
    }


STORAGE_FORMS = ["sparse", "layered", "timeslot"]


@pytest.mark.parametrize("right", STORAGE_FORMS)
@pytest.mark.parametrize("left", STORAGE_FORMS)
def test_products_of_every_storage_form_match_dense(left, right):
    """Both products densify either factor, whatever its storage form."""
    x = _storage_form_vectors(rng_from(301))[left]
    y = _storage_form_vectors(rng_from(302))[right]
    for product, dense_product in ((wick, dense_wick), (pointwise, dense_pointwise)):
        got = dense_vector(product(x, y), n_max=6)
        want = dense_product(GRID, dense_vector(x), dense_vector(y))
        assert compare_dense(GRID, got, want) < 1e-11, product.__name__


def test_wick_of_brownian_and_time_slot_vector():
    rng = rng_from(303)
    b = ChaosVector.brownian_at(GRID, 0.5)
    slot = ChaosVector(GRID, {2: TimeSlotSymKernel(2, GRID, rng.standard_normal((GRID.cells, GRID.cells)))})
    got = dense_vector(wick(b, slot))
    assert compare_dense(GRID, got, dense_wick(GRID, dense_vector(b), dense_vector(slot))) < 1e-12


def test_product_truncation_cap():
    rng = rng_from(83)
    a = random_chaos_vector(GRID, 2, rng)
    b = random_chaos_vector(GRID, 2, rng)
    capped = pointwise(a, b, max_order=2)
    assert all(n <= 2 for n in capped.orders())


# -- product rules and the two exact calculus identities -------------------------


def test_wick_product_rule_exact():
    rng = rng_from(89)
    for _ in range(30):
        a = random_chaos_vector(GRID, 3, rng)
        b = random_chaos_vector(GRID, 3, rng)
        for j in range(GRID.cells):
            lhs = derivative_at(wick(a, b), j)
            rhs = wick(derivative_at(a, j), b).add(wick(a, derivative_at(b, j)))
            assert rel_error(lhs, rhs) < 1e-12


def test_pointwise_product_rule_exact():
    rng = rng_from(97)
    for _ in range(30):
        a = random_chaos_vector(GRID, 3, rng)
        b = random_chaos_vector(GRID, 3, rng)
        for j in range(GRID.cells):
            lhs = derivative_at(pointwise(a, b), j)
            rhs = pointwise(derivative_at(a, j), b).add(pointwise(a, derivative_at(b, j)))
            assert rel_error(lhs, rhs) < 1e-11


def test_fundamental_theorem_exact():
    rng = rng_from(101)
    for _ in range(30):
        proc = random_chaos_process(GRID, 3, rng)
        total = skorohod(proc, 0.0, 1.0)
        for j in range(GRID.cells):
            lhs = derivative_at(total, j)
            dproc = ChaosProcess.from_function(GRID, lambda s, j=j: derivative_at(proc.at(s), j))
            rhs = proc.at(j).add(skorohod(dproc, 0.0, 1.0))
            assert rel_error(lhs, rhs) < 1e-12


def test_integration_by_parts_exact():
    rng = rng_from(103)
    for _ in range(20):
        phi = random_chaos_vector(GRID, 2, rng)
        proc = random_chaos_process(GRID, 2, rng)
        prod_proc = ChaosProcess.from_function(GRID, lambda s: pointwise(phi, proc.at(s)))
        lhs = skorohod(prod_proc, 0.0, 1.0)
        part1 = pointwise(phi, skorohod(proc, 0.0, 1.0))
        corr = ChaosProcess.from_function(
            GRID, lambda s: pointwise(proc.at(s), derivative_at(phi, s))
        )
        rhs = part1.add(pettis_time_integral(corr, 0.0, 1.0).scale(-1.0))
        assert rel_error(lhs, rhs) < 1e-11


# -- transform ---------------------------------------------------------------------


def test_s_transform_basics():
    rng = rng_from(107)
    xi = TestFunctionXi.from_values(GRID, rng.standard_normal(GRID.cells))
    c = ChaosVector.deterministic(GRID, 2.5)
    assert s_transform(c, xi) == 2.5
    f_vals = rng.standard_normal(GRID.cells)
    f = ChaosVector.wiener_integral(GRID, f_vals)
    want = GRID.step * float(np.dot(f_vals, xi.as_array()))
    assert s_transform(f, xi) == pytest.approx(want, rel=1e-14)


def test_s_transform_multiplicative_over_wick():
    rng = rng_from(109)
    for _ in range(25):
        a = random_chaos_vector(GRID, 2, rng)
        b = random_chaos_vector(GRID, 2, rng)
        xi = TestFunctionXi.from_values(GRID, rng.standard_normal(GRID.cells))
        lhs = s_transform(wick(a, b), xi)
        rhs = s_transform(a, xi) * s_transform(b, xi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * max(1.0, abs(rhs)))


def test_frechet_matches_derivative_and_finite_difference():
    rng = rng_from(113)
    xi = TestFunctionXi.from_values(GRID, rng.standard_normal(GRID.cells))
    c = ChaosVector.deterministic(GRID, 5.0)
    f_vals = rng.standard_normal(GRID.cells)
    f = ChaosVector.wiener_integral(GRID, f_vals)
    for j in range(GRID.cells):
        assert s_transform_frechet(c, xi, j) == 0.0
        assert s_transform_frechet(f, xi, j) == pytest.approx(f_vals[j], rel=1e-13)

    dense = {(i, j): 1.0 for i in range(4) for j in range(i, 4)}
    phi = ChaosVector.from_kernel(SymKernel(2, GRID, dense))
    h = 1e-4
    height = h / GRID.step
    for j in range(GRID.cells):
        up = s_transform(phi, xi.bump(j, height))
        dn = s_transform(phi, xi.bump(j, -height))
        fd = (up - dn) / (2 * h)
        assert s_transform_frechet(phi, xi, j) == pytest.approx(fd, abs=1e-6)


# -- strong independence -------------------------------------------------------------


def test_strongly_independent_reports():
    rng = rng_from(127)
    a = random_chaos_vector(GRID, 2, rng, cells=[0, 1])
    b = random_chaos_vector(GRID, 2, rng, cells=[2, 3])
    rep = strongly_independent(a, b)
    assert rep.disjoint
    assert rep.support_left <= {0, 1}
    c = random_chaos_vector(GRID, 2, rng, cells=[1, 2])
    rep2 = strongly_independent(a, c)
    assert not rep2.disjoint
    assert rep2.first_overlap == 1


def test_zero_coefficients_pruned_from_support():
    g = GRID
    a = ChaosVector.from_kernel(SymKernel(1, g, {(1,): 1.0}))
    b = ChaosVector.from_kernel(SymKernel(1, g, {(1,): 0.0, (2,): 3.0}))
    rep = strongly_independent(a, b)
    assert rep.disjoint


def test_test_function_helpers():
    xi = TestFunctionXi.from_callable(GRID, lambda t: 2.0)
    assert xi.norm_l2() == pytest.approx(2.0, rel=1e-14)
    ramp = TestFunctionXi.from_callable(GRID, lambda t: t)
    assert ramp.values[0] == GRID.t_mid(0)
    with pytest.raises(ValueError):
        TestFunctionXi.from_values(GRID, [1.0])
    with pytest.raises(ValueError):
        TestFunctionXi.from_values(GRID, [math.nan] * GRID.cells)
