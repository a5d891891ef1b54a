import cmath
import math
import random
from itertools import combinations

import numpy as np
import pytest

import oracles
from holant import (BudgetExceededError, GraphFamilySpec, Multigraph,
                    OutsideRegionError, RegionParams, all_ones,
                    approx_partition, certified_radius,
                    cluster_log_derivatives, exact_partition, generate,
                    log_derivatives_from_p, magnitude_lower_bound,
                    perturbed_ones, q_derivative, reconstruct_p_derivatives,
                    sample_region_model, taylor_error_bound, taylor_order,
                    verify_zero_free, zero_free_constants)
from holant.approx import (_boundary_sign, direct_cost_estimate,
                           log_magnitude_lower_bound)

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_constants_pinned_values():
    c = zero_free_constants()
    assert c.theta == pytest.approx(1.72066, abs=1e-4)
    assert c.x == pytest.approx(1.12219, abs=1e-4)
    assert c.radius(1) == pytest.approx(0.71884, abs=1e-4)
    assert c.radius(4) == pytest.approx(0.98414, abs=1e-4)
    assert c.radius(5) == pytest.approx(1.00896, abs=1e-4)
    # the defining equation holds at theta
    assert 2.0 / c.theta == pytest.approx(math.tan(c.theta / 2.0), abs=1e-12)
    assert c.x == pytest.approx(c.theta * math.cos(c.theta / 2.0), abs=1e-12)


def test_radius_monotone_and_bounded():
    c = zero_free_constants()
    values = [c.radius(d) for d in range(1, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < c.x
    assert certified_radius(3) == c.radius(3)


def test_taylor_order_basic():
    # inside the disk, more accuracy asks for more terms
    n1 = taylor_order(10, 0.5, 1e-2)
    n2 = taylor_order(10, 0.5, 1e-6)
    assert n2 > n1 >= 1
    # trivial cases need a single term
    assert taylor_order(0, 0.5, 1e-3) == 1
    assert taylor_order(10, 0.0, 1e-3) == 1
    with pytest.raises(OutsideRegionError):
        taylor_order(10, 1.0, 1e-3)
    with pytest.raises(OutsideRegionError):
        taylor_order(10, -0.1, 1e-3)


def test_taylor_order_matches_error_bound():
    for d, q0, eps in [(10, 0.4065, 1e-3), (5, 0.2, 1e-4), (200, 0.1, 1e-2),
                       (8, 0.9, 1e-3)]:
        n = taylor_order(d, q0, eps)
        assert taylor_error_bound(d, q0, n) <= eps
        if n > 1:
            assert taylor_error_bound(d, q0, n - 1) > eps


def test_taylor_error_bound_formula():
    d, q0, n = 7, 0.3, 4
    expected = d * q0 ** (n + 1) / ((n + 1) * (1.0 - q0))
    assert taylor_error_bound(d, q0, n) == pytest.approx(expected, rel=1e-12)


def test_log_derivatives_of_known_series():
    # p = exp: all derivatives 1, so ln p = z
    f = log_derivatives_from_p([1.0] * 6)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0)
    assert all(abs(x) < 1e-12 for x in f[2:])
    # p = 1/(1-z): p^(m) = m!, ln p has f_m = (m-1)!
    f = log_derivatives_from_p([math.factorial(m) for m in range(6)])
    for m in range(1, 6):
        assert f[m] == pytest.approx(math.factorial(m - 1))
    # p = 1 + z: f_m = (-1)^(m+1) (m-1)!
    f = log_derivatives_from_p([1.0, 1.0, 0.0, 0.0, 0.0])
    assert [round(x.real if isinstance(x, complex) else x, 9) for x in f[1:]] \
        == [1.0, -1.0, 2.0, -6.0]


def test_log_derivatives_respect_f0_and_round_trip():
    rng = np.random.default_rng(2)
    derivs = [2.0 + 0j] + list(rng.normal(size=5) + 1j * rng.normal(size=5))
    f = log_derivatives_from_p(derivs)
    assert f[0] == pytest.approx(cmath.log(2.0))
    f2 = log_derivatives_from_p(derivs, f0=5.0 + 1j)
    assert f2[0] == 5.0 + 1j
    assert f2[1:] == pytest.approx(f[1:])
    back = reconstruct_p_derivatives(f)
    assert np.allclose(back, derivs)


def test_log_derivatives_reject_vanishing_p0():
    with pytest.raises(ValueError):
        log_derivatives_from_p([0.0, 1.0])


def test_q_derivative_edge_cases():
    h = perturbed_ones(2, 0.3, seed=1, max_degree=2)
    assert q_derivative(TRIANGLE, h, 0) == 2 ** 3
    assert q_derivative(TRIANGLE, h, 0, normalized=True) == 1.0
    assert q_derivative(TRIANGLE, h, 4) == 0j
    with pytest.raises(ValueError):
        q_derivative(TRIANGLE, h, -1)


def test_q_derivative_single_edge_hand_case():
    g = Multigraph(2, ((0, 1),))
    h = perturbed_ones(2, 0.5, seed=3, max_degree=1)
    # q(z) = sum_c (1 + z*(h(e_c)-1))^2, so q'(0) = 2 * sum_c (h(e_c)-1)
    unit = [(1, 0), (0, 1)]
    d1 = 2.0 * sum(h.value(unit[c]) - 1.0 for c in range(2))
    assert q_derivative(g, h, 1) == pytest.approx(d1)


def test_q_derivative_matches_interpolated_poly():
    from holant import exact_poly_by_interpolation
    rng = random.Random(55)
    for trial in range(10):
        g = oracles.random_graph_bounded(rng, max_n=6, max_m=9)
        k = rng.choice([2, 3])
        h = perturbed_ones(k, 0.6, seed=trial, max_degree=max(1, g.max_degree()))
        q = exact_poly_by_interpolation(g, h)
        for m in range(0, min(g.n, 4) + 1):
            direct = q_derivative(g, h, m)
            coeff = q.coeffs[m] if m <= q.degree else 0j
            expected = coeff * math.factorial(m)
            assert cmath.isclose(direct, expected, rel_tol=1e-7,
                                 abs_tol=1e-7 * max(1.0, abs(q(0.0)))), (trial, m)


def test_cluster_matches_direct_log_derivatives():
    rng = random.Random(77)
    graphs = [oracles.random_graph_bounded(rng, max_n=6, max_m=8) for _ in range(8)]
    graphs += [oracles.random_multigraph(rng, max_n=6, max_m=8) for _ in range(16)]
    # an isolated vertex, and two components: connected sets with no boundary
    graphs += [Multigraph(4, ((0, 1), (1, 2), (1, 1))),
               Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (4, 5), (5, 5)))]
    for trial, g in enumerate(graphs):
        k = 2 + trial // 6 % 2
        h = perturbed_ones(k, 0.4, seed=50 + trial,
                           max_degree=max(1, g.max_degree()))
        order = 1 + trial % 6
        p_derivs = [q_derivative(g, h, m, normalized=True)
                    for m in range(order + 1)]
        f_direct = log_derivatives_from_p(p_derivs, f0=g.m * math.log(k))
        f_cluster = cluster_log_derivatives(g, h, order)
        assert len(f_cluster) == order + 1
        for m in range(order + 1):
            assert cmath.isclose(f_direct[m], f_cluster[m],
                                 rel_tol=1e-8, abs_tol=1e-8), (trial, m)


def test_boundary_sign_matches_subset_count():
    for b in range(7):
        for t in range(7):
            brute = sum((-1) ** a for a in range(t + 1)
                        for _ in combinations(range(b), a))
            assert _boundary_sign(b, t) == brute, (b, t)


def test_cluster_budget_refuses_before_work():
    g = generate(GraphFamilySpec("torus", 6, size2=6))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    with pytest.raises(BudgetExceededError, match="order-9 .* connected sets"):
        cluster_log_derivatives(g, h, 9)


def test_direct_cost_estimate_monotone():
    g = Multigraph(6, tuple((i, i + 1) for i in range(5)))
    assert direct_cost_estimate(g, 2, 1) < direct_cost_estimate(g, 2, 3)
    assert direct_cost_estimate(g, 2, 2) < direct_cost_estimate(g, 3, 2)


def test_approx_certificate_on_small_graph():
    h = perturbed_ones(2, 0.05, seed=9, max_degree=2)
    cert = approx_partition(TRIANGLE, h, eps=1e-3)
    exact = exact_partition(TRIANGLE, h)
    assert cert.q0 < 1.0
    assert cert.error_bound <= 1e-3
    realized = abs(cmath.log(cert.value / exact))
    assert realized <= cert.error_bound + 1e-12
    assert cmath.isclose(cmath.exp(cert.log_value), cert.value,
                         rel_tol=1e-9)


def test_approx_modes_agree():
    rng = random.Random(13)
    g = oracles.random_graph_bounded(rng, max_n=7, max_m=9)
    h = perturbed_ones(2, 0.04, seed=4, max_degree=max(1, g.max_degree()))
    direct = approx_partition(g, h, eps=1e-4, mode="direct")
    cluster = approx_partition(g, h, eps=1e-4, mode="cluster")
    assert direct.mode == "direct" and cluster.mode == "cluster"
    assert cmath.isclose(direct.value, cluster.value, rel_tol=1e-6)
    exact = exact_partition(g, h)
    for cert in (direct, cluster):
        assert abs(cmath.log(cert.value / exact)) <= cert.error_bound + 1e-12


def test_approx_zero_deviation_shortcut():
    cert = approx_partition(TRIANGLE, all_ones(3), eps=1e-3)
    assert cert.value == 3 ** 3
    assert cert.error_bound == 0.0
    assert cert.q0 == 0.0


def test_approx_outside_region():
    h = perturbed_ones(2, 0.9, seed=0, max_degree=2)
    # deviation 0.9 at degree 2 exceeds beta*(3)/6
    with pytest.raises(OutsideRegionError):
        approx_partition(TRIANGLE, h, eps=1e-3)


def test_approx_eps_validation_and_budget():
    h = perturbed_ones(2, 0.02, seed=2, max_degree=4)
    with pytest.raises(ValueError):
        approx_partition(TRIANGLE, h, eps=0.0)
    big = Multigraph(60, tuple((i, (i + 1) % 60) for i in range(60)))
    hbig = perturbed_ones(2, 0.02, seed=3, max_degree=2)
    with pytest.raises(BudgetExceededError):
        approx_partition(big, hbig, eps=1e-12, budget=10.0)


def test_certificate_json_keys():
    cert = approx_partition(TRIANGLE, perturbed_ones(2, 0.03, seed=6,
                                                     max_degree=2), eps=1e-3)
    obj = cert.to_json_dict()
    assert set(obj) == {"value", "log_value", "M", "q0", "n", "bound",
                        "deviation", "mode", "heuristic"}
    assert obj["value"] == {"re": cert.value.real, "im": cert.value.imag}
    assert obj["n"] == cert.order


def test_magnitude_lower_bound_formula():
    params = RegionParams.from_theorem(eta=0.9, theta=1.5, max_degree=3)
    g = TRIANGLE
    expected_log = (g.n * math.log(math.cos(params.theta / 2.0) * params.eta)
                    + g.m * math.log(2))
    assert log_magnitude_lower_bound(g, 2, params) == pytest.approx(expected_log)
    assert magnitude_lower_bound(g, 2, params) == pytest.approx(
        math.exp(expected_log))


def test_sample_region_model_membership():
    from holant.models import values_in_region, vectors_up_to
    rng = np.random.default_rng(8)
    params = RegionParams.from_theorem(eta=0.9, theta=zero_free_constants().theta,
                                       max_degree=4)
    for _ in range(10):
        h = sample_region_model(2, 4, params, rng)
        vals = [h.value(a) for a in vectors_up_to(4, 2)]
        assert values_in_region(vals, params.delta, params.eta)


def test_verify_zero_free_quick():
    rng = random.Random(3)
    params = RegionParams.from_theorem(eta=0.9, theta=zero_free_constants().theta,
                                       max_degree=4)
    for _ in range(3):
        g = oracles.random_graph_bounded(rng, max_n=6, max_m=8, max_degree=4)
        report = verify_zero_free(g, params, samples=10, seed=1)
        assert report.all_pass
        assert report.min_abs >= report.bound
        assert report.min_ratio >= 1.0
        assert report.failures == ()
