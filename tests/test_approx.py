import cmath
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from holant import (BudgetExceededError, GraphFamilySpec, Multigraph,
                    OutsideRegionError, RegionParams, all_ones,
                    approx_partition, certified_radius,
                    cluster_log_derivatives, exact_partition, generate,
                    magnitude_lower_bound, perturbed_ones, q_derivative,
                    sample_region_model, taylor_error_bound, taylor_order,
                    verify_zero_free, zero_free_constants)
import holant.approx as approx_module
from holant.approx import _boundary_sign, _series_log, log_magnitude_lower_bound
from holant.graphs import connected_subsets

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def reference_log_derivatives(g, h, order):
    """Derivatives of ln q through ``order`` from the global expansion.

    Taylor coefficients of q / k^|E| come from :func:`q_derivative`, their
    series log from ``_series_log``; entry 0 is |E| ln k.
    """
    scale = float(h.k) ** g.m
    coeffs = [1.0] + [q_derivative(g, h, m) / (math.factorial(m) * scale)
                      for m in range(1, order + 1)]
    logs = _series_log(coeffs, order)
    return [complex(g.m * math.log(h.k))] + [logs[m] * math.factorial(m)
                                             for m in range(1, order + 1)]


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
    # p = exp: coefficients 1/m!, so ln p = z
    f = _series_log([1.0 / math.factorial(m) for m in range(6)], 5)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0)
    assert all(abs(x) < 1e-12 for x in f[2:])
    # p = 1/(1-z): coefficients 1, ln p has [z^m] = 1/m
    f = _series_log([1.0] * 6, 5)
    for m in range(1, 6):
        assert f[m] == pytest.approx(1.0 / m)
    # p = 1 + z: [z^m] ln p = (-1)^(m+1) / m; missing coefficients are zero
    f = _series_log([1.0, 1.0], 4)
    assert [round(x.real, 9) for x in f[1:]] == [1.0, -0.5, round(1 / 3, 9), -0.25]


def test_series_log_round_trips_through_exp():
    rng = np.random.default_rng(2)
    coeffs = [1.0 + 0j] + list(rng.normal(size=5) + 1j * rng.normal(size=5))
    logs = _series_log(coeffs, 5)
    # exp of the log series: j p_j = sum over i <= j of i L_i p_(j-i)
    back = [1.0 + 0j]
    for j in range(1, 6):
        back.append(sum(i * logs[i] * back[j - i] for i in range(1, j + 1)) / j)
    assert np.allclose(back, coeffs)


def test_log_derivatives_reject_vanishing_p0():
    with pytest.raises(ValueError):
        _series_log([0.0, 1.0], 3)
    with pytest.raises(ValueError):
        _series_log([2.0, 1.0], 3)


def test_q_derivative_edge_cases():
    h = perturbed_ones(2, 0.3, seed=1, max_degree=2)
    assert q_derivative(TRIANGLE, h, 0) == 2 ** 3
    assert q_derivative(TRIANGLE, h, 4) == 0j
    with pytest.raises(ValueError):
        q_derivative(TRIANGLE, h, -1)
    # 3 subsets of 2 vertices, 2^3 colorings each: refused before any work
    with pytest.raises(BudgetExceededError, match="order-2 direct expansion"):
        q_derivative(TRIANGLE, h, 2, budget=23)
    assert q_derivative(TRIANGLE, h, 2, budget=24) != 0j


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
        f_direct = reference_log_derivatives(g, h, order)
        f_cluster = cluster_log_derivatives(g, h, order)
        assert len(f_cluster) == order + 1
        for m in range(order + 1):
            assert cmath.isclose(f_direct[m], f_cluster[m],
                                 rel_tol=1e-8, abs_tol=1e-8), (trial, m)


def test_cluster_separates_near_identical_shapes():
    # path 0-...-7 with a loop at 1 and the edge 4-5 doubled: {0, 1} and
    # {6, 7} differ only in the loop, {2, 3} and {4, 5} only in a parallel
    # edge, {0, 1} and {1, 2} only in one boundary-edge count
    g = Multigraph(8, tuple((i, i + 1) for i in range(7)) + ((1, 1), (4, 5)))
    for k, order in ((2, 5), (3, 4)):
        h = perturbed_ones(k, 0.4, seed=k, max_degree=g.max_degree())
        f_direct = reference_log_derivatives(g, h, order)
        f_cluster = cluster_log_derivatives(g, h, order)
        for m in range(order + 1):
            assert cmath.isclose(f_direct[m], f_cluster[m],
                                 rel_tol=1e-8, abs_tol=1e-8), (k, m)


def test_cluster_invariant_under_relabelling():
    loopy = Multigraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 0),
                           (2, 2), (2, 2), (1, 4), (1, 4), (3, 5)))
    rng = random.Random(31)
    for g in (generate(GraphFamilySpec("torus", 4, size2=4)), loopy):
        h = perturbed_ones(2, 0.05, seed=8, max_degree=g.max_degree())
        base = cluster_log_derivatives(g, h, 5)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[w]) for u, w in g.edges]
            rng.shuffle(edges)
            moved = cluster_log_derivatives(Multigraph(g.n, tuple(edges)), h, 5)
            for a, b in zip(base, moved):
                assert cmath.isclose(a, b, rel_tol=1e-12), (g, a, b)


def test_cluster_weighs_each_shape_once(monkeypatch):
    g = generate(GraphFamilySpec("torus", 6, size2=6))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    calls = []
    real = approx_module._colored_sum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(approx_module, "_colored_sum", counting)
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
    sets = list(connected_subsets(g, 4))
    engine.log_coefficients(4)
    # 1,008 connected sets; 6 isomorphism classes of labelled shapes
    assert len(sets) == 1008
    assert 6 <= len(calls) == len(engine.shapes) <= 50


def test_boundary_sign_matches_subset_count():
    for b in range(7):
        for t in range(7):
            brute = sum((-1) ** a for a in range(t + 1)
                        for _ in combinations(range(b), a))
            assert _boundary_sign(b, t) == brute, (b, t)


def test_cluster_budget_charges_sets_and_shapes():
    # the 4x4 torus at order 6 streams 3,160 sets of 21 shapes: 1 per set
    # plus 2^|C| + 2^|internal edges| per shape is 4,805 terms, far below
    # the 155,424 that a 2^|C| charge per set would take
    g = generate(GraphFamilySpec("torus", 4, size2=4))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    per_set = sum(2 ** len(c) for c in connected_subsets(g, 6))
    assert per_set > 1e4
    free = cluster_log_derivatives(g, h, 6, budget=math.inf)
    assert cluster_log_derivatives(g, h, 6, budget=1e4) == free
    assert cluster_log_derivatives(g, h, 6, budget=4805) == free
    with pytest.raises(BudgetExceededError,
                       match=r"4805 terms spent against a budget of 4804, after "
                             r"3160 sets streamed and 21 shapes computed"):
        cluster_log_derivatives(g, h, 6, budget=4805 - 1)


def test_cluster_shape_charge_names_its_cost():
    # stream (0,), (0, 1), (1,): 1 per set; shape {0} charges 2^1 + 2^0,
    # shape {0, 1} 2^2 + 2^5 before its subset loop, whose sub-mask {1} is
    # a new shape charging 2^1 + 2^4 (four loops); (1,) then reuses it
    g = Multigraph(2, ((0, 1),) + ((1, 1),) * 4)
    h = perturbed_ones(2, 0.3, seed=1, max_degree=g.max_degree())
    with pytest.raises(BudgetExceededError,
                       match="41 terms spent against a budget of 40, after 2 "
                             "sets streamed and 1 shapes computed, at a set of size 2"):
        cluster_log_derivatives(g, h, 2, budget=40)
    with pytest.raises(BudgetExceededError,
                       match="60 terms spent against a budget of 59, after 3 "
                             "sets streamed and 3 shapes computed, at a set of size 1"):
        cluster_log_derivatives(g, h, 2, budget=59)
    assert len(cluster_log_derivatives(g, h, 2, budget=60)) == 3


def test_cluster_refines_few_layouts(monkeypatch):
    # layout ids follow the growth of each set, so on the 6x6 torus at
    # order 6 few of the streamed sets bring a layout to the refinement
    g = generate(GraphFamilySpec("torus", 6, size2=6))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    refined = []
    real = approx_module._ClusterEngine._shape_id

    def counting(self, layout, order):
        refined.append(layout)
        return real(self, layout, order)

    monkeypatch.setattr(approx_module._ClusterEngine, "_shape_id", counting)
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
    engine.log_coefficients(6)
    assert engine.streamed == sum(1 for _ in connected_subsets(g, 6))
    assert 20 * len(refined) <= engine.streamed


@st.composite
def loopy_multigraphs(draw):
    """Multigraphs of 1-6 vertices with loops, parallel edges and isolated vertices."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return Multigraph(n, tuple(edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=loopy_multigraphs(), k=st.sampled_from((2, 3)), order=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6))
def test_cluster_matches_reference_on_random_multigraphs(g, k, order, seed):
    h = perturbed_ones(k, 0.4, seed=seed, max_degree=max(1, g.max_degree()))
    want = reference_log_derivatives(g, h, order)
    got = cluster_log_derivatives(g, h, order)
    assert len(got) == order + 1
    for m in range(order + 1):
        assert cmath.isclose(want[m], got[m], rel_tol=1e-8, abs_tol=1e-8), m


def test_approx_value_overflows_to_inf():
    # |E| ln 2 = 1200 ln 2 is past the float range of exp
    g = generate(GraphFamilySpec("regular", 600, degree=4, seed=0))
    cert = approx_partition(g, perturbed_ones(2, 1e-4, seed=7, max_degree=4), eps=1e-3)
    assert cert.mode == "cluster"
    assert abs(cert.log_value.real - g.m * math.log(2)) < 1.0
    assert math.isinf(cert.value.real) and math.isinf(cert.value.imag)
    ones = approx_partition(g, perturbed_ones(2, 0.0, seed=7, max_degree=4), eps=1e-3)
    assert ones.mode == "exact" and ones.value == complex(math.inf, 0.0)


def test_approx_certificate_on_small_graph():
    h = perturbed_ones(2, 0.05, seed=9, max_degree=2)
    cert = approx_partition(TRIANGLE, h, eps=1e-3)
    exact = exact_partition(TRIANGLE, h)
    assert cert.mode == "cluster"
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
    cert = approx_partition(g, h, eps=1e-4)
    assert cert.mode == "cluster"
    f = reference_log_derivatives(g, h, cert.order)
    reference = cmath.exp(sum(f[m] / math.factorial(m) for m in range(cert.order + 1)))
    assert cmath.isclose(reference, cert.value, rel_tol=1e-6)
    exact = exact_partition(g, h)
    assert abs(cmath.log(cert.value / exact)) <= cert.error_bound + 1e-12


def test_approx_mode_argument_only_names_the_cluster_engine():
    h = perturbed_ones(2, 0.05, seed=9, max_degree=2)
    default = approx_partition(TRIANGLE, h, 1e-3)
    for mode in ("cluster", "auto"):
        assert approx_partition(TRIANGLE, h, 1e-3, None, mode) == default
    with pytest.raises(ValueError):
        approx_partition(TRIANGLE, h, 1e-3, mode="direct")


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
