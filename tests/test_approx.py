import cmath
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from holant import (BudgetExceededError, EdgeColoringModel, GraphFamilySpec, Multigraph,
                    OutsideRegionError, RegionParams, all_ones,
                    approx_partition, certified_radius, chi_k_coefficients,
                    cluster_log_derivatives, cycle_transfer_pf, eval_exp_type,
                    exact_partition, exact_poly_by_interpolation, generate,
                    magnitude_lower_bound, perturbed_ones, q_derivative,
                    sample_region_model, taylor_error_bound, taylor_order, tutte_spec,
                    verify_zero_free, zero_free_constants)
import holant.approx as approx_module
from holant.approx import _boundary_sign, _normalized_log, log_magnitude_lower_bound
from holant.exptype import _exp_shape
from holant.graphs import connected_subsets
from holant.models import compositions

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def reference_log_derivatives(g, h, order):
    """Derivatives of ln q through ``order`` from the global expansion.

    Taylor coefficients of q / k^|E| come from :func:`q_derivative`, their
    series log from ``_normalized_log``; entry 0 is |E| ln k.
    """
    scale = float(h.k) ** g.m
    coeffs = [1.0] + [q_derivative(g, h, m) / (math.factorial(m) * scale)
                      for m in range(1, order + 1)]
    logs = _normalized_log(coeffs, order)
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
    # a tail bound that needs more than MAX_ORDER terms is refused by name
    with pytest.raises(OutsideRegionError, match=f"through order {approx_module.MAX_ORDER}$"):
        taylor_order(10, 0.999, 1e-12)


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
    f = _normalized_log([1.0 / math.factorial(m) for m in range(6)], 5)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0)
    assert all(abs(x) < 1e-12 for x in f[2:])
    # p = 1/(1-z): coefficients 1, ln p has [z^m] = 1/m
    f = _normalized_log([1.0] * 6, 5)
    for m in range(1, 6):
        assert f[m] == pytest.approx(1.0 / m)
    # p = 1 + z: [z^m] ln p = (-1)^(m+1) / m; missing coefficients are zero
    f = _normalized_log([1.0, 1.0], 4)
    assert [round(x.real, 9) for x in f[1:]] == [1.0, -0.5, round(1 / 3, 9), -0.25]


def test_series_log_round_trips_through_exp():
    rng = np.random.default_rng(2)
    coeffs = [1.0 + 0j] + list(rng.normal(size=5) + 1j * rng.normal(size=5))
    logs = _normalized_log(coeffs, 5)
    # exp of the log series: j p_j = sum over i <= j of i L_i p_(j-i)
    back = [1.0 + 0j]
    for j in range(1, 6):
        back.append(sum(i * logs[i] * back[j - i] for i in range(1, j + 1)) / j)
    assert np.allclose(back, coeffs)


def test_log_derivatives_reject_vanishing_p0():
    with pytest.raises(OutsideRegionError):
        _normalized_log([0.0, 1.0], 3)
    # any other constant term is divided out, its log kept in entry 0
    logs = _normalized_log([2.0, 1.0], 3)
    assert logs[0] == pytest.approx(math.log(2.0))
    assert logs[1:] == pytest.approx([0.5, -0.125, 1 / 24])


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
    real = approx_module._run_blend

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(approx_module, "_run_blend", counting)
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
    sets = list(connected_subsets(g, 4))
    engine.log_coefficients(4)
    # 1,008 connected sets; 6 isomorphism classes of labelled shapes, each
    # weighed by one blend run
    assert len(sets) == 1008
    assert 6 <= len(calls) == len(engine.shapes) <= 50


def test_boundary_sign_matches_subset_count():
    for b in range(7):
        for t in range(7):
            brute = sum((-1) ** a for a in range(t + 1)
                        for _ in combinations(range(b), a))
            assert _boundary_sign(b, t) == brute, (b, t)


def edge_list_copy(g):
    """The same graph without the vertex-transitive mark of :func:`generate`."""
    return Multigraph(g.n, g.edges)


def test_cluster_budget_charges_sets_and_shapes():
    # the 4x4 torus at order 6, read as an edge list, streams 3,160 sets of
    # 20 shapes: 1 per set plus 2^|internal edges| per shape is 3,951
    # terms, far below the 155,424 that a 2^|C| charge per set would take
    g = edge_list_copy(generate(GraphFamilySpec("torus", 4, size2=4)))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    per_set = sum(2 ** len(c) for c in connected_subsets(g, 6))
    assert per_set > 1e4
    free = cluster_log_derivatives(g, h, 6, budget=math.inf)
    assert cluster_log_derivatives(g, h, 6, budget=1e4) == free
    assert cluster_log_derivatives(g, h, 6, budget=3951) == free
    with pytest.raises(BudgetExceededError,
                       match=r"3951 connected-set expansion terms \(3160 sets streamed, "
                             r"20 shapes computed, .*\) exceed the budget of 3950 terms$"):
        cluster_log_derivatives(g, h, 6, budget=3951 - 1)


def test_cluster_shape_charge_names_its_cost():
    # at order 2 the graph is one cluster: its growth path (0,), (0, 1)
    # charges 1 per set, and its one shape 2^5 (its edge and the four loops)
    g = Multigraph(2, ((0, 1),) + ((1, 1),) * 4)
    h = perturbed_ones(2, 0.3, seed=1, max_degree=g.max_degree())
    with pytest.raises(BudgetExceededError,
                       match=r"34 connected-set expansion terms \(2 sets streamed, 0 shapes "
                             r"computed, stopped at a set of size 2\) exceed the budget "
                             r"of 33 terms$"):
        cluster_log_derivatives(g, h, 2, budget=33)
    assert len(cluster_log_derivatives(g, h, 2, budget=34)) == 3
    # at order 1 the stream runs: (0,), then (1,), 1 per set; shape {0}
    # charges 2^0 and shape {1} 2^4
    with pytest.raises(BudgetExceededError,
                       match=r"3 connected-set expansion terms \(2 sets streamed, 1 shapes "
                             r"computed, stopped at a set of size 1\) exceed the budget "
                             r"of 2 terms$"):
        cluster_log_derivatives(g, h, 1, budget=2)
    for budget in (3, 18):
        with pytest.raises(BudgetExceededError,
                           match=r"19 connected-set expansion terms \(2 sets streamed, 1 shapes "
                                 r"computed, stopped at a set of size 1\) exceed the budget of "
                                 f"{budget} terms$"):
            cluster_log_derivatives(g, h, 1, budget=budget)
    assert len(cluster_log_derivatives(g, h, 1, budget=19)) == 2


def test_cluster_weighs_long_paths_by_their_colorings(monkeypatch):
    # cycle:40 as an edge list at order 18: 720 sets, and each path shape
    # is charged 2^|internal edges| for its one blend run (2,622,415 terms
    # in all); no shape reads the values of its sub-masks
    g = edge_list_copy(generate(GraphFamilySpec("cycle", 40)))
    h = perturbed_ones(2, 0.3, seed=7, max_degree=2)

    def no_subsets(*args):
        raise AssertionError("an edge expansion read sub-mask values")

    monkeypatch.setattr(approx_module._ClusterEngine, "subsets", no_subsets)
    f = cluster_log_derivatives(g, h, 18, budget=2622415)
    value = sum(f[m] / math.factorial(m) for m in range(19))
    assert abs(value - cmath.log(cycle_transfer_pf(h, 40))) <= 1e-9
    with pytest.raises(BudgetExceededError, match=r"\(720 sets streamed, .* exceed the budget "
                                                  r"of 2\.62241e\+06 terms$"):
        cluster_log_derivatives(g, h, 18, budget=2622415 - 1)


def test_cluster_refines_few_layouts(monkeypatch):
    # layout ids follow the growth of each set, so on the 6x6 torus at
    # order 6 few of the streamed sets bring a layout to the refinement
    g = edge_list_copy(generate(GraphFamilySpec("torus", 6, size2=6)))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    refined = []
    real = approx_module._ClusterEngine._canonical

    def counting(self, layout):
        refined.append(layout)
        return real(self, layout)

    monkeypatch.setattr(approx_module._ClusterEngine, "_canonical", counting)
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
    engine.log_coefficients(6)
    assert engine.streamed == sum(1 for _ in connected_subsets(g, 6))
    assert 20 * len(refined) <= engine.streamed


def test_cluster_streams_only_root_sets_on_transitive_graphs():
    # a generated torus streams the sets holding vertex 0, and its shapes
    # are those of the full stream of its edge-list copy
    g = generate(GraphFamilySpec("torus", 6, size2=6))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
    engine.log_coefficients(6)
    rooted = [c for c in connected_subsets(g, 6) if c[0] == 0]
    assert engine.streamed == len(rooted) == 1700
    full = approx_module._ClusterEngine(edge_list_copy(g), approx_module._EdgeOracle(h), 0, 1e8)
    full.log_coefficients(6)
    # the rooted identity with f = 1: n * sum of 1 / |C| counts every set
    assert full.streamed == 10992 == round(sum(g.n / len(c) for c in rooted))
    assert len(engine.shapes) == len(full.shapes)


def test_cluster_counts_top_size_sets_without_streaming_them(monkeypatch):
    # the engine streams the sets below the top size order + reach and
    # counts each top-size set from its prefix's offers; at order 1 with
    # reach 0 it streams the single vertices like the sets of any order
    calls = []
    real = approx_module.connected_subsets

    def recording(g, max_size):
        sizes = []
        calls.append((max_size, sizes))
        for members in real(g, max_size):
            sizes.append(len(members))
            yield members

    monkeypatch.setattr(approx_module, "connected_subsets", recording)
    torus = generate(GraphFamilySpec("torus", 4, size2=4))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    for g in (torus, edge_list_copy(torus)):
        for order in range(1, 6):
            calls.clear()
            engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
            got = engine.log_coefficients(order)
            if order == 1:
                assert [size for size, _ in calls] == [1]
                assert set(calls[0][1]) == {1}
                assert engine.streamed == (1 if g.vertex_transitive else g.n)
            else:
                assert [size for size, _ in calls] == [order - 1]
                assert max(calls[0][1]) == order - 1
                sets = [c for c in real(g, order) if c[0] == 0 or not g.vertex_transitive]
                assert engine.streamed == len(sets)
            full = approx_module._ClusterEngine(edge_list_copy(torus),
                                                approx_module._EdgeOracle(h), 0, 1e8)
            want = full.log_coefficients(order)
            assert all(abs(a - b) <= 1e-12 * max(map(abs, want)) for a, b in zip(got, want))
    # with reach 1 the stream stops one size below order + 1 as well
    calls.clear()
    cert = eval_exp_type(torus, tutte_spec(1.0, root_radius=10.0), 60.0, eps=1e-4)
    assert cert.order + 1 < torus.n
    assert [size for size, _ in calls] == [cert.order] and max(calls[0][1]) == cert.order
    # and order 1 on a small graph against the global expansion
    g = Multigraph(3, ((0, 1), (1, 1), (1, 2), (1, 2)))
    h = perturbed_ones(3, 0.3, seed=4, max_degree=g.max_degree())
    want = reference_log_derivatives(g, h, 1)
    assert cmath.isclose(cluster_log_derivatives(g, h, 1)[1], want[1], rel_tol=1e-12)


def test_cluster_set_count_refusals_name_the_set_size():
    # the edge-list 4-cycle: each set charges 1, and the first shape, a
    # single vertex, charges 2^0; order 1 refuses at the fourth single
    # vertex, order 2 at the first top-size child counted from (0,)
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=2)
    with pytest.raises(BudgetExceededError,
                       match=r"5 connected-set expansion terms \(4 sets streamed, 1 shapes "
                             r"computed, stopped at a set of size 1\) exceed the budget "
                             r"of 4 terms$"):
        cluster_log_derivatives(g, h, 1, budget=4)
    with pytest.raises(BudgetExceededError,
                       match=r"3 connected-set expansion terms \(2 sets streamed, 1 shapes "
                             r"computed, stopped at a set of size 2\) exceed the budget "
                             r"of 2 terms$"):
        cluster_log_derivatives(g, h, 2, budget=2)


def test_cluster_log_derivatives_past_order_170():
    # 171! leaves the float range, but every derivative through order 200
    # is finite: |171! c_171| is about 10^183.7 and |200! c_200| 10^228.5
    g = generate(GraphFamilySpec("cycle", 3))
    h = perturbed_ones(2, 0.15, seed=4)
    got = cluster_log_derivatives(g, h, 200)
    coeffs = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0,
                                          math.inf).log_coefficients(200)
    for j in range(1, 201):
        assert cmath.isfinite(got[j])
        # the modulus in log space, the relative error in exact rationals:
        # a log-space reference near 10^228 carries 1e-13 of its own rounding
        log_want = math.log(abs(coeffs[j])) + math.log(math.factorial(j))
        assert abs(math.log(abs(got[j])) - log_want) <= 1e-12
        want = [Fraction(part) * math.factorial(j) for part in (coeffs[j].real, coeffs[j].imag)]
        err = [Fraction(part) - w for part, w in zip((got[j].real, got[j].imag), want)]
        assert 10**26 * (err[0] ** 2 + err[1] ** 2) <= want[0] ** 2 + want[1] ** 2
    assert 183.6 < math.log10(abs(got[171])) < 183.8
    assert 228.4 < math.log10(abs(got[200])) < 228.6
    # |249! c_249| is about 10^308.3, the first derivative past the float range
    with pytest.raises(ArithmeticError, match="^derivative 249 of ln q leaves the float range$"):
        cluster_log_derivatives(g, h, 300)


def test_reused_cluster_engine_matches_a_fresh_one():
    # shapes keep their local polynomials and each call takes their series
    # logs at its own order, so a reused engine called at order 3, then 5,
    # then 2 answers each, bit for bit, as a fresh engine does
    torus = generate(GraphFamilySpec("torus", 4, size2=4))
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    for g in (torus, edge_list_copy(torus)):
        engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
        for order in (3, 5, 2):
            fresh = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
            assert engine.log_coefficients(order) == fresh.log_coefficients(order), order


def test_marginal_tables_average_the_leaving_edges():
    # each table against k^-b sum over gamma of multinomial(b, gamma) (h(beta + gamma) - 1),
    # also for a table model that covers only norms up to d + b
    for k in (1, 2, 3):
        for total in range(7):
            drawn = perturbed_ones(k, 0.4, seed=total + 10 * k, max_degree=6)
            table = EdgeColoringModel(k, {a: drawn.value(a) for a in compositions(total, k)},
                                      1.5 - 0.5j, "table", max_norm=total)
            for h in (drawn, table):
                oracle = approx_module._EdgeOracle(h)
                for d in range(total + 1):
                    b = total - d
                    got = oracle._marginal_table(d, b)
                    for beta in compositions(d, k):
                        want = sum(math.factorial(b) / math.prod(map(math.factorial, gamma))
                                   * (h.value([x + y for x, y in zip(beta, gamma)]) - 1.0)
                                   for gamma in compositions(b, k)) / k ** b
                        packed = sum(x * (d + 1) ** c for c, x in enumerate(beta))
                        assert cmath.isclose(got[packed], want, rel_tol=1e-13,
                                             abs_tol=1e-15), (k, d, b, beta)


def random_layout(rng, size):
    """A layout of ``size`` positions, each adjacent to an earlier one.

    Positions draw loops and leaving edges, and edges draw multiplicities up
    to 3, so most layouts have loops and parallel edges.
    """
    labels = tuple((rng.randint(0, 2), rng.choice((0, 0, 1, 2))) for _ in range(size))
    edges = []
    for j in range(1, size):
        for i in sorted(rng.sample(range(j), rng.randint(1, min(j, 2)))):
            edges.append((i, j, rng.choice((1, 1, 2, 3))))
    return labels, tuple(edges)


def test_growth_order_blend_matches_the_greedy_plan(monkeypatch):
    # the edge oracle contracts a shape in its growth order; the greedy plan
    # of the same piece gives every blend coefficient within 1e-12 of the
    # largest
    runs = []
    real = approx_module._run_blend

    def recording(plan, tables):
        runs.append((plan, tables))
        return real(plan, tables)

    monkeypatch.setattr(approx_module, "_run_blend", recording)
    rng = random.Random(1818)
    reordered = 0
    for trial in range(90):
        k = 1 + trial % 3
        labels, edges = layout = random_layout(rng, rng.randint(1, 6 if k < 3 else 5))
        size = len(labels)
        degree = [leaving + 2 * loops for leaving, loops in labels]
        for i, j, m in edges:
            degree[i] += m
            degree[j] += m
        h = perturbed_ones(k, 0.5, seed=trial, max_degree=max(degree))
        engine = approx_module._ClusterEngine(Multigraph(1, ()), None, 0, math.inf)
        approx_module._EdgeOracle(h)(engine, layout)
        plan, tables = runs.pop()
        pairs = [(i, i) for i, (_, loops) in enumerate(labels) for _ in range(loops)]
        pairs += [(i, j) for i, j, m in edges for _ in range(m)]
        greedy = approx_module._plan(pairs, k, range(len(pairs)), range(size))
        reordered += [c for _, _, c in greedy.steps] != [c for _, _, c in plan.steps]
        got, want = real(plan, tables), real(greedy, tables)
        top = max(abs(c) for c in want)
        assert len(got) == len(want) == size + 1
        assert all(abs(a - b) <= 1e-12 * top for a, b in zip(got, want)), (k, layout)
    # the two orders close the vertices differently on most shapes
    assert reordered >= 30, reordered


def test_canonical_layout_matches_its_first_version(monkeypatch):
    # every layout the engine refines gets the key of the tuple-colored
    # refinement kept in oracles, and its shape is filed under that key
    refined = []
    real = approx_module._ClusterEngine._shape

    def recording(self, cid):
        sid = real(self, cid)
        refined.append((self._layouts[cid], sid))
        return sid

    monkeypatch.setattr(approx_module._ClusterEngine, "_shape", recording)

    def check(engine):
        assert refined
        for layout, sid in refined:
            want = oracles.canonical_layout(layout)
            assert engine._canonical(layout) == want, layout
            assert engine._shape_of[want] == sid
        refined.clear()

    rng = random.Random(2718)
    for trial in range(30):
        g = oracles.random_multigraph(rng, max_n=7, max_m=12)
        k = 2 + trial % 2
        h = perturbed_ones(k, 0.02, seed=trial, max_degree=max(1, g.max_degree()))
        engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, math.inf)
        engine.log_coefficients(rng.randint(2, 5))
        check(engine)
    # the second refinement round first orders paths of 7 positions
    cases = [(generate(GraphFamilySpec("cycle", 12)), range(7, 9))]
    for side in (4, 6):
        cases.append((generate(GraphFamilySpec("torus", side, size2=side)), range(2, 7)))
    for graph, orders in cases:
        h = perturbed_ones(2, 0.02, seed=graph.n, max_degree=graph.max_degree())
        for g in (graph, edge_list_copy(graph)):
            for order in orders:
                engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0,
                                                      math.inf)
                engine.log_coefficients(order)
                check(engine)


def test_cluster_engine_memory_is_linear_in_the_graph():
    # the engine keeps per-vertex arrays and packs rows over the positions of
    # the largest set streamed, so four times the vertices cost about four
    # times the memory (quadratic bookkeeping grew about eightfold here)
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    peaks = []
    for side in (50, 100):
        g = generate(GraphFamilySpec("torus", side, size2=side))
        tracemalloc.start()
        try:
            engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, 1e8)
            engine.log_coefficients(5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(engine._place) <= 5 + engine.reach
    assert peaks[1] <= 5 * peaks[0], peaks


ROOTED_GRAPHS = [("torus", 4, 4), ("torus", 5, 5), ("torus", 4, 6), ("torus", 6, 6),
                 ("torus", 8, 8), ("cycle", 9, None), ("cycle", 30, None),
                 ("complete", 6, None), ("complete", 8, None)]


@pytest.mark.parametrize("family,size,size2", ROOTED_GRAPHS)
def test_rooted_stream_matches_full_stream(family, size, size2):
    # n * sum over sets at vertex 0 of f(C) / |C| against the sum over all
    # sets of the unmarked copy: coefficients within 1e-12 of the largest
    g = generate(GraphFamilySpec(family, size, size2=size2))
    assert g.vertex_transitive
    for k in (2, 3):
        h = perturbed_ones(k, 0.02, seed=size + k, max_degree=g.max_degree())
        for order in range(2, 7):
            rooted = cluster_log_derivatives(g, h, order, budget=math.inf)
            full = cluster_log_derivatives(edge_list_copy(g), h, order, budget=math.inf)
            top = max(abs(c) for c in full[1:])
            for a, b in zip(rooted[1:], full[1:]):
                assert abs(a - b) <= 1e-12 * top, (k, order, a, b)
            # and the log value that the derivatives sum to
            total = [sum(f[m] / math.factorial(m) for m in range(order + 1))
                     for f in (rooted, full)]
            assert cmath.isclose(total[0], total[1], rel_tol=1e-12), (k, order)


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


@st.composite
def small_connected_multigraphs(draw):
    """Connected multigraphs of 1-6 vertices with loops and parallel edges, relabelled."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    # a spanning tree, then loops and parallel or extra edges
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    perm = draw(st.permutations(range(n)))
    return Multigraph(n, tuple((perm[u], perm[w]) for u, w in edges))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g=small_connected_multigraphs(), k=st.sampled_from((2, 3)),
       eps=st.sampled_from((1e-12, 1e-14)), seed=st.integers(0, 10 ** 6))
def test_cluster_stops_at_the_whole_graph(g, k, eps, seed):
    # a connected graph smaller than the order is the stream's n-th set, the
    # end of its first growth path, and its series log alone is ln q
    h = perturbed_ones(k, 0.01, seed=seed, max_degree=max(1, g.max_degree()))
    cert = approx_partition(g, h, eps)
    assert cert.mode == "cluster" and g.n < cert.order
    engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, math.inf)
    coeffs = engine.log_coefficients(cert.order)
    assert engine.streamed == g.n
    assert sum(coeffs, complex(g.m * math.log(k))) == cert.log_value
    # the greedy-plan blend of the whole graph, an independent contraction
    poly = exact_poly_by_interpolation(g, h).coeffs
    want = sum(_normalized_log(poly, cert.order))
    assert abs(cert.log_value - want) <= 1e-12
    exact = exact_partition(g, h)
    assert abs(cert.log_value - cmath.log(exact)) <= cert.error_bound + 1e-12


def test_cluster_stop_needs_a_connected_graph_of_the_top_size():
    h = perturbed_ones(2, 0.02, seed=3, max_degree=4)

    def stream(g, order):
        engine = approx_module._ClusterEngine(g, approx_module._EdgeOracle(h), 0, math.inf)
        got = engine.log_coefficients(order)
        want = reference_log_derivatives(g, h, order)
        for j in range(1, order + 1):
            assert cmath.isclose(got[j] * math.factorial(j), want[j],
                                 rel_tol=1e-10, abs_tol=1e-12), (g, order, j)
        return engine.streamed

    # a disconnected graph smaller than the order has no set of size n
    split = Multigraph(5, ((0, 1), (1, 1), (2, 3), (3, 4), (2, 4), (2, 4)))
    assert stream(split, 6) == sum(1 for _ in connected_subsets(split, 5)) > split.n
    # a connected graph of at most the top size is one cluster: only its
    # growth path is streamed; one vertex more keeps the full stream
    path = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 3)))
    assert stream(path, 4) == stream(path, 5) == path.n
    assert stream(path, 3) == sum(1 for _ in connected_subsets(path, 3)) > path.n
    # a generated cycle streams the same path from vertex 0
    cycle = generate(GraphFamilySpec("cycle", 4))
    assert cycle.vertex_transitive and stream(cycle, 4) == stream(cycle, 5) == cycle.n
    # the exp-type engine (reach 1) takes one cluster once n <= order + 1;
    # at order 1 it streams the three single vertices and counts the pairs
    spec = tutte_spec(1.0)
    for order, streamed in ((1, 6), (2, 3), (3, 3)):
        engine = approx_module._ClusterEngine(TRIANGLE, partial(_exp_shape, spec), 1, math.inf)
        got = engine.log_coefficients(order)
        want = _normalized_log(chi_k_coefficients(TRIANGLE, spec)[::-1], order)
        assert all(cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(got, want))
        assert engine.streamed == streamed


def random_connected_multigraph(rng, max_n):
    """A connected multigraph: a random tree, then loops and parallel or extra edges."""
    n = rng.randint(1, max_n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    perm = rng.sample(range(n), n)
    return Multigraph(n, tuple((perm[u], perm[w]) for u, w in edges))


def test_connected_graph_of_the_top_size_is_one_cluster():
    # at order n and n + 2 a connected graph takes one oracle run on its
    # growth path; at order n - 1, and on a disconnected graph of at most
    # the top size, every connected set is still streamed
    calls = []

    class CountingOracle(approx_module._EdgeOracle):
        def __call__(self, engine, layout):
            calls.append(layout)
            return super().__call__(engine, layout)

    def run(g, h, order):
        calls.clear()
        engine = approx_module._ClusterEngine(g, CountingOracle(h), 0, math.inf)
        got = engine.log_coefficients(order)
        want = reference_log_derivatives(g, h, order)
        for j in range(1, order + 1):
            assert cmath.isclose(got[j] * math.factorial(j), want[j],
                                 rel_tol=1e-10, abs_tol=1e-12), (g, order, j)
        return engine

    rng = random.Random(4242)
    for trial in range(40):
        k = 2 + trial % 2
        g = random_connected_multigraph(rng, 6 if k == 2 else 5)
        h = perturbed_ones(k, 0.02, seed=trial, max_degree=max(1, g.max_degree()))
        q0 = 1.0 / approx_module.blend_radius(g.max_degree(), h.deviation(g.max_degree()))
        for order in (g.n, g.n + 2):
            engine = run(g, h, order)
            assert len(calls) == 1 and engine.streamed == g.n and len(engine.shapes) == 1
            # the certificate at this order, its bound against the exact sum
            cert = approx_partition(g, h, taylor_error_bound(g.n, q0, order))
            assert cert.order == order and cert.mode == "cluster"
            exact = exact_partition(g, h)
            assert abs(cert.log_value - cmath.log(exact)) <= cert.error_bound + 1e-12
        if g.n > 1:
            engine = run(g, h, g.n - 1)
            assert engine.streamed == sum(1 for _ in connected_subsets(g, g.n - 1))
            assert len(calls) == len(engine.shapes)
            assert all(len(labels) < g.n for labels, _ in calls)
        split = oracles.disjoint_union(g, random_connected_multigraph(rng, 2))
        h = perturbed_ones(k, 0.02, seed=trial, max_degree=max(1, split.max_degree()))
        engine = run(split, h, split.n)
        assert engine.streamed == sum(1 for _ in connected_subsets(split, split.n))


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


def test_approx_certifies_orders_past_170():
    # near the boundary the Taylor order passes 170, where j! leaves the
    # float range; the log coefficients are summed as they are
    g = generate(GraphFamilySpec("cycle", 3))
    h = perturbed_ones(2, 0.15, seed=4)
    cert = approx_partition(g, h, 1e-9)
    assert cert.order == 308 and cert.error_bound <= 1e-9
    assert abs(cert.log_value - cmath.log(exact_partition(g, h))) <= cert.error_bound


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


def test_nan_eps_is_refused_before_any_work():
    # every comparison with NaN is false, so "eps <= 0" would let it through
    h = perturbed_ones(2, 0.02, seed=2, max_degree=4)
    spec = tutte_spec(1.0, root_radius=2.0)
    for call in (lambda: approx_partition(TRIANGLE, h, math.nan),
                 lambda: eval_exp_type(TRIANGLE, spec, 10.0, math.nan),
                 lambda: taylor_order(3, 0.5, math.nan)):
        with pytest.raises(ValueError, match="eps must be positive"):
            call()


def test_certificate_json_keys():
    cert = approx_partition(TRIANGLE, perturbed_ones(2, 0.03, seed=6,
                                                     max_degree=2), eps=1e-3)
    obj = cert.to_json_dict()
    assert set(obj) == {"value", "log_value", "M", "q0", "n", "bound",
                        "deviation", "mode", "heuristic"}
    assert obj["value"] == {"re": cert.value.real, "im": cert.value.imag}
    assert obj["n"] == cert.order


def test_certificate_is_a_slotted_frozen_record():
    # no per-instance dict, and equality, replace, repr and the JSON form
    # of a frozen dataclass
    cert = approx_partition(TRIANGLE, perturbed_ones(2, 0.03, seed=6,
                                                     max_degree=2), eps=1e-3)
    assert not hasattr(cert, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.order = 1
    again = dataclasses.replace(cert)
    assert again == cert and again is not cert
    assert repr(again) == repr(cert)
    assert repr(cert).startswith(f"ApproxCertificate(value={cert.value!r}, ")
    assert again.to_json_dict() == cert.to_json_dict()
    flagged = dataclasses.replace(cert, heuristic=True)
    assert flagged != cert and flagged.to_json_dict()["heuristic"] is True


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


def test_verify_zero_free_refuses_no_samples_or_colors():
    params = RegionParams.from_theorem(eta=0.9, theta=zero_free_constants().theta,
                                       max_degree=2)
    g = Multigraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    with pytest.raises(ValueError, match="samples=0, k=2"):
        verify_zero_free(g, params, samples=0)
    with pytest.raises(ValueError, match="samples=100, k=0"):
        verify_zero_free(g, params, k=0)
    assert verify_zero_free(g, params, samples=1, k=1).samples == 1
