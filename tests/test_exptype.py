import cmath
import math
import random
from functools import partial

import numpy as np
import pytest

import holant.approx as approx
import holant.exptype as exptype
import oracles
from holant import (BudgetExceededError, ExpTypeSpec, GraphFamilySpec, Multigraph,
                    OutsideRegionError, chi_tutte, chi_k_coefficients, chromatic_spec,
                    component_count, connected_subsets, estimate_root_radius, eval_exp_type,
                    exp_type_poly, generate, induced_subgraph, poly_roots, qhat_derivative,
                    tutte_direct, tutte_spec)
from holant.exptype import random_cluster_profile, tutte_from_profile

K1 = Multigraph(1, ())
K2 = Multigraph(2, ((0, 1),))
TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_exp_type_poly_of_empty_graph_is_one():
    empty = Multigraph(0, ())
    for spec in (tutte_spec(1.0), chromatic_spec()):
        assert exp_type_poly(empty, spec).coeffs == (1.0,)
    assert exp_type_poly(empty, tutte_spec(1.0))(3.0) == tutte_direct(empty, 3.0, 1.0) == 1.0


def test_chi_tutte_hand_cases():
    v = 1.7 - 0.3j
    assert chi_tutte(K1, v) == 1.0
    assert chi_tutte(K2, v) == pytest.approx(v)
    # triangle: three spanning trees plus the full edge set
    assert chi_tutte(TRIANGLE, v) == pytest.approx(3 * v ** 2 + v ** 3)
    # disconnected graphs have no connected spanning subgraph
    assert chi_tutte(Multigraph(2, ()), v) == 0.0


def _loopy_multigraphs(rng, count, max_n, max_m):
    # random multigraphs of at least three vertices with a loop and a parallel edge
    out = []
    while len(out) < count:
        g = oracles.random_multigraph(rng, max_n=max_n, max_m=max_m)
        if g.n >= 3 and len(set(g.edges)) < g.m and any(u == w for u, w in g.edges):
            out.append(g)
    return out


def test_chi_tutte_matches_brute():
    rng = random.Random(31)
    graphs = _loopy_multigraphs(rng, 30, 8, 12)
    graphs += [oracles.random_multigraph(rng, max_n=8, max_m=12) for _ in range(30)]
    assert max(g.n for g in graphs) == 8
    for trial, g in enumerate(graphs):
        v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        fast = chi_tutte(g, v)
        slow = oracles.brute_connected_spanning(g, v)
        assert cmath.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), trial
        # counts of connected spanning subgraphs, and their signed sum, are
        # integers, which the sieve gives exactly
        for count_v in (1.0, -1.0):
            assert chi_tutte(g, count_v) == oracles.brute_connected_spanning(g, count_v), \
                (trial, count_v)


def test_chi_tutte_sieves_sparse_graphs_past_thirteen_vertices():
    # a 15-vertex path with a chord and a loop: 16 edges, 2^16 edge subsets
    edges = tuple((i, i + 1) for i in range(14)) + ((0, 7), (3, 3))
    g = Multigraph(15, edges)
    # integer weights keep every term exact
    assert chi_tutte(g, 2.0) == oracles.brute_connected_spanning(g, 2.0)


def test_chi_tutte_refuses_past_the_budget_before_sieving():
    # 3^17 sieve terms pass the default budget of 1e8, however sparse the graph
    path = Multigraph(17, tuple((i, i + 1) for i in range(16)))
    with pytest.raises(BudgetExceededError, match="3\\^17"):
        chi_tutte(path, 1.0)
    with pytest.raises(BudgetExceededError):
        chi_tutte(TRIANGLE, 1.0, budget=26)
    assert chi_tutte(TRIANGLE, 1.0, budget=27) == 4.0


def test_tutte_spec_leaves_the_charge_to_the_caller(monkeypatch):
    # the 17-vertex table passes chi_tutte's default budget, not the caller's
    sieved = []

    def stub(h, v):
        # every connected block of a path is a path, with one spanning tree;
        # the disconnected blocks are pruned before the table is read
        sieved.append(h.n)
        return [1.0 + 0j] * (1 << h.n)

    spec = tutte_spec(1.0)
    monkeypatch.setattr(exptype, "_chi_tutte_sieve", stub)
    path = Multigraph(17, tuple((i, i + 1) for i in range(16)))
    chis = chi_k_coefficients(path, spec, budget=math.inf)
    # k blocks of a path are its compositions into k intervals
    assert chis == [math.comb(16, k - 1) for k in range(1, 18)]
    assert max(sieved) == 17
    with pytest.raises(BudgetExceededError, match="2\\*3\\^17 sieve terms and anchored"):
        chi_k_coefficients(path, spec)


def test_spec_probes_single_vertex_normalization():
    with pytest.raises(ValueError):
        ExpTypeSpec(chi=lambda g: 2.0, name="bad")
    ok = ExpTypeSpec(chi=lambda g: 1.0, name="const-one")
    assert ok.root_radius is None
    assert not ok.root_radius_heuristic
    # the disconnected-graph probe is made once, at construction
    assert not ok.vanishes_disconnected
    assert tutte_spec(0.5).vanishes_disconnected
    assert chromatic_spec().with_root_radius(3.0).vanishes_disconnected


def test_with_root_radius_keeps_the_probe():
    calls = []
    spec = ExpTypeSpec(lambda h: calls.append(h) or chi_tutte(h, 1.0), "counted")
    calls.clear()
    tagged = spec.with_root_radius(7, heuristic=False)
    estimated = spec.with_root_radius(3.0)
    # the copy carries the construction probe: chi is not called again
    assert calls == []
    assert tagged.vanishes_disconnected and estimated.vanishes_disconnected
    assert (tagged.root_radius, tagged.root_radius_heuristic) == (7.0, False)
    assert type(tagged.root_radius) is float
    assert (estimated.root_radius, estimated.root_radius_heuristic) == (3.0, True)
    assert (tagged.chi, tagged.name) == (spec.chi, spec.name)
    assert spec.root_radius is None
    assert not ExpTypeSpec(lambda h: 1.0, "const-one").with_root_radius(2.0).vanishes_disconnected


def test_spec_radius_resolution():
    s = ExpTypeSpec(chi=lambda g: 1.0, name="x", root_radius=3.0)
    assert s.root_radius == 3.0
    assert not s.root_radius_heuristic
    tagged = s.with_root_radius(9.0, heuristic=True)
    assert tagged.root_radius == 9.0
    assert tagged.root_radius_heuristic
    # the positional order is chi, name, root_radius, heuristic flag
    spec = tutte_spec(1.0, 4.0, True)
    assert (spec.root_radius, spec.root_radius_heuristic) == (4.0, True)


def test_root_radius_must_be_nonnegative():
    for bad in (-3.0, math.nan):
        with pytest.raises(ValueError, match=f"nonnegative, not {bad}"):
            tutte_spec(1.0, root_radius=bad)
        with pytest.raises(ValueError, match=f"nonnegative, not {bad}"):
            chromatic_spec().with_root_radius(bad)
    # zero and inf are radii; None means none was given
    assert chromatic_spec(0.0).with_root_radius(math.inf).root_radius == math.inf
    assert tutte_spec(1.0).root_radius is None


def test_chi_k_small_cases():
    spec = tutte_spec(1.0)
    assert chi_k_coefficients(K2, spec) == [pytest.approx(1.0), pytest.approx(1.0)]
    # edgeless on 3 vertices: only the all-singleton partition survives
    chis = chi_k_coefficients(Multigraph(3, ()), spec)
    assert chis[0] == 0.0 and chis[1] == 0.0 and chis[2] == pytest.approx(1.0)
    # first coefficient is chi itself
    v = 2.0 + 1j
    chis = chi_k_coefficients(TRIANGLE, tutte_spec(v))
    assert chis[0] == pytest.approx(chi_tutte(TRIANGLE, v))


def test_chi_k_matches_brute():
    rng = random.Random(47)
    for trial in range(8):
        g = oracles.random_graph_bounded(rng, max_n=6, max_m=9)
        v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
        spec = tutte_spec(v)
        fast = chi_k_coefficients(g, spec)
        slow = oracles.brute_chi_k(g, lambda sub: chi_tutte(sub, v))
        assert len(fast) == len(slow) == g.n
        for a, b in zip(fast, slow):
            assert cmath.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), trial


def test_chi_k_weighs_only_connected_blocks():
    graphs = oracles.graphs_up_to(6) + _loopy_multigraphs(random.Random(61), 12, 7, 10)
    weights = (1.0, -0.5, -1.0)
    calls = []
    specs = [ExpTypeSpec(lambda h, v=v: calls.append(h) or chi_tutte(h, v), f"counted:{v}")
             for v in weights]
    pruned = 0
    for g in graphs:
        # one partition enumeration weighs every block under all three weights
        blocks = {}

        def weigh(sub):
            key = (sub.n, sub.edges)
            if key not in blocks:
                blocks[key] = np.array([chi_tutte(sub, v) for v in weights])
            return blocks[key]

        slow = oracles.brute_chi_k(g, weigh)
        for i, spec in enumerate(specs):
            calls.clear()
            fast = chi_k_coefficients(g, spec)
            # the spec was probed at construction: connected blocks only
            assert spec.vanishes_disconnected
            assert all(oracles.is_connected(h) for h in calls), (g, spec.name)
            for a, b in zip(fast, slow):
                assert cmath.isclose(a, b[i], rel_tol=1e-9, abs_tol=1e-9), (g, spec.name)
        pruned += not oracles.is_connected(g)
    assert pruned > 60


def test_chi_k_weighs_every_block_of_a_chi_that_does_not_vanish():
    # chi = 1 on every block counts set partitions: chi_k = S(n, k)
    stirling = {(0, 0): 1}
    for n in range(1, 8):
        for k in range(n + 1):
            stirling[n, k] = (k * stirling.get((n - 1, k), 0)
                              + stirling.get((n - 1, k - 1), 0))
    const = ExpTypeSpec(chi=lambda g: 1.0, name="const-one")
    rng = random.Random(67)
    for n in range(1, 8):
        loopy = Multigraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(6)))
        for g in (Multigraph(n, ()), generate(GraphFamilySpec("path", n)), loopy):
            assert chi_k_coefficients(g, const) == [stirling[n, k] for k in range(1, n + 1)]


def test_chi_k_calls_chi_once_per_distinct_block_graph():
    graphs = oracles.graphs_up_to(6) + _loopy_multigraphs(random.Random(71), 12, 7, 10)
    calls = []
    shared = 0
    for v in (1.0, -1.0, 0.3 + 0.4j):
        spec = ExpTypeSpec(lambda h, v=v: calls.append(h) or chi_tutte(h, v), f"counted:{v}")
        for g in graphs:
            calls.clear()
            fast = chi_k_coefficients(g, spec)
            first = list(calls)
            keys = [(h.n, tuple(sorted(h.edges))) for h in first]
            assert all(oracles.is_connected(h) for h in first), (g, v)
            # the frozen recursion weighs every connected block it reaches;
            # the DP weighs each distinct graph among them exactly once
            weighed = []
            slow = oracles.anchored_chi_k(g, lambda h: weighed.append(h) or chi_tutte(h, v),
                                          prune=True)
            assert repr(fast) == repr(slow), (g, v)
            assert sorted(keys) == sorted({(h.n, tuple(sorted(h.edges))) for h in weighed})
            shared += len(weighed) - len(first)
            # nothing is kept across calls: a second call asks chi again
            calls.clear()
            assert repr(chi_k_coefficients(g, spec)) == repr(fast)
            assert calls == first, (g, v)
    assert shared > 1000


def test_chi_k_reads_chi_from_one_sieve_table_bit_for_bit():
    graphs = oracles.graphs_up_to(6) + _loopy_multigraphs(random.Random(79), 12, 7, 10)
    for v in (1.0, -1.0, -0.5, 0.3 + 0.4j):
        spec = tutte_spec(v)
        for g in graphs:
            # the table path sums in the frozen recursion's order
            slow = oracles.anchored_chi_k(g, lambda h: chi_tutte(h, v), prune=True)
            assert repr(chi_k_coefficients(g, spec)) == repr(slow), (g, v)
            # and each connected mask's entry is chi of the subgraph it induces
            table = spec.chi_table(g)
            assert len(table) == 1 << g.n
            for mask in range(1, 1 << g.n):
                h = induced_subgraph(g, [i for i in range(g.n) if mask >> i & 1])
                if oracles.is_connected(h):
                    assert repr(table[mask]) == repr(chi_tutte(h, v)), (g, v, mask)


def test_chi_k_sieves_once_per_call_under_tutte_spec(monkeypatch):
    sieved = []
    real = exptype._chi_tutte_sieve

    def counted(h, v):
        sieved.append(h.n)
        return real(h, v)

    monkeypatch.setattr(exptype, "_chi_tutte_sieve", counted)
    g = generate(GraphFamilySpec("regular", 10, degree=3, seed=1))
    for spec in (tutte_spec(1.0), tutte_spec(-0.5), chromatic_spec()):
        sieved.clear()
        chi_k_coefficients(g, spec)
        assert sieved == [g.n], spec.name


def test_block_graphs_match_induced_subgraph():
    for g in _loopy_multigraphs(random.Random(73), 10, 8, 14):
        block_graph = exptype._block_graphs(g)
        for mask in range(1, 1 << g.n):
            h = Multigraph._trusted(*block_graph(mask))
            ref = induced_subgraph(g, [i for i in range(g.n) if mask >> i & 1])
            assert (h.n, h.edges, h.degrees()) == \
                (ref.n, tuple(sorted(ref.edges)), ref.degrees()), (g, mask)
            assert h == Multigraph(h.n, h.edges) and not h.vertex_transitive


def test_exp_type_poly_equals_random_cluster():
    rng = random.Random(53)
    for trial in range(8):
        g = oracles.random_graph_bounded(rng, max_n=6, max_m=9)
        v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
        poly = exp_type_poly(g, tutte_spec(v))
        for _ in range(4):
            q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs = poly(q)
            rhs = tutte_direct(g, q, v)
            assert cmath.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-8), trial


def test_tutte_profile_and_direct():
    profile = random_cluster_profile(TRIANGLE)
    assert sum(profile.values()) == 2 ** TRIANGLE.m
    q, v = 2.0, -0.5
    assert tutte_from_profile(profile, q, v) == pytest.approx(
        tutte_direct(TRIANGLE, q, v))
    rng = random.Random(3)
    for trial in range(6):
        g = oracles.random_multigraph(rng, max_n=5, max_m=7)
        q = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert cmath.isclose(tutte_direct(g, q, v), oracles.brute_tutte(g, q, v),
                             rel_tol=1e-9, abs_tol=1e-9), trial


def test_chromatic_counts_proper_colorings():
    rng = random.Random(9)
    spec = chromatic_spec()
    for trial in range(6):
        g = oracles.random_simple_graph(rng.randint(2, 5),
                                        rng.uniform(0.2, 0.7), rng)
        poly = exp_type_poly(g, spec)
        for q in (2, 3):
            expected = oracles.count_proper_colorings(g, q)
            got = poly(complex(q))
            assert abs(got - expected) < 1e-6, (trial, q)


def test_qhat_derivative_values():
    v = 1.0
    spec = tutte_spec(v)
    g = TRIANGLE
    chis = chi_k_coefficients(g, spec)
    assert qhat_derivative(g, spec, 0) == 1.0
    for m in range(1, g.n):
        expected = math.factorial(m) * chis[g.n - m - 1]
        assert qhat_derivative(g, spec, m) == pytest.approx(expected), m
    assert qhat_derivative(g, spec, g.n) == 0j
    assert qhat_derivative(g, spec, g.n + 3) == 0j


def test_eval_exp_type_matches_direct():
    spec = tutte_spec(1.0, root_radius=2.0)
    g = TRIANGLE
    x = 10.0 + 0j
    cert = eval_exp_type(g, spec, x, eps=1e-4)
    expected = tutte_direct(g, x, 1.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12
    assert cert.mode == "exp-coefficients"
    assert not cert.heuristic


def test_eval_exp_type_runs_one_coefficient_dp(monkeypatch):
    calls = []

    def counted(g, spec, budget=None):
        calls.append(g.n)
        return chi_k_coefficients(g, spec, budget)

    g = oracles.random_graph_bounded(random.Random(5), max_n=7, max_m=10)
    spec = tutte_spec(1.0)
    radius = 1.01 * max(abs(r) for r in poly_roots(exp_type_poly(g, spec)))
    x = 4.0 * radius
    monkeypatch.setattr(exptype, "chi_k_coefficients", counted)
    cert = eval_exp_type(g, spec.with_root_radius(radius, heuristic=False), x, eps=1e-6)
    assert cert.order >= 3
    assert calls == [g.n]
    expected = tutte_direct(g, x, 1.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12


def _log_series(p, order):
    # coefficients of ln(p / p[0]) through order, entry 0 replaced by ln p[0]
    p = [a / p[0] for a in p] + [0j] * (order + 1)
    out = [0j] * (order + 1)
    for j in range(1, order + 1):
        out[j] = p[j] - sum(i * out[i] * p[j - i] for i in range(1, j)) / j
    return out


def test_cluster_engine_matches_coefficient_dp():
    loopy = _loopy_multigraphs(random.Random(83), 12, 7, 10)
    specs = (tutte_spec(1.0), tutte_spec(-0.5), chromatic_spec())
    checked = 0
    for g in oracles.graphs_up_to(6) + loopy:
        for spec in specs:
            qhat = chi_k_coefficients(g, spec)[::-1]
            for order in range(1, g.n - 1):
                engine = approx._ClusterEngine(g, partial(exptype._exp_shape, spec), 1, 1e8)
                if qhat[0] == 0:
                    with pytest.raises(OutsideRegionError):
                        engine.log_coefficients(order)
                    continue
                got = engine.log_coefficients(order)
                want = _log_series(qhat, order)
                want[0] = cmath.log(qhat[0])
                for j in range(order + 1):
                    assert cmath.isclose(got[j], want[j], rel_tol=1e-9, abs_tol=1e-9), \
                        (g, spec.name, order, j)
                checked += 1
    assert checked > 1500


def test_eval_exp_type_reads_one_chi_table_per_shape(monkeypatch):
    # each shape's polynomial is one chi_k_coefficients call on the shape
    g = generate(GraphFamilySpec("regular", 10, degree=3, seed=4))
    engines = []
    real_init = approx._ClusterEngine.__init__

    def record(self, *args):
        engines.append(self)
        real_init(self, *args)

    monkeypatch.setattr(approx._ClusterEngine, "__init__", record)
    calls, tables = [], []
    counted = ExpTypeSpec(lambda h: calls.append(h) or chi_tutte(h, 1.0), "counted",
                          root_radius=10.0,
                          chi_table=lambda h: tables.append(h) or exptype._chi_tutte_sieve(h, 1.0))
    # construction probes K_1 and two isolated vertices
    assert calls == [Multigraph(1, ()), Multigraph(2, ())]
    calls.clear()
    cert = eval_exp_type(g, counted, 60.0, eps=1e-3)
    assert cert.order + 1 < g.n and len(engines) == 1
    # with a table: one table per shape, and chi is never called again
    sets = sum(1 for _ in connected_subsets(g, cert.order + 1))
    assert len(tables) == len(engines[0].shapes) < sets
    assert calls == []

    # with chi alone: within one shape's call, chi runs only on connected
    # graphs, each once
    alone = ExpTypeSpec(lambda h: calls.append(h) or chi_tutte(h, 1.0), "alone",
                        root_radius=10.0)
    per_shape = []
    real_chi_k = exptype.chi_k_coefficients

    def split(*args):
        calls.clear()
        out = real_chi_k(*args)
        per_shape.append([(h.n, tuple(sorted(h.edges))) for h in calls])
        return out

    monkeypatch.setattr(exptype, "chi_k_coefficients", split)
    same = eval_exp_type(g, alone, 60.0, eps=1e-3)
    assert len(per_shape) == len(engines[1].shapes) == len(engines[0].shapes)
    for graphs in per_shape:
        assert len(set(graphs)) == len(graphs)
        assert all(component_count(n, edges) == 1 for n, edges in graphs)
    assert cmath.isclose(same.log_value, cert.log_value, rel_tol=1e-12)


def test_eval_exp_type_rooted_on_generated_torus(monkeypatch):
    # the generated 5x5 torus streams only vertex 0's sets, its edge-list
    # copy all of them, and both give the same certificate
    g = generate(GraphFamilySpec("torus", 5, size2=5))
    spec = tutte_spec(1.0, root_radius=10.0)
    streamed = []
    real = approx._ClusterEngine.log_coefficients

    def record(self, order):
        out = real(self, order)
        streamed.append(self.streamed)
        return out

    monkeypatch.setattr(approx._ClusterEngine, "log_coefficients", record)
    rooted = eval_exp_type(g, spec, 60.0, eps=1e-4, budget=math.inf)
    full = eval_exp_type(Multigraph(g.n, g.edges), spec, 60.0, eps=1e-4, budget=math.inf)
    size = rooted.order + 1
    assert size < g.n and full.order == rooted.order
    assert streamed == [sum(1 for c in connected_subsets(g, size) if c[0] == 0),
                        sum(1 for _ in connected_subsets(g, size))]
    assert cmath.isclose(rooted.log_value, full.log_value, rel_tol=1e-12)


def test_eval_exp_type_refuses_non_multiplicative_chi():
    const = ExpTypeSpec(chi=lambda g: 1.0, name="const-one", root_radius=10.0)
    g = generate(GraphFamilySpec("path", 8))
    with pytest.raises(ValueError, match="disconnected"):
        eval_exp_type(g, const, 60.0, eps=1e-3)


@pytest.mark.parametrize("g, eps", [
    (Multigraph(3, ((0, 1), (1, 2), (0, 0))), 1e-6),
    (Multigraph(8, tuple((i, i + 1) for i in range(7)) + ((2, 2), (5, 5), (5, 5))), 1e-2),
])
def test_eval_exp_type_with_loops(g, eps):
    spec = tutte_spec(1.0)
    radius = 1.01 * max(abs(r) for r in poly_roots(exp_type_poly(g, spec)))
    x = 4.0 * radius
    cert = eval_exp_type(g, spec.with_root_radius(radius, heuristic=False), x, eps=eps)
    # three vertices run on the whole graph, the 8-vertex path on the cluster engine
    assert (cert.order + 1 >= g.n) == (g.n == 3)
    expected = tutte_direct(g, x, 1.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12
    # a loop has no proper coloring: qhat(0) = 0 has no log
    with pytest.raises(OutsideRegionError, match="single vertex"):
        eval_exp_type(g, chromatic_spec(root_radius=radius), 12.0 * radius, eps=eps)


def test_eval_exp_type_overflows_to_inf():
    # p(q) = q (q + 1)^199 on a 200-vertex path: about 10^357 at q = 60
    g = generate(GraphFamilySpec("path", 200))
    cert = eval_exp_type(g, tutte_spec(1.0, root_radius=10.0), 60.0, eps=1e-3)
    assert cert.order + 1 < g.n
    assert cert.value == complex(math.inf, 0.0)
    exact = math.log(60.0) + 199 * math.log(61.0)
    assert abs(cert.log_value - exact) <= cert.error_bound + 1e-9


def test_eval_exp_type_k2_hand_case():
    # chi_1 = v, chi_2 = 1 so the polynomial is q^2 + v q; at v=1, x=10: 110
    spec = tutte_spec(1.0, root_radius=1.5)
    cert = eval_exp_type(K2, spec, 10.0, eps=1e-6)
    assert cmath.isclose(cert.value, 110.0, rel_tol=1e-5)


def test_eval_exp_type_flags_and_errors():
    spec = tutte_spec(1.0, root_radius=2.0, heuristic=True)
    cert = eval_exp_type(TRIANGLE, spec, 9.0, eps=1e-3)
    assert cert.heuristic
    assert cmath.isclose(cmath.exp(cert.log_value), cert.value, rel_tol=1e-9)
    with pytest.raises(ValueError):
        eval_exp_type(TRIANGLE, spec, 9.0, eps=-1.0)


def test_eval_exp_type_certificates_share_their_mode_string():
    # the mode is one of two constants, not a string built per certificate
    spec = tutte_spec(1.0, root_radius=10.0)
    cycle = generate(GraphFamilySpec("cycle", 12))
    for g, mode in ((TRIANGLE, "exp-coefficients"), (cycle, "exp-cluster")):
        first, second = (eval_exp_type(g, spec, x, eps=1e-3) for x in (40.0, 50.0))
        assert first.mode == second.mode == mode
        assert first.mode is second.mode


def test_eval_exp_type_mode_names_the_path_that_ran():
    # the coefficient list is read exactly when the whole graph is one cluster
    spec = tutte_spec(1.0, root_radius=10.0)
    for n, mode in ((12, "exp-cluster"), (6, "exp-coefficients")):
        g = generate(GraphFamilySpec("cycle", n))
        cert = eval_exp_type(g, spec, 40.0, eps=1e-3)
        assert cert.mode == mode
        assert (cert.mode == "exp-coefficients") == (g.n <= cert.order + 1)
        expected = exp_type_poly(g, spec)(40.0)
        assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12
    # chi = 1 does not vanish on disconnected graphs, so only the list can run
    const = ExpTypeSpec(chi=lambda g: 1.0, name="const-one", root_radius=10.0)
    cert = eval_exp_type(TRIANGLE, const, 60.0, eps=1e-3)
    assert cert.mode == "exp-coefficients"
    expected = exp_type_poly(TRIANGLE, const)(60.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12


def test_exp_cluster_charges_each_shape_as_chi_k_coefficients_does():
    # cycle:12 at order 5 walks the 21 sets at vertex 0 and weighs one path
    # shape of each size 1..6 by one chi_k_coefficients call: 2 * 3^|C| with
    # a chi table, 3^|C| with chi alone
    g = generate(GraphFamilySpec("cycle", 12))
    table = tutte_spec(1.0, root_radius=10.0)
    alone = ExpTypeSpec(lambda h: chi_tutte(h, 1.0), "alone", root_radius=10.0)
    for spec, total in ((table, 2205), (alone, 1113)):
        assert total == 21 + sum(exptype._coefficient_terms(spec, s) for s in range(1, 7))
        cert = eval_exp_type(g, spec, 40.0, eps=1e-3, budget=total)
        assert (cert.mode, cert.order) == ("exp-cluster", 5)
        with pytest.raises(BudgetExceededError,
                           match=f"^{total} connected-set expansion terms \\(21 sets streamed, 6 "
                                 f"shapes computed, stopped at a set of size 6\\) exceed the "
                                 f"budget of {total - 1} terms$"):
            eval_exp_type(g, spec, 40.0, eps=1e-3, budget=total - 1)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_exp_cluster_matches_the_cycle_closed_form_past_16_vertices(n):
    # Z(C_n)(x, v) = (x + v)^n + (x - 1) v^n, beyond the 17 vertices at which
    # the whole-graph coefficients stop under the default budget; the
    # generated cycle walks the sets at vertex 0, its edge-list copy all sets
    base = generate(GraphFamilySpec("cycle", n))
    for v in (1.0, -1.0, -0.5, 0.3 + 0.4j):
        closed = np.poly1d([1.0, v]) ** n + np.poly1d([1.0, -1.0]) * v ** n
        radius = 1.5 * max(abs(r) for r in np.roots(closed.coeffs))
        x = 10 * radius
        want = (x + v) ** n + (x - 1) * v ** n
        for g in (base, Multigraph(n, base.edges)):
            cert = eval_exp_type(g, tutte_spec(v, root_radius=radius), x, eps=1e-7)
            assert cert.mode == "exp-cluster" and cert.order <= 7
            assert abs(cmath.log(cert.value / want)) <= cert.error_bound + 1e-12, (n, v, g)


def test_eval_exp_type_region_and_radius_errors():
    spec = tutte_spec(1.0, root_radius=2.0)
    with pytest.raises(OutsideRegionError):
        eval_exp_type(TRIANGLE, spec, 1.5, eps=1e-3)
    bare = tutte_spec(1.0)
    with pytest.raises(ValueError, match="estimate_root_radius"):
        eval_exp_type(TRIANGLE, bare, 10.0, eps=1e-3)


def test_non_finite_weight_and_point_are_refused():
    # a NaN or infinite v or x would give a NaN log_value under a finite bound
    for v in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(ValueError, match=r"tutte edge weight v must be finite, not \("):
            tutte_spec(v)
    spec = tutte_spec(1.0, root_radius=10.0)
    cycle = generate(GraphFamilySpec("cycle", 12))
    for x in (math.inf, math.nan, complex(40.0, math.nan)):
        with pytest.raises(ValueError, match=r"evaluation point x must be finite, not \("):
            eval_exp_type(cycle, spec, x, eps=1e-3)


def test_estimate_root_radius_k2():
    # roots of q^2 + q are 0 and -1, so the padded estimate is 1.5
    spec = tutte_spec(1.0)
    assert estimate_root_radius(spec, 4, [K2]) == pytest.approx(1.5)
    est = estimate_root_radius(spec, 2, [K2, TRIANGLE])
    assert est >= 1.5
    # graphs beyond the degree cap are skipped
    high = Multigraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert estimate_root_radius(spec, 1, [K2, high]) == pytest.approx(1.5)


def test_qhat_scaled_poly_identity():
    # q-hat is the reversal: z^n p(1/z); its derivatives come from high-order
    # coefficients of the exponential-type polynomial
    rng = random.Random(15)
    g = oracles.random_graph_bounded(rng, max_n=5, max_m=7)
    v = 0.8 - 0.2j
    spec = tutte_spec(v)
    poly = exp_type_poly(g, spec)
    z = 0.21 + 0.13j
    qhat = sum(qhat_derivative(g, spec, m) / math.factorial(m) * z ** m
               for m in range(g.n + 1))
    direct = z ** g.n * poly(1.0 / z)
    assert cmath.isclose(qhat, direct, rel_tol=1e-9, abs_tol=1e-9)
