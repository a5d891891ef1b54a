import cmath
import itertools
import math
import random
import re
import time

import numpy as np
import pytest

import holant.exact
import oracles
from holant import (BudgetExceededError, ComplexPoly, EdgeColoringModel,
                    ExpTypeSpec, GraphFamilySpec, Multigraph, RegionParams,
                    RestrictedSpec, RootFindingError, TensorAssignment,
                    all_ones, approx_partition, chi_k_coefficients, chi_tutte,
                    chromatic_spec, cluster_log_derivatives, contract_network,
                    eval_exp_type, exact_partition, exp_type_poly, generate,
                    exact_poly_by_interpolation, log_potential_check,
                    model_from_predicate, perturbed_ones, poly_roots,
                    q_derivative, restricted_partition, sample_region_model,
                    tutte_spec, verify_zero_free, zero_free_constants)
from holant.exact import _colored_sum, _plan, _vertex_table
from holant.exptype import random_cluster_profile
from holant.graphs import edges_touching

TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def test_all_ones_gives_k_to_m():
    for k in (1, 2, 3):
        for g in (TRIANGLE, C4, Multigraph(2, ((0, 1), (0, 1), (1, 1)))):
            assert exact_partition(g, all_ones(k)) == k ** g.m


def test_matchings_small_graphs():
    h = model_from_predicate("matching")
    assert exact_partition(TRIANGLE, h) == 4
    assert exact_partition(C4, h) == 7
    # edgeless graph has exactly one (empty) matching
    assert exact_partition(Multigraph(3, ()), h) == 1


def test_loop_counts_twice_in_incidence():
    # a single loop: the loop contributes 2 to its vertex count vector
    g = Multigraph(1, ((0, 0),))
    h = EdgeColoringModel(2, {(2, 0): 5.0, (0, 2): 7.0}, default=0j)
    assert exact_partition(g, h) == 12.0


def test_exact_matches_brute_force_random():
    rng = random.Random(101)
    zero_one = [model_from_predicate("matching"), model_from_predicate("dregular:2")]
    for trial in range(25):
        g = oracles.random_multigraph(rng, max_n=5, max_m=7)
        if trial % 3 == 0:
            # isolated vertices contribute h at the zero count vector
            g = Multigraph(g.n + 2, g.edges)
        k = rng.choice([2, 3])
        top = max(1, g.max_degree())
        h = perturbed_ones(k, 0.8, seed=trial, max_degree=top)
        fast = exact_partition(g, h)
        slow = oracles.brute_partition(g, h)
        assert cmath.isclose(fast, slow, rel_tol=1e-10, abs_tol=1e-10), trial
        single = perturbed_ones(1, 0.8, seed=trial, max_degree=top)
        assert cmath.isclose(exact_partition(g, single), oracles.brute_partition(g, single),
                             rel_tol=1e-10, abs_tol=1e-10), trial
        # 0/1 models: zero-weight states are dropped and counts stay exact
        for h01 in zero_one:
            assert exact_partition(g, h01) == oracles.brute_partition(g, h01), (trial, h01.name)


def test_cycle_matchings_lucas_number():
    # the matchings of the n-cycle number the Lucas number L_n; a contraction
    # along the cycle keeps a handful of states where the coloring space has 2^60
    g = generate(GraphFamilySpec("cycle", 60))
    start = time.perf_counter()
    count = exact_partition(g, model_from_predicate("matching"), budget=math.inf)
    assert count == 3461452808002
    assert time.perf_counter() - start < 1.0


def test_matchings_past_degree_twelve():
    star = Multigraph(14, tuple((0, leaf) for leaf in range(1, 14)))
    assert exact_partition(star, model_from_predicate("matching")) == 14
    doubled = Multigraph(13, tuple((0, leaf) for leaf in range(1, 13)) + ((0, 1), (0, 2)))
    assert exact_partition(doubled, model_from_predicate("matching")) == 15


def test_sums_past_the_float_range_are_refused():
    # the true value 2^6 * 1e1200 is not a float
    g = generate(GraphFamilySpec("cycle", 6))
    h = EdgeColoringModel(2, {}, 1e200)
    with pytest.raises(ArithmeticError, match="float range"):
        exact_partition(g, h)
    with pytest.raises(ArithmeticError):
        exact_poly_by_interpolation(g, h)


def test_budget_refusal():
    big = Multigraph(40, tuple((i, (i + 1) % 40) for i in range(40)))
    with pytest.raises(BudgetExceededError):
        exact_partition(big, all_ones(3), budget=10**6)


def test_charge_compares_the_coloring_count_exactly():
    # ln 3^30 and ln(3^30 - 1) differ by 5e-15, so a comparison of logs with
    # any slack lets one coloring too many through
    with pytest.raises(BudgetExceededError, match="3\\^30 colorings"):
        holant.exact._charge(3**30, 3**30 - 1, "3^30 colorings")
    holant.exact._charge(3**30, 3**30, "3^30 colorings")
    holant.exact._charge(3**30, math.inf, "3^30 colorings")
    # one color never refuses, and a count past every float still compares
    holant.exact._charge(1**10**6, 1, "1^1000000 colorings")
    with pytest.raises(BudgetExceededError):
        holant.exact._charge(2 ** 10**6, 1e300, "2^1000000 colorings")


def test_default_budget_binds_every_function_that_passes_it_on():
    # budget=None is DEFAULT_BUDGET = 1e8 wherever it lands: the 2^27
    # matching colorings of cycle:27, the 3^21 colorings of the 7-vertex
    # shape of complete:8 and the 3^17 anchored blocks of cycle:17 pass it
    assert holant.exact.DEFAULT_BUDGET == 10 ** 8
    g = generate(GraphFamilySpec("cycle", 27))
    h = model_from_predicate("matching")
    t = TensorAssignment.from_model(g, h)
    params = RegionParams.from_theorem(0.9, zero_free_constants().theta, 2)
    dense = generate(GraphFamilySpec("complete", 8))
    near = perturbed_ones(3, 0.01, seed=1, max_degree=7)
    spec = tutte_spec(1.0, root_radius=10.0)
    calls = {
        "exact_partition": lambda: exact_partition(g, h),
        "contract_network": lambda: contract_network(g, t),
        "restricted_partition": lambda: restricted_partition(g, t, RestrictedSpec(())),
        "exact_poly_by_interpolation": lambda: exact_poly_by_interpolation(g, h),
        "log_potential_check": lambda: log_potential_check(g, h),
        "verify_zero_free": lambda: verify_zero_free(g, params, samples=1),
        "cluster_log_derivatives": lambda: cluster_log_derivatives(dense, near, 7),
        "approx_partition": lambda: approx_partition(dense, near, 1e-6),
        "eval_exp_type": lambda: eval_exp_type(generate(GraphFamilySpec("cycle", 17)),
                                               spec, 11.0, 1e-3),
    }
    for call in calls.values():
        with pytest.raises(BudgetExceededError, match=r"2\^27|1e\+08|3\^17"):
            call()
    # one edge fewer fits: 2^26 colorings
    assert exact_partition(generate(GraphFamilySpec("cycle", 26)), h) != 0


# every up-front charge on the triangle: the call at a budget, its term
# count and the power that its refusal names
UP_FRONT_CHARGES = {
    "exact_partition": (lambda b: exact_partition(TRIANGLE, all_ones(2), b), 8, "2^3"),
    "exact_poly_by_interpolation":
        (lambda b: exact_poly_by_interpolation(TRIANGLE, all_ones(2), b), 8, "2^3"),
    "verify_zero_free": (lambda b: verify_zero_free(
        TRIANGLE, RegionParams.from_theorem(0.9, 1.5, 2), samples=1, budget=b), 8, "2^3"),
    "q_derivative": (lambda b: q_derivative(TRIANGLE, all_ones(2), 2, b), 3 * 8, "C(3,2)*2^3"),
    "chi_tutte": (lambda b: chi_tutte(TRIANGLE, 1.0, b), 27, "3^3"),
    "random_cluster_profile": (lambda b: random_cluster_profile(TRIANGLE, b), 8, "2^3"),
    # a spec with a chi table: one sieve of the graph, then the recursion
    "chi_k_coefficients":
        (lambda b: chi_k_coefficients(TRIANGLE, tutte_spec(1.0), b), 2 * 27, "2*3^3"),
    # a spec with chi alone: the recursion, its chi calls not counted
    "chi_k_coefficients_chi_callable": (lambda b: chi_k_coefficients(
        TRIANGLE, ExpTypeSpec(tutte_spec(1.0).chi, "chi-only"), b), 27, "3^3"),
}


@pytest.mark.parametrize("name", sorted(UP_FRONT_CHARGES))
def test_every_up_front_charge_follows_one_rule(name, monkeypatch):
    call, terms, power = UP_FRONT_CHARGES[name]

    def refused(budget):
        return pytest.raises(BudgetExceededError, match=re.escape(power) + ".* exceed the "
                             f"budget of {re.escape(f'{budget:g}')} terms$")

    # a budget of exactly the charge runs and one term less refuses
    call(terms)
    with refused(terms - 1):
        call(terms - 1)
    # inf and NaN bound nothing
    call(math.inf)
    call(math.nan)
    # None is DEFAULT_BUDGET, read when the call is made
    monkeypatch.setattr(holant.exact, "DEFAULT_BUDGET", terms)
    call(None)
    monkeypatch.setattr(holant.exact, "DEFAULT_BUDGET", terms - 1)
    with refused(terms - 1):
        call(None)


def test_cluster_engine_follows_the_one_budget_rule(monkeypatch):
    # order 2 on the triangle spends 9 terms: 6 sets (3 vertices, 3 edges)
    # plus 2^0 for the vertex shape and 2^1 for the edge shape
    h = perturbed_ones(2, 0.05, seed=1, max_degree=2)

    def call(budget):
        return cluster_log_derivatives(TRIANGLE, h, 2, budget)

    def refused():
        return pytest.raises(BudgetExceededError,
                             match=r"^9 connected-set expansion terms \(.*\) exceed the "
                                   r"budget of 8 terms$")

    free = call(9)
    with refused():
        call(8)
    assert call(math.inf) == call(math.nan) == free
    # None is DEFAULT_BUDGET, read when the call is made
    monkeypatch.setattr(holant.exact, "DEFAULT_BUDGET", 9)
    assert call(None) == free
    monkeypatch.setattr(holant.exact, "DEFAULT_BUDGET", 8)
    with refused():
        call(None)


def test_budget_past_the_float_range_is_named_not_converted():
    # an int budget that no float holds is refused, or bounds nothing, in
    # both engines; its message rounds it as {:g} would, without a float
    h = perturbed_ones(2, 0.02, seed=1)
    huge = 10 ** 400
    for call, words in ((lambda b: exact_partition(TRIANGLE, h, b), "2^3 colorings exceed"),
                        (lambda b: chi_tutte(TRIANGLE, 1.0, b), "3^3 sieve terms for chi exceed"),
                        (lambda b: approx_partition(TRIANGLE, h, 1e-6, b),
                         "connected-set expansion terms")):
        with pytest.raises(BudgetExceededError, match=re.escape(words) + ".* budget of -1e\\+400"):
            call(-huge)
        with pytest.raises(BudgetExceededError, match="budget of -1.23457e\\+408"):
            call(-123456789 * huge)
        assert call(huge) == call(math.inf)
    assert holant.exact._budget_text(10 ** 400 + 4) == "1e+400"
    # in range, the text is {:g}'s
    for budget in (4, 1e8, 2.5, 10 ** 20, -3, math.inf):
        assert holant.exact._budget_text(budget) == f"{budget:g}"


def test_contract_network_matches_brute():
    rng = random.Random(7)
    for trial in range(10):
        g = oracles.random_multigraph(rng, max_n=5, max_m=6)
        k = rng.choice([2, 3])
        tensors = []
        for v in range(g.n):
            d = g.degree(v)
            table = {}
            from holant.models import compositions
            for alpha in compositions(d, k):
                table[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            tensors.append(table)
        t = TensorAssignment(g, k, tuple(tensors))
        fast = contract_network(g, t)
        slow = oracles.brute_contract(g, t)
        assert cmath.isclose(fast, slow, rel_tol=1e-10, abs_tol=1e-10), trial


def test_contract_rejects_mismatched_graph():
    t = TensorAssignment.from_model(TRIANGLE, all_ones(2))
    with pytest.raises(ValueError):
        contract_network(C4, t)


def test_restricted_partition_sums_to_full():
    rng = random.Random(19)
    for trial in range(12):
        g = oracles.random_multigraph(rng, max_n=5, max_m=7)
        if g.m < 2:
            continue
        k = rng.choice([2, 3])
        h = perturbed_ones(k, 0.5, seed=trial, max_degree=max(1, g.max_degree()))
        t = TensorAssignment.from_model(g, h)
        full = exact_partition(g, h)
        loops = [e for e, (u, w) in enumerate(g.edges) if u == w]
        first = loops[0] if loops else rng.randrange(g.m)
        second = rng.choice([e for e in range(g.m) if e != first])
        total = 0j
        for a, b in itertools.product(range(k), repeat=2):
            total += restricted_partition(
                g, t, RestrictedSpec.from_dict({first: a, second: b}))
        assert cmath.isclose(total, full, rel_tol=1e-10, abs_tol=1e-10), trial


def test_restricted_spec_validation():
    spec = RestrictedSpec(fixed=((0, 1), (2, 0)))
    spec.validate(TRIANGLE, 2)
    with pytest.raises(ValueError):
        RestrictedSpec(fixed=((5, 0),)).validate(TRIANGLE, 2)
    with pytest.raises(ValueError):
        RestrictedSpec(fixed=((0, 3),)).validate(TRIANGLE, 2)
    with pytest.raises(ValueError):
        RestrictedSpec(fixed=((0, 0), (0, 1))).validate(TRIANGLE, 2)
    round_trip = RestrictedSpec.from_dict(spec.as_dict())
    assert round_trip == spec


def test_interpolation_poly_endpoints():
    rng = random.Random(91)
    for trial in range(8):
        g = oracles.random_graph_bounded(rng, max_n=6, max_m=9)
        k = rng.choice([2, 3])
        h = perturbed_ones(k, 0.4, seed=trial, max_degree=max(1, g.max_degree()))
        q = exact_poly_by_interpolation(g, h)
        assert q.degree <= g.n
        # z=0 collapses the model to all-ones
        assert cmath.isclose(q(0.0), k ** g.m, rel_tol=1e-9)
        # z=1 recovers the target model
        assert cmath.isclose(q(1.0), exact_partition(g, h),
                             rel_tol=1e-8, abs_tol=1e-9)


def test_interpolation_poly_off_node_value():
    # the blend at a complex point against one exact sum of the blended model
    cubic = generate(GraphFamilySpec("regular", 16, degree=3, seed=1))
    z = 0.37 - 0.21j
    for g, h in ((C4, perturbed_ones(2, 0.5, seed=8, max_degree=2)),
                 (cubic, perturbed_ones(2, 0.3, seed=3, max_degree=3)),
                 (cubic, model_from_predicate("matching"))):
        q = exact_poly_by_interpolation(g, h)
        blended = EdgeColoringModel(h.k, {}, rule=lambda al: 1.0 + z * (h.value(al) - 1.0))
        assert cmath.isclose(q(z), exact_partition(g, blended), rel_tol=1e-9), (g, h.name)


def test_blend_coefficients_of_matchings_are_exact_integers():
    # [z^1] sums, over the 16 vertices, minus the 2^23 colorings in which
    # the vertex sees two or more edges of color 1; at z = 1 the blend
    # counts matchings
    g = generate(GraphFamilySpec("regular", 16, degree=3, seed=1))
    q = exact_poly_by_interpolation(g, model_from_predicate("matching"))
    assert q.degree == 16
    assert q.coeffs[0] == 2 ** 24
    assert q.coeffs[1] == -134217728
    assert sum(q.coeffs) == oracles.count_matchings(g) == 10858


def test_blend_keeps_small_top_coefficients():
    # a mild perturbation makes the top coefficients tiny but not zero
    g = generate(GraphFamilySpec("cycle", 12))
    h = perturbed_ones(2, 0.05, seed=7, max_degree=2)
    q = exact_poly_by_interpolation(g, h)
    assert q.degree == 12
    value = exact_partition(g, h)
    rebuilt = q.coeffs[-1] * np.prod([1.0 - r for r in poly_roots(q)])
    assert abs(rebuilt - value) <= 1e-9 * abs(value)


def reference_colored_sum(g, k, edge_indices, fixed, tables):
    """The contraction as one loop that re-ranks every remaining edge per step.

    Returns (value, edge order).  The engine plans the same order ranking
    again only the edges at each step's ends, and runs the same arithmetic,
    so both must agree exactly.
    """
    edges = sorted(edge_indices)
    ends, degree, left = {}, dict.fromkeys(tables, 0), dict.fromkeys(tables, 0)
    for e in edges:
        u, w = g.edges[e]
        ends[e] = [(v, mult) for v, mult in (((u, 2),) if u == w else ((u, 1), (w, 1)))
                   if v in tables]
        for v, mult in ends[e]:
            degree[v] += mult
            left[v] += 1
    start = 1.0 + 0j
    for v, dense in tables.items():
        if left[v] == 0:
            start *= dense[0]
    radix = max((len(tables[v]) for v in tables if left[v]), default=1)
    slot_of, states, order = {}, {0: start}, []

    def rank(e):
        fresh = sum(v not in slot_of for v, _ in ends[e])
        return fresh, min((left[v] for v, _ in ends[e]), default=0), e

    while edges:
        e = min(edges, key=rank)
        edges.remove(e)
        order.append(e)
        steps, closing = [0] * k, []
        for v, mult in ends[e]:
            if v not in slot_of:
                slot_of[v] = min(set(range(len(slot_of) + 1)).difference(slot_of.values()))
            offset = radix ** slot_of[v]
            for c in range(k):
                steps[c] += mult * (degree[v] + 1) ** c * offset
            left[v] -= 1
            if left[v] == 0:
                closing.append((offset, tables[v]))
        for v, _ in ends[e]:
            if left[v] == 0:
                del slot_of[v]
        if e in fixed:
            steps = [steps[fixed[e]]]
        merged = {}
        for state, weight in states.items():
            for step in steps:
                key, value = state + step, weight
                for offset, dense in closing:
                    packed = key // offset % radix
                    value *= dense[packed]
                    key -= packed * offset
                if value != 0:
                    merged[key] = merged.get(key, 0j) + value
        states = merged
    return states.get(0, 0j), order


def test_plan_order_matches_the_full_rerank():
    rng = random.Random(404)
    checked = 0
    while checked < 40:
        g = oracles.random_multigraph(rng, max_n=7, max_m=12)
        if len(set(g.edges)) == g.m or all(u != w for u, w in g.edges):
            continue  # want loops and parallel edges
        if checked % 4 == 3:
            g = Multigraph(g.n + 1, g.edges)  # an idle vertex: its zero entry
        k = rng.choice([1, 2, 3])
        h = perturbed_ones(k, 0.8, seed=checked, max_degree=max(1, g.max_degree()))
        if checked % 2:
            # a partial vertex set over the edges touching it, as q_derivative sums
            subset = rng.sample(range(g.n), rng.randint(1, g.n))
            edges = edges_touching(g, subset)
        else:
            subset, edges = range(g.n), range(g.m)
        tables = {v: _vertex_table(g.degree(v), k, h.value) for v in subset}
        fixed = {e: rng.randrange(k) for e in edges if rng.random() < 0.3}
        want, order = reference_colored_sum(g, k, edges, fixed, tables)
        plan = _plan(g.edges, k, edges, tables)
        assert [e for e, _, _ in plan.steps] == order, (g, subset)
        assert _colored_sum(g, k, edges, fixed, tables, math.inf) == want, (g, subset)
        checked += 1


def counting_plans(monkeypatch):
    plans = []
    real = holant.exact._plan

    def counting(*args):
        plans.append(args)
        return real(*args)

    for module in (holant.exact, holant.approx):
        monkeypatch.setattr(module, "_plan", counting)
    return plans


def test_blend_plans_once_and_matches_q_derivative(monkeypatch):
    # every coefficient against the subset-sum derivative formula, on
    # multigraphs with loops and parallel edges
    rng = random.Random(77)
    for trial in range(4):
        n = rng.randint(8, 10)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        edges += [(0, 0), edges[-1]]
        g = Multigraph(n, tuple(edges))
        k = 2 + trial % 2
        h = perturbed_ones(k, 0.6, seed=trial, max_degree=g.max_degree())
        plans = counting_plans(monkeypatch)
        q = exact_poly_by_interpolation(g, h)
        assert len(plans) == 1
        coeffs = list(q.coeffs) + [0j] * (g.n - q.degree)
        want = [q_derivative(g, h, m, math.inf) / math.factorial(m) for m in range(g.n + 1)]
        top = max(abs(c) for c in want)
        assert all(abs(c - w) <= 1e-12 * top for c, w in zip(coeffs, want)), trial


def test_verify_zero_free_plans_once_and_matches_per_sample_sums(monkeypatch):
    params = RegionParams.from_theorem(eta=0.9, theta=zero_free_constants().theta,
                                       max_degree=4)
    g = generate(GraphFamilySpec("regular", 8, degree=3, seed=2))
    plans = counting_plans(monkeypatch)
    report = verify_zero_free(g, params, samples=5, seed=11)
    assert len(plans) == 1
    rng = random.Random(11)
    values = [exact_partition(g, sample_region_model(2, g.max_degree(), params, rng))
              for _ in range(5)]
    assert report.min_abs == min(abs(v) for v in values)


def test_complex_poly_basics():
    p = ComplexPoly((1.0, 0j, 2.0, 0j, 0j))
    assert p.degree == 2
    assert p.coeffs == (1.0, 0j, 2.0)
    assert p(2.0) == 9.0
    z = ComplexPoly((0j,))
    assert z.is_zero() and z.degree == 0


def _mul_linear(coeffs, root):
    """Multiply an ascending-coefficient poly by (z - root)."""
    out = [0j] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += -root * c
        out[i + 1] += c
    return out


def test_poly_roots_known_roots():
    targets = [2.0, -1.0, 0.5j, -0.5 - 0.5j, 3.0 + 0.1j]
    coeffs = [1.0 + 0j]
    for r in targets:
        coeffs = _mul_linear(coeffs, r)
    roots = poly_roots(ComplexPoly(tuple(coeffs)))
    assert len(roots) == len(targets)
    for r in targets:
        assert min(abs(r - z) for z in roots) < 1e-7


def test_poly_roots_with_origin_and_multiplicity():
    # z^2 * (z - 1)^2
    coeffs = [1.0 + 0j]
    for r in (1.0, 1.0):
        coeffs = _mul_linear(coeffs, r)
    roots = poly_roots(ComplexPoly(tuple([0j, 0j] + coeffs)))
    assert len(roots) == 4
    assert sum(1 for z in roots if abs(z) < 1e-8) == 2
    assert sum(1 for z in roots if abs(z - 1.0) < 1e-5) == 2


def test_poly_roots_sorted_and_edge_cases():
    roots = poly_roots(ComplexPoly((-6.0, 11.0, -6.0, 1.0)))
    assert [round(z.real) for z in roots] == [1, 2, 3]
    with pytest.raises(ValueError):
        poly_roots(ComplexPoly((5.0,)))  # nonzero constant: no root set
    with pytest.raises(ValueError):
        poly_roots(ComplexPoly((0j,)))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError):
            poly_roots(ComplexPoly((1.0, bad, 1.0)))


def test_poly_roots_refuses_an_overflowing_monic_form():
    # roots of modulus 1e120: dividing by the leading 1e-60 overflows, so
    # the polynomial is refused before np.roots could warn (warnings are
    # errors in this suite)
    with pytest.raises(ValueError, match=r"max\|coeff\| = 1e\+300 over "
                                         r"\|leading coeff\| = 1e-60 overflows"):
        poly_roots(ComplexPoly((1e300, 0, 0, 1e-60)))
    # the same spread inside the float range still has its roots found
    roots = poly_roots(ComplexPoly((1e200, 0, 0, 1e-60)))
    assert all(abs(abs(z) / 1e260 ** (1 / 3) - 1) < 1e-9 for z in roots)


def test_poly_roots_wide_magnitude_spread():
    poly = ComplexPoly((1.0,))
    spread = [1e-3, 1.0, 1e3]
    p = list(poly.coeffs)
    for r in spread:
        p = _mul_linear(p, r)
    roots = poly_roots(ComplexPoly(tuple(p)))
    for r in spread:
        assert min(abs(z - r) / max(abs(r), 1e-12) for z in roots) < 1e-6


def test_poly_roots_repeated_chromatic_roots():
    # the 6-vertex path has chromatic polynomial x (x - 1)^5
    poly = exp_type_poly(generate(GraphFamilySpec("path", 6)), chromatic_spec())
    expected = [0j, 1.0 + 0j]
    for _ in range(5):
        expected = _mul_linear(expected, 1.0)
    assert poly.coeffs == pytest.approx(tuple(expected))
    roots = poly_roots(poly)
    assert len(roots) == 6 and abs(roots[0]) < 1e-12
    assert all(abs(z - 1.0) < 5e-3 for z in roots[1:])


def test_poly_roots_rejects_candidates_failing_the_residual(monkeypatch):
    poly = ComplexPoly((-6.0, 11.0, -6.0, 1.0))
    candidates = [1.0 + 1e-3j, 2.0, 3.0 - 1e-3]
    monkeypatch.setattr(np, "roots", lambda coeffs: list(candidates))
    with pytest.raises(RootFindingError) as info:
        poly_roots(poly)
    assert info.value.partial_roots == tuple(candidates)


def test_poly_roots_rebuild_random_polynomials():
    rng = random.Random(2024)
    for trial in range(40):
        degree = rng.randint(1, 12)
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1)]
        roots = poly_roots(ComplexPoly(tuple(coeffs)))
        assert len(roots) == degree
        rebuilt = [coeffs[-1]]
        for r in roots:
            rebuilt = _mul_linear(rebuilt, r)
        scale = max(abs(c) for c in coeffs)
        assert max(abs(a - b) for a, b in zip(rebuilt, coeffs)) <= 1e-9 * scale, trial
