import cmath
import itertools
import math
import random
import time

import pytest

import oracles
from holant import (BudgetExceededError, ComplexPoly, EdgeColoringModel,
                    GraphFamilySpec, Multigraph, RestrictedSpec,
                    TensorAssignment, all_ones, contract_network,
                    exact_partition, generate,
                    exact_poly_by_interpolation, model_from_predicate,
                    partition_vertex_model, perturbed_ones, poly_roots,
                    restricted_partition)

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


def test_budget_refusal():
    big = Multigraph(40, tuple((i, (i + 1) % 40) for i in range(40)))
    with pytest.raises(BudgetExceededError):
        exact_partition(big, all_ones(3), budget=10**6)


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


def test_vertex_model_matches_brute():
    import numpy as np
    rng = np.random.default_rng(5)
    pyrng = random.Random(5)
    for trial in range(10):
        g = oracles.random_multigraph(pyrng, max_n=5, max_m=6)
        s = int(rng.integers(1, 4))
        a = rng.normal(size=s) + 1j * rng.normal(size=s)
        B = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        fast = partition_vertex_model(g, a, B)
        slow = oracles.brute_vertex_partition(g, a, B)
        assert cmath.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), trial


def test_vertex_model_hand_case():
    # single edge, two states: sum_{i,j} a_i a_j B_ij
    import numpy as np
    g = Multigraph(2, ((0, 1),))
    a = np.array([1.0, 2.0])
    B = np.array([[1.0, 3.0], [3.0, -1.0]])
    assert partition_vertex_model(g, a, B) == pytest.approx(1 + 6 + 6 - 4)


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
    # check the polynomial at a point that was never an interpolation node
    g = C4
    h = perturbed_ones(2, 0.5, seed=8, max_degree=2)
    q = exact_poly_by_interpolation(g, h)
    z = 0.37 - 0.21j
    blended = EdgeColoringModel(
        2,
        {al: 1.0 + z * (h.value(al) - 1.0) for al in
         [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]},
        default=1.0 + z * (h.default - 1.0))
    assert cmath.isclose(q(z), exact_partition(g, blended),
                         rel_tol=1e-8, abs_tol=1e-9)


def test_complex_poly_basics():
    p = ComplexPoly((1.0, 0j, 2.0, 0j, 0j))
    assert p.degree == 2
    assert p.coeffs == (1.0, 0j, 2.0)
    assert p(2.0) == 9.0
    z = ComplexPoly((0j,))
    assert z.is_zero() and z.degree == 0
    trimmed = ComplexPoly.from_coefficients([1.0, 1e-18, 1e-18], rel_tol=1e-12)
    assert trimmed.degree == 0


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


def test_poly_roots_wide_magnitude_spread():
    poly = ComplexPoly((1.0,))
    spread = [1e-3, 1.0, 1e3]
    p = list(poly.coeffs)
    for r in spread:
        p = _mul_linear(p, r)
    roots = poly_roots(ComplexPoly(tuple(p)))
    for r in spread:
        assert min(abs(z - r) / max(abs(r), 1e-12) for z in roots) < 1e-6
