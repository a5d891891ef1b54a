import math
import random

import numpy as np
import pytest

import oracles
from holant import (GraphFamilySpec, Multigraph, OutsideRegionError, all_ones, approx_partition,
                    convergence_run, cycle_transfer_pf, exact_partition,
                    generate, log_potential_check, model_from_predicate,
                    normalized_pf, perturbed_ones, transfer_log_growth)
from holant.limits import cycle_transfer_matrix


def cycle(n):
    return generate(GraphFamilySpec("cycle", n))


def test_transfer_matrix_matching_model():
    h = model_from_predicate("matching")
    T = cycle_transfer_matrix(h)
    assert T.shape == (2, 2)
    # color 0 puts an edge in the matching: two adjacent picked edges clash
    assert T[0, 0] == 0.0
    assert T[0, 1] == T[1, 0] == T[1, 1] == 1.0
    assert cycle_transfer_pf(h, 3) == pytest.approx(4.0)


def test_transfer_matches_exact_on_cycles():
    rng = random.Random(21)
    for trial in range(10):
        n = rng.randint(3, 8)
        k = rng.choice([2, 3])
        h = perturbed_ones(k, 0.7, seed=trial, max_degree=2)
        fast = cycle_transfer_pf(h, n)
        slow = exact_partition(cycle(n), h)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow)), trial


def test_transfer_log_growth_dominant_eigenvalue():
    h = model_from_predicate("matching")
    # transfer matrix [[0,1],[1,1]] has golden-ratio growth
    assert transfer_log_growth(h) == pytest.approx(math.log((1 + 5 ** 0.5) / 2))
    long_cycle = 200
    per_vertex = math.log(abs(cycle_transfer_pf(h, long_cycle))) / long_cycle
    assert abs(per_vertex - transfer_log_growth(h)) < 0.05


def test_normalized_pf_exact_engine():
    h = all_ones(3)
    g = cycle(5)
    assert normalized_pf(g, h) == pytest.approx(math.log(3.0))
    c4 = cycle(4)
    m = model_from_predicate("matching")
    assert normalized_pf(c4, m) == pytest.approx(math.log(7.0) / 4.0)


def test_normalized_pf_additive_under_disjoint_union():
    h = perturbed_ones(2, 0.3, seed=5, max_degree=2)
    g = cycle(4)
    doubled = oracles.disjoint_union(g, g)
    assert normalized_pf(doubled, h) == pytest.approx(normalized_pf(g, h))


def test_normalized_pf_zero_raises():
    # matching model on a single loop: alpha=(2,0) and (0,2) both weigh 0,
    # and (1,1) cannot arise, so the sum vanishes... use a crafted zero model
    from holant import EdgeColoringModel
    g = Multigraph(1, ((0, 0),))
    h = EdgeColoringModel(2, {(2, 0): 1.0, (0, 2): -1.0}, default=0j)
    with pytest.raises(OutsideRegionError):
        normalized_pf(g, h)


def test_normalized_pf_approx_engine_close_to_exact():
    g = generate(GraphFamilySpec("torus", 3, size2=3))
    h = perturbed_ones(2, 0.02, seed=7, max_degree=4)
    a = normalized_pf(g, h)
    b = approx_partition(g, h, 1e-3).log_value.real / g.n
    # the eps guarantee is on the whole log, so per-vertex error is eps/|V|
    assert abs(a - b) < 1e-3 + 1e-9


def test_convergence_run_cycles_all_ones():
    specs = [GraphFamilySpec("cycle", n) for n in (4, 6, 8, 10)]
    rep = convergence_run(specs, all_ones(2), tol=1e-6)
    assert rep.family == "cycle"
    assert rep.sizes == (4, 6, 8, 10)
    # per-vertex value is exactly ln 2 at every size
    for val in rep.values:
        assert val == pytest.approx(math.log(2.0))
    assert all(abs(d) < 1e-12 for d in rep.diffs)
    assert rep.cauchy
    assert all(e == "transfer" for e in rep.engine_per_size)


def test_convergence_run_cycles_match_transfer_growth():
    h = perturbed_ones(2, 0.1, seed=11, max_degree=2)
    specs = [GraphFamilySpec("cycle", n) for n in (6, 10, 14, 18)]
    rep = convergence_run(specs, h, tol=1e-2)
    target = transfer_log_growth(h)
    assert abs(rep.values[-1] - target) < 1e-2
    assert rep.cauchy


def test_convergence_run_tori():
    h = perturbed_ones(2, 0.01, seed=13, max_degree=4)
    specs = [GraphFamilySpec("torus", a, size2=a) for a in (3, 4)]
    rep = convergence_run(specs, h, eps=1e-3, tol=0.05)
    assert rep.family == "torus"
    assert all(v is not None for v in rep.values)
    assert rep.engine_per_size[-1].startswith("approx")
    d = rep.to_json_dict()
    assert set(d) == {"family", "sizes", "values", "diffs", "cauchy",
                      "engine_per_size"}
    text = rep.table()
    assert "size" in text and "cauchy" in text


def test_convergence_run_records_region_failures():
    # deviation far outside the certified disk: approx must refuse, and the
    # run should record the refusal rather than crash
    h = perturbed_ones(2, 0.8, seed=17, max_degree=4)
    specs = [GraphFamilySpec("torus", a, size2=a) for a in (3, 4)]
    rep = convergence_run(specs, h, eps=1e-3, tol=0.05)
    assert any(v is None for v in rep.values)
    assert any(e.startswith("error") for e in rep.engine_per_size)
    assert not rep.cauchy


def test_convergence_run_input_validation():
    with pytest.raises(ValueError):
        convergence_run([], all_ones(2))
    mixed = [GraphFamilySpec("cycle", 4), GraphFamilySpec("path", 6)]
    with pytest.raises(ValueError):
        convergence_run(mixed, all_ones(2))
    non_increasing = [GraphFamilySpec("cycle", 6), GraphFamilySpec("cycle", 4)]
    with pytest.raises(ValueError):
        convergence_run(non_increasing, all_ones(2))


def test_log_potential_all_ones():
    # with h = 1 the blend is constant in z, q has no roots, both sides are 0
    g = cycle(4)
    lhs, rhs, gap = log_potential_check(g, all_ones(2))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_log_potential_matching_triangle():
    g = cycle(3)
    h = model_from_predicate("matching")
    lhs, rhs, gap = log_potential_check(g, h)
    assert gap < 1e-7
    assert lhs == pytest.approx(rhs, abs=1e-7)
    # right side is ln(4)/3 - ln 2 for the triangle matching count
    assert rhs == pytest.approx(math.log(4.0) / 3.0 - math.log(2.0), abs=1e-9)


def test_log_potential_random_in_region():
    rng = random.Random(29)
    for trial in range(8):
        g = oracles.random_graph_bounded(rng, max_n=7, max_m=10)
        k = rng.choice([2, 3])
        h = perturbed_ones(k, 0.05, seed=trial, max_degree=max(1, g.max_degree()))
        lhs, rhs, gap = log_potential_check(g, h)
        assert gap < 1e-7, (trial, gap)


def test_log_potential_rejects_vanishing_point():
    from holant import EdgeColoringModel
    g = Multigraph(1, ((0, 0),))
    h = EdgeColoringModel(2, {(2, 0): 1.0, (0, 2): -1.0}, default=0j)
    with pytest.raises(OutsideRegionError):
        log_potential_check(g, h)
