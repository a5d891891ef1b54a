import cmath
import math
import random

import pytest

import holant.exptype as exptype
import oracles
from holant import (ExpTypeSpec, Multigraph, OutsideRegionError, chi_tutte,
                    chi_k_coefficients, chromatic_spec, estimate_root_radius,
                    eval_exp_type, exp_type_poly, induced_subgraph, poly_roots,
                    qhat_derivative, tutte_direct, tutte_spec)
from holant.exptype import (EXP_ROOT_SCALE, qhat_coefficient_by_support,
                            random_cluster_profile, tutte_from_profile)

K1 = Multigraph(1, ())
K2 = Multigraph(2, ((0, 1),))
TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_chi_tutte_hand_cases():
    v = 1.7 - 0.3j
    assert chi_tutte(K1, v) == 1.0
    assert chi_tutte(K2, v) == pytest.approx(v)
    # triangle: three spanning trees plus the full edge set
    assert chi_tutte(TRIANGLE, v) == pytest.approx(3 * v ** 2 + v ** 3)
    # disconnected graphs have no connected spanning subgraph
    assert chi_tutte(Multigraph(2, ()), v) == 0.0


def test_chi_tutte_matches_brute():
    rng = random.Random(31)
    for trial in range(10):
        g = oracles.random_multigraph(rng, max_n=5, max_m=7)
        v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        fast = chi_tutte(g, v)
        slow = oracles.brute_connected_spanning(g, v)
        assert cmath.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), trial


def test_spec_probes_single_vertex_normalization():
    with pytest.raises(ValueError):
        ExpTypeSpec(chi=lambda g: 2.0, name="bad")
    ok = ExpTypeSpec(chi=lambda g: 1.0, name="const-one")
    assert ok.effective_radius() is None


def test_spec_radius_resolution():
    s = ExpTypeSpec(chi=lambda g: 1.0, name="x", root_radius=3.0)
    assert s.effective_radius() == 3.0
    r = ExpTypeSpec(chi=lambda g: 1.0, name="y", R_delta=2.0)
    assert r.effective_radius() == pytest.approx(EXP_ROOT_SCALE * 2.0)
    # explicit radius wins over the scaled fallback
    both = ExpTypeSpec(chi=lambda g: 1.0, name="z", root_radius=1.0, R_delta=2.0)
    assert both.effective_radius() == 1.0
    tagged = s.with_root_radius(9.0, heuristic=True)
    assert tagged.effective_radius() == 9.0
    assert tagged.root_radius_heuristic


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


def test_qhat_derivative_support_path_agrees():
    rng = random.Random(71)
    for trial in range(6):
        g = oracles.random_graph_bounded(rng, max_n=7, max_m=10)
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        spec = tutte_spec(v)
        for m in range(0, min(3, g.n) + 1):
            a = qhat_derivative(g, spec, m)
            b = qhat_coefficient_by_support(g, spec, m) * math.factorial(m)
            assert cmath.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (trial, m)


def test_eval_exp_type_matches_direct():
    spec = tutte_spec(1.0, root_radius=2.0)
    g = TRIANGLE
    x = 10.0 + 0j
    cert = eval_exp_type(g, spec, x, eps=1e-4)
    expected = tutte_direct(g, x, 1.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12
    assert cert.mode == "exp-mult"
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


def test_eval_exp_type_support_path_evaluates_each_block_once(monkeypatch):
    blocks = []

    def counted(g, key):
        blocks.append(frozenset(key))
        return induced_subgraph(g, key)

    g = oracles.random_graph_bounded(random.Random(5), max_n=7, max_m=10)
    spec = tutte_spec(1.0)
    radius = 1.01 * max(abs(r) for r in poly_roots(exp_type_poly(g, spec)))
    x = 4.0 * radius
    monkeypatch.setattr(exptype, "_SMALL_DP_LIMIT", 0)
    monkeypatch.setattr(exptype, "induced_subgraph", counted)
    cert = eval_exp_type(g, spec.with_root_radius(radius, heuristic=False), x, eps=1e-6)
    assert cert.order >= 3
    assert blocks and len(blocks) == len(set(blocks))
    expected = tutte_direct(g, x, 1.0)
    assert abs(cmath.log(cert.value / expected)) <= cert.error_bound + 1e-12


def test_eval_exp_type_k2_hand_case():
    # chi_1 = v, chi_2 = 1 so the polynomial is q^2 + v q; at v=1, x=10: 110
    spec = tutte_spec(1.0, root_radius=1.5)
    cert = eval_exp_type(K2, spec, 10.0, eps=1e-6)
    assert cmath.isclose(cert.value, 110.0, rel_tol=1e-5)


def test_eval_exp_type_add_mode_and_flags():
    spec = tutte_spec(1.0, root_radius=2.0, heuristic=True)
    cert = eval_exp_type(TRIANGLE, spec, 9.0, eps=1e-3, mode="add")
    assert cert.mode == "exp-add"
    assert cert.heuristic
    assert cmath.isclose(cmath.exp(cert.log_value), cert.value, rel_tol=1e-9)
    with pytest.raises(ValueError):
        eval_exp_type(TRIANGLE, spec, 9.0, eps=1e-3, mode="fancy")
    with pytest.raises(ValueError):
        eval_exp_type(TRIANGLE, spec, 9.0, eps=-1.0)


def test_eval_exp_type_region_and_radius_errors():
    spec = tutte_spec(1.0, root_radius=2.0)
    with pytest.raises(OutsideRegionError):
        eval_exp_type(TRIANGLE, spec, 1.5, eps=1e-3)
    bare = tutte_spec(1.0)
    with pytest.raises(ValueError, match="estimate_root_radius"):
        eval_exp_type(TRIANGLE, bare, 10.0, eps=1e-3)


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
