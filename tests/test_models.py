import cmath
import itertools
import math
import random

import numpy as np
import pytest

import oracles
from holant import (DecompositionError, EdgeColoringModel, Multigraph,
                    OutsideRegionError, RegionParams, TensorAssignment,
                    VertexModel, all_ones, apply_orthogonal, exact_partition,
                    load_model, model_from_predicate, perturbed_ones,
                    random_orthogonal, rank_one_model, save_model,
                    symmetric_decompose, values_in_region, vertex_to_edge)
from holant.models import (assignment_in_region, compositions,
                           model_from_json_dict, model_to_json_dict,
                           vectors_up_to)


def test_value_and_default():
    h = EdgeColoringModel(2, {(0, 0): 3.0, (1, 2): 2j}, default=5.0)
    assert h.value((0, 0)) == 3.0
    assert h.value((1, 2)) == 2j
    assert h.value((4, 4)) == 5.0


def test_perturbed_ones_matches_the_scalar_draws():
    # one vector draw gives the values of two scalar draws per vector, bit for bit
    for k in (1, 2, 3):
        for max_degree in (0, 1, 5, 12):
            for seed in (0, 1, 99):
                h = perturbed_ones(k, 0.3, seed=seed, max_degree=max_degree)
                want = oracles.perturbed_ones_entries(k, 0.3, seed, max_degree)
                assert repr(list(h.entries.items())) == repr(list(want.items()))
                assert h.max_norm == max_degree


def test_value_rejects_wrong_arity_and_negatives():
    h = all_ones(2)
    with pytest.raises(ValueError):
        h.value((1, 2, 3))
    with pytest.raises(ValueError):
        h.value((-1, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_non_finite_weights_are_refused(bad):
    with pytest.raises(ValueError):
        EdgeColoringModel(2, {(1, 1): bad}, default=1.0)
    with pytest.raises(ValueError):
        EdgeColoringModel(2, {(1, 1): 2.0}, default=bad)


def test_deviation_reads_entries_and_default():
    h = EdgeColoringModel(2, {(0, 0): 1.25, (1, 0): 1.0 - 0.5j}, default=1.0)
    assert h.deviation(1) == pytest.approx(0.5)
    # default participates once norms beyond the listed entries are probed
    g = EdgeColoringModel(2, {(0, 0): 1.0}, default=1.0 + 0.3j)
    assert g.deviation(2) == pytest.approx(0.3)


def test_all_ones_deviation_zero():
    h = all_ones(3)
    assert h.deviation(9) == 0.0
    assert h.value((4, 0, 2)) == 1.0


def test_compositions_and_vectors_up_to():
    comps = list(compositions(3, 2))
    assert comps == [(0, 3), (1, 2), (2, 1), (3, 0)]
    vecs = list(vectors_up_to(2, 2))
    assert set(vecs) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}
    assert len(vecs) == len(set(vecs))


def test_region_params_validation():
    theta = 1.5
    eta = 0.9
    cap = eta * theta * math.cos(theta / 2.0)
    RegionParams(delta=0.1, eta=eta, theta=theta, beta=cap)
    with pytest.raises(ValueError):
        RegionParams(delta=0.1, eta=eta, theta=theta, beta=cap * 1.01)
    with pytest.raises(ValueError):
        RegionParams(delta=0.1, eta=eta, theta=2.2, beta=0.1)
    with pytest.raises(ValueError):
        RegionParams(delta=-0.1, eta=eta, theta=theta, beta=cap)


def test_region_params_from_theorem():
    p = RegionParams.from_theorem(eta=0.9, theta=1.5, max_degree=4)
    assert p.beta == pytest.approx(0.9 * 1.5 * math.cos(0.75))
    assert p.delta == pytest.approx(min(0.9, p.beta / 5.0))
    p.validate_for_degree(4)
    with pytest.raises(ValueError):
        p.validate_for_degree(9)


def test_region_params_refuse_a_negative_degree():
    # delta is capped by beta / (Delta + 1), which Delta = -1 divides by zero
    with pytest.raises(ValueError, match="max degree must be nonnegative, not -1"):
        RegionParams.from_theorem(eta=0.9, theta=1.5, max_degree=-1)
    p = RegionParams.from_theorem(eta=0.9, theta=1.5, max_degree=0)
    with pytest.raises(ValueError, match="max degree must be nonnegative, not -2"):
        p.validate_for_degree(-2)


def test_values_in_region():
    assert values_in_region([1.0, 1.05, 0.98 + 0.01j], delta=0.2, eta=0.5)
    # pairwise spread too wide
    assert not values_in_region([1.0, 1.3], delta=0.2, eta=0.5)
    # modulus drops below eta
    assert not values_in_region([1.0, 0.4], delta=2.0, eta=0.5)


def test_perturbed_ones_stays_within_radius():
    for seed in range(5):
        h = perturbed_ones(3, 0.05, seed=seed, max_degree=6)
        assert h.deviation(6) <= 0.05 + 1e-12
        assert h.value((0, 0, 0)) != 1.0 or seed is None


def test_perturbed_ones_deterministic_by_seed():
    a = perturbed_ones(2, 0.1, seed=42, max_degree=4)
    b = perturbed_ones(2, 0.1, seed=42, max_degree=4)
    assert all(a.value(al) == b.value(al) for al in vectors_up_to(4, 2))


def test_model_json_round_trip(tmp_path):
    h = EdgeColoringModel(2, {(0, 1): 1.5 - 2j, (2, 0): 0.25}, default=1j,
                          name="sample")
    obj = model_to_json_dict(h)
    back = model_from_json_dict(obj)
    assert back.k == h.k and back.default == h.default
    assert all(back.value(al) == h.value(al) for al in vectors_up_to(3, 2))
    path = tmp_path / "m.json"
    save_model(h, path)
    loaded = load_model(path)
    assert loaded.value((0, 1)) == 1.5 - 2j
    assert loaded.default == 1j


def test_predicate_models():
    h = model_from_predicate("matching")
    assert h.value((0, 3)) == 1.0
    assert h.value((1, 2)) == 1.0
    assert h.value((2, 1)) == 0.0
    r = model_from_predicate("dregular:2")
    assert r.value((2, 3)) == 1.0
    assert r.value((1, 4)) == 0.0
    with pytest.raises(ValueError):
        model_from_predicate("nonesuch")


def test_closed_forms_answer_at_any_norm():
    assert rank_one_model([2, 3]).value((13, 0)) == 8192
    assert cmath.isclose(rank_one_model([2, 3]).value((2, 40)), 4 * 3 ** 40, rel_tol=1e-12)
    assert model_from_predicate("matching").value((1, 90)) == 1.0
    assert model_from_predicate("dregular:20").value((20, 3)) == 1.0
    assert rank_one_model([2, 3]).max_norm is None


def test_closed_form_weights_must_be_finite():
    h = rank_one_model([1e200, 1.0])
    assert h.value((1, 5)) == 1e200
    with pytest.raises(ValueError, match="not finite"):
        h.value((2, 0))
    with pytest.raises(ValueError, match="not finite"):
        h.value((200, 0))  # the complex power overflows instead


def test_tables_refuse_past_their_coverage():
    h = perturbed_ones(2, 0.1, seed=1, max_degree=3)
    assert h.max_norm == 3
    assert abs(h.value((0, 3)) - 1.0) <= 0.1
    with pytest.raises(OutsideRegionError, match="up to norm 3"):
        h.value((2, 2))
    with pytest.raises(OutsideRegionError):
        h.deviation(4)
    bounded = EdgeColoringModel(2, {}, 1.0, "flat", 2)
    assert bounded.value((1, 1)) == 1.0
    with pytest.raises(OutsideRegionError, match="model flat covers"):
        bounded.value((3, 0))


def test_model_constructor_checks_coverage_and_rule():
    with pytest.raises(ValueError):
        EdgeColoringModel(2, {}, max_norm=-1)
    with pytest.raises(ValueError, match="no entries"):
        EdgeColoringModel(2, {(0, 1): 1.0}, rule=lambda alpha: 1.0)
    with pytest.raises(ValueError, match="past max_norm=2"):
        EdgeColoringModel(2, {(2, 1): 1.0}, max_norm=2)
    for bad in (2.5, "2"):
        with pytest.raises(ValueError, match="malformed"):
            model_from_json_dict({"k": 2, "default": {"re": 1, "im": 0}, "entries": [],
                                  "max_norm": bad})


def test_model_constructor_names_the_first_bad_vector():
    # the vectors are scanned all at once, but a refusal names the first
    # bad entry in entry order, as a check per entry would
    good = {(0, 1): 1.0, (1, 1): 2.0}
    cases = [({(3, 0): 1.0, (1, -1): 1.0}, r"entry \(3, 0\) lies past max_norm=2"),
             ({(1, -1): 1.0, (3, 0): 1.0}, r"bad count vector \(1, -1\) for k=2"),
             ({(1, 0, 0): 1.0, (3, 0): 1.0}, r"bad count vector \(1, 0, 0\) for k=2"),
             ({(0,): 1.0}, r"bad count vector \(0,\) for k=2")]
    for entries, message in cases:
        with pytest.raises(ValueError, match=message):
            EdgeColoringModel(2, {**good, **entries}, max_norm=2)
    # keys are read as ints, and every entry is kept
    h = EdgeColoringModel(2, {(1.0, np.int64(1)): 2, (0, 0): 1.5j}, max_norm=2)
    assert h.entries == {(1, 1): 2 + 0j, (0, 0): 1.5j}
    assert all(type(a) is int for alpha in h.entries for a in alpha)
    assert EdgeColoringModel(2, {}).entries == {}


def test_model_json_keeps_coverage_and_refuses_closed_forms(tmp_path):
    h = perturbed_ones(2, 0.1, seed=3, max_degree=2)
    path = tmp_path / "m.json"
    save_model(h, path)
    loaded = load_model(path)
    assert loaded.max_norm == 2
    assert all(loaded.value(al) == h.value(al) for al in vectors_up_to(2, 2))
    with pytest.raises(OutsideRegionError):
        loaded.value((3, 0))
    assert "max_norm" not in model_to_json_dict(all_ones(2))
    with pytest.raises(ValueError, match="closed form"):
        model_to_json_dict(model_from_predicate("matching"))


def test_symmetric_decompose_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = A + A.T
        U = symmetric_decompose(B)
        assert np.max(np.abs(U.T @ U - B)) < 1e-9 * max(1.0, np.max(np.abs(B)))


def test_symmetric_decompose_zero_diagonal():
    # forces the 2x2 block path: no diagonal pivot exists at the start
    B = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    U = symmetric_decompose(B)
    assert np.max(np.abs(U.T @ U - B)) < 1e-10
    C = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 3]], dtype=complex)
    U = symmetric_decompose(C)
    assert np.max(np.abs(U.T @ U - C)) < 1e-10


def test_symmetric_decompose_rejects_bad_input():
    with pytest.raises(DecompositionError):
        symmetric_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DecompositionError):
        symmetric_decompose(np.ones((2, 3)))


def test_symmetric_decompose_small_entry_sweep():
    # every symmetric 2x2 matrix and 500 seeded 3x3 ones over {0, +-1, +-i, 2}:
    # each factors with one row per unit of rank (one row for the zero
    # matrix), the 2x2 block pivot included
    entries = [0, 1, -1, 1j, -1j, 2]
    rng = random.Random(24)
    upper = list(itertools.product(entries, repeat=3))
    upper += [tuple(rng.choice(entries) for _ in range(6)) for _ in range(500)]
    for values in upper:
        n = 2 if len(values) == 3 else 3
        B = np.zeros((n, n), dtype=complex)
        B[np.triu_indices(n)] = values
        B = B + np.triu(B, 1).T
        U = symmetric_decompose(B)
        assert U.shape == (max(np.linalg.matrix_rank(B), 1), n), B
        assert np.max(np.abs(U.T @ U - B)) <= 1e-14, B


def test_infinite_vertex_weights_are_refused():
    big = 1.7e308 + 1.7e308j  # finite, but its modulus is not
    for a, B in (([1, 1], [[1, math.inf], [math.inf, 0]]),
                 ([1, math.nan], [[1, 1], [1, 0]]),
                 ([1, 1], [[1, big], [big, 0]])):
        with pytest.raises(ValueError, match="finite"):
            VertexModel(a, B)
    # a modulus past the float range would make the zero cutoff infinite,
    # and every residual pass
    for B in ([[math.inf]], [[1, math.nan], [math.nan, 1]], [[big]]):
        with pytest.raises(DecompositionError, match="finite"):
            symmetric_decompose(B)
    vm = VertexModel([1, 1], [[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="finite"):
        vertex_to_edge(vm, [[1, math.inf], [0, 1]])


def test_random_orthogonal_is_orthogonal():
    for seed in range(6):
        k = 2 + seed % 3
        Q = random_orthogonal(k, seed=seed)
        assert np.max(np.abs(Q.T @ Q - np.eye(k))) < 1e-10


def test_vertex_to_edge_matches_vertex_partition():
    rng = np.random.default_rng(11)
    pyrng = random.Random(5)
    for trial in range(8):
        g = oracles.random_graph_bounded(pyrng, max_n=5, max_m=7)
        n_states = int(rng.integers(1, 4))
        a = rng.normal(size=n_states) + 1j * rng.normal(size=n_states)
        A = rng.normal(size=(n_states, n_states)) + 1j * rng.normal(size=(n_states, n_states))
        B = A + A.T
        vm = VertexModel(a, B)
        direct = oracles.brute_vertex_partition(g, vm.a, vm.B)
        h = vertex_to_edge(vm)
        via_edges = exact_partition(g, h)
        scale = max(1.0, abs(direct))
        assert abs(direct - via_edges) < 1e-8 * scale, trial


def test_vertex_to_edge_rejects_wrong_factor():
    vm = VertexModel(np.array([1.0, 1.0]), np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        vertex_to_edge(vm, U=np.eye(3))


def test_apply_orthogonal_preserves_partition():
    pyrng = random.Random(17)
    rng = np.random.default_rng(17)
    for trial in range(8):
        g = oracles.random_graph_bounded(pyrng, max_n=5, max_m=8)
        k = int(rng.integers(2, 4))
        h = perturbed_ones(k, 0.5, seed=trial, max_degree=max(1, g.max_degree()))
        Q = random_orthogonal(k, seed=trial + 100)
        hq = apply_orthogonal(Q, h, max_degree=max(1, g.max_degree()))
        before = exact_partition(g, h)
        after = exact_partition(g, hq)
        assert abs(before - after) < 1e-8 * max(1.0, abs(before)), trial


def test_apply_orthogonal_keeps_or_sets_the_coverage():
    Q = random_orthogonal(2, seed=5)
    h = perturbed_ones(2, 0.2, seed=5, max_degree=3)
    assert apply_orthogonal(Q, h).max_norm == 3
    assert apply_orthogonal(Q, h, max_degree=2).max_norm == 2
    assert apply_orthogonal(Q, model_from_predicate("matching")).max_norm is None
    with pytest.raises(OutsideRegionError):
        apply_orthogonal(Q, h).value((4, 0))


def test_apply_orthogonal_on_rank_one_moves_the_point():
    rng = np.random.default_rng(23)
    k = 3
    x = rng.normal(size=k) + 1j * rng.normal(size=k)
    Q = random_orthogonal(k, seed=9)
    lhs = apply_orthogonal(Q, rank_one_model(x), max_degree=4)
    rhs = rank_one_model(Q @ x)
    for alpha in vectors_up_to(4, k):
        assert cmath.isclose(lhs.value(alpha), rhs.value(alpha),
                             rel_tol=1e-9, abs_tol=1e-9)


def test_apply_orthogonal_tensor_assignment():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    h = perturbed_ones(2, 0.3, seed=2, max_degree=2)
    t = TensorAssignment.from_model(g, h)
    Q = random_orthogonal(2, seed=4)
    tq = apply_orthogonal(Q, t)
    from holant.exact import contract_network
    before = contract_network(g, t)
    after = contract_network(g, tq)
    assert abs(before - after) < 1e-9 * max(1.0, abs(before))


def test_assignment_in_region():
    g = Multigraph(2, ((0, 1),))
    params = RegionParams.from_theorem(eta=0.9, theta=1.5, max_degree=2)
    near = TensorAssignment.from_model(g, all_ones(2))
    assert assignment_in_region(near, params)
    # constant nonzero values sit inside the region regardless of magnitude:
    # only pairwise spread and the eta floor matter
    assert assignment_in_region(
        TensorAssignment.from_model(g, EdgeColoringModel(2, {}, default=3.0)),
        params)
    spread = TensorAssignment.from_model(
        g, EdgeColoringModel(2, {(0, 1): 1.0 + 2.0 * params.delta}, default=1.0))
    assert not assignment_in_region(spread, params)
    tiny = TensorAssignment.from_model(
        g, EdgeColoringModel(2, {}, default=params.eta / 2.0))
    assert not assignment_in_region(tiny, params)
