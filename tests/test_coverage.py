"""Models answer at every norm they cover and refuse the norms they do not.

Every graph here has one vertex of degree 13 or 14, loops and parallel
edges, so each closed-form model is evaluated past any fixed table size,
and every engine is checked against an independent one.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from holant import (GraphFamilySpec, Multigraph, OutsideRegionError,
                    TensorAssignment, VertexModel, apply_orthogonal,
                    approx_partition, certified_radius, cycle_transfer_pf,
                    exact_partition, generate, model_from_predicate,
                    perturbed_ones, q_derivative, random_orthogonal,
                    rank_one_model, vertex_to_edge)

KINDS = ("matching", "dregular", "rank-one", "vertex", "perturbed")


@st.composite
def hub_multigraphs(draw):
    """Vertex 0 of degree 13 or 14 (five or more loops), the rest of degree <= 10."""
    n = draw(st.integers(2, 5))
    degree = draw(st.integers(13, 14))
    loops = draw(st.integers(5, degree // 2))
    other = st.integers(1, n - 1)
    spokes = draw(st.lists(other, min_size=degree - 2 * loops, max_size=degree - 2 * loops))
    rest = draw(st.lists(st.tuples(other, other), max_size=3))
    return Multigraph(n, tuple([(0, 0)] * loops + [(0, v) for v in spokes] + rest))


def definition(weight):
    """Brute-force partition sums of a weight function, no model involved."""
    return lambda g: oracles.brute_partition(g, SimpleNamespace(k=2, value=weight))


def build_model(kind, seed, degree):
    """A model and an oracle for its partition sums that never reads the model."""
    rng = np.random.default_rng(seed)
    if kind == "matching":
        return model_from_predicate("matching"), oracles.count_matchings
    if kind == "dregular":
        d = seed % 4
        return model_from_predicate(f"dregular:{d}"), definition(lambda a: float(a[0] == d))
    if kind == "rank-one":
        x = 1.0 + 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        return rank_one_model(x), definition(lambda a: x[0] ** a[0] * x[1] ** a[1])
    if kind == "vertex":
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        vm = VertexModel(rng.normal(size=2) + 0j, A + A.T)
        return vertex_to_edge(vm), lambda g: oracles.brute_vertex_partition(g, vm.a, vm.B)
    h = perturbed_ones(2, 0.01, seed=seed, max_degree=degree)
    return h, definition(h.entries.__getitem__)


def close(a, b, rel=1e-8):
    return abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(g=hub_multigraphs(), seed=st.integers(0, 10 ** 6))
def test_engines_agree_past_degree_twelve(kind, g, seed):
    delta = g.max_degree()
    h, reference = build_model(kind, seed, delta)
    value = exact_partition(g, h)
    assert close(value, reference(g))

    ring = generate(GraphFamilySpec("cycle", 3 + seed % 6))
    assert close(cycle_transfer_pf(h, ring.n), reference(ring))

    moved = apply_orthogonal(random_orthogonal(2, seed=seed), h)
    assert moved.max_norm == h.max_norm
    assert close(exact_partition(g, moved), value, rel=1e-6)

    r = h.deviation(delta)
    if r == 0 or certified_radius(delta + 1) / (2.0 * (delta + 1) * r) > 1.0:
        cert = approx_partition(g, h, 1e-3)
        assert abs(math.log(abs(cert.value / value))) <= cert.error_bound + 1e-12
    else:
        with pytest.raises(OutsideRegionError):
            approx_partition(g, h, 1e-3)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(g=hub_multigraphs(), cover=st.integers(0, 12), seed=st.integers(0, 10 ** 6))
def test_engines_refuse_a_table_past_its_coverage(g, cover, seed):
    h = perturbed_ones(2, 0.01, seed=seed, max_degree=cover)
    for engine in (lambda: exact_partition(g, h), lambda: approx_partition(g, h, 1e-3),
                   lambda: q_derivative(g, h, 1), lambda: TensorAssignment.from_model(g, h)):
        with pytest.raises(OutsideRegionError, match=f"up to norm {cover},"):
            engine()
