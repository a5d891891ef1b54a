import random

import pytest

import oracles
from holant import (GraphFamilySpec, GraphFormatError, Multigraph,
                    component_count, connected_subsets, count_induced,
                    disjoint_union, edges_touching, generate,
                    incident_multiset, induced_subgraph, is_connected,
                    isomorphic, parse_edge_list, read_edge_list,
                    write_edge_list)


def test_degrees_count_loops_twice():
    g = Multigraph(3, ((0, 0), (0, 1), (1, 2), (1, 2)))
    assert g.degree(0) == 3
    assert g.degree(1) == 3
    assert g.degree(2) == 2
    assert g.max_degree() == 3
    assert sum(g.degrees()) == 2 * g.m


def test_edges_normalized_and_frozen():
    g = Multigraph(4, ((3, 1), (2, 0)))
    assert g.edges == ((1, 3), (0, 2))
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 5),))


def test_incident_multiset_matches_definition():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 0)))
    coloring = {0: 1, 1: 0, 2: 1}
    assert incident_multiset(g, 0, coloring, 2) == (0, 3)
    assert incident_multiset(g, 1, coloring, 2) == (1, 1)
    assert incident_multiset(g, 2, coloring, 2) == (1, 0)


def test_edges_touching():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert edges_touching(g, [0]) == (0,)
    assert edges_touching(g, [1, 2]) == (0, 1, 2)
    assert edges_touching(g, []) == ()


def test_induced_subgraph_keeps_multiplicity():
    g = Multigraph(4, ((0, 1), (0, 1), (1, 1), (2, 3), (1, 2)))
    sub = induced_subgraph(g, [0, 1])
    assert sub.n == 2
    assert sorted(sub.edges) == [(0, 1), (0, 1), (1, 1)]
    # relabeling is by sorted original ids
    sub2 = induced_subgraph(g, [3, 1])
    assert sub2.n == 2
    assert sub2.edges == ((0, 0),)


def test_component_count_and_connectivity():
    assert component_count(5, [(0, 1), (2, 3)]) == 3
    assert is_connected(Multigraph(3, ((0, 1), (1, 2))))
    assert not is_connected(Multigraph(3, ((0, 1),)))
    assert is_connected(Multigraph(1, ()))


def test_disjoint_union():
    a = Multigraph(2, ((0, 1),))
    b = Multigraph(3, ((0, 2),))
    u = disjoint_union(a, b)
    assert u.n == 5
    assert set(u.edges) == {(0, 1), (2, 4)}


def test_isomorphic_basic():
    c4 = generate(GraphFamilySpec("cycle", 4))
    relabeled = Multigraph(4, ((2, 3), (0, 3), (0, 1), (1, 2)))
    assert isomorphic(c4, relabeled)
    path = generate(GraphFamilySpec("path", 4))
    assert not isomorphic(c4, path)


def test_count_induced_paths_in_cycle():
    c5 = generate(GraphFamilySpec("cycle", 5))
    p3 = generate(GraphFamilySpec("path", 3))
    assert count_induced(c5, p3) == 5


def test_connected_subsets_against_brute_force():
    rng = random.Random(7)
    for trial in range(12):
        n = rng.randint(2, 9)
        g = oracles.random_simple_graph(n, rng.uniform(0.15, 0.7), rng)
        for max_size in (1, 2, n):
            fast = {tuple(sorted(s)) for s in connected_subsets(g, max_size)}
            slow = oracles.brute_connected_subsets(g, max_size)
            assert fast == slow, (trial, n, max_size)


def test_connected_subsets_below_size_one_yield_nothing():
    path = generate(GraphFamilySpec("path", 5))
    assert len(list(connected_subsets(path, 5))) == 15
    for max_size in (0, -1):
        assert list(connected_subsets(path, max_size)) == []


def test_connected_subsets_no_duplicates_on_multigraph():
    g = Multigraph(4, ((0, 1), (0, 1), (1, 1), (1, 2), (2, 3)))
    subs = list(connected_subsets(g, 4))
    assert len(subs) == len({tuple(sorted(s)) for s in subs})
    assert {tuple(sorted(s)) for s in connected_subsets(g, 4)} == \
        oracles.brute_connected_subsets(g, 4)


def test_connected_subsets_grow_from_the_last_smaller_set():
    # the cluster engine keeps per-depth state for prefixes: a set of size
    # s > 1 is the last set of size s - 1 plus one vertex adjacent to it
    rng = random.Random(19)
    checked = 0
    while checked < 30:
        g = oracles.random_multigraph(rng, max_n=8, max_m=12)
        if len(set(g.edges)) == g.m or all(u != w for u, w in g.edges):
            continue  # want loops and parallel edges
        adj = g.adjacency()
        last = {}
        for s in connected_subsets(g, rng.randint(1, g.n)):
            if len(s) > 1:
                assert s[:-1] == last[len(s) - 1], (g, s)
                assert s[-1] not in s[:-1] and adj[s[-1]] & set(s[:-1]), (g, s)
            last[len(s)] = s
        checked += 1


def test_generate_families():
    c = generate(GraphFamilySpec("cycle", 5))
    assert (c.n, c.m) == (5, 5) and c.max_degree() == 2
    p = generate(GraphFamilySpec("path", 4))
    assert (p.n, p.m) == (4, 3)
    k = generate(GraphFamilySpec("complete", 5))
    assert (k.n, k.m) == (5, 10)
    t = generate(GraphFamilySpec("torus", 3, size2=4))
    assert (t.n, t.m) == (12, 24)
    assert all(t.degree(v) == 4 for v in range(t.n))


def test_generate_regular_is_simple_and_regular():
    for seed in range(5):
        g = generate(GraphFamilySpec("regular", 12, degree=3, seed=seed))
        assert g.n == 12 and g.is_simple()
        assert all(g.degree(v) == 3 for v in range(g.n))


def test_generate_regular_rejects_odd_total():
    with pytest.raises(ValueError):
        generate(GraphFamilySpec("regular", 5, degree=3, seed=0))


def test_edge_list_round_trip(tmp_path):
    g = Multigraph(5, ((0, 1), (1, 2), (2, 2), (3, 4), (3, 4)))
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g


def test_parse_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("not a header\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2 1\n0 5\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("2 2\n0 1\n")  # fewer edges than promised
    g = parse_edge_list("# comment\n3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
