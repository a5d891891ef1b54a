import dataclasses
import random

import pytest

import oracles
from holant import (GraphFamilySpec, GraphFormatError, Multigraph,
                    component_count, connected_subsets, edges_touching,
                    generate, induced_subgraph, parse_edge_list,
                    perturbed_ones, read_edge_list, write_edge_list)
from holant.approx import _ClusterEngine, _EdgeOracle
from holant.graphs import format_edge_list


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
    assert oracles.is_connected(Multigraph(3, ((0, 1), (1, 2))))
    assert not oracles.is_connected(Multigraph(3, ((0, 1),)))
    assert oracles.is_connected(Multigraph(1, ()))


def test_disjoint_union():
    a = Multigraph(2, ((0, 1),))
    b = Multigraph(3, ((0, 2),))
    u = oracles.disjoint_union(a, b)
    assert u.n == 5
    assert set(u.edges) == {(0, 1), (2, 4)}


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
    # the cluster engine undoes its per-vertex arrays when a set is shorter
    # than the last one, which is exact only if every set of size s > 1 is
    # the last set of size s - 1 plus one vertex adjacent to it; the
    # full-size sets come from a loop of their own, so the whole sequence is
    # also checked against the frame-per-depth expansion in oracles
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        g = oracles.random_multigraph(rng, max_n=7, max_m=12)
        if len(set(g.edges)) == g.m or all(u != w for u, w in g.edges):
            continue  # want loops and parallel edges
        g = Multigraph(g.n + rng.randint(1, 2), g.edges)  # and isolated vertices
        adj = g.adjacency()
        for max_size in range(1, 7):
            sets = list(connected_subsets(g, max_size))
            assert sets == oracles.growth_order_subsets(g, max_size), (g, max_size)
            assert {tuple(sorted(s)) for s in sets} == \
                oracles.brute_connected_subsets(g, max_size)
            last = {}
            for s in sets:
                if len(s) > 1:
                    assert s[:-1] == last[len(s) - 1], (g, max_size, s)
                    assert s[-1] not in s[:-1] and adj[s[-1]] & set(s[:-1]), (g, s)
                last[len(s)] = s
        checked += 1


def test_connected_subsets_offer_later_vertices_in_frontier_order():
    # the cluster engine counts the full-size children of a set S of size
    # max_size - 1 itself, as S plus each vertex offered after S's last
    # vertex, then that vertex's fresh offers; here every set's children
    # are checked, whatever its size.  A path (v0, ..., vj) offers, in
    # order, the neighbors above v0 of v0, then of v1 not offered yet, ...
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        g = oracles.random_multigraph(rng, max_n=7, max_m=12)
        if len(set(g.edges)) == g.m or all(u != w for u, w in g.edges):
            continue  # want loops and parallel edges
        g = Multigraph(g.n + rng.randint(1, 2), g.edges)  # and isolated vertices
        adj = [sorted(a) for a in g.adjacency()]
        for max_size in range(2, 7):
            sets = list(connected_subsets(g, max_size))
            for i, s in enumerate(sets):
                if len(s) == max_size:
                    continue
                offered = []
                for v in s:
                    offered += [w for w in adj[v] if w > s[0] and w not in offered]
                later = offered[offered.index(s[-1]) + 1:] if len(s) > 1 else offered
                children = []
                for t in sets[i + 1:]:
                    if len(t) <= len(s):
                        break
                    if len(t) == len(s) + 1:
                        children.append(t)
                assert children == [s + (w,) for w in later], (g, max_size, s)
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


def test_only_transitive_families_are_marked(tmp_path):
    marked = [generate(GraphFamilySpec("cycle", 7)), generate(GraphFamilySpec("complete", 5)),
              generate(GraphFamilySpec("torus", 3, size2=4))]
    assert all(g.vertex_transitive for g in marked)
    t = marked[2]
    write_edge_list(t, tmp_path / "t.el")
    unmarked = [generate(GraphFamilySpec("path", 5)),
                generate(GraphFamilySpec("regular", 12, degree=3, seed=1)),
                Multigraph(t.n, t.edges), parse_edge_list(format_edge_list(t)),
                read_edge_list(tmp_path / "t.el"), induced_subgraph(t, range(t.n)),
                dataclasses.replace(t)]
    assert not any(g.vertex_transitive for g in unmarked)
    # the mark is no constructor argument and no part of equality
    with pytest.raises(TypeError):
        Multigraph(3, ((0, 1), (1, 2), (0, 2)), vertex_transitive=True)
    with pytest.raises(ValueError):
        dataclasses.replace(t, vertex_transitive=True)
    assert all(g == t for g in unmarked[2:])


def test_unmarked_graphs_stream_every_root():
    h = perturbed_ones(2, 0.02, seed=1, max_degree=4)
    for g in (generate(GraphFamilySpec("path", 9)),
              generate(GraphFamilySpec("regular", 12, degree=3, seed=1)),
              Multigraph(16, generate(GraphFamilySpec("torus", 4, size2=4)).edges)):
        engine = _ClusterEngine(g, _EdgeOracle(h), 0, float("inf"))
        engine.log_coefficients(4)
        assert engine.streamed == sum(1 for _ in connected_subsets(g, 4)), g


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
