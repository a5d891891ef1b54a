"""Self-tests of the span arithmetic, the rebinding and the oracles.

    python3 -m pytest perfbench/test_spans.py
"""

import random
import sys
from pathlib import Path
from time import perf_counter

import pytest

from spans import Tracer, layer_totals, task_totals

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        _busy(0.01)
        return 1

    def numbers():
        for i in range(3):
            _busy(0.002)
            yield i

    gen = tracer._wrap("gen", lambda: numbers(), is_generator=True)

    def middle():
        _busy(0.01)
        tracer.call("leaf", leaf)
        return sum(gen())

    def root():
        _busy(0.005)
        tracer.call("middle", middle)
        return tracer.call("leaf", leaf)

    for task in ("a", "b"):
        tracer.task = task
        assert tracer.call("root", root) == 1

    for task, (self_sum, root_active) in task_totals(tracer.spans).items():
        assert self_sum == pytest.approx(root_active, rel=1e-12, abs=1e-12), task
    for task in ("a", "b"):
        roots = [s for s in tracer.spans if s.task == task and s.parent is None]
        assert [s.name for s in roots] == ["root"]
    for i, span in enumerate(tracer.spans):
        kids = [s for s in tracer.spans if s.parent == i]
        assert span.children == pytest.approx(sum(k.active for k in kids), rel=1e-9, abs=1e-12)
        assert span.self_time >= 0
    layers = layer_totals(tracer.spans)
    assert layers["leaf"]["calls"] == 4 and layers["gen"]["yielded"] == 6
    assert layers["leaf"]["self_s"] >= 4 * 0.01
    assert layers["gen"]["self_s"] >= 6 * 0.002
    # the middle span's own busy work excludes the leaf (10 ms) and the generator
    # (6 ms); the upper limit leaves room for preemption during the busy waits
    middles = [s for s in tracer.spans if s.name == "middle"]
    assert all(0.01 <= s.self_time < 0.01 + 0.05 for s in middles)


def test_install_rebinds_every_holder_and_uninstall_restores():
    import holant
    import holant.approx
    import holant.graphs

    original = holant.graphs.edges_touching
    tracer = Tracer()
    tracer.install([(holant.graphs, "edges_touching", False),
                    (holant.graphs, "connected_subsets", True),
                    (holant.models, "EdgeColoringModel.deviation", False)])
    try:
        assert holant.approx.edges_touching is holant.graphs.edges_touching is not original
        assert holant.edges_touching is holant.graphs.edges_touching
        g = holant.generate(holant.GraphFamilySpec("cycle", 5))
        h = holant.perturbed_ones(2, 0.05, seed=1, max_degree=2)
        tracer.task = "t"
        tracer.call("root", holant.approx_partition, g, h, 1e-3, None, "cluster")
        tracer.call("root", holant.q_derivative, g, h, 2)
    finally:
        tracer.uninstall()
    assert holant.approx.edges_touching is original and holant.edges_touching is original
    layers = layer_totals(tracer.spans)
    assert layers["graphs.edges_touching"]["calls"] == 10  # C(5, 2) vertex pairs
    assert layers["graphs.connected_subsets"]["yielded"] > 0
    assert layers["models.EdgeColoringModel.deviation"]["calls"] == 1
    self_sum, root_active = task_totals(tracer.spans)["t"]
    assert self_sum == pytest.approx(root_active, rel=1e-12)


def test_contraction_oracle_matches_brute_force():
    import oracles

    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
        k = rng.choice([1, 2, 3])
        table = {}

        def weight(v, alpha):
            return table.setdefault((v, alpha), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))

        pinned = {0: rng.randrange(k)} if edges and trial % 2 else {}
        expected = oracles.brute_force(n, edges, k, weight, pinned)
        got = oracles.contract(n, edges, k, weight, pinned)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (n, edges, k)


def test_matching_and_cluster_oracles_on_known_graphs():
    import oracles

    star = [(0, leaf) for leaf in range(1, 14)]
    assert oracles.count_matchings(star) == 14
    cycle4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert oracles.count_matchings(cycle4) == 7
    profile = oracles.cluster_profile(4, cycle4)
    # chromatic polynomial of C4 at q = 3: (q-1)^4 + (q-1) = 18
    assert oracles.random_cluster(profile, 3, -1) == 18
    # v = 1 counts edge subsets weighted by q^components: at q = 1, all 16 subsets
    assert oracles.random_cluster(profile, 1, 1) == 16
