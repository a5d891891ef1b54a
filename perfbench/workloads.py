"""The four workloads: seeded inputs, the tasks a pass runs, and their checks.

A workload's ``build(seed)`` makes every input before timing starts and
returns the task list of one pass.  Graph shapes come from a fixed catalog;
the seed relabels vertices, reorders edges and draws the weights, so that
the work of a pass stays the same from seed to seed.  (The two approx-large
graphs checked against ``reference.json`` keep fixed weights.)  (Graphs under the
0/1 matching model keep their labels, because the enumerator's pruning, and
so its cost, depends on them.)  Edge models are ``perturbed_ones`` rescaled
so that their deviation from all-ones is exactly the stated radius, which
fixes each certificate's Taylor order.

Library calls go through ``holant.<name>`` at call time, so that a tracer
that rebinds those names sees them.  Checks run after the timed passes and
compare against ``oracles``, which shares no code with ``holant``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import holant
import holant.cli

import oracles

OUT_DIR = Path("perfbench") / "out"
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Task:
    """One request: ``run`` is timed, ``check`` raises if its output is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# inputs


def relabel(rng: random.Random, n: int, edges) -> holant.Multigraph:
    """The same shape under a random vertex permutation and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[u], perm[w]) for u, w in edges]
    rng.shuffle(moved)
    return holant.Multigraph(n, tuple(moved))


def graph_with_degrees(rng: random.Random, degrees) -> list[tuple[int, int]]:
    """A simple graph with the given degree sequence, by pairing with rejection."""
    for _ in range(10_000):
        stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == len(stubs) // 2 and all(u != w for u, w in edges):
            return sorted(edges)
    raise RuntimeError(f"no simple graph with degrees {degrees}")


def random_multigraph(rng: random.Random, n: int, m: int, loops: int = 0):
    """``m`` edges on ``n`` vertices, ``loops`` of them loops, parallel edges allowed."""
    edges = [(v, v) for v in rng.sample(range(n), loops)]
    while len(edges) < m:
        u, w = rng.sample(range(n), 2)
        edges.append((u, w))
    return edges


def small_graphs(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every simple graph on 1..max_n vertices once up to isomorphism.

    Graphs on n vertices are the graphs on n - 1 vertices plus a vertex with
    any neighbor set; duplicates are removed by the least edge bitmask over
    all vertex permutations.
    """
    out = [(1, [])]
    level = [[]]
    for n in range(2, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        candidates = [prev + [(u, n - 1) for u in range(n - 1) if bits >> u & 1]
                      for prev in level for bits in range(1 << (n - 1))]
        present = np.zeros((len(candidates), len(pairs)), dtype=np.int64)
        for row, edges in enumerate(candidates):
            present[row, [index[e] for e in edges]] = 1
        weights = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
        canon = present @ weights
        for sigma in itertools.permutations(range(n)):
            moved = [index[tuple(sorted((sigma[u], sigma[w])))] for u, w in pairs]
            np.minimum(canon, present[:, np.argsort(moved)] @ weights, out=canon)
        _, first = np.unique(canon, return_index=True)
        level = [candidates[i] for i in sorted(first)]
        out.extend((n, edges) for edges in level)
    return out


def scaled_model(k: int, radius: float, seed: int, max_degree: int) -> holant.EdgeColoringModel:
    """``perturbed_ones`` rescaled so that its deviation is exactly ``radius``."""
    h = holant.perturbed_ones(k, radius, seed=seed, max_degree=max_degree)
    worst = max(abs(v - 1.0) for v in h.entries.values())
    entries = {a: 1.0 + (v - 1.0) * (radius / worst) for a, v in h.entries.items()}
    return holant.EdgeColoringModel(k, entries, 1.0 + 0j, h.name)


def api(name: str, *args):
    """Call ``holant.<name>`` as bound at call time, so that tracing sees it."""
    return getattr(holant, name)(*args)


def model_weight(h):
    return lambda v, alpha: h.value(alpha)


def call_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = holant.cli.run(list(argv))
    return code, out.getvalue()


def cli_payload(output) -> dict:
    code, text = output
    expect(code == 0, f"exit code {code}")
    return json.loads(text)


def as_complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


def check_certificate(cert, exact: complex, eps: float) -> None:
    """The certified log error bounds the realized one, and meets ``eps``."""
    realized = abs(cmath.log(cert.value / exact))
    expect(realized <= cert.error_bound + 1e-12,
           f"realized log error {realized:.3e} above bound {cert.error_bound:.3e}")
    expect(cert.error_bound <= eps, f"bound {cert.error_bound:.3e} above eps {eps:g}")


def check_same_certificate(payload: dict, cert) -> None:
    expected = json.loads(json.dumps(cert.to_json_dict()))
    expect({key: payload[key] for key in expected} == expected,
           "CLI certificate differs from the library's")


# ---------------------------------------------------------------------------
# exact-sums: full-coloring sums of 2^10 to 2^17 terms, interpolation, roots


def _check_matchings(edges, value) -> None:
    expected = oracles.count_matchings(edges)
    expect(value == complex(expected), f"got {value}, expected {expected} matchings")


def _check_sum(n, edges, k, weight, value, pinned=None) -> None:
    expected = oracles.contract(n, edges, k, weight, pinned)
    expect(close(value, expected, 1e-9), f"got {value}, expected {expected}")


def _check_zero_free(g, params, samples, seed, min_abs, bound, failures) -> None:
    """Recompute the sampled sums with the oracle; none may fall below the bound."""
    rng = random.Random(seed)
    smallest = math.inf
    for _ in range(samples):
        h = holant.approx.sample_region_model(2, g.max_degree(), params, rng)
        smallest = min(smallest, abs(oracles.contract(g.n, g.edges, 2, model_weight(h))))
    expect(close(min_abs, smallest, 1e-9), f"min |p| {min_abs} vs oracle {smallest}")
    expect(smallest >= bound and not failures, f"min |p| {smallest} below bound {bound}")


def _check_log_potential(g, h, output) -> None:
    lhs, rhs, gap = output
    z = oracles.contract(g.n, g.edges, h.k, model_weight(h))
    expected = math.log(abs(z)) / g.n - (g.m / g.n) * math.log(h.k)
    expect(gap <= 1e-7, f"identity gap {gap:.3e}")
    expect(abs(rhs - expected) <= 1e-9, f"rhs {rhs} vs oracle {expected}")


def _check_cli_exact(g, h, output) -> None:
    value = as_complex(cli_payload(output)["value"])
    expect(value == holant.exact_partition(g, h), "CLI value differs from the library's")
    _check_matchings(g.edges, value)


def _check_cli_roots(g, h, output) -> None:
    payload = cli_payload(output)
    poly = holant.exact_poly_by_interpolation(g, h)
    roots = holant.poly_roots(poly)
    expect([as_complex(c) for c in payload["coefficients"]] == list(poly.coeffs),
           "CLI coefficients differ from the library's")
    expect([as_complex(r) for r in payload["roots"]] == list(roots),
           "CLI roots differ from the library's")
    # the blend at z = 1 counts matchings, at z = 0 it is 2^|E|
    count = oracles.count_matchings(g.edges)
    expect(close(sum(poly.coeffs), count, 1e-9), "coefficients do not sum to the count")
    expect(close(poly.coeffs[0], 2.0 ** g.m, 1e-9), "constant term is not 2^|E|")
    from_roots = poly.coeffs[-1] * np.prod([1.0 - r for r in roots])
    expect(close(from_roots, count, 1e-6), "roots do not rebuild the count")


def _check_cli_region(g, params, samples, seed, output) -> None:
    payload = cli_payload(output)
    report = holant.verify_zero_free(g, params, samples, seed)
    expect(payload["min_abs"] == report.min_abs, "CLI min |p| differs from the library's")
    _check_zero_free(g, params, samples, seed, payload["min_abs"], payload["bound"],
                     payload["failures"])


def build_exact_sums(seed: int) -> list[Task]:
    shapes = random.Random("exact-sums:shapes")
    rng = random.Random(f"exact-sums:{seed}")
    matching = holant.model_from_predicate("matching")
    tasks = []

    for i in range(12):
        n = 7 + i % 2
        p = 0.3 + 0.025 * i
        g = holant.Multigraph(n, tuple(e for e in itertools.combinations(range(n), 2)
                                       if shapes.random() < p))
        tasks.append(Task(f"matching.{i}", partial(api, "exact_partition", g, matching),
                          partial(_check_matchings, g.edges)))
    for i in range(2):
        g = holant.Multigraph(6, tuple(random_multigraph(shapes, 6, 11, loops=1)))
        tasks.append(Task(f"matching.multi.{i}", partial(api, "exact_partition", g, matching),
                          partial(_check_matchings, g.edges)))

    theta = holant.zero_free_constants().theta
    cubic = holant.generate(holant.GraphFamilySpec("regular", 10, degree=3, seed=10))
    params = holant.RegionParams.from_theorem(0.9, theta, 3)
    for i in range(2):
        g = relabel(rng, cubic.n, cubic.edges)
        sample_seed = rng.randrange(1 << 30)

        def check(report, g=g, sample_seed=sample_seed):
            expect(report.samples == 2, "wrong sample count")
            _check_zero_free(g, params, 2, sample_seed, report.min_abs, report.bound,
                             report.failures)

        tasks.append(Task(f"region.{i}", partial(api, "verify_zero_free", g, params, 2,
                                                 sample_seed), check))

    for i, (k, n, m, pins) in enumerate([(2, 6, 16, 2), (2, 6, 15, 1), (3, 5, 10, 0),
                                         (3, 5, 9, 0)]):
        g = relabel(rng, n, random_multigraph(shapes, n, m, loops=1))
        table = {(v, a): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for v in range(n) for a in holant.models.compositions(g.degree(v), k)}
        weight = lambda v, a, table=table: table[(v, tuple(a))]
        t = holant.TensorAssignment.from_function(g, k, weight)
        pinned = {e: rng.randrange(k) for e in rng.sample(range(m), pins)}
        if pinned:
            spec = holant.RestrictedSpec.from_dict(pinned)
            run = partial(api, "restricted_partition", g, t, spec)
        else:
            run = partial(api, "contract_network", g, t)
        tasks.append(Task(f"tensor.{i}", run,
                          partial(_check_sum, n, g.edges, k, weight, pinned=pinned)))

    for i, (k, n, m) in enumerate([(2, 8, 12), (2, 7, 10), (3, 6, 7), (3, 7, 8)]):
        base = random.Random(f"exact-sums:potential:{i}").sample(
            list(itertools.combinations(range(n), 2)), m)
        g = relabel(rng, n, base)
        h = scaled_model(k, 0.05, rng.randrange(1 << 30), g.max_degree())
        tasks.append(Task(f"potential.{i}", partial(api, "log_potential_check", g, h),
                          partial(_check_log_potential, g, h)))

    g = relabel(rng, 8, random_multigraph(shapes, 8, 17, loops=2))
    h = holant.perturbed_ones(2, 0.3, seed=rng.randrange(1 << 30), max_degree=g.max_degree())
    tasks.append(Task("sum.2^17", partial(api, "exact_partition", g, h),
                      partial(_check_sum, g.n, g.edges, 2, model_weight(h))))

    cycle = holant.generate(holant.GraphFamilySpec("cycle", 4))
    tasks.append(Task("cli.exact", partial(call_cli, ["exact", "--family", "cycle:4",
                                                      "--model", "matching"]),
                      partial(_check_cli_exact, cycle, matching)))
    g = holant.Multigraph(6, tuple(random.Random("exact-sums:roots").sample(
        list(itertools.combinations(range(6), 2)), 9)))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"roots-{seed}.el"
    holant.write_edge_list(g, path)
    tasks.append(Task("cli.roots", partial(call_cli, ["roots", "--graph", str(path),
                                                      "--model", "matching"]),
                      partial(_check_cli_roots, g, matching)))
    region_seed = rng.randrange(1 << 30)
    argv = ["region-check", "--family", "regular:10,3,10", "--samples", "2",
            "--seed", str(region_seed)]
    tasks.append(Task("cli.region-check", partial(call_cli, argv),
                      partial(_check_cli_region, cubic, params, 2, region_seed)))
    return tasks


def known_defect_probe() -> list[tuple[str, complex, int]]:
    """Matchings on multigraphs with a vertex of degree 13 or 14.

    Builtin models are materialized only up to degree 12, so these sums come
    out wrong; the probe runs outside the timed tasks and reports
    (name, value, expected) for each graph.
    """
    matching = holant.model_from_predicate("matching")
    star = [(0, leaf) for leaf in range(1, 14)]
    doubled = [(0, leaf) for leaf in range(1, 13)] + [(0, 1), (0, 2)]
    out = []
    for name, n, edges in (("star-13", 14, star), ("star-12-doubled", 13, doubled)):
        g = holant.Multigraph(n, tuple(edges))
        out.append((name, holant.exact_partition(g, matching), oracles.count_matchings(edges)))
    return out


# ---------------------------------------------------------------------------
# approx-small: auto-dispatched certificates on small random graphs

APPROX_SMALL_SLOTS = [
    # (degree sequence, colors); shapes drawn once from a fixed catalog seed.
    # Three shapes of about 75 ms each put several tasks at the median, which
    # keeps task_p50_ms steady.
    ((1, 1, 2, 2), 2), ((2, 2, 2, 2, 2), 2), ((1, 2, 2, 3, 2), 2), ((2,) * 6, 2),
    ((3, 3, 2, 2, 2, 2), 2), ((3, 3, 3, 3, 2, 2), 2), ((2,) * 7, 2), ((3, 3) + (2,) * 5, 2),
    ((3,) * 4 + (2,) * 3, 2), ((3,) * 4 + (2,) * 3, 2), ((3,) * 4 + (2,) * 3, 2),
    ((4,) + (3,) * 4 + (2, 2), 2), ((2,) * 8, 2), ((2,) * 8, 2), ((2,) * 8, 2),
    ((3,) * 4 + (2,) * 4, 2), ((3,) * 6 + (2, 2), 2), ((4,) + (3,) * 6 + (2,), 2),
    ((3, 3) + (2,) * 7, 2), ((3,) * 4 + (2,) * 5, 2),
    ((1, 1, 2, 2), 3), ((2,) * 4, 3), ((2,) * 5, 3), ((3, 3, 2, 2, 2), 3), ((2,) * 6, 3),
    ((3, 3) + (2,) * 4, 3), ((2,) * 7, 3), ((3, 3) + (2,) * 5, 3), ((2,) * 8, 3),
]


def build_approx_small(seed: int) -> list[Task]:
    shapes = random.Random("approx-small:shapes")
    rng = random.Random(f"approx-small:{seed}")
    tasks = []
    for i, (degrees, k) in enumerate(APPROX_SMALL_SLOTS):
        g = relabel(rng, len(degrees), graph_with_degrees(shapes, degrees))
        h = scaled_model(k, 0.05, rng.randrange(1 << 30), g.max_degree())

        def check(cert, g=g, h=h):
            check_certificate(cert, oracles.contract(g.n, g.edges, h.k, model_weight(h)), 1e-3)

        tasks.append(Task(f"approx.{i}.k{k}.n{g.n}.m{g.m}",
                          partial(api, "approx_partition", g, h, 1e-3), check))
    return tasks


# ---------------------------------------------------------------------------
# approx-large: the cluster engine on 16- to 200-vertex graphs


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _check_against_reference(name, eps, cert) -> None:
    """Both certificates bound their distance to the same sum: the stored one
    was computed on the unlabeled graph with the same fixed model, and the sum
    does not change under relabeling."""
    expect(math.isfinite(abs(cert.log_value)), "non-finite log value")
    expect(0 < cert.error_bound <= eps, f"bound {cert.error_bound:.3e} above eps {eps:g}")
    ref = _load_reference()[name]
    diff = cert.log_value - complex(*ref["log_value"])
    gap = abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi)))
    expect(gap <= cert.error_bound + ref["bound"], f"{gap:.3e} from the stored reference")


def _check_torus_cli(base, h, eps, output) -> None:
    payload = cli_payload(output)
    cert = holant.approx_partition(base, h, eps)
    check_same_certificate(payload, cert)
    check_certificate(cert, oracles.contract(base.n, base.edges, 2, model_weight(h)), eps)


def _check_convergence(bases, h, eps, report) -> None:
    for base, value in zip(bases, report.values):
        z = oracles.contract(base.n, base.edges, h.k, model_weight(h))
        expect(value is not None and abs(value - math.log(abs(z)) / base.n) <= eps / base.n,
               f"normalized value {value} off on {base.n} vertices")


def _check_limits_cli(sizes, h, output) -> None:
    payload = cli_payload(output)
    specs = [holant.GraphFamilySpec("cycle", s) for s in sizes]
    expect(payload == json.loads(json.dumps(holant.convergence_run(specs, h).to_json_dict())),
           "CLI report differs from the library's")
    for size, value in zip(sizes, payload["values"]):
        base = holant.generate(holant.GraphFamilySpec("cycle", size))
        z = oracles.contract(base.n, base.edges, 2, model_weight(h))
        expect(abs(value - math.log(abs(z)) / size) <= 1e-12, f"cycle {size}: {value}")


# model seeds of the graphs checked against reference.json
REFERENCE_MODELS = {"regular200x4": 1200, "regular100x3": 1300}


def reference_graphs() -> dict:
    """Name -> (graph, eps) of the tasks checked against reference.json."""
    gen = lambda *a, **kw: holant.generate(holant.GraphFamilySpec(*a, **kw))
    return {"regular200x4": (gen("regular", 200, degree=4, seed=12), 2e-2),
            "regular100x3": (gen("regular", 100, degree=3, seed=13), 1e-3)}


def write_reference() -> None:
    """Recompute reference.json from holant in ``src/``, on the unlabeled graphs.

    From the root of a checkout::

        python3 -c "import sys; sys.path[:0] = ['src', 'perfbench']; \
            import workloads; workloads.write_reference()"
    """
    out = {"note": "approx-large certificates of the graphs in workloads.reference_graphs "
                   "with the fixed models REFERENCE_MODELS, computed by holant 0.1.0 when "
                   "this benchmark was added; a later result must lie within the sum of "
                   "both bounds"}
    for name, (base, eps) in reference_graphs().items():
        h = scaled_model(2, 0.02, REFERENCE_MODELS[name], base.max_degree())
        cert = holant.approx_partition(base, h, eps)
        out[name] = {"log_value": [cert.log_value.real, cert.log_value.imag],
                     "bound": cert.error_bound, "order": cert.order, "mode": cert.mode}
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def build_approx_large(seed: int) -> list[Task]:
    rng = random.Random(f"approx-large:{seed}")
    gen = lambda *a, **kw: holant.generate(holant.GraphFamilySpec(*a, **kw))
    tasks = []

    def certified(name, base, k, radius, eps, exact_check):
        """Graphs too large for the oracle keep a fixed model, REFERENCE_MODELS[name],
        so that the stored reference checks them at every seed."""
        g = relabel(rng, base.n, base.edges)
        model_seed = rng.randrange(1 << 30) if exact_check else REFERENCE_MODELS[name]
        h = scaled_model(k, radius, model_seed, g.max_degree())
        if exact_check:
            check = lambda cert: check_certificate(
                cert, oracles.contract(base.n, base.edges, k, model_weight(h)), eps)
        else:
            check = partial(_check_against_reference, name, eps)
        tasks.append(Task(name, partial(api, "approx_partition", g, h, eps), check))

    for name, (base, eps) in reference_graphs().items():
        certified(name, base, 2, 0.02, eps, False)
    certified("torus8x8", gen("torus", 8, size2=8), 2, 0.02, 1e-2, True)
    certified("cycle200", gen("cycle", 200), 2, 0.04, 1e-3, True)
    certified("torus4x4.k3", gen("torus", 4, size2=4), 3, 0.02, 1e-3, True)

    model_seed = rng.randrange(1 << 30)
    h = holant.perturbed_ones(2, 0.02, seed=model_seed)
    argv = ["approx", "--family", "torus:6x6", "--model", f"ones+-uniform:0.02:{model_seed}",
            "--eps", "1e-3"]
    tasks.append(Task("cli.approx", partial(call_cli, argv),
                      partial(_check_torus_cli, gen("torus", 6, size2=6), h, 1e-3)))

    sizes = (5, 6)
    h = scaled_model(2, 0.02, rng.randrange(1 << 30), 4)
    specs = [holant.GraphFamilySpec("torus", s, size2=s) for s in sizes]
    tasks.append(Task("convergence.torus", partial(api, "convergence_run", specs, h, 1e-2),
                      partial(_check_convergence, [gen("torus", s, size2=s) for s in sizes],
                              h, 1e-2)))

    model_seed = rng.randrange(1 << 30)
    sizes = (8, 16, 32, 64)
    argv = ["limits", "--family", "cycle", "--sizes", ",".join(map(str, sizes)),
            "--model", f"ones+-uniform:0.05:{model_seed}"]
    tasks.append(Task("cli.limits", partial(call_cli, argv),
                      partial(_check_limits_cli, sizes,
                              holant.perturbed_ones(2, 0.05, seed=model_seed))))
    return tasks


# ---------------------------------------------------------------------------
# exptype: root-radius estimates and certified Tutte and chromatic values

EXPTYPE_MAX_DEGREE = 5


def _check_radius(profiles, v, radius) -> None:
    # every graph on at most six vertices has degree at most EXPTYPE_MAX_DEGREE
    worst = 0.0
    for profile in profiles:
        coeffs = oracles.random_cluster_poly(profile, v)
        worst = max(worst, max(abs(np.roots(coeffs[::-1]))))
    expect(close(radius, 1.5 * worst, 1e-6), f"radius {radius} vs oracle {1.5 * worst}")


def _check_exptype(profile, x, v, cert) -> None:
    check_certificate(cert, oracles.random_cluster(profile, x, v), 1e-3)


def _check_exptype_cli(g, x, output) -> None:
    payload = cli_payload(output)
    spec = holant.tutte_spec(1.0)
    c = holant.estimate_root_radius(spec, g.max_degree(), [g])
    cert = holant.eval_exp_type(g, spec.with_root_radius(c), x, 1e-3)
    check_same_certificate(payload, cert)
    check_certificate(cert, oracles.random_cluster(oracles.cluster_profile(g.n, g.edges), x, 1),
                      1e-3)


def build_exptype(seed: int) -> list[Task]:
    rng = random.Random(f"exptype:{seed}")
    radii: dict[str, float] = {}
    tasks = []
    specs = {"tutte": (holant.tutte_spec(1.0), 1.0), "chromatic": (holant.chromatic_spec(), -1.0)}
    small = [relabel(rng, n, edges) for n, edges in small_graphs(6) if n >= 2]
    small_profiles = []

    def profiles():
        if not small_profiles:
            small_profiles.extend(oracles.cluster_profile(g.n, g.edges) for g in small)
        return small_profiles

    def estimate(name, spec):
        radii[name] = holant.estimate_root_radius(spec, EXPTYPE_MAX_DEGREE, small)
        return radii[name]

    for name, (spec, v) in specs.items():
        tasks.append(Task(f"estimate.{name}", partial(estimate, name, spec),
                          lambda c, v=v: _check_radius(profiles(), v, c)))

    phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    def evaluate(g, name):
        spec = specs[name][0].with_root_radius(radii[name])
        return holant.eval_exp_type(g, spec, 4.0 * radii[name] * phase, 1e-3)

    def check_eval(i, g, name, cert):
        profile = profiles()[i] if i is not None else oracles.cluster_profile(g.n, g.edges)
        _check_exptype(profile, 4.0 * radii[name] * phase, specs[name][1], cert)

    for i, g in enumerate(small):
        tasks.append(Task(f"small.{i}", partial(evaluate, g, "tutte"),
                          partial(check_eval, i, g, "tutte")))
    for d, graph_seed, name in ((3, 31, "tutte"), (4, 41, "chromatic")):
        base = holant.generate(holant.GraphFamilySpec("regular", 10, degree=d, seed=graph_seed))
        g = relabel(rng, base.n, base.edges)
        tasks.append(Task(f"regular10x{d}.{name}", partial(evaluate, g, name),
                          partial(check_eval, None, g, name)))

    complete = holant.generate(holant.GraphFamilySpec("complete", 5))
    argv = ["exptype", "--family", "complete:5", "--chi", "tutte:v=1", "--x", "40",
            "--estimate-radius"]
    tasks.append(Task("cli.exptype", partial(call_cli, argv),
                      partial(_check_exptype_cli, complete, 40.0)))
    return tasks


WORKLOADS = {
    "exact-sums": build_exact_sums,
    "approx-small": build_approx_small,
    "approx-large": build_approx_large,
    "exptype": build_exptype,
}
