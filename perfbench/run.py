"""Benchmark for holant: time to checked results on four seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-sums --seed 0 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--workload all`` runs the four workloads one after another, each in a fresh
process, and prints every metric prefixed by its workload.

One client issues the tasks of a workload one after another (a closed loop:
a researcher waits for each result).  A pass runs the whole task list; passes
repeat until ``--seconds`` of task time have been measured, so every pass does
the same work and a faster program fits more passes.  Outputs of the first
pass are checked against the oracles after timing; later passes must
reproduce them bit for bit.  The last line of output is one JSON object; the
line before it gives details (failures, the known-defect probe, the output
digest, pass times).

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``tasks_per_s``: tasks per second of summed task latency;
- ``task_p50_ms``, ``task_p90_ms``: percentiles over the tasks of a pass;
- ``setup_s``: importing holant in a fresh interpreter plus building every
  input, each the median of fifteen, each scaled by a calibration kernel run
  right next to it (in the fresh interpreter, after the import);
- ``peak_rss_mb``: peak resident memory of the process, read before the checks.

A task's latency is the median over passes of its time, each scaled to a
reference machine speed.  Before, between and after the tasks of a pass a
fixed pure-Python kernel runs, each time for a twentieth of the previous
time of the longer task next to it (at least once); a task's time is divided
by the mean of the kernel's mean times just before and just after it, over
KERNEL_REF_S.  On a shared machine whose speed drifts by tens of percent
within seconds this keeps the spread between runs to a few percent; the
detail line keeps the unscaled throughput.

With ``--trace 1`` a warm-up pass is followed by traced and untraced passes
in turn; the last line reports per-layer calls and self seconds for one
set-up plus one pass (see ``spans.py``), and the traced-to-untraced pass
time ratio.  Spans of the first traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark measures a single client on one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_totals, task_totals

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPEATS = 15
# seconds of calibration kernel next to each set-up measurement
SETUP_KERNEL_S = 0.03
# the kernel's time at the reference speed: about its median on an idle 2-core
# x86-64 VM; only the ratio of two runs on one machine is meaningful
KERNEL_REF_S = 0.75e-3
KERNEL_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 4)]


def _import_holant() -> None:
    """Import holant from ``src/`` of the current directory, never an installed copy."""
    src = Path.cwd() / "src"
    if not (src / "holant" / "__init__.py").is_file():
        sys.exit(f"no holant sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import holant  # noqa: F401
    import holant.cli  # noqa: F401


def _fresh_import_s() -> tuple[float, float]:
    """Seconds to import holant in a fresh interpreter, as the first import took,
    and the kernel's mean time in that interpreter right after the import."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import holant, holant.cli; took = time.perf_counter() - t; "
            "sys.path.insert(0, sys.argv[2]); import run; "
            "calls, spent = run._calibrate(float(sys.argv[3])); print(took, spent / calls)")
    proc = subprocess.run([sys.executable, "-c", code, str(Path.cwd() / "src"),
                           str(Path(__file__).resolve().parent), str(SETUP_KERNEL_S)],
                          capture_output=True, text=True, check=True)
    took, kernel = proc.stdout.split()
    return float(took), float(kernel)


def _trace_targets():
    import holant

    names = {
        "exact": ["exact_partition", "restricted_partition", "contract_network",
                  "exact_poly_by_interpolation", "poly_roots"],
        "approx": ["q_derivative", "approx_partition", "cluster_log_derivatives",
                   "verify_zero_free"],
        "graphs": ["connected_subsets", "edges_touching", "generate"],
        "models": ["perturbed_ones", "EdgeColoringModel.deviation"],
        "exptype": ["eval_exp_type", "qhat_derivative", "chi_k_coefficients", "chi_tutte",
                    "estimate_root_radius"],
        "limits": ["log_potential_check", "convergence_run"],
        "cli": ["run"],
    }
    return [(getattr(holant, module), attr, attr == "connected_subsets")
            for module, attrs in names.items() for attr in attrs]


# per-layer metrics: (metric, span name, field of spans.layer_totals)
LAYER_METRICS = [
    ("exact.exact_partition.calls", "exact.exact_partition", "calls"),
    ("exact.exact_partition.self_s", "exact.exact_partition", "self_s"),
    ("exact.restricted_partition.self_s", "exact.restricted_partition", "self_s"),
    ("exact.contract_network.self_s", "exact.contract_network", "self_s"),
    ("exact.exact_poly_by_interpolation.calls", "exact.exact_poly_by_interpolation", "calls"),
    ("exact.poly_roots.calls", "exact.poly_roots", "calls"),
    ("exact.poly_roots.self_s", "exact.poly_roots", "self_s"),
    ("approx.q_derivative.calls", "approx.q_derivative", "calls"),
    ("approx.q_derivative.self_s", "approx.q_derivative", "self_s"),
    ("approx.approx_partition.self_s", "approx.approx_partition", "self_s"),
    ("approx.cluster_log_derivatives.calls", "approx.cluster_log_derivatives", "calls"),
    ("approx.cluster_log_derivatives.self_s", "approx.cluster_log_derivatives", "self_s"),
    ("approx.verify_zero_free.self_s", "approx.verify_zero_free", "self_s"),
    ("graphs.connected_subsets.yielded", "graphs.connected_subsets", "yielded"),
    ("graphs.connected_subsets.self_s", "graphs.connected_subsets", "self_s"),
    ("graphs.edges_touching.calls", "graphs.edges_touching", "calls"),
    ("graphs.edges_touching.self_s", "graphs.edges_touching", "self_s"),
    ("graphs.generate.self_s", "graphs.generate", "self_s"),
    ("models.perturbed_ones.self_s", "models.perturbed_ones", "self_s"),
    ("models.EdgeColoringModel.deviation.self_s", "models.EdgeColoringModel.deviation",
     "self_s"),
    ("exptype.eval_exp_type.calls", "exptype.eval_exp_type", "calls"),
    ("exptype.eval_exp_type.self_s", "exptype.eval_exp_type", "self_s"),
    ("exptype.qhat_derivative.calls", "exptype.qhat_derivative", "calls"),
    ("exptype.chi_k_coefficients.calls", "exptype.chi_k_coefficients", "calls"),
    ("exptype.chi_k_coefficients.self_s", "exptype.chi_k_coefficients", "self_s"),
    ("exptype.chi_tutte.calls", "exptype.chi_tutte", "calls"),
    ("exptype.chi_tutte.self_s", "exptype.chi_tutte", "self_s"),
    ("exptype.estimate_root_radius.self_s", "exptype.estimate_root_radius", "self_s"),
    ("limits.log_potential_check.self_s", "limits.log_potential_check", "self_s"),
    ("limits.convergence_run.self_s", "limits.convergence_run", "self_s"),
    ("cli.run.calls", "cli.run", "calls"),
    ("cli.run.self_s", "cli.run", "self_s"),
]
CERT_METRICS = ["approx.certs.mode_direct", "approx.certs.mode_cluster",
                "approx.certs.order_sum"]


def _kernel() -> complex:
    """Fixed pure-Python work, the yardstick for the machine's current speed.

    A brute-force coloring sum on a 5-vertex graph, with the tuple, dict and
    complex traffic of holant's own loops, so that its speed follows theirs.
    """
    total = 0j
    for colors in itertools.product((0, 1), repeat=len(KERNEL_EDGES)):
        coloring = dict(enumerate(colors))
        counts = [[0, 0] for _ in range(5)]
        for i, (u, w) in enumerate(KERNEL_EDGES):
            counts[u][coloring[i]] += 1
            counts[w][coloring[i]] += 1
        term = 1.0 + 0j
        for alpha in counts:
            term *= 1.0 + 0.1j * alpha[0]
        total += term
    return total


def _calibrate(seconds: float) -> tuple[int, float]:
    """Run the kernel for at least ``seconds`` (and at least once)."""
    calls, began = 0, perf_counter()
    while True:
        _kernel()
        calls += 1
        elapsed = perf_counter() - began
        if elapsed >= seconds:
            return calls, elapsed


def _run_pass(tasks, tracer=None, calibrate=False, previous=None):
    """Run every task once.

    Returns (task seconds, latencies, outputs, errors, kernel seconds).  With
    ``calibrate``, the kernel runs before, between and after the tasks for a
    twentieth of the longer ``previous`` latency of the tasks next to it (at
    least once), and the last entry holds, for each task, the mean of the
    kernel's mean times just before and just after it; else KERNEL_REF_S.
    """
    latencies, outputs, errors, kernels = [], [], [], []

    def kernel(i):
        if not calibrate:
            return KERNEL_REF_S
        near = previous[max(i - 1, 0):i + 1] if previous else [0.0]
        calls, spent = _calibrate(0.05 * max(near))
        return spent / calls

    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = f"{i}:{task.name}"
        kernels.append(kernel(i))
        t0 = perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                out = tracer.call("bench.task", task.run)
            err = None
        except Exception as exc:  # a failed task is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    kernels.append(kernel(len(tasks)))
    kernels = [(before + after) / 2 for before, after in zip(kernels, kernels[1:])]
    return sum(latencies), latencies, outputs, errors, kernels


def _check_outputs(tasks, passes):
    """Check the first pass against the oracles and later passes against the first.

    Returns the number of failed task executions and the failure messages.
    """
    first_outputs, first_errors = passes[0][2], passes[0][3]
    failed, messages = 0, []
    for i, task in enumerate(tasks):
        problem = first_errors[i]
        if problem is None:
            try:
                task.check(first_outputs[i])
            except Exception as exc:  # any exception is a failed check
                problem = f"check: {type(exc).__name__}: {exc}"
        for later in passes[1:]:
            if later[3][i] is not None or repr(later[2][i]) != repr(first_outputs[i]):
                problem = problem or "output drifted between passes"
        if problem is not None:
            failed += len(passes)
            messages.append(f"{task.name}: {problem}")
    return failed, messages


def _scaled_median(timed) -> float:
    """Median of (seconds, kernel seconds) pairs, each scaled to the reference speed."""
    return statistics.median(t * KERNEL_REF_S / kernel for t, kernel in timed)


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


def _layer_values(setup_spans, pass_spans, traced_passes):
    """Each layer metric for one set-up plus one pass."""
    per_setup = layer_totals(setup_spans)
    per_pass = layer_totals(pass_spans)
    return {metric: (per_setup.get(span, {}).get(field, 0) / SETUP_REPEATS
                     + per_pass.get(span, {}).get(field, 0) / traced_passes)
            for metric, span, field in LAYER_METRICS}


def _check_span_sums(spans) -> None:
    """Self times of each task's spans must add up to its root span."""
    for task, (self_sum, root) in task_totals(spans).items():
        if abs(self_sum - root) > 1e-9 * max(1.0, root):
            raise RuntimeError(f"span self times of {task} sum to {self_sum}, root {root}")


def _write_spans(path: Path, phases) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases:
            for i, s in enumerate(spans):
                fh.write(json.dumps({"phase": phase, "id": i, "name": s.name, "task": s.task,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     "active": s.active, "self": s.self_time}) + "\n")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    started = perf_counter()
    _import_holant()
    import workloads

    build = workloads.WORKLOADS[name]
    targets = _trace_targets()
    tracer = Tracer()
    certs = dict.fromkeys(CERT_METRICS, 0)

    def count_cert(cert):
        key = "approx.certs.mode_" + cert.mode
        certs[key] = certs.get(key, 0) + 1
        certs["approx.certs.order_sum"] += cert.order

    tracer.on_return["approx.approx_partition"] = count_cert

    # each set-up time is paired with the kernel's mean time next to it
    imports = [_fresh_import_s() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        calls, spent = _calibrate(SETUP_KERNEL_S)
        t0 = perf_counter()
        if traced:
            tracer.install(targets)
            tasks = tracer.call("bench.setup", build, seed)
            tracer.uninstall()
        else:
            tasks = build(seed)
        builds.append((perf_counter() - t0, spent / calls))
    setup_spans, tracer.spans = tracer.spans, []
    setup_certs = dict(certs)

    # untraced passes; when tracing, a warm-up pass and then traced and untraced
    # passes in turn, so that first-call costs fall on neither side of the ratio
    passes, plain, traced_walls = [], [], []
    measured = 0.0
    while measured < seconds or (traced and (not traced_walls or len(plain) < 2)):
        if traced and len(plain) > len(traced_walls):
            tracer.install(targets)
            result = _run_pass(tasks, tracer)
            tracer.uninstall()
            traced_walls.append(result[0])
            if len(traced_walls) == 1:
                first_traced_spans = list(tracer.spans)
        elif traced:
            result = _run_pass(tasks)
            plain.append(result)
        else:
            result = _run_pass(tasks, calibrate=True, previous=plain[-1][1] if plain else None)
            plain.append(result)
        passes.append(result)
        measured += result[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, messages = _check_outputs(tasks, passes)
    probe = workloads.known_defect_probe() if name == "exact-sums" else []
    probe_wrong = sum(1 for _, got, expected in probe if got != expected)
    attempted = len(tasks) * len(passes)
    # A task's latency is the median of its untraced executions, each scaled to
    # the speed at which the kernel takes KERNEL_REF_S: on a shared machine the
    # scaling removes most of the drift in speed and the median the bursts.
    latencies = [_scaled_median((r[1][i], r[4][i]) for r in plain) for i in range(len(tasks))]

    detail = {
        "workload": name, "seed": seed, "trace": int(traced),
        "tasks_per_pass": len(tasks), "passes": len(passes),
        "latency_samples": len(latencies),
        "unscaled_tasks_per_s": len(tasks) * len(plain) / sum(r[0] for r in plain),
        "slowdowns": [statistics.median(r[4]) / KERNEL_REF_S for r in plain],
        "failed_frac": failed / attempted,
        "failures": messages,
        "known_defect": [{"graph": g, "value": repr(v), "expected": e}
                         for g, v, e in probe],
        "output_digest": _digest(passes[0][2]),
        "pass_s": [p[0] for p in passes],
        "import_s": [t for t, _ in imports], "build_s": [t for t, _ in builds],
    }
    if traced:
        _check_span_sums(setup_spans)
        _check_span_sums(tracer.spans)
        _write_spans(workloads.OUT_DIR / f"spans-{name}-{seed}.jsonl",
                     [("setup", setup_spans), ("pass", first_traced_spans)])
        metrics = {}
        for metric, value in _layer_values(setup_spans, tracer.spans,
                                           len(traced_walls)).items():
            unit = "s" if metric.endswith("self_s") else "count"
            metrics[metric] = {"value": value, "unit": unit}
        for metric in CERT_METRICS:
            value = (setup_certs[metric] / SETUP_REPEATS
                     + (certs[metric] - setup_certs[metric]) / len(traced_walls))
            metrics[metric] = {"value": value, "unit": "count"}
        metrics["exact.degree_over_12_mismatches"] = {"value": probe_wrong, "unit": "count"}
        overhead = (statistics.median(traced_walls)
                    / statistics.median(r[0] for r in plain[1:]) - 1.0)
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
        detail["counts"] = {m: e["value"] for m, e in metrics.items() if e["unit"] == "count"}
    else:
        metrics = {
            "tasks_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "task_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "task_p90_ms": {"value": 1e3 * statistics.quantiles(latencies, n=10,
                                                                 method="inclusive")[8],
                            "unit": "ms"},
            "setup_s": {"value": _scaled_median(imports) + _scaled_median(builds),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail["wall_s"] = perf_counter() - started
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


WORKLOAD_NAMES = ["exact-sums", "approx-small", "approx-large", "exptype"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
