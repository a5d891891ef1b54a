"""Run the benchmark in sets over several seeds and check that it is steady.

    python3 perfbench/compare.py --seeds 0-9 --sets 2 [--trace 1]

Each run is ``run.py`` on one workload of ``BENCHMARK.json`` for its
``run_seconds``.  Every run must be correct.  Runs of one workload and seed
must give the same output digest in every set, and with ``--trace 1`` the
same counts.  Without tracing, each end-to-end metric's spread (distance
between the quartiles of one set's values, over their median) must stay
within its bound in ``BENCHMARK.json``, and no set's median may be worse than
the first set's by more than the bound.  A spread above a third of the bound,
the target for a steady metric, is printed as a note.  Raw results go to
``perfbench/out/compare.json``; the exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[tuple[int, str, int], dict] = {}
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                runs[(s, w, seed)] = run = _run(w, seed, spec["run_seconds"], args.trace)
                print(f"set {s} {w} seed {seed}: wall {run['detail']['wall_s']:.1f}s "
                      f"correct {run['result']['correct']}", flush=True)
    out = ROOT / "perfbench" / "out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({f"{s}/{w}/{seed}": r for (s, w, seed), r in runs.items()}))

    problems = []
    for (s, w, seed), run in runs.items():
        if not run["result"]["correct"]:
            problems.append(f"set {s} {w} seed {seed}: {run['detail']['failures']}")
        first = runs[(0, w, seed)]["detail"]
        for key in ("output_digest", "counts"):
            if run["detail"].get(key) != first.get(key):
                problems.append(f"set {s} {w} seed {seed}: {key} differs from set 0")

    if not args.trace:
        for w in workloads:
            for metric, bound in bounds.items():
                medians = []
                for s in range(args.sets):
                    values = [runs[(s, w, seed)]["result"]["metrics"][metric]["value"]
                              for seed in seeds]
                    q1, median, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / median
                    medians.append(median)
                    print(f"{w:13} {metric:12} set {s}: median {median:.6g} "
                          f"spread {spread:.3f} (bound {bound})")
                    if spread > bound:
                        problems.append(f"{w} {metric} set {s}: spread {spread:.3f} "
                                        f"above its bound {bound}")
                    elif spread > bound / 3:
                        print(f"NOTE {w} {metric} set {s}: spread {spread:.3f} "
                              f"above a third of {bound}")
                sign = 1 if better[metric] == "lower" else -1
                for s, median in enumerate(medians[1:], start=1):
                    if sign * (median - medians[0]) > bound * medians[0]:
                        problems.append(f"{w} {metric}: set {s} median {median:.6g} worse "
                                        f"than set 0 {medians[0]:.6g} by more than {bound}")
    for line in problems:
        print("PROBLEM", line)
    print("steady" if not problems else f"{len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
