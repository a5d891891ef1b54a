"""The benchmark's own self-test, run as part of this suite.

``perfbench/test_spans.py`` calls the library's public functions, so an API
change that breaks the benchmark shows here.  It runs in its own process:
``tests/oracles.py`` and ``perfbench/oracles.py`` share a module name and
cannot be collected in one session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/test_spans.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


def test_benchmark_trace_targets_exist():
    # the traced benchmark wraps these names; a deleted one fails here first
    code = (
        "import sys; from functools import reduce\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import holant.cli, run\n"
        "for module, name, _ in run._trace_targets():\n"
        "    reduce(getattr, name.split('.'), module)\n"
        "print(len(run._trace_targets()))\n"
    )
    check = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    assert check.returncode == 0, check.stderr[-3000:]
    assert int(check.stdout) > 0


def test_benchmark_probe_finds_no_mismatch():
    # the exact-sums probe sums matchings around a vertex of degree 13 or 14
    code = (
        "import sys\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import workloads\n"
        "for name, value, expected in workloads.known_defect_probe():\n"
        "    print(name, value == expected, value, expected)\n"
    )
    check = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    assert check.returncode == 0, check.stderr[-3000:]
    lines = check.stdout.split("\n")[:-1]
    assert lines and all(line.split()[1] == "True" for line in lines), check.stdout
