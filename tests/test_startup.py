"""Start-up cost: numpy is loaded on first numeric use, never by the import.

Everything runs in one fresh interpreter, so the modules the test session
has already imported do not hide an eager import.  The child prints one JSON
object of what it saw; the assertions stay here.  The package's
``__all__`` must also name every public name that it imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib, io, json, runpy, sys

seen = {}
import holant, holant.cli
seen["numpy after import"] = "numpy" in sys.modules

codes = {}
for argv in (["exact", "--family", "cycle:4", "--model", "matching"],
             ["constants"],
             ["region-check", "--family", "regular:10,3,1", "--samples", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = holant.cli.run(argv)

# python -m holant runs the same front end
sys.argv = ["holant", "exact", "--family", "cycle:4", "--model", "matching",
            "--format", "text"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("holant", run_name="__main__")
    except SystemExit as exc:
        codes["-m holant"] = exc.code
seen["-m holant output"] = out.getvalue().strip()
seen["numpy after commands"] = "numpy" in sys.modules

# no module binds numpy at import, so each numeric entry point imports it itself
from holant import (ComplexPoly, Multigraph, VertexModel, cycle_transfer_pf,
                    exact_partition, model_from_predicate, perturbed_ones,
                    poly_roots, random_orthogonal, symmetric_decompose,
                    vertex_to_edge)
seen["roots"] = [z.real for z in poly_roots(ComplexPoly((2.0, -3.0, 1.0)))]
seen["numpy after roots"] = "numpy" in sys.modules
seen["cycle"] = cycle_transfer_pf(model_from_predicate("matching"), 4).real
seen["perturbed k"] = perturbed_ones(2, 0.05, seed=5).k
q = random_orthogonal(3, seed=0)
import numpy as np
seen["orthogonality"] = float(np.abs(q.T @ q - np.eye(3)).max())
vm = VertexModel([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]])
h = vertex_to_edge(vm, symmetric_decompose(vm.B))
triangle = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
seen["independent sets"] = exact_partition(triangle, h).real
seen["scipy"] = "scipy" in sys.modules
seen["codes"] = codes
print(json.dumps(seen))
"""


def test_numpy_loads_on_first_numeric_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-3000:]
    seen = json.loads(child.stdout.splitlines()[-1])
    assert not seen["numpy after import"]
    assert seen["codes"] == {"exact": 0, "constants": 0, "region-check": 0,
                             "-m holant": 0}
    assert seen["-m holant output"] == "7"
    assert not seen["numpy after commands"]
    assert seen["roots"] == pytest.approx([1.0, 2.0])
    assert seen["numpy after roots"]
    assert seen["cycle"] == 7.0
    assert seen["perturbed k"] == 2
    assert seen["orthogonality"] < 1e-12
    assert abs(seen["independent sets"] - 4.0) < 1e-9
    assert not seen["scipy"]


def test_all_names_every_public_import():
    import types

    import holant

    public = {name for name, value in vars(holant).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(holant.__all__)
    assert "qhat_derivative" in holant.__all__
