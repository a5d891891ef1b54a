import json
import math
import re

import pytest

import holant.cli as cli
from holant.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_triangle(tmp_path):
    p = tmp_path / "tri.el"
    p.write_text("3 3\n0 1\n1 2\n0 2\n")
    return str(p)


def test_exact_matching_triangle_text(capsys, tmp_path):
    graph = write_triangle(tmp_path)
    code, out, _ = invoke(capsys, "exact", "--graph", graph,
                          "--model", "matching", "--format", "text")
    assert code == 0
    assert out.strip() == "4"


def test_exact_json_output(capsys):
    code, out, _ = invoke(capsys, "exact", "--family", "cycle:4",
                          "--model", "ones:3")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"re": 81.0, "im": 0.0}


def test_exact_requires_one_graph_source(capsys, tmp_path):
    code, _, err = invoke(capsys, "exact", "--model", "matching")
    assert code == 3
    graph = write_triangle(tmp_path)
    code, _, err = invoke(capsys, "exact", "--graph", graph,
                          "--family", "cycle:3", "--model", "matching")
    assert code == 3


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "exact", "--family", "cycle:notanumber",
                          "--model", "matching")
    assert code == 3
    code, _, _ = invoke(capsys, "nonsense-subcommand")
    assert code == 3


def test_budget_exit_code(capsys):
    code, _, err = invoke(capsys, "exact", "--family", "cycle:64",
                          "--model", "ones:2", "--budget", "1000")
    assert code == 2
    assert err.strip() != ""


def test_cluster_budget_exit_code(capsys):
    # order 9 on the 6x6 torus: 1 per streamed set plus each new shape's
    # subset loop and colorings pass 1e5 terms early in the stream
    code, _, err = invoke(capsys, "approx", "--family", "torus:6x6",
                          "--model", "ones+-uniform:0.02:1", "--eps", "1e-6",
                          "--budget", "1e5")
    assert code == 2
    assert re.search(r"terms spent against a budget of 100000, after \d+ sets "
                     r"streamed and \d+ shapes computed, at a set of size \d", err)


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOLANT_BUDGET", "1000")
    code, _, _ = invoke(capsys, "exact", "--family", "cycle:64",
                        "--model", "ones:2")
    assert code == 2
    # explicit flag beats the environment
    code, _, _ = invoke(capsys, "exact", "--family", "cycle:64",
                        "--model", "ones:2", "--budget", "1e18")
    assert code == 2  # still too big for terms budget? 2^64 > 1e18
    code, _, _ = invoke(capsys, "exact", "--family", "cycle:20",
                        "--model", "ones:2", "--budget", "1e7")
    assert code == 0


def test_approx_certificate_json(capsys):
    code, out, _ = invoke(capsys, "approx", "--family", "torus:4x4",
                          "--model", "ones+-uniform:0.02:5", "--eps", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "log_value", "M", "q0", "n", "bound",
                        "deviation", "mode", "heuristic", "requested_mode"}
    assert 0.0 < obj["q0"] < 1.0
    assert obj["bound"] <= 1e-3
    assert obj["requested_mode"] == "mult"


def test_approx_outside_region_exit_code(capsys):
    code, _, err = invoke(capsys, "approx", "--family", "cycle:6",
                          "--model", "ones+-uniform:0.9:1", "--eps", "1e-3")
    assert code == 1
    assert err.strip() != ""


def test_values_past_float_range_print_inf(capsys):
    code, out, _ = invoke(capsys, "approx", "--family", "cycle:1100",
                          "--model", "ones+-uniform:0.0001:7", "--eps", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"]["re"] == "inf" and 762 < obj["log_value"]["re"] < 763
    code, out, _ = invoke(capsys, "exptype", "--family", "regular:200,3",
                          "--chi", "tutte:v=1", "--x", "60", "--radius", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"]["re"] == "inf" and math.isfinite(obj["log_value"]["re"])


def test_tutte_value(capsys, tmp_path):
    graph = write_triangle(tmp_path)
    code, out, _ = invoke(capsys, "tutte", "--graph", graph,
                          "--q", "3", "--v", "-1", "--format", "text")
    assert code == 0
    assert float(out.strip()) == pytest.approx(6.0)


def test_exptype_eval_and_estimate(capsys, tmp_path):
    graph = write_triangle(tmp_path)
    code, out, _ = invoke(capsys, "exptype", "--graph", graph,
                          "--chi", "tutte:v=1", "--x", "10",
                          "--radius", "2.5", "--eps", "1e-4")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "exp-mult"
    assert obj["heuristic"] is False
    code, out, _ = invoke(capsys, "exptype", "--graph", graph,
                          "--chi", "tutte:v=1", "--x", "40",
                          "--estimate-radius", "--eps", "1e-4")
    assert code == 0
    obj = json.loads(out)
    assert obj["heuristic"] is True
    # missing radius entirely: precondition failure
    code, _, err = invoke(capsys, "exptype", "--graph", graph,
                          "--chi", "tutte:v=1", "--x", "10")
    assert code == 1
    assert "radius" in err


def test_exptype_chromatic_inside_region_refuses(capsys, tmp_path):
    graph = write_triangle(tmp_path)
    code, _, err = invoke(capsys, "exptype", "--graph", graph,
                          "--chi", "chromatic", "--x", "1",
                          "--radius", "3")
    assert code == 1


def test_limits_json(capsys):
    code, out, _ = invoke(capsys, "limits", "--family", "cycle",
                          "--sizes", "4,6,8", "--model", "ones:2",
                          "--tol", "1e-6")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "cycle"
    assert obj["sizes"] == [4, 6, 8]
    assert obj["cauchy"] is True
    for v in obj["values"]:
        assert v == pytest.approx(math.log(2.0))


def test_roots_output(capsys, tmp_path):
    graph = write_triangle(tmp_path)
    code, out, _ = invoke(capsys, "roots", "--graph", graph,
                          "--model", "matching")
    assert code == 0
    obj = json.loads(out)
    assert "roots" in obj and "coefficients" in obj
    assert len(obj["roots"]) >= 1
    # every reported root should make the polynomial vanish
    coeffs = [complex(c["re"], c["im"]) for c in obj["coefficients"]]
    for r in obj["roots"]:
        z = complex(r["re"], r["im"])
        val = sum(c * z ** i for i, c in enumerate(coeffs))
        assert abs(val) < 1e-6 * max(abs(c) for c in coeffs)


@pytest.mark.parametrize("command", ["exact", "roots"])
def test_non_finite_model_file_exit_code(capsys, tmp_path, command):
    graph = write_triangle(tmp_path)
    model = tmp_path / "nan.json"
    model.write_text('{"k": 2, "default": {"re": NaN, "im": 0}, "entries": []}')
    code, out, err = invoke(capsys, command, "--graph", graph, "--model", str(model))
    assert code == 3
    assert out == "" and "finite" in err


def test_region_check_model_report(capsys):
    code, out, _ = invoke(capsys, "region-check",
                          "--model", "ones+-uniform:0.02:3",
                          "--max-degree", "4")
    assert code == 0
    obj = json.loads(out)
    assert "deviation" in obj and "certified_radius" in obj


def test_region_check_graph_sampling(capsys):
    code, out, _ = invoke(capsys, "region-check", "--family", "cycle:5",
                          "--samples", "20", "--seed", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == []
    assert obj["samples"] == 20


def test_constants_output(capsys):
    code, out, _ = invoke(capsys, "constants")
    assert code == 0
    obj = json.loads(out)
    assert obj["theta_star"] == pytest.approx(1.72066, abs=1e-4)
    assert obj["x_star"] == pytest.approx(1.12219, abs=1e-4)
    assert obj["beta_star"]["4"] == pytest.approx(0.98414, abs=1e-4)


def test_selftest_passes(capsys):
    code, out, _ = invoke(capsys, "selftest", "--format", "text")
    assert code == 0
    assert "ok" in out.lower() or "pass" in out.lower()


def test_float_format_17_digits(capsys):
    code, out, _ = invoke(capsys, "constants")
    assert code == 0
    # 17 significant digits appear for theta
    assert "1.7206671780387595" in out


def test_run_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    real = cli._Parser.add_subparsers

    def counting(self, *args, **kwargs):
        builds.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", counting)
    cli._build_parser.cache_clear()
    assert invoke(capsys, "exact", "--family", "cycle:4", "--model", "matching")[0] == 0
    assert invoke(capsys, "exact", "--family", "cycle:4", "--no-such-flag")[0] == 3
    code, out, _ = invoke(capsys, "exact", "--family", "cycle:5", "--model", "matching")
    assert code == 0 and json.loads(out)["value"] == {"re": 11.0, "im": 0.0}
    assert builds == ["holant"]
