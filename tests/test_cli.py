import json
import math
import re

import pytest

import holant.cli as cli
from holant import (GraphFamilySpec, approx_partition, generate, load_model,
                    perturbed_ones, save_model)
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
    # colorings pass 1e5 terms early in the stream
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


def test_nan_budget_is_an_argument_error(capsys, monkeypatch):
    code, out, err = invoke(capsys, "exact", "--family", "cycle:4",
                            "--model", "matching", "--budget", "nan")
    assert (code, out) == (3, "") and "--budget is NaN" in err
    monkeypatch.setenv("HOLANT_BUDGET", "nan")
    code, out, err = invoke(capsys, "exact", "--family", "cycle:4", "--model", "matching")
    assert (code, out) == (3, "") and "HOLANT_BUDGET is NaN" in err
    # an infinite budget stays legal, and the flag still beats the environment
    code, out, _ = invoke(capsys, "exact", "--family", "cycle:4",
                          "--model", "matching", "--budget", "inf")
    assert code == 0 and json.loads(out)["value"] == {"re": 7.0, "im": 0.0}


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
    # the CLI's generated torus takes the same rooted stream as the library's
    cert = approx_partition(generate(GraphFamilySpec("torus", 4, size2=4)),
                            perturbed_ones(2, 0.02, seed=5), 1e-3)
    expected = json.loads(json.dumps(cert.to_json_dict()))
    assert {key: obj[key] for key in expected} == expected


def test_approx_near_the_boundary_past_order_170(capsys):
    code, out, _ = invoke(capsys, "approx", "--family", "cycle:3",
                          "--model", "ones+-uniform:0.15:4", "--eps", "1e-9")
    assert code == 0
    obj = json.loads(out)
    cert = approx_partition(generate(GraphFamilySpec("cycle", 3)),
                            perturbed_ones(2, 0.15, seed=4), 1e-9)
    assert obj["n"] == cert.order == 308
    expected = json.loads(json.dumps(cert.to_json_dict()))
    assert {key: obj[key] for key in expected} == expected


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


def test_additive_mode_prints_the_log_modulus(capsys):
    # --mode add prints log|p| in place of the value, for both evaluators
    code, out, _ = invoke(capsys, "approx", "--family", "cycle:5",
                          "--model", "ones+-uniform:0.01:2", "--eps", "0.05",
                          "--format", "text", "--mode", "add")
    assert code == 0
    cert = approx_partition(generate(GraphFamilySpec("cycle", 5)),
                            perturbed_ones(2, 0.01, seed=2), 0.05)
    assert cert.order == 1
    assert out.splitlines()[0] == f"log|p| = {cert.log_value.real:.17g}"
    assert "order = 1" in out.splitlines()
    code, out, _ = invoke(capsys, "exptype", "--family", "complete:5",
                          "--chi", "tutte:v=1", "--x", "40", "--radius", "10",
                          "--format", "text", "--mode", "add")
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(r"log\|p\| = \S+", lines[0]) and "mode = exp-coefficients" in lines
    assert math.isfinite(float(lines[0].split(" = ")[1]))


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
    assert obj["mode"] == "exp-coefficients"
    assert obj["requested_mode"] == "mult"
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


def test_exptype_json_keys(capsys):
    code, out, _ = invoke(capsys, "exptype", "--family", "cycle:12", "--chi", "tutte:v=1",
                          "--x", "40", "--radius", "10")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["value", "log_value", "M", "q0", "n", "bound", "deviation",
                         "mode", "heuristic", "requested_mode", "chi", "x", "root_radius"]
    assert (obj["mode"], obj["requested_mode"]) == ("exp-cluster", "mult")


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


def test_limits_bare_torus_means_square_tori(capsys):
    code, out, _ = invoke(capsys, "limits", "--family", "torus", "--sizes", "5,6",
                          "--model", "ones+-uniform:0.02:3", "--eps", "1e-2")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "torus" and obj["sizes"] == [5, 6]
    assert obj["engine_per_size"] == ["approx", "approx"]
    h = perturbed_ones(2, 0.02, seed=3)
    for side, value in zip((5, 6), obj["values"]):
        cert = approx_partition(generate(GraphFamilySpec("torus", side, size2=side)), h, 1e-2)
        assert value == pytest.approx(cert.log_value.real / side ** 2, rel=1e-12)


def test_limits_bare_family_that_needs_parameters_names_the_text(capsys):
    code, out, err = invoke(capsys, "limits", "--family", "regular", "--sizes", "10,12",
                            "--model", "ones:2")
    assert code == 3 and out == ""
    assert "bad family 'regular'" in err and "regular:0" not in err


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


def test_roots_rebuild_the_matching_count(capsys):
    code, out, _ = invoke(capsys, "roots", "--family", "regular:16,3,1",
                          "--model", "matching")
    assert code == 0
    obj = json.loads(out)
    coeffs = [complex(c["re"], c["im"]) for c in obj["coefficients"]]
    roots = [complex(r["re"], r["im"]) for r in obj["roots"]]
    assert obj["degree"] == len(roots) == 16
    assert sum(coeffs) == 10858
    rebuilt = coeffs[-1] * math.prod(1.0 - r for r in roots)
    assert abs(rebuilt - 10858) <= 1e-6


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


@pytest.mark.parametrize("argv, message", [
    (("region-check", "--family", "cycle:5", "--samples", "0"), "samples=0, k=2"),
    (("region-check", "--family", "cycle:5", "--k", "0"), "samples=100, k=0"),
    (("approx", "--family", "cycle:5", "--model", "ones+-uniform:0.01:2", "--eps", "nan"),
     "eps must be positive"),
    (("limits", "--family", "torus", "--sizes", "4,5", "--model", "ones+-uniform:0.05:3",
      "--eps", "nan"), "eps must be positive"),
    (("exptype", "--family", "cycle:12", "--chi", "tutte:v=1", "--x", "40",
      "--radius", "10", "--eps", "nan"), "eps must be positive"),
    (("exptype", "--family", "cycle:12", "--chi", "tutte:v=1", "--x", "40",
      "--radius", "-3"), "root radius must be nonnegative, not -3.0"),
    (("exptype", "--family", "cycle:12", "--chi", "tutte:v=1", "--x", "40",
      "--radius", "nan"), "root radius must be nonnegative, not nan"),
])
def test_inputs_that_certify_nothing_exit_1(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_constants_output(capsys):
    code, out, _ = invoke(capsys, "constants")
    assert code == 0
    obj = json.loads(out)
    assert obj["theta_star"] == pytest.approx(1.72066, abs=1e-4)
    assert obj["x_star"] == pytest.approx(1.12219, abs=1e-4)
    assert obj["beta_star"]["4"] == pytest.approx(0.98414, abs=1e-4)


def test_selftest_passes(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert "ok" in out.lower() or "pass" in out.lower()


def test_constants_and_selftest_refuse_options_they_ignore(capsys):
    # constants takes only --format, selftest no option at all
    assert invoke(capsys, "constants", "--format", "text")[0] == 0
    for argv in (("constants", "--budget", "5"), ("constants", "--seed", "1"),
                 ("selftest", "--format", "text")):
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("argument error: ")


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


def write_star(tmp_path, leaves):
    p = tmp_path / f"star{leaves}.el"
    p.write_text(f"{leaves + 1} {leaves}\n" + "".join(f"0 {v}\n" for v in range(1, leaves + 1)))
    return str(p)


def test_exact_matchings_on_a_star_past_degree_twelve(capsys, tmp_path):
    code, out, _ = invoke(capsys, "exact", "--graph", write_star(tmp_path, 13),
                          "--model", "matching", "--format", "text")
    assert code == 0
    assert out.strip() == "14"


def test_approx_refuses_a_degree_the_builtin_table_does_not_cover(capsys, tmp_path):
    code, out, err = invoke(capsys, "approx", "--graph", write_star(tmp_path, 13),
                            "--model", "ones+-uniform:0.01")
    assert code == 1
    assert out == "" and "up to norm 12" in err


def test_region_check_refuses_a_degree_the_model_does_not_cover(capsys):
    code, out, err = invoke(capsys, "region-check", "--model", "ones+-uniform:0.03",
                            "--max-degree", "13")
    assert code == 1
    assert "up to norm 12" in err


def test_model_file_coverage_survives_a_round_trip(capsys, tmp_path):
    first = tmp_path / "narrow.json"
    first.write_text('{"k": 2, "default": {"re": 1, "im": 0}, "entries": [], "max_norm": 2}')
    second = tmp_path / "copy.json"
    save_model(load_model(first), second)
    assert load_model(second).max_norm == 2
    for model in (first, second):
        code, _, err = invoke(capsys, "exact", "--family", "complete:4", "--model", str(model))
        assert code == 1 and "up to norm 2" in err
        code, out, _ = invoke(capsys, "exact", "--family", "cycle:5", "--model", str(model))
        assert code == 0 and json.loads(out)["value"] == {"re": 32.0, "im": 0.0}


def test_exact_refuses_a_sum_past_the_float_range(capsys, tmp_path):
    model = tmp_path / "huge.json"
    model.write_text('{"k": 2, "default": {"re": 1e200, "im": 0}, "entries": []}')
    code, out, err = invoke(capsys, "exact", "--family", "cycle:6", "--model", str(model))
    assert code == 1
    assert out == "" and "float range" in err
