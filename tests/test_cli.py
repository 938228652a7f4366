"""CLI contract: subcommands, config validation, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from krtransport.cli import main
from krtransport.density import linear_density, uniform
from krtransport.indexsets import WeightVector, xi_from_anisotropy
from krtransport.studies import convergence_study, truncation_study

LINEAR2 = {"family": "linear", "c": [0.3, 0.2]}
UNIFORM2 = {"family": "uniform", "d": 2}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(args):
    return main([str(a) for a in args])


def test_convergence_study_and_rerun_bitwise(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "reference": UNIFORM2,
        "target": LINEAR2,
        "xi": {"alpha": 0.5},
        "epsilon_list": [0.1, 0.03, 0.01],
        "seed": 7,
        "n_cloud": 64,
        "distance_grid_order": 12,
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(["--config", cfg, "--out", out1, "study", "convergence"]) == 0
    assert _run(["--config", cfg, "--out", out2, "study", "convergence"]) == 0
    assert (out1 / "convergence.csv").read_bytes() == (
        out2 / "convergence.csv").read_bytes()
    assert (out1 / "convergence.json").read_bytes() == (
        out2 / "convergence.json").read_bytes()
    rows = (out1 / "convergence.csv").read_text().strip().split("\n")
    assert len(rows) == 4


def test_truncation_study(tmp_path):
    cfg = _write(tmp_path, "t.json", {
        "amplitude": 0.4,
        "s": 2.0,
        "d_max": 4,
        "epsilon_list": [0.3, 0.1, 0.03],
        "seed": 3,
        "n_cloud": 32,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "study", "truncation"]) == 0
    data = json.loads((tmp_path / "truncation.json").read_text())
    assert data["fit"]["model"] == "algebraic"
    assert len(data["records"]) == 3


def test_posterior_study(tmp_path, monkeypatch):
    # the run normalises the posterior once: the CLI hands the Density it
    # validated to the study, which does not build it again
    from krtransport import density, studies

    build = density.gaussian_posterior
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    for module in (density, studies):
        monkeypatch.setattr(module, "gaussian_posterior", counted)
    cfg = _write(tmp_path, "p.json", {
        "A": [[1.0, 0.5]],
        "varsigma": [0.3],
        "sigma": 0.8,
        "epsilon": 0.01,
        "n_samples": 100,
        "seed": 5,
        "distance_grid_order": 12,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "study", "posterior"]) == 0
    assert len(built) == 1
    rep = json.loads((tmp_path / "posterior.json").read_text())
    assert rep["N_eps"] > 0
    samples = (tmp_path / "posterior_samples.csv").read_text().strip().split("\n")
    assert len(samples) == 101  # header + rows


def test_approx_build_then_eval_bitwise(tmp_path):
    bcfg = _write(tmp_path, "b.json", {
        "reference": UNIFORM2,
        "target": LINEAR2,
        "xi": {"alpha": 0.5},
        "epsilon": 0.01,
    })
    assert _run(["--config", bcfg, "--out", tmp_path, "approx", "build"]) == 0
    map_file = tmp_path / "approx_transport.json"
    pts = [[0.0, 0.0], [0.5, -0.25], [-0.9, 0.9]]
    ecfg_fresh = _write(tmp_path, "e1.json", {
        "reference": UNIFORM2, "target": LINEAR2, "mode": "approx",
        "xi": {"alpha": 0.5}, "epsilon": 0.01, "points": pts,
    })
    ecfg_loaded = _write(tmp_path, "e2.json", {
        "reference": UNIFORM2, "target": LINEAR2, "mode": "approx",
        "map_file": str(map_file), "points": pts,
    })
    o1, o2 = tmp_path / "f", tmp_path / "l"
    assert _run(["--config", ecfg_fresh, "--out", o1, "transport", "eval"]) == 0
    assert _run(["--config", ecfg_loaded, "--out", o2, "transport", "eval"]) == 0
    a = json.loads((o1 / "transport_eval.json").read_text())["mapped"]
    b = json.loads((o2 / "transport_eval.json").read_text())["mapped"]
    assert a == b  # serialized map reproduces the fresh fit bitwise


def test_transport_eval_exact_and_inverse(tmp_path):
    pts = [[0.2, -0.3]]
    fcfg = _write(tmp_path, "f.json", {
        "reference": UNIFORM2, "target": LINEAR2, "points": pts,
    })
    assert _run(["--config", fcfg, "--out", tmp_path, "transport", "eval"]) == 0
    y = json.loads((tmp_path / "transport_eval.json").read_text())["mapped"]
    icfg = _write(tmp_path, "i.json", {
        "reference": UNIFORM2, "target": LINEAR2, "points": y, "inverse": True,
    })
    assert _run(["--config", icfg, "--out", tmp_path, "transport", "eval"]) == 0
    back = json.loads((tmp_path / "transport_eval.json").read_text())["mapped"]
    assert abs(back[0][0] - 0.2) < 1e-8 and abs(back[0][1] + 0.3) < 1e-8


def test_distance_between_densities(tmp_path):
    cfg = _write(tmp_path, "d.json", {
        "f": LINEAR2, "g": UNIFORM2, "grid_order": 12,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "distance"]) == 0
    rep = json.loads((tmp_path / "distance.json").read_text())
    assert rep["tv"] > 0 and rep["hellinger"] > 0


def test_sample_deterministic_and_seed_flag(tmp_path):
    cfg = _write(tmp_path, "s.json", {
        "target": LINEAR2, "xi": {"alpha": 0.5}, "epsilon": 0.01,
        "n_samples": 20, "seed": 11,
    })
    o1, o2, o3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run(["--config", cfg, "--out", o1, "sample"]) == 0
    assert _run(["--config", cfg, "--out", o2, "sample"]) == 0
    assert (o1 / "samples.csv").read_bytes() == (o2 / "samples.csv").read_bytes()
    assert _run(["--config", cfg, "--out", o3, "--seed", "99", "sample"]) == 0
    assert (o1 / "samples.csv").read_bytes() != (o3 / "samples.csv").read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "target": LINEAR2, "epsilon": 0.1, "bogus": 1,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "sample"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "bogus" in err["error"]


def test_missing_required_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"reference": UNIFORM2})
    assert _run(["--config", cfg, "--out", tmp_path, "approx", "build"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


def test_bad_density_family(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "f": {"family": "nope"}, "g": UNIFORM2,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "distance"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


PEAKED2 = {"family": "gaussian_posterior", "A": [[4.0, 2.0]],
           "varsigma": [0.3], "sigma": 0.05}


def test_numerical_error_exit_code(tmp_path, capsys):
    # a valid config whose exact map cannot be resolved: the conditional
    # density of component 1 needs more than 257 Chebyshev coefficients
    cfg = _write(tmp_path, "n.json", {
        "reference": UNIFORM2, "target": PEAKED2, "points": [[0.1, 0.2]],
    })
    rc = _run(["--config", cfg, "--out", tmp_path, "transport", "eval"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "component 1" in err["error"]


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    assert _run(["--config", p, "--out", tmp_path, "distance"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


def test_points_file_csv(tmp_path):
    pf = tmp_path / "pts.csv"
    pf.write_text("0.1,0.2\n-0.3,0.4\n")
    cfg = _write(tmp_path, "c.json", {
        "reference": UNIFORM2, "target": LINEAR2, "points_file": str(pf),
    })
    assert _run(["--config", cfg, "--out", tmp_path, "transport", "eval"]) == 0
    out = json.loads((tmp_path / "transport_eval.json").read_text())
    assert len(out["mapped"]) == 2


@pytest.mark.parametrize("points, csv", [
    ([[2.0, 0.0]], None),
    ([[float("nan"), 0.0]], None),
    (None, "nan,0.1\n"),
    ([[0.1], [0.2, 0.3]], None),
], ids=["out_of_range", "nan_inline", "nan_csv", "ragged_inline"])
def test_points_out_of_domain(tmp_path, capsys, points, csv):
    spec = {"reference": UNIFORM2, "target": LINEAR2}
    if csv is None:
        spec["points"] = points
    else:
        pf = tmp_path / "pts.csv"
        pf.write_text(csv)
        spec["points_file"] = str(pf)
    cfg = _write(tmp_path, "c.json", spec)
    assert _run(["--config", cfg, "--out", tmp_path, "transport", "eval"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"
    assert not (tmp_path / "transport_eval.json").exists()


@pytest.mark.parametrize("command, spec", [
    (["approx", "build"], {"xi": [0.5, 2.0]}),
    (["approx", "build"], {"xi": {"alpha": -1}}),
    (["approx", "build"], {"epsilon": "abc"}),
    (["sample"], {"n_samples": "x"}),
], ids=["weight_below_one", "negative_alpha", "epsilon_not_a_number",
        "n_samples_not_a_number"])
def test_malformed_xi_is_config_error(tmp_path, capsys, command, spec):
    cfg = _write(tmp_path, "x.json", {
        "reference": UNIFORM2, "target": LINEAR2, "xi": {"alpha": 0.5},
        "epsilon": 0.1, **spec,
    })
    assert _run(["--config", cfg, "--out", tmp_path, *command]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


BUILD2 = {"reference": UNIFORM2, "target": LINEAR2, "xi": {"alpha": 0.5},
          "epsilon": 0.1}
EVAL2 = {"reference": UNIFORM2, "target": LINEAR2, "points": [[0.1, 0.2]]}
TRUNC = {"amplitude": 0.4, "s": 2.0, "d_max": 3, "epsilon_list": [0.3]}
CONV2 = {"reference": UNIFORM2, "target": LINEAR2, "xi": {"alpha": 0.5},
         "epsilon_list": [0.3]}
POSTERIOR2 = {"A": [[1.0, 0.5]], "varsigma": [0.3], "sigma": 0.8,
              "epsilon": 0.1, "n_samples": 10, "distance_grid_order": 6}


@pytest.mark.parametrize("command, base, spec", [
    (["approx", "build"], BUILD2, {"epsilon": 2.0}),
    (["approx", "build"], BUILD2, {"epsilon": 0.0}),
    (["sample"], BUILD2, {"n_samples": -3}),
    (["sample"], BUILD2, {"n_samples": 2.5}),
    (["sample"], BUILD2, {"n_samples": True}),
    (["sample"], BUILD2, {"seed": -1}),
    (["study", "truncation"], TRUNC, {"d_max": 0}),
    (["study", "truncation"], TRUNC, {"n_cloud": 0}),
    (["study", "truncation"], TRUNC, {"alpha": -1.0}),
    (["study", "convergence"], CONV2, {"epsilon_list": [0.1, 1.5]}),
    (["study", "convergence"], CONV2, {"distance_grid_order": 0}),
    (["distance"], {"f": LINEAR2, "g": UNIFORM2}, {"grid_order": -2}),
    (["transport", "eval"], EVAL2, {"inverse": "false"}),
    (["study", "convergence"], CONV2, {"timing": "false"}),
    (["study", "posterior"], POSTERIOR2, {"varsigma": [0.3, 0.1]}),
    (["study", "posterior"], POSTERIOR2, {"sigma": 0.0}),
    (["study", "posterior"], POSTERIOR2, {"A": [["a", 0.5]]}),
    (["study", "posterior"], POSTERIOR2, {"A": [[1.0, 0.5, 0.2, 0.1, 0.1]]}),
    (["study", "posterior"], POSTERIOR2, {"A": [[1.0, 0.0]]}),
    (["study", "posterior"], POSTERIOR2, {"n_samples": 1}),
    (["approx", "build"], BUILD2, {"xi": [2.0]}),
    (["approx", "build"], BUILD2, {"xi": {"anisotropy": [0.3]}}),
    (["study", "truncation"], TRUNC, {"s": True}),
    (["study", "truncation"], TRUNC, {"alpha": True}),
    (["study", "posterior"], POSTERIOR2, {"sigma": True}),
    (["approx", "build"], BUILD2, {"xi": {"alpha": True}}),
    (["approx", "build"], BUILD2, {"reference": {"family": "uniform", "d": 2.5}}),
    (["distance"], {"f": {"family": "linear", "c": [0.4]}},
     {"g": {"family": "uniform", "d": True}}),
    (["study", "posterior"], POSTERIOR2, {"A": [[True, 0.5]]}),
    (["study", "posterior"], POSTERIOR2, {"varsigma": [True]}),
    (["transport", "eval"], EVAL2, {"target": {"family": "linear", "c": [0.3, False]}}),
    (["approx", "build"], BUILD2, {"xi": {"anisotropy": [True, 0.2]}}),
    (["approx", "build"], BUILD2, {"xi": [2.0, True]}),
    (["transport", "eval"], EVAL2, {"points": [[True, 0.2]]}),
], ids=["epsilon_above_one", "epsilon_zero", "n_samples_negative",
        "n_samples_fractional", "n_samples_boolean", "seed_negative", "d_max_zero", "n_cloud_zero",
        "alpha_negative", "epsilon_list_above_one", "distance_grid_order_zero",
        "grid_order_negative", "inverse_string", "timing_string",
        "posterior_varsigma_length", "posterior_sigma_zero",
        "posterior_A_not_numeric", "posterior_d5", "posterior_zero_column",
        "posterior_one_sample", "xi_too_short", "xi_anisotropy_too_short",
        "s_boolean", "alpha_boolean", "posterior_sigma_boolean",
        "xi_alpha_boolean", "uniform_d_fractional", "uniform_d_boolean",
        "posterior_A_boolean", "posterior_varsigma_boolean", "linear_c_boolean",
        "xi_anisotropy_boolean", "xi_list_boolean", "points_boolean"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, command, base, spec):
    cfg = _write(tmp_path, "r.json", {**base, **spec})
    assert _run(["--config", cfg, "--out", tmp_path / "o", *command]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


NAN = float("nan")


@pytest.mark.parametrize("api, command, base, spec", [
    (lambda: linear_density([NAN, 0.2]), ["approx", "build"], BUILD2,
     {"target": {"family": "linear", "c": [NAN, 0.2]}}),
    (lambda: WeightVector((NAN, 2.0)), ["approx", "build"], BUILD2,
     {"xi": [NAN, 2.0]}),
    (lambda: xi_from_anisotropy([NAN, 0.2]), ["approx", "build"], BUILD2,
     {"xi": {"anisotropy": [NAN, 0.2]}}),
    (lambda: truncation_study(0.0, 2.0, 3, [0.3]), ["study", "truncation"],
     TRUNC, {"amplitude": 0.0}),
    (lambda: truncation_study(2.0, 2.0, 3, [0.3]), ["study", "truncation"],
     TRUNC, {"amplitude": 2.0}),
    (lambda: truncation_study(0.4, NAN, 3, [0.3]), ["study", "truncation"],
     TRUNC, {"s": NAN}),
    (lambda: truncation_study(0.3, 2.0, 3, []), ["study", "truncation"],
     TRUNC, {"amplitude": 0.3, "s": 2, "epsilon_list": []}),
    (lambda: convergence_study(uniform(2), linear_density([0.3, 0.2]),
                               WeightVector((2.0, 3.0)), []),
     ["study", "convergence"], CONV2, {"epsilon_list": []}),
], ids=["linear_c_nan", "xi_nan", "anisotropy_nan", "amplitude_zero",
        "amplitude_not_positive_density", "s_nan",
        "truncation_epsilon_list_empty", "convergence_epsilon_list_empty"])
def test_invalid_value_is_api_and_config_error(tmp_path, capsys, api, command,
                                               base, spec):
    with pytest.raises(ValueError):
        api()
    cfg = _write(tmp_path, "v.json", {**base, **spec})
    assert _run(["--config", cfg, "--out", tmp_path / "o", *command]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, base, name", [
    (["study", "truncation"], TRUNC, "truncation.json"),
    (["study", "convergence"], {**CONV2, "n_cloud": 16, "distance_grid_order": 6},
     "convergence.json"),
], ids=["truncation", "convergence"])
def test_one_epsilon_study_writes_strict_json(tmp_path, command, base, name):
    # one epsilon gives a degenerate rate fit, whose NaNs are written as null
    cfg = _write(tmp_path, "j.json", base)
    assert _run(["--config", cfg, "--out", tmp_path, *command]) == 0
    data = json.loads((tmp_path / name).read_text(), parse_constant=_no_constant)
    fit = data["fit"]
    assert fit["status"] == "degenerate"
    assert fit["slope"] is None and fit["intercept"] is None
    assert fit["r_squared"] is None


def test_negative_amplitude_is_a_valid_truncation_target(tmp_path):
    cfg = _write(tmp_path, "t.json", {**TRUNC, "amplitude": -0.4})
    assert _run(["--config", cfg, "--out", tmp_path, "study", "truncation"]) == 0


def test_seed_flag_is_range_checked(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", BUILD2)
    with pytest.raises(SystemExit) as exc:
        _run(["--config", cfg, "--out", tmp_path, "--seed", "-1", "sample"])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "--seed" in err["error"]


@pytest.mark.parametrize("value", [True, False])
def test_boolean_keys_are_json_booleans(tmp_path, value):
    pts = [[0.2, -0.3]]
    cfg = _write(tmp_path, "b.json", {**EVAL2, "points": pts, "inverse": value})
    assert _run(["--config", cfg, "--out", tmp_path, "transport", "eval"]) == 0
    out = json.loads((tmp_path / "transport_eval.json").read_text())
    assert out["inverse"] is value
    tcfg = _write(tmp_path, "t.json", {**TRUNC, "timing": value})
    assert _run(["--config", tcfg, "--out", tmp_path, "study", "truncation"]) == 0
    walls = [r["wall_ms"] for r in
             json.loads((tmp_path / "truncation.json").read_text())["records"]]
    assert all(w > 0 for w in walls) if value else walls == [0.0]


@pytest.mark.parametrize("command", [["transport", "eval"], ["distance"]],
                         ids=["transport_eval", "distance"])
@pytest.mark.parametrize("content", [None, "{}", "{not json"],
                         ids=["missing", "empty_object", "invalid_json"])
def test_bad_map_file_is_config_error(tmp_path, capsys, command, content):
    map_file = tmp_path / "map.json"
    if content is not None:
        map_file.write_text(content)
    cfg = _write(tmp_path, "m.json", {
        "reference": UNIFORM2, "target": LINEAR2,
        "map_file": str(map_file),
        **({"mode": "approx", "points": [[0.1, 0.2]]}
           if command[0] == "transport" else {}),
    })
    assert _run(["--config", cfg, "--out", tmp_path, *command]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "map" in err["error"]


@pytest.mark.parametrize("command", [["transport", "eval"], ["distance"]],
                         ids=["transport_eval", "distance"])
def test_map_file_components_out_of_order_is_config_error(tmp_path, capsys,
                                                          command):
    assert _run(["--config", _write(tmp_path, "b.json", BUILD2), "--out",
                 tmp_path, "approx", "build"]) == 0
    map_file = tmp_path / "approx_transport.json"
    tmap = json.loads(map_file.read_text())
    tmap["components"].reverse()
    map_file.write_text(json.dumps(tmap))
    cfg = _write(tmp_path, "m.json", {
        "reference": UNIFORM2, "target": LINEAR2, "map_file": str(map_file),
        **({"mode": "approx", "points": [[0.1, 0.2]]}
           if command[0] == "transport" else {}),
    })
    assert _run(["--config", cfg, "--out", tmp_path, *command]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "in order" in err["error"]


@pytest.mark.parametrize("command", [["transport", "eval"], ["distance"]],
                         ids=["transport_eval", "distance"])
@pytest.mark.parametrize("edit, rc, kind, text", [
    (lambda c: c["p_coeffs"]["terms"][0].update(coeff=float("nan")),
     2, "config", "non-finite coefficient"),
    (lambda c: c["lambda"].update(k=1), 2, "config", "lambda is for k = 1"),
    # finite when read, but c_k = 2 sum b_n^2 overflows: the component
    # is named instead of writing null values
    (lambda c: c["p_coeffs"]["terms"][0].update(coeff=1e300),
     3, "numerical", "component 2"),
], ids=["nan_coeff", "lambda_k", "overflowing_coeff"])
def test_invalid_map_file_values(tmp_path, capsys, command, edit, rc, kind, text):
    assert _run(["--config", _write(tmp_path, "b.json", BUILD2), "--out",
                 tmp_path, "approx", "build"]) == 0
    map_file = tmp_path / "approx_transport.json"
    tmap = json.loads(map_file.read_text())
    edit(tmap["components"][1])
    map_file.write_text(json.dumps(tmap))
    capsys.readouterr()
    cfg = _write(tmp_path, "m.json", {
        "reference": UNIFORM2, "target": LINEAR2, "map_file": str(map_file),
        **({"mode": "approx", "points": [[0.1, 0.2]]}
           if command[0] == "transport" else {}),
    })
    assert _run(["--config", cfg, "--out", tmp_path, *command]) == rc
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == kind and text in err["error"]


@pytest.mark.parametrize("d, grid", [(8, "15 x 15")], ids=["d8_grid"])
def test_distance_grid_too_large_is_numerical_error(tmp_path, capsys, d, grid):
    # the grid is refused before it is allocated: 15^8 nodes
    cfg = _write(tmp_path, "g.json", {
        "f": {"family": "linear", "c": [0.1] * d},
        "g": {"family": "uniform", "d": d},
    })
    assert _run(["--config", cfg, "--out", tmp_path, "distance"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert grid in err["error"] and "MAX_GRID_COORDINATES" in err["error"]


def test_distance_d5_reports_null_oversampled_tv(tmp_path):
    # the 15^5 grid of the distances fits, the oversampled 60^5 TV grid
    # does not: the distances are reported and tv_oversampled is null
    cfg = _write(tmp_path, "g.json", {
        "f": {"family": "linear", "c": [0.1] * 5},
        "g": {"family": "uniform", "d": 5},
    })
    assert _run(["--config", cfg, "--out", tmp_path, "distance"]) == 0
    report = json.loads((tmp_path / "distance.json").read_text())
    assert report["tv_oversampled"] is None
    assert report["grid_orders"] == [15] * 5
    assert 0.0 < report["tv"] < 1.0 and 0.0 < report["hellinger"] < 1.0


UNIFORM3 = {"family": "uniform", "d": 3}
LINEAR3 = {"family": "linear", "c": [0.3, 0.2, 0.1]}


@pytest.mark.parametrize("command, spec", [
    (["distance"], {"reference": UNIFORM3, "target": LINEAR2}),
    (["distance"], {"reference": UNIFORM2, "target": LINEAR3}),
    (["transport", "eval"], {"reference": UNIFORM3, "target": LINEAR3,
                             "mode": "approx", "points": [[0.1, 0.2, 0.3]]}),
    (["transport", "eval"], {"reference": UNIFORM3, "target": LINEAR2,
                             "mode": "exact", "points": [[0.1, 0.2, 0.3]]}),
    (["approx", "build"], {"reference": UNIFORM3, "target": LINEAR2,
                           "epsilon": 1e-2}),
    (["sample"], {"reference": UNIFORM3, "target": LINEAR2, "epsilon": 1e-2}),
    (["study", "convergence"], {"reference": UNIFORM3, "target": LINEAR2,
                                "epsilon_list": [1e-1]}),
], ids=["distance_reference", "distance_target", "eval_approx_map",
        "eval_exact_target", "approx_build", "sample", "study_convergence"])
def test_dimension_mismatch_is_config_error(tmp_path, capsys, command, spec):
    # distance and the approximate transport eval read a d = 2 map
    if command == ["distance"] or spec.get("mode") == "approx":
        build = _write(tmp_path, "b.json", {
            "reference": UNIFORM2, "target": LINEAR2, "xi": {"alpha": 0.5},
            "epsilon": 1e-2,
        })
        assert _run(["--config", build, "--out", tmp_path, "approx", "build"]) == 0
        capsys.readouterr()
        spec = {**spec, "map_file": str(tmp_path / "approx_transport.json")}
    cfg = _write(tmp_path, "m.json", spec)
    assert _run(["--config", cfg, "--out", tmp_path / "o", *command]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "dimensions differ" in err["error"]


def test_peaked_posterior_names_component(tmp_path, capsys):
    # the conditional density of component 1 needs more than the largest
    # Chebyshev series allowed: a numerical error naming the component
    cfg = _write(tmp_path, "p.json", {
        "A": [[4.0, 2.0]], "varsigma": [0.3], "sigma": 0.05,
        "epsilon": 0.01, "n_samples": 100, "distance_grid_order": 12,
    })
    assert _run(["--config", cfg, "--out", tmp_path, "study", "posterior"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "component 1" in err["error"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "krtransport.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "transport" in proc.stdout and "study" in proc.stdout
