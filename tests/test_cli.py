"""CLI: config validation, exit codes, report artifacts, determinism."""

import json
from pathlib import Path

import pytest

from sprayform.cli import CONFIG_SCHEMA, load_config, main, parse_config
from sprayform.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _fast_poisson(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "kind": "poisson",
        "chart": {"dim": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "coefficients": {"pi": {"12": "1"}},
        "numerics": {"quad_nodes": 16, "mu_steps": 8, "samples": 15,
                     "seed": 5, "mult_pairs": 4, "assoc_triples": 2},
        "outputs": {"report": "r.json", "csv": "r.csv"},
    }
    cfg.update(overrides)
    return _write(tmp_path, cfg)


# ---------------------------------------------------------------------------
# schema validation


def test_unknown_top_level_key_rejected(tmp_path):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["surprise"] = 1
    bad = _write(tmp_path, raw, "bad.json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_unknown_numerics_key_rejected(tmp_path):
    # ode_tol was once accepted and read by nothing
    for key in ("bogus", "ode_tol"):
        path = _fast_poisson(tmp_path)
        raw = json.loads(Path(path).read_text())
        raw["numerics"][key] = 3
        bad = _write(tmp_path, raw, "bad.json")
        with pytest.raises(ConfigError):
            load_config(bad)


def test_kind_specific_requirements(tmp_path):
    raw = {
        "schema_version": 1,
        "kind": "jacobi",
        "chart": {"dim": 1, "box": [[-1, 1]]},
        "coefficients": {"pi": {}},   # missing R
    }
    bad = _write(tmp_path, raw)
    with pytest.raises(ConfigError):
        load_config(bad)


def test_malformed_R_is_config_error_in_every_subcommand(tmp_path, capsys):
    raw = {
        "schema_version": 1,
        "kind": "jacobi",
        "chart": {"dim": 1, "box": [[-1.0, 1.0]]},
        "coefficients": {"pi": {}, "R": ["1", "0"]},   # R needs 1 component
        "numerics": {"quad_nodes": 16, "samples": 10, "seed": 6},
    }
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert main(["convergence", "--config", path, "--out-dir", str(tmp_path),
                 "--ladder", "8,16"]) == 2
    assert main(["eval", "--config", path, "--point", "0,0,0"]) == 2
    assert "R needs one component" in capsys.readouterr().err
    # a well-formed config with a malformed ladder
    raw["coefficients"]["R"] = ["1"]
    path = _write(tmp_path, raw, "good_R.json")
    for ladder in ("16,32,abc", "16,32,", "16x,32,64", "0,16,32", "16,32"):
        assert main(["convergence", "--config", path, "--out-dir",
                     str(tmp_path), "--ladder", ladder]) == 2
        assert "config error: --ladder" in capsys.readouterr().err


def test_malformed_christoffel_is_config_error(tmp_path, capsys):
    raw = json.loads((CONFIGS / "constant_poisson.json").read_text())
    raw["coefficients"]["christoffel"] = [[["0"]]]
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "christoffel must be an r x n x r array" in capsys.readouterr().err
    n = raw["chart"]["dim"]
    raw["coefficients"]["christoffel"] = [[["0"] * n] * n] * n
    _, _, _, inputs = parse_config(raw)
    assert len(inputs["christoffel"]) == n


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == CONFIG_SCHEMA


def test_bad_expression_is_config_error(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["coefficients"]["pi"] = {"12": "x1*("}
    bad = _write(tmp_path, raw, "bad.json")
    assert main(["check", "--config", bad]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_pass_and_artifacts(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    code = main(["check", "--config", path, "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["schema_version"] == 1
    assert report["verdict"] == "pass"
    assert all(c["verdict"] == "pass" for c in report["checks"])
    csv_text = (tmp_path / "r.csv").read_text()
    assert csv_text.splitlines()[0] == "check,residual,tolerance,verdict"


def test_check_byte_identical_reports(tmp_path):
    path = _fast_poisson(tmp_path)
    main(["check", "--config", path, "--out-dir", str(tmp_path / "a")])
    main(["check", "--config", path, "--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "r.json").read_bytes() == \
        (tmp_path / "b" / "r.json").read_bytes()
    assert (tmp_path / "a" / "r.csv").read_bytes() == \
        (tmp_path / "b" / "r.csv").read_bytes()


def test_check_non_poisson_is_runtime_error(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["chart"] = {"dim": 3, "box": [[-1, 1]] * 3}
    raw["coefficients"]["pi"] = {"12": "-1", "23": "x2"}
    bad = _write(tmp_path, raw, "bad.json")
    code = main(["check", "--config", bad, "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "poisson_identity" in err


def test_check_failure_exit_code(tmp_path):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    # an unreachable tolerance forces a check failure (exit 1)
    raw["numerics"]["tolerances"] = {"multiplicativity": 1e-300}
    bad = _write(tmp_path, raw, "hard.json")
    code = main(["check", "--config", bad, "--out-dir", str(tmp_path)])
    assert code == 1


def test_check_raw_algebroid(tmp_path):
    raw = {
        "schema_version": 1,
        "kind": "raw_algebroid",
        "chart": {"dim": 3, "box": [[-1, 1]] * 3},
        "coefficients": {
            # rotation action algebroid: rho(e_i) = L_i, [L_i, L_j] = -L_k
            "rank": 3,
            "anchor": [["0", "x3", "-x2"], ["-x3", "0", "x1"],
                       ["x2", "-x1", "0"]],
            "c": [[["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
                  [["0", "0", "1"], ["0", "0", "0"], ["-1", "0", "0"]],
                  [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]],
        },
        "numerics": {"samples": 20, "seed": 4},
        "outputs": {"report": "raw.json", "csv": "raw.csv"},
    }
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# eval and convergence


def test_eval_flat_canonical_value(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "kind": "poisson",
        "chart": {"dim": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "coefficients": {"pi": {}},
        "numerics": {"quad_nodes": 16, "samples": 10, "seed": 5,
                     "mult_pairs": 2, "assoc_triples": 2},
    }
    path = _write(tmp_path, cfg)
    code = main(["eval", "--config", path, "--point", "0,0,0,0",
                 "--vectors", "1,0,0,0;0,0,1,0",
                 "--pair", "0,0,0.2,0.1|0,0,-0.1,0.3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    # omega_0(e_x, e_p) = 1 in this sign convention
    assert out["omega_on_vectors"] == pytest.approx(1.0, abs=1e-12)
    assert out["omega"]["13"] == pytest.approx(1.0, abs=1e-14)
    assert out["mu"] == pytest.approx([0.0, 0.0, 0.1, 0.4], abs=1e-10)
    assert out["Pi"] is not None


def test_eval_out_of_box_is_runtime_error(tmp_path, capsys):
    cfg_path = _fast_poisson(tmp_path)
    code = main(["eval", "--config", cfg_path, "--point", "5,0,0,0"])
    assert code == 3


def test_eval_jacobi_cocycle(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "kind": "jacobi",
        "chart": {"dim": 1, "box": [[-1.0, 1.0]]},
        "coefficients": {"pi": {}, "R": ["1"]},
        "numerics": {"quad_nodes": 32, "samples": 10, "seed": 6},
    }
    path = _write(tmp_path, cfg)
    code = main(["eval", "--config", path, "--point", "0.0,0.3,0.5"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cocycle"] == pytest.approx(0.5, abs=1e-12)


def test_convergence_command(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    code = main(["convergence", "--config", path, "--out-dir", str(tmp_path),
                 "--ladder", "8,16,32"])
    assert code == 0
    table = (tmp_path / "convergence.csv").read_text().splitlines()
    assert table[0] == "n_quad,substeps,h,error,fitted_order"
    assert len(table) == 4


def test_bundled_configs_validate():
    for name in ("so3.json", "jacobi_line.json", "constant_poisson.json",
                 "dirac_twisted.json", "gcs_r2.json", "nijenhuis_r2.json",
                 "bad_poisson.json"):
        load_config(CONFIGS / name)


def test_bundled_so3_config_passes(tmp_path):
    code = main(["check", "--config", str(CONFIGS / "so3.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "so3_report.json").read_text())
    assert report["verdict"] == "pass"
    assert "validity_box" in report["environment"]


def test_bundled_jacobi_line_config_passes(tmp_path):
    code = main(["check", "--config", str(CONFIGS / "jacobi_line.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "jacobi_line_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "closed_form" in names and "contact_margin" in names
