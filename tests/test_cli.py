"""CLI: config validation, exit codes, report artifacts, determinism."""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from sprayform import cli, groupoid, scenarios
from sprayform.cli import CONFIG_SCHEMA, load_config, main, parse_config
from sprayform.errors import ConfigError, DomainExitError
from sprayform.flow import FlowEngine
from sprayform.scenarios import TOLERANCE_NAMES, Numerics

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = CONFIGS.parent / "perfbench"


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


def test_config_schema_is_valid_under_its_metaschema():
    # checked here, not in every process that loads a config
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


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


def test_schema_errors_match_jsonschema_validate(tmp_path):
    """load_config checks the schema once per process; every message it
    gives is the one jsonschema.validate gives, word for word."""
    base = json.loads(Path(_fast_poisson(tmp_path)).read_text())
    cases = [
        {**base, "surprise": 1},
        {**base, "kind": "symplectic"},
        {k: v for k, v in base.items() if k != "chart"},
        {**base, "numerics": {**base["numerics"], "quad_nodes": "many"}},
        {**base, "chart": {"dim": 2, "box": "unit"}},
        {**base, "schema_version": 2},
        [],
    ]
    for i, raw in enumerate(cases):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(_write(tmp_path, raw, f"bad{i}.json"))
        assert str(got.value) == \
            f"config schema violation: {want.value.message}"


@pytest.mark.parametrize("n_quad", [15, 0, -2])
def test_quad_nodes_the_time_rule_rejects_is_config_error(n_quad, tmp_path,
                                                         capsys):
    """The schema reads quad_nodes as an integer; the time rule's evenness
    rule, not a restated schema clause, rejects an odd or too small count."""
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["numerics"]["quad_nodes"] = n_quad
    path = _write(tmp_path, raw, "bad.json")
    accepted = load_config(path)     # the schema reads an integer
    with pytest.raises(ConfigError, match="numerics.quad_nodes"):
        parse_config(accepted)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: numerics.quad_nodes {n_quad}: need an even count of "
        f"at least 2\n")


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


# a schema-valid placeholder of each coefficient: the schema rejects a
# config before any coefficient is parsed
_PLACEHOLDERS = {"pi": {}, "l": [], "varpi": {}, "R": [], "H": {},
                 "sections": [], "rank": 1, "anchor": [], "c": [],
                 "christoffel": []}


def _minimal(kind, keys):
    return {"schema_version": 1, "kind": kind,
            "chart": {"dim": 1, "box": [[-1, 1]]},
            "coefficients": {key: _PLACEHOLDERS[key] for key in keys}}


def test_schema_coefficients_are_the_kinds_coefficients(tmp_path):
    """Each kind's schema clause requires its required coefficients and
    accepts exactly its required and optional ones."""
    assert set(_PLACEHOLDERS) == set(CONFIG_SCHEMA["properties"][
        "coefficients"]["properties"])
    for clause, (kind, (_, required, optional)) in zip(
            CONFIG_SCHEMA["allOf"], scenarios.KINDS.items()):
        assert clause["if"]["properties"]["kind"] == {"const": kind}
        assert clause["then"]["properties"]["coefficients"] == {
            "required": required,
            "propertyNames": {"enum": required + optional}}
        load_config(_write(tmp_path, _minimal(kind, required + optional)))


@pytest.mark.parametrize("kind", list(scenarios.KINDS))
def test_coefficient_a_kind_does_not_read_is_config_error(kind, tmp_path,
                                                          capsys):
    """A coefficient outside the kind's KINDS entry exits 2 and names the
    key, instead of being ignored."""
    _, required, optional = scenarios.KINDS[kind]
    for key in sorted(set(_PLACEHOLDERS) - set(required + optional)):
        path = _write(tmp_path, _minimal(kind, required + [key]))
        assert main(["check", "--config", path,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"config schema violation: {key!r} is not one of" in \
            capsys.readouterr().err


@pytest.mark.parametrize("key", ["mult_pairs", "assoc_triples"])
def test_zero_product_samples_are_config_error(key, tmp_path, capsys):
    raw = json.loads((CONFIGS / "so3.json").read_text())
    raw["numerics"][key] = 0
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: config schema "
                                       "violation: 0 is less than the "
                                       "minimum of 1\n")


@pytest.mark.parametrize("config",
                         sorted(p.name for p in CONFIGS.glob("*.json")))
def test_numerics_at_their_schema_minimum_exit_with_a_code(config, tmp_path):
    """Every bundled config with each numerics key at the minimum the schema
    allows, and quad_nodes at the least the time rule admits, ends in a
    documented exit code, not an uncaught exception."""
    raw = json.loads((CONFIGS / config).read_text())
    raw.setdefault("numerics", {})["quad_nodes"] = 2
    for key, spec in CONFIG_SCHEMA["properties"]["numerics"][
            "properties"].items():
        if "minimum" in spec:
            raw["numerics"][key] = spec["minimum"]
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path,
                 "--out-dir", str(tmp_path)]) in (0, 1, 2, 3)


def test_tolerance_names_are_the_names_check_reads(tmp_path, monkeypatch,
                                                   so3_check):
    """The tolerance keys the schema accepts are, without repeats, exactly
    the names that ``check`` of the bundled configs reads (so3's from the
    module's one so3 run)."""
    read, original = set(so3_check[5]), Numerics.tol

    def recorded(self, name, default):
        read.add(name)
        return original(self, name, default)

    monkeypatch.setattr(Numerics, "tol", recorded)
    for config in sorted(CONFIGS.glob("*.json")):
        if config.name != "so3.json":
            main(["check", "--config", str(config), "--out-dir", str(tmp_path)])
    assert len(set(TOLERANCE_NAMES)) == len(TOLERANCE_NAMES)
    assert read == set(TOLERANCE_NAMES)
    assert CONFIG_SCHEMA["properties"]["numerics"]["properties"][
        "tolerances"]["propertyNames"] == {"enum": list(TOLERANCE_NAMES)}


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
    assert "R: expected an array of expressions of shape (1,)" in \
        capsys.readouterr().err
    # a well-formed config with a malformed ladder
    raw["coefficients"]["R"] = ["1"]
    path = _write(tmp_path, raw, "good_R.json")
    for ladder in ("16,32,abc", "16,32,", "16x,32,64", "0,16,32", "16,32",
                   "15,32,64", "16,33x2,64", "32,32,32", "64,32,16",
                   "16x8,16x8,32x4"):
        assert main(["convergence", "--config", path, "--out-dir",
                     str(tmp_path), "--ladder", ladder]) == 2
        assert "config error: --ladder" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--point", "0.1,abc,0,0"],
    ["--point", "0,0,0.1,0.2", "--vectors", "1,0,0,0;0,x,1,0"],
    ["--point", "0,0,0.1,0.2", "--pair", "0.1,0.2,0.3,-0.1|0.1,zz,0,0"],
])
def test_malformed_eval_vector_is_config_error(flags, tmp_path, capsys,
                                              monkeypatch):
    """A non-numeric --point, --vectors row or --pair side exits 2, not 1,
    before the scenario is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("build ran before the numbers parsed")

    monkeypatch.setattr(cli, "build", no_build)
    path = _fast_poisson(tmp_path)
    assert main(["eval", "--config", path] + flags) == 2
    assert "is not a comma-separated list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--point", "inf,0,0,0"],
    ["--point", "0,0,0.1,0.2", "--vectors", "nan,0,0,0;0,1,0,0"],
    ["--point", "0,0,0.1,0.2", "--pair", "0.1,0.2,0.3,-0.1|0.1,-inf,0,0"],
])
def test_non_finite_eval_number_is_config_error(flags, tmp_path, capsys,
                                                monkeypatch):
    """A NaN or infinite entry of --point, a --vectors row or a --pair side
    exits 2 before the scenario is built: it is no number to evaluate at."""
    def no_build(*args, **kwargs):
        raise AssertionError("build ran before the numbers parsed")

    monkeypatch.setattr(cli, "build", no_build)
    path = _fast_poisson(tmp_path)
    assert main(["eval", "--config", path] + flags) == 2
    assert "holds a number that is not finite" in capsys.readouterr().err


def _nan_box(raw):
    raw["chart"]["box"] = [[float("nan"), 1.0]]


def _minus_inf_bound(raw):
    raw["chart"]["box"][0][0] = float("-inf")


def _nan_tolerance(raw):
    raw["numerics"]["tolerances"] = {"closed_form": float("nan")}


@pytest.mark.parametrize("config, edit, constant", [
    ("jacobi_line", _nan_box, "NaN"),
    ("so3", _minus_inf_bound, "-Infinity"),
    ("jacobi_line", _nan_tolerance, "NaN"),
])
def test_non_finite_config_number_is_config_error(config, edit, constant,
                                                  tmp_path, capsys):
    """json reads NaN, Infinity and -Infinity as numbers, and the schema
    takes them as numbers; ``load_config`` rejects them, naming the
    constant.  Read as numbers, the NaN box left the domain at t = 0 (exit
    3), the -Infinity bound gave a non-finite flow state (exit 3) and the
    NaN tolerance failed its check and wrote NaN, which is not JSON, into
    the report (exit 1)."""
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    edit(raw)
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"config error: config number {constant} is not finite\n"
    assert list(tmp_path.iterdir()) == [Path(path)]


@pytest.mark.parametrize("config, command", [
    ("jacobi_line.json", ["check"]),
    ("so3.json", ["convergence", "--ladder", "8,16,32"]),
])
def test_unwritable_output_is_config_error(config, command, tmp_path, capsys):
    """An output path under a regular file exits 2 with a message naming
    the path, not 1 (a failed check) with a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    assert main(command[:1] + ["--config", str(CONFIGS / config),
                               "--out-dir", str(out)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}/") and \
        err.count("\n") == 1


def test_malformed_christoffel_is_config_error(tmp_path, capsys):
    raw = json.loads((CONFIGS / "constant_poisson.json").read_text())
    raw["coefficients"]["christoffel"] = [[["0"]]]
    path = _write(tmp_path, raw)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "christoffel: expected an array of expressions of shape" in \
        capsys.readouterr().err
    n = raw["chart"]["dim"]
    raw["coefficients"]["christoffel"] = [[["0"] * n] * n] * n
    _, _, inputs = parse_config(raw)
    assert len(inputs["christoffel"]) == n


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == CONFIG_SCHEMA


def test_numerics_keys_are_the_numerics_fields():
    """Each key of the schema's numerics is one field of ``Numerics``
    (``quad_nodes`` is ``n_quad``), and each field is one key, so a
    validated numerics block always builds."""
    keys = CONFIG_SCHEMA["properties"]["numerics"]["properties"]
    fields = {f.name for f in dataclasses.fields(Numerics)}
    assert {"n_quad" if k == "quad_nodes" else k for k in keys} == fields
    assert len(keys) == len(fields)


def test_seed_override_is_validated(tmp_path, capsys):
    """``--seed`` is checked against the schema like a seed in the file."""
    path = str(CONFIGS / "jacobi_line.json")
    assert main(["check", "--config", path, "--seed", "-1",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: config schema "
                                       "violation: -1 is less than the "
                                       "minimum of 0\n")


def test_seed_override_reaches_the_report(tmp_path):
    path = str(CONFIGS / "jacobi_line.json")   # seed 77 in the file
    assert main(["check", "--config", path, "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "jacobi_line_report.json").read_text())
    assert report["environment"]["seed"] == 5


def test_bad_expression_is_config_error(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["coefficients"]["pi"] = {"12": "x1*("}
    bad = _write(tmp_path, raw, "bad.json")
    assert main(["check", "--config", bad]) == 2
    # a syntax error names its entry, as a fold error does
    assert capsys.readouterr().err == ("config error: pi[\"12\"]: unexpected "
                                       "'end of input' (line 1, column 5)\n")


@pytest.mark.parametrize("source", ["1e999", "1e308*10", "2^2000"])
def test_non_finite_constant_is_runtime_error(tmp_path, capsys, source):
    """An overflowing literal or fold exits 3, as division by a constant
    zero does, instead of compiling the bare name ``inf``."""
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["coefficients"]["pi"] = {"12": source}
    bad = _write(tmp_path, raw, "bad.json")
    assert main(["check", "--config", bad, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == 'runtime error: pi["12"]: non-finite constant inf\n'


@pytest.mark.parametrize("source,message", [
    ("x1/0", "division by constant zero"),
    ("(1e200)^-2", "overflow in constant power (1e+200)^-2"),
])
def test_fold_error_names_its_coefficient(tmp_path, capsys, source, message):
    """A constant that cannot be folded exits 3 and names the coefficient."""
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    raw["coefficients"]["pi"] = {"12": source}
    bad = _write(tmp_path, raw, "bad.json")
    assert main(["check", "--config", bad, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f'runtime error: pi["12"]: {message}\n'


def test_fold_error_names_a_section_entry(tmp_path, capsys):
    raw = json.loads((CONFIGS / "dirac_twisted.json").read_text())
    raw["coefficients"]["sections"][1]["alpha"][2] = "1/(2-2)"
    bad = _write(tmp_path, raw, "bad.json")
    assert main(["check", "--config", bad, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("runtime error: sections[1].alpha[2]: "
                                       "division by constant zero\n")


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


# tangent-flow solves of `check`: one per sample set
CHECK_JAC_SOLVES = {"gcs_r2": 5, "jacobi_line": 4, "dirac_twisted": 4,
                    "nijenhuis_r2": 12}


@pytest.mark.parametrize("name", ["gcs_r2", "jacobi_line", "dirac_twisted",
                                  "nijenhuis_r2"])
def test_check_makes_no_one_row_flow_solves(name, tmp_path, monkeypatch):
    """Every check evaluates its sample set in one batched flow call, and
    the forms a sample set needs share one tangent-flow solve."""
    batch_sizes = {"flow_on_grid": [], "flow_with_jacobian": []}
    for method, sizes in batch_sizes.items():
        original = getattr(FlowEngine, method)

        def counted(self, points, *args, _original=original, _sizes=sizes,
                    **kwargs):
            _sizes.append(len(np.atleast_2d(points)))
            return _original(self, points, *args, **kwargs)

        monkeypatch.setattr(FlowEngine, method, counted)
    code = main(["check", "--config", str(CONFIGS / f"{name}.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    sizes = sum(batch_sizes.values(), [])
    assert sizes and min(sizes) > 1
    assert len(batch_sizes["flow_with_jacobian"]) == CHECK_JAC_SOLVES[name]


@pytest.fixture(scope="module")
def so3_check(tmp_path_factory):
    """One ``check`` of the bundled so3 config: its exit code, output
    directory, the (rows, dtype) of each product call, the number of flow
    solves of each kind (``flow_with_jacobian``, ``flow_on_grid``), their
    total RK4 steps (``rk4_steps``, steps per solve, not per row) and the
    tangent solves' steps times rows (``tangent_row_steps``), the
    names of the functions that called ``np.linalg.svd`` and the tolerance
    names it read through ``Numerics.tol``."""
    out = tmp_path_factory.mktemp("so3_check")
    rows, solves, svd_callers, tol_names = [], Counter(), [], set()
    product = groupoid.multiply_poisson
    svd, tol, solve = np.linalg.svd, Numerics.tol, FlowEngine._solve

    def counted_product(G, ev, a, b, **kwargs):
        rows.append((len(a), np.result_type(a, b).name))
        return product(G, ev, a, b, **kwargs)

    def counted_svd(*args, **kwargs):
        svd_callers.append(sys._getframe(1).f_code.co_name)
        return svd(*args, **kwargs)

    def recorded_tol(self, name, default):
        tol_names.add(name)
        return tol(self, name, default)

    def stepped(self, points, nodes, substeps, jacobian, *args):
        steps = (len(nodes) - 1) * substeps
        solves["rk4_steps"] += steps
        solves["tangent_row_steps"] += len(points) * steps if jacobian else 0
        return solve(self, points, nodes, substeps, jacobian, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupoid, "multiply_poisson", counted_product)
        for method in ("flow_with_jacobian", "flow_on_grid"):
            def counted_solve(self, *args, _method=method,
                              _solve=getattr(FlowEngine, method), **kwargs):
                solves[_method] += 1
                return _solve(self, *args, **kwargs)

            mp.setattr(FlowEngine, method, counted_solve)
        mp.setattr(FlowEngine, "_solve", stepped)
        mp.setattr(np.linalg, "svd", counted_svd)
        mp.setattr(Numerics, "tol", recorded_tol)
        code = main(["check", "--config", str(CONFIGS / "so3.json"),
                     "--out-dir", str(out)])
    return code, out, rows, solves, svd_callers, tol_names


def test_so3_check_runs_one_product_call_per_check(so3_check):
    """so3's product rows go through one product call per check, in order:
    associativity stage 1 (20 real rows), the 50 complex d mu rows, and
    stage 2 (20 real rows).  check makes 47 tangent-flow solves, 40 in
    the product calls, one per collocation sweep or coarse evaluation over
    every node of the rows still active (11, 12 and 11 on the 16-node
    coarse rule, then 2 each on the 64-node rule), and 7 outside the
    product, and 18 grid solves, 2 per product call (tau(b) and the
    flight of a) and 12 outside the product: 2,275 RK4 steps and 158,208
    tangent row-steps.  Phase 1 and the fine rule alone (5, 6 and 5
    coarse then 6 fine sweeps each) took 41 tangent solves, 2,755 steps
    and 222,432 row-steps; the one-level sweeps (10, 11 and 10 on the
    64-node rule) 38 tangent solves and 3,331 steps."""
    code, _, rows, solves, _, _ = so3_check
    assert code == 0
    assert rows == [(20, "float64"), (50, "complex128"), (20, "float64")]
    assert solves == {"flow_with_jacobian": 47, "flow_on_grid": 18,
                      "rk4_steps": 2275, "tangent_row_steps": 158208}


def test_so3_check_makes_no_guard_svd(so3_check):
    """The bundled so3 check certifies every product stage by the inverse:
    no SVD from the guard (the one left is the nondegeneracy margin)."""
    code, _, _, _, svd_callers, _ = so3_check
    assert code == 0
    assert "_check_conditioning" not in svd_callers
    assert svd_callers.count("build_symplectic_groupoid") == 1


_ALGEBROID = ["algebroid_antisymmetry", "algebroid_anchor_morphism",
              "algebroid_jacobi_identity"]
_SPRAY = ["spray_anchor_condition", "spray_flow_scaling"]
_IM = ["im_covariance_nu", "im_covariance_l", "im_anchor_antisymmetry"]
_POISSON_CORE = ["poisson_identity", *_ALGEBROID, *_SPRAY, *_IM,
                 "nondegeneracy_margin", "realization_source",
                 "realization_target", "closedness", "units_formula"]
_ROUNDTRIP = ["units_recover_l", "units_recover_nu", "linearization_slope"]
REPORT_CHECKS = {
    "constant_poisson": _POISSON_CORE + [
        "multiplicativity", "inversion_antisymmetry", "associativity",
        *_ROUNDTRIP],
    "nijenhuis_r2": _POISSON_CORE + _ROUNDTRIP + [
        "pair_covariance_nu", "pair_covariance_l", "pair_anchor_antisymmetry",
        "L_units_block", "L_sigma_related", "torsion_identity",
        "torsion_free_closedness", "pi_pushforwards", "omega_Lk_two_ways",
        "L2_units_recover_l", "L2_units_recover_nu", "omega_L2_pointwise"],
    "gcs_r2": [
        "gcs_algebraic_relation", "gcs_torsion_relation",
        "gcs_l_varpi_commute", "gcs_dvarpi_cyclic", "gcs_identity",
        *("base_" + name for name in _POISSON_CORE + _ROUNDTRIP)],
    "dirac_twisted": _ALGEBROID + _SPRAY + _IM + [
        "relative_H_closedness", "robustness_margin", "forward_dirac_angles",
        "units_formula", *_ROUNDTRIP],
    "jacobi_line": _ALGEBROID + _SPRAY + [
        "closed_form", "contact_margin",
        "units_kernel_angles", "units_recover_pr",
        "cocycle_weight_consistency", "linearization_slope"],
}


@pytest.mark.parametrize("name", sorted(REPORT_CHECKS))
def test_check_report_order(name, tmp_path):
    """The report lists its checks in a fixed order and states the kind of
    the config that ran."""
    config = load_config(CONFIGS / f"{name}.json")
    assert main(["check", "--config", str(CONFIGS / f"{name}.json"),
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / config["outputs"]["report"]).read_text())
    assert [c["name"] for c in report["checks"]] == REPORT_CHECKS[name]
    assert report["environment"]["kind"] == config["kind"]
    if name == "constant_poisson":
        # the product is affine: the complex-step d mu leaves roundoff only
        (mult,) = (c for c in report["checks"] if c["name"] == "multiplicativity")
        assert mult["residual"] < 1e-13


def test_failed_validity_discovery_names_itself(tmp_path, capsys):
    """When no fiber radius keeps the sample flows in the box, check exits
    3 with the discovery named and the last exit's time, row and point."""
    path = _fast_poisson(tmp_path, coefficients={"pi": {"12": "1e6"}})
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    prefix = ("runtime error: validity discovery: no fiber radius >= 0.0001 "
              "keeps the 40 sample flows in the chart box: trajectory left "
              "the domain box at t=")
    assert err.startswith(prefix), err
    t, where = err[len(prefix):].split(", ", 1)
    assert 0 < float(t) <= 1.02 and where.startswith("batch row ")
    assert ", point (" in where


def test_runtime_error_names_its_check(tmp_path, capsys, monkeypatch):
    """A runtime error inside a check exits 3 with the check named first."""
    def leaves_box(*args, **kwargs):
        raise DomainExitError(0.5, np.array([0.1, 0.2, 3.0, 0.0]), row=2)

    monkeypatch.setattr(scenarios, "product_residuals", leaves_box)
    path = _fast_poisson(tmp_path)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "runtime error: product: trajectory left the domain box at "
        "t=0.5, batch row 2, point (0.1, 0.2, 3, 0)\n")


def test_traced_check_counts_flow_work(tmp_path, monkeypatch):
    """The span tracer of perfbench/ installs around a check: every public
    function stays reachable only through its wrapper (install verifies
    this), and the flow work counts it reads off the FlowEngine arguments
    (points, nodes, substeps) are those of 64-node solves."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = main(["check", "--config", str(CONFIGS / "gcs_r2.json"),
                     "--out-dir", str(tmp_path)])
    metrics = layer_metrics(tracer.spans)
    assert code == 0
    assert metrics["flow.jac_solves"] > 0
    assert metrics["flow.grid_solves"] > 0
    assert metrics["flow.jac_steps"] == 64 * metrics["flow.jac_solves"]


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


def test_check_failure_exit_code(tmp_path, capsys):
    path = _fast_poisson(tmp_path)
    raw = json.loads(Path(path).read_text())
    # an unreachable tolerance forces a check failure (exit 1)
    raw["numerics"]["tolerances"] = {"multiplicativity": 1e-300}
    bad = _write(tmp_path, raw, "hard.json")
    code = main(["check", "--config", bad, "--out-dir", str(tmp_path)])
    assert code == 1
    # the same tolerance under a misspelt name is a config error, not ignored
    raw["numerics"]["tolerances"] = {"multiplicativty": 1e-300}
    bad = _write(tmp_path, raw, "misspelt.json")
    assert main(["check", "--config", bad, "--out-dir", str(tmp_path)]) == 2
    assert "'multiplicativty' is not one of" in capsys.readouterr().err


def _raw_algebroid(tmp_path):
    return _write(tmp_path, {
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
    })


def test_check_raw_algebroid(tmp_path):
    path = _raw_algebroid(tmp_path)
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 0


def test_broken_raw_algebroid_fails_each_axiom(tmp_path):
    """A chart whose anchor and structure functions are not a Lie algebroid
    fails antisymmetry, the anchor morphism and Jacobi at their measured
    residuals.  No Leibniz check is reported: the bracket of other sections
    is defined from (rho, c) by that rule."""
    path = _write(tmp_path, {
        "schema_version": 1,
        "kind": "raw_algebroid",
        "chart": {"dim": 2, "box": [[-1, 1]] * 2},
        "coefficients": {
            "rank": 2,
            "anchor": [["x1*x2", "2"], ["1", "x1"]],
            "c": [[["x1", "1"], ["x2", "0"]], [["0", "x1"], ["1", "x2"]]],
        },
        "numerics": {"samples": 20, "seed": 4},
        "outputs": {"report": "raw.json", "csv": "raw.csv"},
    })
    assert main(["check", "--config", path, "--out-dir", str(tmp_path)]) == 1
    checks = {c["name"]: c for c in json.loads(
        (tmp_path / "raw.json").read_text())["checks"]}
    for name, residual in (("algebroid_antisymmetry", 2.0),
                           ("algebroid_anchor_morphism", 3.6219487862705648),
                           ("algebroid_jacobi_identity", 6.7835673765418827)):
        assert checks[name]["verdict"] == "fail"
        assert checks[name]["residual"] == pytest.approx(residual, rel=1e-12)
    assert "algebroid_leibniz_rule" not in checks
    assert [c["verdict"] for c in checks.values()].count("fail") == 3


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


def test_eval_has_no_total_dimension_cap(tmp_path, capsys):
    """The chart dim <= 8 of the schema is the only dimension limit: a
    5-dim Poisson chart has a 10-dim groupoid, and a 1-dim one a 2-form
    whose d omega has no components."""
    nm = {"quad_nodes": 8, "mu_steps": 4, "samples": 10}
    path = _fast_poisson(tmp_path, numerics=nm, chart={
        "dim": 5, "box": [[-1.0, 1.0]] * 5}, coefficients={
        "pi": {"12": "1", "34": "1"}})
    assert main(["eval", "--config", path, "--point", "0.1" + ",0" * 9]) == 0
    assert len(json.loads(capsys.readouterr().out)["omega"]) == 45
    path = _fast_poisson(tmp_path, numerics=nm, coefficients={"pi": {}},
                         chart={"dim": 1, "box": [[-1.0, 1.0]]})
    assert main(["eval", "--config", path, "--point", "0.1,0.2"]) == 0
    assert json.loads(capsys.readouterr().out)["domega"] == {}


def test_check_jacobi_has_no_total_dimension_cap(tmp_path, capsys):
    """A 4-dim Jacobi chart has a 9-dim groupoid; its contact margin, a
    9-form omega ^ (d omega)^4, is computed, not refused."""
    path = _fast_poisson(
        tmp_path, kind="jacobi", numerics={"quad_nodes": 8, "samples": 10},
        chart={"dim": 4, "box": [[-1.0, 1.0]] * 4},
        coefficients={"pi": {}, "R": ["1", "0", "0", "0"]})
    code = main(["check", "--config", path, "--out-dir", str(tmp_path)])
    assert "exceeds the supported cap" not in capsys.readouterr().err
    assert code == 0


def test_eval_builds_without_checks(capsys, monkeypatch):
    """eval builds the scenario and runs no check: on so3 without --pair
    it makes no product call and three tangent-flow solves (the build's
    nondegeneracy sample, omega with d omega, and Pi)."""
    solves = []
    original = FlowEngine.flow_with_jacobian

    def counted(self, *args, **kwargs):
        solves.append(1)
        return original(self, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("eval ran a product or a check")

    monkeypatch.setattr(FlowEngine, "flow_with_jacobian", counted)
    for owner, name in ((groupoid, "multiply_poisson"),
                        (cli, "multiply_poisson"), (cli, "run_checks")):
        monkeypatch.setattr(owner, name, forbidden)
    assert main(["eval", "--config", str(CONFIGS / "so3.json"),
                 "--point", "0.1,0.2,-0.1,0.2,0.1,-0.1"]) == 0
    assert len(solves) == 3
    assert "omega" in json.loads(capsys.readouterr().out)


def test_eval_out_of_box_is_runtime_error(tmp_path, capsys):
    cfg_path = _fast_poisson(tmp_path)
    code = main(["eval", "--config", cfg_path, "--point", "5,0,0,0"])
    assert code == 3


@pytest.mark.parametrize("config, flags, message", [
    ("dirac_twisted", ["--point", "0.1,0.2,-0.1,0.2,0.1,-0.1",
                       "--pair", "0,0,0,0,0,0|0,0,0,0,0,0"],
     "--pair: kind 'dirac' has no Poisson product"),
    ("jacobi_line", ["--point", "0.0,0.3,0.5", "--pair", "0,0,0|0,0,0"],
     "--pair: kind 'jacobi' has no Poisson product"),
    (None, ["--point", "0,0,0,0,0,0", "--pair", "0,0,0,0,0,0|0,0,0,0,0,0"],
     "--pair: kind 'raw_algebroid' has no Poisson product"),
    (None, ["--point", "0,0,0,0,0,0", "--vectors", "1,0,0,0,0,0"],
     "--vectors: kind 'raw_algebroid' has no form to evaluate"),
])
def test_eval_option_the_kind_cannot_use_is_config_error(config, flags, message,
                                                         tmp_path, capsys):
    """--pair on a kind with no Poisson product and --vectors on a kind with
    no form exit 2 and name the kind; they are not ignored."""
    path = str(CONFIGS / f"{config}.json") if config else _raw_algebroid(tmp_path)
    assert main(["eval", "--config", path] + flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_convergence_integrates_the_checked_spray(tmp_path, monkeypatch):
    """convergence studies the scenario's own evaluator, on the groupoid of
    the spray that check certifies, including a poisson config's
    christoffel terms."""
    class Captured(Exception):
        pass

    built = []

    def build(*args):
        built.append(scenarios.build(*args))
        return built[-1]

    def capture(evaluator, *args, **kwargs):
        raise Captured(evaluator)

    monkeypatch.setattr(cli, "build", build)
    monkeypatch.setattr(cli, "convergence_study", capture)
    raw = json.loads((CONFIGS / "constant_poisson.json").read_text())
    raw["coefficients"]["christoffel"] = [[["0.1", "0"], ["0", "0"]],
                                          [["0", "0"], ["0", "0"]]]
    with pytest.raises(Captured) as got:
        main(["convergence", "--config", _write(tmp_path, raw),
              "--out-dir", str(tmp_path)])
    evaluator = got.value.args[0]
    assert len(built) == 1 and evaluator is built[0].evaluator
    assert any(not e.is_zero for e in evaluator.groupoid.spray.fiber_part)


def test_build_time_sample_error_names_its_stage(tmp_path, capsys):
    """so3.json with the se(3)* bracket on [-1, 1]^6: at seed 1 a point of
    the nondegeneracy sample, drawn from the fiber cube around the
    discovered sphere, leaves the box, and the error names the build's
    validity sample."""
    raw = json.loads((CONFIGS / "so3.json").read_text())
    raw["chart"] = {"dim": 6, "box": [[-1.0, 1.0]] * 6}
    raw["coefficients"]["pi"] = {
        "12": "x3", "13": "-x2", "23": "x1", "15": "x6", "16": "-x5",
        "24": "-x6", "26": "x4", "34": "x5", "35": "-x4"}
    code = main(["check", "--config", _write(tmp_path, raw), "--seed", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "runtime error: validity sample: trajectory left the domain box at "
        "t=0.734375, batch row 74, ")


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


def test_bundled_so3_config_passes(so3_check):
    code, out, _, _, _, _ = so3_check
    assert code == 0
    report = json.loads((out / "so3_report.json").read_text())
    assert report["verdict"] == "pass"
    assert "validity_box" in report["environment"]


def test_bundled_jacobi_line_config_passes(tmp_path):
    code = main(["check", "--config", str(CONFIGS / "jacobi_line.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "jacobi_line_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "closed_form" in names and "contact_margin" in names
