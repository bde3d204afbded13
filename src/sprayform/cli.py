"""Batch front end: validate a problem config, run checks, write reports.

Subcommands:

* ``check``        build the scenario of the config's kind and run its named
                   checks; write a JSON report and a residual CSV; exit 0
                   iff all pass.
* ``convergence``  resolution ladder for the config's form; CSV table.
* ``eval``         build the scenario (no checks) and print omega / d omega /
                   Pi / mu / cocycle values at a point in JSON.
* ``schema``       print the config JSON schema.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 runtime math error
(stderr names the failing construction gate, or the check or convergence
rung that was running).
Reports are byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import expr as ex
from .algebroid import AlgebroidChart, SymbolicStructure, base_vars
from .errors import ConfigError, ExprError, SprayformError, named
from .flow import TimeRule
from .groupoid import discover_validity_box, integrate_cocycle, multiply_poisson
from .scenarios import (KINDS, TOLERANCE_NAMES, Numerics, build,
                        convergence_study, run_checks)
from . import tensor as tn

SCHEMA_VERSION = 1

_EXPR = {"type": "string", "minLength": 1}
_EXPR_MATRIX = {"type": "array", "items": {"type": "array", "items": _EXPR}}
_FORM = {"type": "object", "patternProperties": {r"^[1-8]+$": _EXPR},
         "additionalProperties": False}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "sprayform problem configuration",
    "type": "object",
    "required": ["schema_version", "kind", "chart", "coefficients"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"enum": list(KINDS)},
        "chart": {
            "type": "object",
            "required": ["dim", "box"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1, "maximum": 8},
                "box": {"type": "array",
                        "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                  "items": {"type": "number"}}},
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pi": _FORM,
                "l": _EXPR_MATRIX,
                "varpi": _FORM,
                "R": {"type": "array", "items": _EXPR},
                "H": _FORM,
                "sections": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["v", "alpha"],
                        "additionalProperties": False,
                        "properties": {
                            "v": {"type": "array", "items": _EXPR},
                            "alpha": {"type": "array", "items": _EXPR},
                        },
                    },
                },
                "rank": {"type": "integer", "minimum": 1, "maximum": 8},
                "anchor": _EXPR_MATRIX,
                "c": {"type": "array",
                      "items": {"type": "array", "items":
                                {"type": "array", "items": _EXPR}}},
                "christoffel": {"type": "array",
                                "items": {"type": "array", "items":
                                          {"type": "array", "items": _EXPR}}},
            },
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "quad_nodes": {"type": "integer"},
                "mu_steps": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "mult_pairs": {"type": "integer", "minimum": 1},
                "assoc_triples": {"type": "integer", "minimum": 1},
                "tolerances": {"type": "object",
                               "propertyNames": {"enum": list(TOLERANCE_NAMES)},
                               "additionalProperties": {"type": "number"}},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "report": {"type": "string"},
                "csv": {"type": "string"},
                "convergence_csv": {"type": "string"},
            },
        },
    },
    "allOf": [
        {"if": {"properties": {"kind": {"const": kind}}},
         "then": {"properties": {"coefficients": {
             "required": required,
             "propertyNames": {"enum": required + optional}}}}}
        for kind, (_, required, optional) in KINDS.items()],
}


# ---------------------------------------------------------------------------
# Config loading


@functools.cache
def _config_validator():
    """CONFIG_SCHEMA's validator, built once per process.  The schema itself
    is checked against its metaschema by the tests, not at run time."""
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _validate(raw):
    """Raise the ConfigError of the error jsonschema.validate would raise,
    without checking the schema again."""
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")


def _non_finite(constant):
    raise ConfigError(f"config number {constant} is not finite")


def load_config(path):
    """The validated config at ``path``, whose numbers are all finite."""
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_non_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _validate(raw)
    return raw


def _parse(node, xs, path):
    """The expression, or nested lists of expressions, of a coefficient entry.
    An entry that does not parse or fold names itself: ``pi["12"]: ...``."""
    if isinstance(node, list):
        return [_parse(e, xs, f"{path}[{i}]") for i, e in enumerate(node)]
    with named(path):
        return ex.parse(node, xs)


def _parse_form(mapping, n, degree, what):
    """The FormField of a coefficient's {multi-index: expression} mapping."""
    comps = {}
    for key, src in mapping.items():
        idx = tuple(int(ch) - 1 for ch in key)
        if len(idx) != degree or sorted(set(idx)) != list(idx) or max(idx) >= n:
            raise ConfigError(f"{what}: bad multi-index {key!r} for degree "
                              f"{degree} in dimension {n}")
        comps[idx] = _parse(src, base_vars(n), f'{what}["{key}"]')
    return ex.FormField(base_vars(n), degree, comps)


def _parse_array(entry, shape, n, what):
    """The expressions of the nested lists ``entry``, which must have
    ``shape``, in the chart's n variables."""
    if np.shape(np.array(entry, dtype=object)) != shape:
        raise ConfigError(f"{what}: expected an array of expressions of "
                          f"shape {shape}")
    return _parse(entry, base_vars(n), what)


# Each coefficient's parser: (config entry or None, n) -> the builder
# argument of the same name.  A kind reads the keys that KINDS lists for it.
_COEFFICIENTS = {
    "pi": lambda entry, n: ex.BivectorField(
        n, _parse_form(entry, n, 2, "pi").components),
    "l": lambda entry, n: _parse_array(entry, (n, n), n, "l"),
    "varpi": lambda entry, n: _parse_form(entry, n, 2, "varpi"),
    "christoffel": lambda entry, n: None if entry is None else _parse_array(
        entry, (n, n, n), n, "christoffel"),
    "H": lambda entry, n: _parse_form(entry or {}, n, 3, "H"),
    "R": lambda entry, n: _parse_array(entry, (n,), n, "R"),
    "sections": lambda entry, n: [
        tuple(_parse_array(sec[key], (n,), n, f"sections[{s}].{key}")
              for key in ("v", "alpha")) for s, sec in enumerate(entry)],
}


def build_numerics(raw):
    """The config's numerics keys; ``Numerics`` supplies the defaults."""
    nm = Numerics(**{"n_quad" if key == "quad_nodes" else key: value
                     for key, value in raw.get("numerics", {}).items()})
    if not TimeRule.admits(nm.n_quad):
        raise ConfigError(f"numerics.quad_nodes {nm.n_quad}: need an even "
                          f"count of at least 2")
    return nm


def _chart_box(raw):
    chart = raw["chart"]
    n = chart["dim"]
    box = np.asarray(chart["box"], dtype=np.float64)
    if box.shape != (n, 2):
        raise ConfigError("chart.box must list one [lo, hi] pair per dimension")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ConfigError("chart.box intervals must be nonempty")
    return n, box


def parse_config(raw):
    """Kind, numerics and builder inputs of a validated config.

    Every subcommand builds from this one parse, so a bad coefficient
    is a config error (exit 2) whichever subcommand reads it.  The inputs
    are the keyword arguments of the kind's builder (``scenarios.build``):
    the box and each coefficient the kind reads, an optional one left out
    parsed from None.
    """
    kind = raw["kind"]
    n, box = _chart_box(raw)
    nm = build_numerics(raw)
    co = raw["coefficients"]
    if kind == "raw_algebroid":   # its three coefficients make one chart
        r = co["rank"]
        anchor = _parse_array(co["anchor"], (n, r), n, "anchor")
        table = _parse_array(co["c"], (r, r, r), n, "c")
        return kind, nm, {"chart": AlgebroidChart(
            n=n, r=r, box=box, anchor=anchor,
            structure=SymbolicStructure(n, r, table))}
    _, required, optional = KINDS[kind]
    inputs = {"box": box}
    for key in required + optional:
        inputs[key] = _COEFFICIENTS[key](co.get(key), n)
    return kind, nm, inputs


def _load(args):
    """The config of ``--config``, validated with ``--seed`` applied."""
    raw = load_config(args.config)
    if args.seed is not None:
        raw.setdefault("numerics", {})["seed"] = args.seed
        _validate(raw)
    return raw


def _groupoid_scenario(kind, nm, inputs):
    """The built scenario, which must have a groupoid to evaluate on."""
    scen = build(kind, nm, inputs)
    if scen.groupoid is None:
        raise ConfigError("prechecks failed; nothing to evaluate (worst: "
                          f"{scen.gates['gcs_prechecks'].worst().name})")
    return scen


# ---------------------------------------------------------------------------
# Output writers


def _write(path, text):
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args):
    raw = _load(args)
    report = run_checks(build(*parse_config(raw)))
    outputs = raw.get("outputs", {})
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    report_path = out_dir / outputs.get("report", "report.json")
    csv_path = out_dir / outputs.get("csv", "residuals.csv")
    text = _csv_text([["check", "residual", "tolerance", "verdict"]] + [
        [c.name, format(c.residual, ".17g"), format(c.tolerance, ".17g"),
         "pass" if c.passed else "fail"] for c in report.checks])
    _write(report_path, report.to_json() + "\n")
    _write(csv_path, text)
    for line in report.summary_lines():
        print(line)
    print(f"report: {report_path}")
    print(f"residuals: {csv_path}")
    return 0 if report.all_passed else 1


def _parse_ladder(text):
    """(n_quad, substeps) rungs of ``--ladder``: comma-separated N or NxM.

    Each rung must make a ``TimeRule`` and refine the one before: differ,
    with no fewer nodes and no longer a step.  The last rung is the
    reference, so fitting an order takes three.
    """
    levels = []
    for part in text.split(","):
        nq, sep, ss = part.partition("x")
        try:
            levels.append((int(nq), int(ss) if sep else 1))
        except ValueError:
            levels.append((0, 0))
    if len(levels) < 3 or not all(TimeRule.admits(*rung) for rung in levels) \
            or any(b == a or b[0] < a[0] or TimeRule(*b).step > TimeRule(*a).step
                   for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"--ladder {text!r}: need three or more rungs N or "
                          f"NxM with positive integers N, M and N even, each "
                          f"refining the one before")
    return levels


def cmd_convergence(args):
    raw = _load(args)
    kind, nm, inputs = parse_config(raw)
    levels = _parse_ladder(args.ladder)
    if kind not in ("poisson", "nijenhuis", "gcs", "jacobi"):
        raise ConfigError(f"convergence ladder not supported for kind {kind!r}")
    # the groupoid and form that check certifies; each rung is a time rule
    # on them.  The radius is discovered again, at seed + 3, for the points.
    scen = _groupoid_scenario(kind, nm, inputs)
    discover_validity_box(scen.groupoid, seed=nm.seed + 3)
    pts = scen.groupoid.sample_validity_points(min(10, nm.samples), nm.seed + 4)
    rows, order = convergence_study(scen.evaluator, pts, levels)

    text = _csv_text([["n_quad", "substeps", "h", "error", "fitted_order"]] + [
        [r["n_quad"], r["substeps"], format(r["h"], ".17g"),
         format(r["error"], ".17g"), format(order, ".6g")] for r in rows])
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    csv_path = out_dir / raw.get("outputs", {}).get("convergence_csv",
                                                    "convergence.csv")
    _write(csv_path, text)
    print(text, end="")
    print(f"fitted order: {order:.4f}")
    print(f"table: {csv_path}")
    return 0 if (order >= 3.5 or order == float("inf")) else 1


def _parse_numbers(text):
    try:
        vals = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise ConfigError(f"{text!r} is not a comma-separated list of numbers") \
            from None
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{text!r} holds a number that is not finite")
    return vals


def _check_length(vals, expected):
    if len(vals) != expected:
        raise ConfigError(f"expected {expected} components, got {len(vals)}")
    return vals


def cmd_eval(args):
    raw = _load(args)
    # bad numbers fail before the build; their lengths need G.dim
    point = _parse_numbers(args.point)
    vecs = [_parse_numbers(v) for v in args.vectors.split(";")] \
        if args.vectors else None
    pair = [_parse_numbers(t) for t in args.pair.partition("|")[::2]] \
        if args.pair else None
    kind, nm, inputs = parse_config(raw)
    scen = _groupoid_scenario(kind, nm, inputs)
    G, ev = scen.groupoid, scen.evaluator
    if vecs is not None and ev is None:
        raise ConfigError(f"--vectors: kind {kind!r} has no form to evaluate")
    has_product = ev is not None and ev.degree == 2 and scen.pi is not None
    if pair is not None and not has_product:
        raise ConfigError(f"--pair: kind {kind!r} has no Poisson product")
    out = {"schema_version": SCHEMA_VERSION}
    point = _check_length(point, G.dim)
    if ev is not None:
        comps = {}
        fulls = ev.omega_and_domega_full(point[None, :])
        for name, full, k in zip(("omega", "domega"), fulls,
                                 (ev.degree, ev.degree + 1)):
            comps[name] = tn.full_to_comps_batch(full, G.dim, k)
            out[name] = {"".join(str(i + 1) for i in I): float(v)
                         for I, v in zip(tn.index_list(G.dim, k), comps[name][0])}
        if vecs is not None:
            vecs = [_check_length(v, G.dim) for v in vecs]
            if len(vecs) != ev.degree:
                raise ConfigError(f"omega takes {ev.degree} vectors")
            out["omega_on_vectors"] = float(
                tn.evaluate_batch(comps["omega"], np.column_stack(vecs)[None])[0])
        if ev.degree == 2:
            try:
                out["Pi"] = ev.inverse_matrices(point[None, :])[0].tolist()
            except SprayformError:
                out["Pi"] = None
        if pair is not None:
            a, b = [_check_length(v, G.dim) for v in pair]
            out["mu"] = multiply_poisson(G, ev, a[None, :], b[None, :],
                                         max_sweeps=scen.numerics.mu_steps)[0].tolist()
        if ev.weight_cocycle is not None:
            out["cocycle"] = float(integrate_cocycle(
                G, ev.weight_cocycle, point[None, :])[0])
    print(json.dumps(out, indent=2))
    return 0


def cmd_schema(args):
    print(json.dumps(CONFIG_SCHEMA, indent=2))
    return 0


# ---------------------------------------------------------------------------


def make_parser():
    p = argparse.ArgumentParser(
        prog="sprayform",
        description="construct local Lie groupoids from algebroid sprays and "
                    "verify multiplicative-form identities")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="problem config JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out-dir", default=None,
                        help="directory for report files")

    sp = sub.add_parser("check", help="run the configured checks")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("convergence", help="resolution ladder study")
    common(sp)
    sp.add_argument("--ladder", default="16,32,64,128",
                    help="comma-separated n_quad values; use NxM for M "
                         "flow substeps per node gap")
    sp.set_defaults(fn=cmd_convergence)

    sp = sub.add_parser("eval", help="evaluate forms at a point")
    common(sp)
    sp.add_argument("--point", required=True,
                    help="total-space point, comma separated")
    sp.add_argument("--vectors", default=None,
                    help="semicolon-separated tangent vectors")
    sp.add_argument("--pair", default=None,
                    help="composable pair 'a|b' for the product")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("schema", help="print the config JSON schema")
    sp.set_defaults(fn=cmd_schema)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ExprError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SprayformError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
