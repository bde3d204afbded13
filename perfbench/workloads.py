"""Workload configs generated from a seed, and the checked CLI operations.

The seed sets ``numerics.seed`` in every generated config; sprayform sees
only the generated JSON.

The templates below copy ``configs/so3.json``, ``dirac_twisted.json``,
``jacobi_line.json``, ``gcs_r2.json``, ``nijenhuis_r2.json`` and
``bad_poisson.json`` rather than reading them.  A change is measured by
running the same benchmark files on the checkouts before and after it; if
the workloads were read from ``configs/``, a change that edits those files
would change the measured work between the two checkouts, and pinning their
hashes instead would make every such change fail the benchmark.  The copies
keep the workloads fixed, so a later edit of ``configs/`` leaves them as
they are until the benchmark is deliberately updated.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BOX3 = [[-1.0, 1.0]] * 3
BOX2 = [[-1.0, 1.0]] * 2

SO3 = {"kind": "poisson", "chart": {"dim": 3, "box": BOX3},
       "coefficients": {"pi": {"12": "x3", "13": "-x2", "23": "x1"}}}

# The acceptance fixture: the 30 s runtime budget of the acceptance gate.
SO3_ACCEPTANCE = dict(SO3, numerics={
    "quad_nodes": 64, "mu_steps": 32, "samples": 100, "mult_pairs": 100,
    "assoc_triples": 50})

DIRAC_TWISTED = {
    "kind": "dirac", "chart": {"dim": 3, "box": BOX3},
    "coefficients": {
        "sections": [
            {"v": ["0", "1", "0"], "alpha": ["1", "0", "x1"]},
            {"v": ["-1", "0", "0"], "alpha": ["0", "1", "0"]},
            {"v": ["0", "0", "0"], "alpha": ["0", "0", "1"]},
        ],
        "H": {"123": "-1"},
    },
    "numerics": {"quad_nodes": 64, "samples": 100},
}

JACOBI_LINE = {"kind": "jacobi", "chart": {"dim": 1, "box": [[-1.0, 1.0]]},
               "coefficients": {"pi": {}, "R": ["1"]},
               "numerics": {"quad_nodes": 64, "samples": 60}}

GCS_R2 = {"kind": "gcs", "chart": {"dim": 2, "box": BOX2},
          "coefficients": {"pi": {"12": "1"},
                           "l": [["0", "0"], ["0", "0"]],
                           "varpi": {"12": "1"}},
          "numerics": {"quad_nodes": 64, "samples": 100}}

NIJENHUIS_R2 = {"kind": "nijenhuis", "chart": {"dim": 2, "box": BOX2},
                "coefficients": {"pi": {"12": "1"},
                                 "l": [["1 + x1/2", "0"], ["0", "1 + x1/2"]]},
                "numerics": {"quad_nodes": 64, "samples": 60}}

# [pi, pi] != 0: the Poisson-identity gate must stop the run with exit 3.
BAD_POISSON = {"kind": "poisson", "chart": {"dim": 3, "box": BOX3},
               "coefficients": {"pi": {"12": "x1", "13": "x3", "23": "1"}},
               "numerics": {"samples": 20}}

# Rungs 32..1024, with 1024 as the reference.  On jacobi_line the error at
# 512 against a 2048 reference is already at roundoff (about 1e-13), which
# bends the fit down to 3.68; stopping at 1024 keeps every fitted rung in the
# asymptotic h^4 regime, so the order is resolved (4.0 on both configs).
LADDER = "32,64,128,256,512,1024"
MIN_ORDER = 3.5


@dataclass(frozen=True)
class Operation:
    """One CLI call and the outcome it must produce."""

    name: str
    command: str            # "check" or "convergence"
    template: dict
    expect_exit: int = 0
    expect_stderr: str = ""  # must appear on stderr when expect_exit != 0


WORKLOADS = {
    "so3_acceptance": (
        Operation("so3", "check", SO3_ACCEPTANCE),
    ),
    "families": (
        Operation("dirac_twisted", "check", DIRAC_TWISTED),
        Operation("jacobi_line", "check", JACOBI_LINE),
        Operation("gcs_r2", "check", GCS_R2),
        Operation("nijenhuis_r2", "check", NIJENHUIS_R2),
        Operation("bad_poisson", "check", BAD_POISSON, expect_exit=3,
                  expect_stderr="poisson_identity"),
    ),
    "convergence_ladder": (
        Operation("so3", "convergence", SO3),
        Operation("jacobi_line", "convergence", JACOBI_LINE),
    ),
}


def config_for(op, seed):
    cfg = json.loads(json.dumps(op.template))
    cfg["schema_version"] = 1
    cfg.setdefault("numerics", {})["seed"] = seed
    cfg["outputs"] = {"report": f"{op.name}_report.json",
                      "csv": f"{op.name}_residuals.csv",
                      "convergence_csv": f"{op.name}_convergence.csv"}
    return cfg


def expression_strings(node):
    """Every expression string under a config's ``coefficients``."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from expression_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from expression_strings(value)


class Workload:
    """The generated configs of one workload and its checked operations."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.ops = WORKLOADS[name]
        self.workdir = Path(workdir)
        self.out_dir = self.workdir / "out"
        self.config_paths = []
        self.outputs = []
        for op in self.ops:
            cfg = config_for(op, seed)
            path = self.workdir / f"{name}_{op.name}_{op.command}.json"
            path.write_text(json.dumps(cfg, indent=2))
            self.config_paths.append(path)
            self.outputs.append(cfg["outputs"])

    def argv(self, i):
        op = self.ops[i]
        args = [op.command, "--config", str(self.config_paths[i]),
                "--out-dir", str(self.out_dir)]
        if op.command == "convergence":
            args += ["--ladder", LADDER]
        return args

    def clear_outputs(self, i):
        for fname in self.outputs[i].values():
            (self.out_dir / fname).unlink(missing_ok=True)

    def verify(self, i, exit_code, stderr):
        """(failure reason or None, accuracy) of operation ``i``.

        Accuracy is the largest residual/tolerance over the named checks of
        a passing report (margin checks, stored with tolerance 0, are
        pass/fail only) or the fitted order of a convergence table.
        """
        op = self.ops[i]
        outputs = self.outputs[i]
        if exit_code != op.expect_exit:
            return (f"exit {exit_code}, expected {op.expect_exit}: "
                    f"{stderr.strip()}"), None
        if op.expect_exit != 0:
            if op.expect_stderr not in stderr:
                return (f"exit {exit_code} without {op.expect_stderr} named: "
                        f"{stderr.strip()}"), None
            return None, None
        if op.command == "check":
            path = self.out_dir / outputs["report"]
            report = json.loads(path.read_text())
            checks = report["checks"]
            failed = [c["name"] for c in checks if c["verdict"] != "pass"]
            if report["verdict"] != "pass" or failed or not checks:
                return f"verdicts not all passing: {failed}", None
            if not (self.out_dir / outputs["csv"]).is_file():
                return "residual CSV missing", None
            return None, max(c["residual"] / c["tolerance"] for c in checks
                             if c["tolerance"] > 0)
        table = (self.out_dir / outputs["convergence_csv"]).read_text()
        rows = list(csv.DictReader(table.splitlines()))
        order = float(rows[0]["fitted_order"])
        if not (math.isfinite(order) and order >= MIN_ORDER):
            return (f"fitted order {order} is not a resolved order >= "
                    f"{MIN_ORDER}"), None
        return None, order


def wall_time(call):
    """(``call()``'s result, its wall time in seconds)."""
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0


def run_operation(cli, workload, i, timer=wall_time):
    """Run operation ``i`` through ``cli.main``, in process.

    Returns (seconds, failure reason or None, accuracy); see
    ``Workload.verify``.  Only the CLI call is timed, by ``timer``;
    clearing old outputs and checking the new ones are not.
    """
    workload.clear_outputs(i)
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                return cli.main(workload.argv(i)), None
        except Exception:  # an uncaught error is a failed operation
            return None, traceback.format_exc()

    (code, error), elapsed = timer(call)
    if error is not None:
        return elapsed, "uncaught exception:\n" + error, None
    try:
        return (elapsed,) + workload.verify(i, code, err.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return elapsed, f"outputs unreadable: {exc!r}", None


def report_failure(workload, i, reason):
    op = workload.ops[i]
    print(f"FAILED {workload.name}/{op.name} ({op.command}): {reason}",
          file=sys.stderr)
