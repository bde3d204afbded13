"""Per-layer metrics computed from the spans of one traced operation.

Every ``*_s`` metric is self time: the summed duration of the named spans
minus the time covered by their child spans, so the ``*_s`` metrics of one
operation never count the same interval twice.  Counts and work measures are
deterministic for a given config and seed.  README.md maps each metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import COMPILED, FIELD_CLASSES

JAC = "flow.FlowEngine.flow_with_jacobian"
GRID = "flow.FlowEngine.flow_on_grid"
PRODUCT = "groupoid.multiply_poisson"
PULLBACK = ("tensor.pullback_full_batch", "tensor.pullback")
VALIDITY = "groupoid.discover_validity_box"
EVALUATOR = "groupoid.MultFormEvaluator."

SELF_TIME = {
    "expr.compiled_s": (COMPILED,),
    "expr.compile_s": ("expr.compile_exprs",),
    "expr.symbolic_s": ("expr.partial", "expr.schouten"),
    "tensor.pullback_s": PULLBACK,
    "flow.jac_s": (JAC,),
    "flow.grid_s": (GRID,),
    "groupoid.product_s": (PRODUCT,),
    "groupoid.omega_s": tuple(EVALUATOR + m for m in (
        "omega_full_from_traj", "omega_full", "omega_at", "omega",
        "omega_matrices", "inverse_matrices")),
    "groupoid.mult_residual_s": ("groupoid.multiplicativity_residual",),
    "groupoid.assoc_residual_s": ("groupoid.associativity_residual",),
    "groupoid.tangents_s": ("groupoid.sample_composable_pairs",
                            "groupoid.composable_tangents_batch",
                            "groupoid.composable_tangent",
                            "groupoid._newton_composable"),
    "groupoid.domega_s": tuple(EVALUATOR + m for m in (
        "domega_full", "_domega_fd", "domega_at")),
    "groupoid.validity_s": (VALIDITY,),
    "groupoid.roundtrip_s": ("groupoid.differentiate_at_units",
                             "groupoid.linearization_check"),
    "groupoid.cocycle_s": ("groupoid.integrate_cocycle",),
    "algebroid.check_algebroid_s": ("algebroid.check_algebroid",),
    "algebroid.check_spray_s": ("algebroid.check_spray",),
    "algebroid.build_s": ("algebroid.cotangent_algebroid",
                          "algebroid.dirac_algebroid",
                          "algebroid.jacobi_algebroid",
                          "algebroid.default_spray"),
    "imform.im_residuals_s": ("imform.im_residuals",),
    "imform.linear_form_s": ("imform.linear_form",
                             "imform.jacobi_linear_form"),
    "scenarios.torsion_s": ("scenarios.torsion_identity_check",
                            "scenarios.nijenhuis_torsion",
                            "scenarios.torsion_nu_fields",
                            "scenarios._L_field_derivative"),
    "scenarios.pushforward_s": ("scenarios.pi_pushforwards_residual",),
    "scenarios.omega_Lk_s": ("scenarios.omega_Lk_two_ways",),
    "scenarios.dirac_checks_s": ("scenarios.dirac_checks",),
    "scenarios.jacobi_checks_s": ("scenarios.jacobi_checks",),
    "scenarios.gcs_s": ("scenarios.gcs_identity_check",),
    "scenarios.convergence_s": ("scenarios.convergence_study",),
    "scenarios.build_self_s": ("scenarios.build_symplectic_groupoid",
                               "scenarios.build_nijenhuis",
                               "scenarios.build_dirac",
                               "scenarios.build_jacobi"),
    "cli.load_config_s": ("cli.load_config",),
    "cli.write_s": ("cli.write_report", "cli.write_csv",
                    "cli.residuals_csv_text"),
}

COUNTS = {
    "expr.compiled_calls": (COMPILED,),
    "expr.compile_calls": ("expr.compile_exprs",),
    "tensor.pullback_calls": PULLBACK,
    "flow.jac_solves": (JAC,),
    "flow.grid_solves": (GRID,),
    "groupoid.product_calls": (PRODUCT,),
    "report.rng_draws": ("report.SplitMix64.next_u64",),
}

UNITS = {"_s": "s", "_mb": "MiB", "_flops": "flop", "_ratio": "ratio",
         "_order_min": "order"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def is_tree_eval(name):
    """Top-level expression-tree evaluations: Expr.eval and field ``.at``."""
    parts = name.split(".")
    return parts[0] == "expr" and len(parts) == 3 and (
        parts[2] == "eval" or (parts[1] in FIELD_CLASSES and parts[2] == "at"))


def layer_metrics(spans):
    """Every per-layer metric of one operation, from its span records.

    A record is ``[name, start, end, parent, op, child_time, measure, error]``.
    """
    count = defaultdict(int)
    self_s = defaultdict(float)
    measure_sum = defaultdict(float)
    out = {}
    jac_steps = jac_point_steps = grid_point_steps = 0
    traj_bytes = 0
    domain_exits = 0
    tree_calls = 0
    tree_s = 0.0
    attempts = defaultdict(int)
    accepted = defaultdict(int)
    for name, t0, t1, parent, _op, child, measure, error in spans:
        count[name] += 1
        self_s[name] += (t1 - t0) - child
        if name in (JAC, GRID):
            batch, steps, nodes, dim = measure
            if name == JAC:
                jac_steps += steps
                jac_point_steps += steps * batch
                traj_bytes = max(traj_bytes, batch * nodes * dim * (dim + 1) * 8)
            else:
                grid_point_steps += steps * batch
            if error == "DomainExitError":
                domain_exits += 1
            if parent >= 0 and spans[parent][0] == VALIDITY:
                attempts[parent] += 1
                accepted[parent] += error is None
        elif measure is not None:
            measure_sum[name] += measure
        elif is_tree_eval(name):
            tree_calls += 1
            tree_s += t1 - t0
    for metric, names in COUNTS.items():
        out[metric] = sum(count[n] for n in names)
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_s[n] for n in names)
    out["expr.compiled_rows"] = int(measure_sum[COMPILED])
    out["expr.tree_eval_calls"] = tree_calls
    out["expr.tree_eval_s"] = tree_s
    out["tensor.pullback_flops"] = int(sum(measure_sum[n] for n in PULLBACK))
    out["flow.jac_steps"] = jac_steps
    out["flow.jac_point_steps"] = jac_point_steps
    out["flow.traj_mb"] = traj_bytes / 2 ** 20
    out["flow.grid_point_steps"] = grid_point_steps
    out["flow.domain_exits"] = domain_exits
    out["groupoid.product_rows"] = int(measure_sum[PRODUCT])
    total_attempts = sum(attempts.values())
    out["groupoid.validity_accept_ratio"] = (
        sum(accepted.values()) / total_attempts if total_attempts else 0.0)
    return out
