"""Local Lie groupoids from Lie algebroid sprays.

Build a local groupoid on the total space of a Lie algebroid from a spray
(source = bundle projection, target = projection after the unit-time flow,
inverse = fiberwise negation of the unit-time flow), evaluate multiplicative
differential forms as time integrals of flow pullbacks of fiberwise-linear
forms, and verify the resulting symplectic, presymplectic, symplectic-
Nijenhuis and contact structures by quantitative residual checks.
"""

from . import algebroid, expr, flow, groupoid, imform, report, scenarios, tensor
from .algebroid import (
    AlgebroidChart,
    Spray,
    check_algebroid,
    check_spray,
    cotangent_algebroid,
    default_spray,
    dirac_algebroid,
    jacobi_algebroid,
    transport_weight,
)
from .errors import SprayformError
from .expr import BivectorField, Expr, FormField, VectorField, parse, partial, schouten
from .flow import FlowEngine, TimeRule
from .groupoid import (
    MultFormEvaluator,
    SprayGroupoid,
    differentiate_at_units,
    discover_validity_box,
    integrate_cocycle,
    linearization_check,
    multiply_poisson,
    units_form_predictor,
)
from .imform import IMFormData, im_residuals, linear_form
from .report import CheckReport, SplitMix64
from .scenarios import (
    NijenhuisPair,
    Numerics,
    Scenario,
    build_dirac,
    build_gcs,
    build_jacobi,
    build_nijenhuis,
    build_symplectic_groupoid,
    convergence_study,
    dirac_checks,
    gcs_identity_check,
    jacobi_checks,
    nijenhuis_torsion,
    omega_L,
    run_checks,
    torsion_identity_check,
)

__version__ = "0.1.0"
