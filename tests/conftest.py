"""Shared fixtures: the expensive pipelines are built once per session."""

import numpy as np
import pytest

from sprayform import expr as ex
from sprayform.expr import BivectorField, FormField, parse
from sprayform.scenarios import (
    Numerics,
    build_dirac,
    build_jacobi,
    build_symplectic_groupoid,
    run_checks,
)

XS2 = ["x1", "x2"]
XS3 = ["x1", "x2", "x3"]


def so3_bivector():
    return BivectorField(3, {(0, 1): parse("x3", XS3),
                             (0, 2): parse("-x2", XS3),
                             (1, 2): parse("x1", XS3)}, XS3)


def constant_bivector_r2():
    return BivectorField(2, {(0, 1): ex.ONE}, XS2)


def twisted_dirac_sections():
    # B-transform of the graph of d1^d2 by B = x1 dx2^dx3 (H = -dB)
    return [
        ([ex.ZERO, ex.ONE, ex.ZERO], [ex.ONE, ex.ZERO, parse("x1", XS3)]),
        ([ex.neg(ex.ONE), ex.ZERO, ex.ZERO], [ex.ZERO, ex.ONE, ex.ZERO]),
        ([ex.ZERO, ex.ZERO, ex.ZERO], [ex.ZERO, ex.ZERO, ex.ONE]),
    ]


class NumpySpy:
    """numpy for generated code: each call is logged in ``calls`` as its
    function's name and the shapes of its positional operands."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn):
            return fn

        def logged(*args, **kwargs):
            self.calls.append((name, [np.shape(a) for a in args]))
            return fn(*args, **kwargs)

        return logged


def same_bits(a, b):
    """Whether a and b have one shape and the same bits, real and imaginary
    parts alike."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(
        np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                       np.ascontiguousarray(y).view(np.uint64))
        for x, y in ((a.real, b.real), (a.imag, b.imag)))


def spy_generated(monkeypatch, kind):
    """A NumpySpy that sees the numpy calls of the code generated as ``kind``
    ("rhs", "form") from now on."""
    spy, generate = NumpySpy(), ex.exec_generated

    def exec_generated(lines, name):
        namespace = generate(lines, name)
        if name == kind:
            namespace["np"] = spy
        return namespace

    monkeypatch.setattr(ex, "exec_generated", exec_generated)
    return spy


def checked(scen):
    """The built scenario with the report of its checks as ``scen.report``."""
    scen.report = run_checks(scen)
    return scen


@pytest.fixture(scope="session")
def so3_scenario():
    """so(3)* pipeline at acceptance resolution (the expensive fixture).

    The wall-clock of the build and every check (realization,
    multiplicativity on 100 pairs, associativity on 50 triples, units
    formula, round trips) is recorded for the acceptance runtime budget.
    """
    import time
    nm = Numerics(n_quad=64, mu_steps=32, samples=100, seed=20240,
                  mult_pairs=100, assoc_triples=50)
    t0 = time.perf_counter()
    scen = checked(build_symplectic_groupoid(so3_bivector(), [[-1, 1]] * 3,
                                             numerics=nm))
    scen.build_seconds = time.perf_counter() - t0
    return scen


@pytest.fixture(scope="session")
def so3_scenario_light():
    nm = Numerics(n_quad=32, mu_steps=16, samples=30, seed=8, mult_pairs=8,
                  assoc_triples=4)
    return checked(build_symplectic_groupoid(so3_bivector(), [[-1, 1]] * 3,
                                             numerics=nm))


@pytest.fixture(scope="session")
def dirac_twisted_scenario():
    nm = Numerics(n_quad=64, samples=100, seed=31)
    H = FormField(XS3, 3, {(0, 1, 2): ex.const(-1.0)})
    return checked(build_dirac(twisted_dirac_sections(), H, [[-1, 1]] * 3,
                               numerics=nm))


@pytest.fixture(scope="session")
def jacobi_line_scenario():
    nm = Numerics(n_quad=64, samples=60, seed=77)
    pi0 = BivectorField(1, {}, ["x1"])
    return checked(build_jacobi(pi0, [ex.ONE], [[-1, 1]], numerics=nm))
