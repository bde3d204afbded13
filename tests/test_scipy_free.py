"""The runtime is numpy + jsonschema: scipy is only a test oracle here.

``scenarios`` computes only the angle each check reports: the largest
principal angle of the dirac forward image (``_max_angle``) and the angle
between two hyperplanes of the jacobi units kernel (``_kernel_angles``).
``scipy.linalg.subspace_angles`` and ``null_space`` are their oracle, within
measured roundoff bounds and, on the angles the bundled checks report, bit
for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sprayform import scenarios
from sprayform.cli import load_config, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SCIPY_FREE = ["dirac_twisted", "jacobi_line"]


def test_import_cli_loads_no_scipy():
    code = ("import sys; import sprayform.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("name", SCIPY_FREE)
def test_check_runs_with_scipy_blocked(name, tmp_path, monkeypatch):
    """With every scipy import failing, ``check`` on the configs that use
    principal angles exits 0 and writes the same bytes."""
    config = CONFIGS / f"{name}.json"
    outputs = load_config(config)["outputs"]
    assert main(["check", "--config", str(config),
                 "--out-dir", str(tmp_path / "free")]) == 0
    for module in ("scipy", "scipy.linalg", "scipy.special"):
        monkeypatch.setitem(sys.modules, module, None)
    with pytest.raises(ImportError):
        import scipy.linalg  # noqa: F401
    assert main(["check", "--config", str(config),
                 "--out-dir", str(tmp_path / "blocked")]) == 0
    for key in ("report", "csv"):
        assert (tmp_path / "blocked" / outputs[key]).read_bytes() == \
            (tmp_path / "free" / outputs[key]).read_bytes()


# ---------------------------------------------------------------------------
# scipy as oracle


def _oracle_inputs():
    """Full-rank, rank-deficient and nearly parallel pairs (A, B) with the
    same row count, including the (2n, k) shapes of the dirac forward image
    and the (d, d - 1) kernel bases of the jacobi units check."""
    rng = np.random.default_rng(2024)
    pairs = []
    for _ in range(300):
        m = int(rng.integers(1, 13))
        A = rng.standard_normal((m, int(rng.integers(1, 8))))
        B = rng.standard_normal((m, int(rng.integers(1, 8))))
        pairs.append((A, B))
        if A.shape[1] > 1:
            D = A.copy()
            D[:, -1] = 2.0 * D[:, 0]
            pairs.append((D, B))
        near = A[:, :1] @ rng.standard_normal((1, B.shape[1]))
        pairs.append((A, near + 1e-9 * rng.standard_normal(B.shape)))
    for n in (1, 2, 3):
        for k in range(1, 2 * n + 1):
            pairs.append((rng.standard_normal((2 * n, k)),
                          rng.standard_normal((2 * n, n))))
    for d in range(2, 10):
        pairs.append((rng.standard_normal((d, d - 1)),
                      np.delete(np.eye(d), d // 2, axis=1)))
    return pairs


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


def test_max_angle_matches_scipy(scipy_linalg):
    """_max_angle against the largest of scipy's principal angles: within
    2.4e-16 below 1e-6, where both take the sine branch, and 3.6e-14 on
    every pair (5.6e-15 measured)."""
    for A, B in _oracle_inputs():
        want = np.max(scipy_linalg.subspace_angles(A, B))
        bound = 2.4e-16 if want < 1e-6 else 3.6e-14
        assert abs(scenarios._max_angle(A, B) - want) <= bound


def test_max_angle_loses_digits_near_a_right_angle():
    """The arcsine's derivative blows up at pi/2: at pi/2 - delta a
    rounding of the sine moves the angle by about eps / delta, and by at
    most sqrt(2 eps) = 2.1e-8 (1e-8 measured at delta = 1e-8).  No check
    reads such an angle."""
    for delta in (1e-2, 1e-3, 1e-6, 1e-8, 0.0):
        A = np.eye(3, 1)
        B = np.array([[np.sin(delta)], [np.cos(delta)], [0.0]])
        bound = min(4e-16 / delta, 2.2e-8) if delta else 2.2e-8
        assert abs(scenarios._max_angle(A, B) - (np.pi / 2 - delta)) <= bound


def _kernel_inputs():
    """1-form rows at every dimension 2..9 and slot, generic and close to
    the slot's covector (the hyperplanes then meet at small angles)."""
    rng = np.random.default_rng(11)
    rows = []
    for scale in (1.0, 1e-3, 1e-9, 0.0):
        for _ in range(300):
            d = int(rng.integers(2, 10))
            n = int(rng.integers(0, d))
            om = rng.standard_normal(d)
            om[np.arange(d) != n] *= scale
            rows.append((om, n))
    return rows


def test_units_kernel_angle_matches_scipy(scipy_linalg):
    """The angle between the normals against scipy's principal angles
    between the null space of the row and the coordinate hyperplane:
    within 1e-12 relative, plus 1e-15.  Near pi/2 scipy's own angle has
    the larger error (3.6e-13 at 1.570, where the closed form is within
    2.3e-16 relative of the exact value)."""
    for om, n in _kernel_inputs():
        want = np.max(scipy_linalg.subspace_angles(
            scipy_linalg.null_space(om[None, :]),
            np.delete(np.eye(len(om)), n, axis=1)))
        got = scenarios._kernel_angles(om[None, :], n)[0]
        assert abs(got - want) <= 1e-12 * want + 1e-15


@pytest.mark.parametrize("name", SCIPY_FREE)
def test_checked_angles_equal_scipy(name, tmp_path, monkeypatch,
                                    scipy_linalg):
    """The angles that ``check`` actually reports equal scipy's largest
    principal angle bit for bit: the dirac forward images (small angles,
    the sine branch with A first) and the jacobi kernels at units (exactly
    zero)."""
    seen = {"_max_angle": [], "_kernel_angles": []}
    for helper, calls in seen.items():
        original = getattr(scenarios, helper)

        def record(*args, _original=original, _calls=calls):
            out = _original(*args)
            _calls.append((args, out))
            return out

        monkeypatch.setattr(scenarios, helper, record)
    assert main(["check", "--config", str(CONFIGS / f"{name}.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert seen["_max_angle" if name == "dirac_twisted" else "_kernel_angles"]
    for (A, B), out in seen["_max_angle"]:
        assert out == np.max(scipy_linalg.subspace_angles(A, B))
    for (om, n), out in seen["_kernel_angles"]:
        for row, angle in zip(om, out):
            assert angle == np.max(scipy_linalg.subspace_angles(
                scipy_linalg.null_space(row[None, :]),
                np.delete(np.eye(len(row)), n, axis=1)))
