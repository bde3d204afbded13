"""The runtime is numpy + jsonschema: scipy is only a test oracle here.

The numpy principal-angle and null-space helpers of ``scenarios`` must equal
``scipy.linalg`` bit for bit, so that the dirac and jacobi reports do not
move.
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


def test_subspace_angles_equal_scipy(scipy_linalg):
    for A, B in _oracle_inputs():
        assert np.array_equal(scenarios._subspace_angles(A, B),
                              scipy_linalg.subspace_angles(A, B))


def test_null_space_equals_scipy(scipy_linalg):
    rng = np.random.default_rng(7)
    mats = [A.T for A, _ in _oracle_inputs()]
    mats += [rng.standard_normal((1, d)) for d in range(1, 10)]
    mats += [np.eye(1, d, d // 2) for d in range(1, 10)]   # omega at a unit
    for M in mats:
        got, want = scenarios._null_space(M), scipy_linalg.null_space(M)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", SCIPY_FREE)
def test_checked_angles_equal_scipy(name, tmp_path, monkeypatch,
                                    scipy_linalg):
    """The angle and null-space inputs that ``check`` actually passes give
    scipy's values bit for bit."""
    seen = {"_subspace_angles": [], "_null_space": []}
    for helper, calls in seen.items():
        original = getattr(scenarios, helper)

        def record(*args, _original=original, _calls=calls):
            out = _original(*args)
            _calls.append((args, out))
            return out

        monkeypatch.setattr(scenarios, helper, record)
    assert main(["check", "--config", str(CONFIGS / f"{name}.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert seen["_subspace_angles"]
    for args, out in seen["_subspace_angles"]:
        assert np.array_equal(out, scipy_linalg.subspace_angles(*args))
    for args, out in seen["_null_space"]:
        assert np.array_equal(out, scipy_linalg.null_space(*args))

