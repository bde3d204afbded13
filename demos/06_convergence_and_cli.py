"""Resolution ladders and the batch front end.

Both error sources (the fixed-step flow and the composite quadrature) are
fourth order; the ladder fits the observed orders.  The same studies and all
scenario checks are scriptable through the `sprayform` command using JSON
configs (see configs/ and `sprayform schema`).
"""

import subprocess
import sys

from sprayform.algebroid import cotangent_algebroid, default_spray
from sprayform.expr import BivectorField, parse
from sprayform.groupoid import (MultFormEvaluator, SprayGroupoid,
                                discover_validity_box)
from sprayform.imform import linear_form, poisson_im_pair
from sprayform.scenarios import convergence_study

xs = ["x1", "x2", "x3"]
pi = BivectorField(3, {(0, 1): parse("x3", xs),
                       (0, 2): parse("-x2", xs),
                       (1, 2): parse("x1", xs)}, xs)
A = cotangent_algebroid(pi, [[-1, 1]] * 3)
V = default_spray(A)
G = SprayGroupoid(A, V, n_quad=16)
discover_validity_box(G)
pts = G.sample_validity_points(6, seed=5)
ev = MultFormEvaluator(G, linear_form(poisson_im_pair(A)))

# each rung (N, M) is the time rule of N quadrature subintervals and M RK4
# steps per node gap, flown on G itself
rows, order = convergence_study(ev, pts, [(16, 1), (32, 1), (64, 1), (128, 1)])
print("combined ladder (h = 1/n):")
for r in rows:
    print(f"  n={r['n_quad']:4d}  error={r['error']:.3e}")
print(f"fitted order: {order:.3f}")

rows, order = convergence_study(ev, pts,
                                [(16, 8), (32, 4), (64, 2), (128, 1)])
print(f"quadrature axis (step fixed at 1/128): order {order:.3f}")

rows, order = convergence_study(ev, pts,
                                [(128, 1), (128, 2), (128, 4), (128, 8)])
print(f"flow axis (nodes fixed at 128): order {order:.3f}")

# The CLI runs the same pipelines from JSON configs:
print("\n$ sprayform check --config configs/jacobi_line.json")
out = subprocess.run(
    [sys.executable, "-m", "sprayform.cli", "check",
     "--config", "configs/jacobi_line.json", "--out-dir", "/tmp/sprayform-demo"],
    capture_output=True, text=True)
print(out.stdout)
print("exit code:", out.returncode)
