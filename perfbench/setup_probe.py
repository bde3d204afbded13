"""Set-up time of one fresh process: import, schema validation, parsing.

Usage: python3 setup_probe.py SRC_DIR CONFIG...

Prints the seconds from before ``import sprayform`` until every config has
passed ``cli.load_config`` and every expression in it has been parsed.
Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from sprayform import cli, expr  # noqa: E402

from workloads import expression_strings  # noqa: E402

for path in sys.argv[2:]:
    raw = cli.load_config(path)
    xs = [f"x{i + 1}" for i in range(raw["chart"]["dim"])]
    for source in expression_strings(raw["coefficients"]):
        expr.parse(source, xs)
print(time.perf_counter() - t0)
