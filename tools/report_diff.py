#!/usr/bin/env python3
"""Compare two report-identity output trees value by value.

    python3 tools/report_diff.py BASE_OUT HEAD_OUT

BASE_OUT and HEAD_OUT are trees written by ``tools/report_identity.sh``.
Where ``diff -r`` of the two fails on any byte, this prints every numeric
value that moved: its path, old and new value, |new - old| and the
tolerance it is checked against ("-" for values no check reads: eval
output, convergence errors, notes).  Numbers are read from report JSON,
eval output, CSV cells and numbers inside text such as a check's note.

It exits 1 on any other difference, which a deliberate re-baseline of
numerics must not make: a file present on one side only, an exit code,
stderr, a check name, verdict or tolerance, the report ``environment``
(validity_box included), or text once its numbers are set aside.  It exits
0 when only numeric values moved, and 2 on bad usage.
"""

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# report keys whose values must not move at all
STRICT_KEYS = {"environment", "tolerance", "verdict", "name", "check",
               "schema_version"}


class Diff:
    """Moved values and structural differences found so far."""

    def __init__(self):
        self.moved = []         # (path, old, new, tolerance)
        self.broken = []        # (path, what)

    def number(self, path, old, new, tol, strict):
        if old == new or (isinstance(old, float) and isinstance(new, float)
                          and math.isnan(old) and math.isnan(new)):
            return
        if strict:
            self.broken.append((path, f"{old!r} -> {new!r}"))
        else:
            self.moved.append((path, old, new, tol))

    def text(self, path, old, new, tol, strict):
        """Strings: the text around the numbers must match exactly."""
        if old == new:
            return
        if strict or NUMBER.sub("#", old) != NUMBER.sub("#", new):
            self.broken.append((path, f"{old!r} -> {new!r}"))
            return
        for k, (a, b) in enumerate(zip(NUMBER.findall(old), NUMBER.findall(new))):
            self.number(f"{path}#{k}", float(a), float(b), tol, False)

    def value(self, path, old, new, tol="-", strict=False):
        """Recursive comparison of two JSON values."""
        if isinstance(old, bool) or isinstance(new, bool) or old is None \
                or new is None:
            if old is not new and old != new:
                self.broken.append((path, f"{old!r} -> {new!r}"))
        elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
            self.number(path, old, new, tol, strict)
        elif isinstance(old, str) and isinstance(new, str):
            self.text(path, old, new, tol, strict)
        elif isinstance(old, dict) and isinstance(new, dict):
            if old.keys() != new.keys():
                self.broken.append((path, f"keys {sorted(old)} -> {sorted(new)}"))
                return
            tol = old.get("tolerance", tol)
            for key in old:
                self.value(f"{path}.{key}", old[key], new[key], tol,
                           strict or key in STRICT_KEYS)
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.broken.append((path, f"length {len(old)} -> {len(new)}"))
                return
            for k, (a, b) in enumerate(zip(old, new)):
                label = a.get("name", k) if isinstance(a, dict) else k
                self.value(f"{path}[{label}]", a, b, tol, strict)
        else:
            self.broken.append((path, f"{old!r} -> {new!r}"))

    def csv(self, path, old, new):
        """CSV tables: header, check names, tolerances and verdicts exact;
        other cells as numbers, checked against their row's tolerance."""
        rows_a = list(csv.reader(io.StringIO(old)))
        rows_b = list(csv.reader(io.StringIO(new)))
        if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            self.broken.append((path, "header or row count differs"))
            return
        header = rows_a[0]
        for k, (a, b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            rec_a, rec_b = dict(zip(header, a)), dict(zip(header, b))
            label = rec_a.get("check", k)
            tol = rec_a.get("tolerance", "-")
            for col in header:
                self.text(f"{path}[{label}].{col}", rec_a[col], rec_b[col],
                          tol, col in STRICT_KEYS)

    def file(self, rel, a, b):
        old, new = a.read_text(), b.read_text()
        if old == new:
            return
        if a.name in ("exit_code", "stderr"):
            self.broken.append((rel, "differs"))
        elif a.suffix == ".csv":
            self.csv(rel, old, new)
        else:
            try:
                self.value(rel, json.loads(old), json.loads(new))
            except json.JSONDecodeError:
                self.text(rel, old, new, "-", False)


def _files(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv):
    if len(argv) != 2:
        print("usage: report_diff.py BASE_OUT HEAD_OUT", file=sys.stderr)
        return 2
    base, head = (Path(a) for a in argv)
    diff = Diff()
    files_a, files_b = _files(base), _files(head)
    for rel in sorted(files_a ^ files_b):
        diff.broken.append((rel, "only in " + ("base" if rel in files_a else "head")))
    for rel in sorted(files_a & files_b):
        diff.file(rel, base / rel, head / rel)
    for path, old, new, tol in diff.moved:
        print(f"moved  {path}: {old!r} -> {new!r}  |d| {abs(new - old):.3g}  "
              f"tol {tol}")
    for path, what in diff.broken:
        print(f"DIFFERS  {path}: {what}")
    print(f"{len(diff.moved)} numeric values moved, "
          f"{len(diff.broken)} other differences")
    return 1 if diff.broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
