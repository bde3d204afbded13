"""Check reports and the seeded random generator used for sampling.

Reports are deterministic given (configuration, seed): entries are kept in
insertion order, floats are serialized with a fixed 17-significant-digit
format, and sampling everywhere goes through :class:`SplitMix64`, a
documented 64-bit generator that behaves identically across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["SplitMix64", "CheckResult", "CheckReport"]

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix-style 64-bit generator.

    state' = state + 0x9E3779B97F4A7C15;  the output mixes the new state with
    two xor-shift-multiply rounds.  ``uniform`` maps the top 53 bits into
    [0, 1).  Deterministic and platform independent; not cryptographic.
    """

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def uniform_rows(self, box, count):
        """(count, len(box)) uniform points of the (lo, hi) intervals
        ``box``, drawn row by row."""
        return np.array([[self.uniform(lo, hi) for lo, hi in box]
                         for _ in range(count)]).reshape(count, len(box))

    def direction(self, dim):
        """Unit vector; Gaussian components via Box-Muller on uniforms."""
        out = np.empty(dim)
        i = 0
        while i < dim:
            u1 = max(self.uniform(), 1e-300)
            u2 = self.uniform()
            r = np.sqrt(-2.0 * np.log(u1))
            out[i] = r * np.cos(2 * np.pi * u2)
            if i + 1 < dim:
                out[i + 1] = r * np.sin(2 * np.pi * u2)
            i += 2
        norm = np.linalg.norm(out)
        return out / (norm if norm > 0 else 1.0)

    def directions(self, count, dim):
        """(count, dim) unit vectors, one ``direction`` per row."""
        return np.array([self.direction(dim) for _ in range(count)]).reshape(count, dim)


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return float(format(float(x), ".17g"))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_fmt(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    return x


@dataclass
class CheckResult:
    """One named residual with its tolerance and verdict."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    worst_point: list | None = None
    note: str = ""

    def to_dict(self):
        d = {
            "name": self.name,
            "residual": _fmt(self.residual),
            "tolerance": _fmt(self.tolerance),
            "verdict": "pass" if self.passed else "fail",
        }
        if self.worst_point is not None:
            d["worst_point"] = self.worst_point
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class CheckReport:
    """Named residuals plus the numerical environment they were measured in."""

    environment: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, residual, tolerance, worst_point=None, note=""):
        residual = float(residual)
        result = CheckResult(name, residual, float(tolerance),
                             residual < tolerance, _fmt(worst_point), note)
        self.checks.append(result)
        return result

    def add_pointwise(self, name, residuals, tolerance, points):
        """Add the largest per-point residual with the first point attaining
        it (none if all are 0); a NaN counts as largest, so it fails."""
        residuals = np.asarray(residuals)
        i = int(np.argmax(residuals))
        worst = points[i] if not residuals[i] <= 0.0 else None
        return self.add(name, residuals[i], tolerance, worst)

    def add_margin(self, name, value, floor, note=""):
        """A lower-bound check: passes iff ``value >= floor``.

        Stored with residual = floor - value (negative when comfortably
        above the floor) and tolerance 0, so the pass condition is exact.
        """
        result = CheckResult(name, float(floor) - float(value), 0.0,
                             float(value) >= float(floor),
                             note=note or f"value {value:.6g}, floor {floor:.6g}")
        self.checks.append(result)
        return result

    def note(self, text):
        self.notes.append(text)

    def merge(self, other, prefix=""):
        self.checks += [replace(c, name=prefix + c.name) for c in other.checks]
        self.notes.extend(other.notes)
        return self

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def worst(self):
        """The check with the largest residual/tolerance ratio."""
        return max(self.checks,
                   key=lambda c: c.residual / max(c.tolerance, 1e-300),
                   default=None)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "schema_version": 1,
            "environment": _fmt(self.environment),
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
            "verdict": "pass" if self.all_passed else "fail",
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: residual {c.residual:.3e} "
                         f"(tol {c.tolerance:.1e})")
        return lines
