"""Check reports and the seeded random generator used for sampling.

Reports are deterministic given (configuration, seed): entries are kept in
insertion order, floats are serialized with a fixed 17-significant-digit
format, and every sample set is rows of one :class:`SplitMix64` stream, a
documented 64-bit generator that behaves identically across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["SplitMix64", "CheckResult", "CheckReport"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix-style 64-bit generator (Steele, Lea and Flood, OOPSLA 2014).

    state' = state + 0x9E3779B97F4A7C15;  each draw mixes the new state with
    two xor-shift-multiply rounds and maps its top 53 bits into [0, 1).
    Draws come in rows of parts (``rows``).  Deterministic and platform
    independent; not cryptographic.
    """

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def rows(self, count, *parts):
        """``count`` rows drawn one after another, each part by part, as one
        (count, width) array per part: a box, a list of (lo, hi), draws a
        uniform value per interval, an int dim a unit vector (Box-Muller on
        2 ceil(dim / 2) draws).  One pass of wrapping uint64 arithmetic."""
        widths = [2 * -(-p // 2) if np.ndim(p) == 0 else len(p) for p in parts]
        n, u64 = count * sum(widths), np.uint64
        z = u64(self.state) + np.arange(1, n + 1, dtype=u64) * u64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        u = ((z ^ (z >> u64(31))) >> u64(11)).astype(np.float64) * (1.0 / (1 << 53))
        blocks = np.split(u.reshape(count, sum(widths)), np.cumsum(widths)[:-1], axis=1)
        return [_directions(b, p) if np.ndim(p) == 0 else _uniforms(b, p)
                for b, p in zip(blocks, parts)]

    def uniform_rows(self, box, count):
        """(count, len(box)) uniform points of the (lo, hi) intervals ``box``."""
        return self.rows(count, box)[0]


def _uniforms(u, box):
    """lo + (hi - lo) u on each interval (lo, hi) of ``box``."""
    bounds = np.array([(lo, hi - lo) for lo, hi in box], np.float64).reshape(-1, 2)
    return bounds[:, 0] + bounds[:, 1] * u


def _directions(u, dim):
    """Box-Muller on the draw pairs (u1 >= 1e-300, u2), the last sine dropped
    for odd dim.  Each row is divided by the root of its own dot product, as
    a 1-D ``norm`` is (``norm(axis=1)`` rounds otherwise)."""
    r = np.sqrt(-2.0 * np.log(np.maximum(u[:, 0::2], 1e-300)))
    angle = 2 * np.pi * u[:, 1::2]
    g = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=2)
    g = g.reshape(u.shape)[:, :dim]
    norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None]))[:, 0]
    return g / np.where(norm > 0, norm, 1.0)


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
