import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosim.metrics import (
    DEFAULT_QUANTUM_THRESHOLD,
    JointCounts,
    MetricsError,
    SecurityVerdict,
    binary_entropy,
    calibrated_threshold,
    check_qkd_condition,
    check_qsdc_condition,
    information_crossing,
    mutual_information,
    probe_family_sweep,
)


# ---------------------------------------------------------------- entropy


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    for bad in (-0.01, 1.01, 2.0):
        with pytest.raises(MetricsError):
            binary_entropy(bad)


def test_binary_entropy_shape_on_grid():
    grid = np.linspace(0.0, 1.0, 1001)
    values = [binary_entropy(float(e)) for e in grid]
    assert max(values) == values[500]
    for e, v in zip(grid, values):
        assert v == pytest.approx(binary_entropy(float(1.0 - e)), abs=1e-12)
    # concavity: midpoint of chord never exceeds the curve
    for i in range(0, 999, 2):
        chord = 0.5 * (values[i] + values[i + 2])
        assert values[i + 1] >= chord - 1e-12


# ---------------------------------------------------------------- mutual information


def test_mutual_information_exact_cases():
    correlated = JointCounts(np.array([[500, 0], [0, 500]]))
    assert mutual_information(correlated) == pytest.approx(1.0, abs=1e-12)
    independent = JointCounts(np.array([[250, 250], [250, 250]]))
    assert mutual_information(independent) == pytest.approx(0.0, abs=1e-12)
    anticorrelated = JointCounts(np.array([[0, 500], [500, 0]]))
    assert mutual_information(anticorrelated) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_validation():
    with pytest.raises(MetricsError):
        mutual_information(JointCounts(np.zeros((2, 2), dtype=np.int64)))
    with pytest.raises(MetricsError):
        JointCounts(np.array([[1, -1], [0, 0]]))
    with pytest.raises(MetricsError):
        JointCounts(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(MetricsError):
        JointCounts(np.array([[1, 2, 3], [4, 5, 6]]))


def test_mutual_information_matches_symmetric_channel():
    rng = np.random.default_rng(0)
    e = 0.11
    target = 1.0 - binary_entropy(e)
    errors = []
    for n in (10**3, 10**4, 10**5):
        x = rng.integers(0, 2, size=n)
        y = x ^ (rng.random(n) < e)
        counts = JointCounts.from_pairs(zip(x.tolist(), y.tolist()))
        errors.append(abs(mutual_information(counts) - target))
    assert errors[2] < 0.01
    assert errors[0] > errors[1] > errors[2]


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
@settings(max_examples=60)
def test_mutual_information_bounds(seed, k):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 50, size=(k, k))
    counts = JointCounts(table)
    if counts.total == 0:
        return
    info = mutual_information(counts)
    joint = table / counts.total

    def entropy(p):
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())

    assert 0.0 <= info <= min(entropy(joint.sum(1)), entropy(joint.sum(0))) + 1e-12


def test_from_pairs_counts_placement():
    counts = JointCounts.from_pairs([(0, 1), (0, 1), (1, 0)])
    assert counts.counts[0, 1] == 2
    assert counts.counts[1, 0] == 1
    assert counts.total == 3


# ---------------------------------------------------------------- verdicts


def test_qkd_condition_cases():
    verdict = check_qkd_condition(0.0, 0.11, 1.0, 0.0)
    assert verdict.advantage_holds and verdict.condition_holds
    # above threshold the implication is vacuous even with Eve ahead
    verdict = check_qkd_condition(0.2, 0.1, 0.0, 1.0)
    assert not verdict.advantage_holds
    assert verdict.condition_holds
    # below threshold with Eve ahead the condition fails
    verdict = check_qkd_condition(0.05, 0.1, 0.2, 0.9)
    assert not verdict.condition_holds


def test_qsdc_condition_cases():
    verdict = check_qsdc_condition(0.0, 0.11, 1.0, 0.0, block_size=4)
    assert verdict.advantage_holds and verdict.condition_holds
    assert verdict.block_size == 4
    verdict = check_qsdc_condition(0.2, 0.1, 0.0, 1.0, block_size=2)
    assert verdict.condition_holds  # vacuous
    # the advantage is strict: a tie does not count
    verdict = check_qsdc_condition(0.01, 0.11, 0.5, 0.5, block_size=2)
    assert not verdict.advantage_holds
    with pytest.raises(MetricsError):
        check_qsdc_condition(0.0, 0.11, 1.0, 0.0, block_size=0)


def test_verdict_validation():
    with pytest.raises(MetricsError):
        SecurityVerdict(1.5, 0.1, 1.0, 0.0, True, True)
    with pytest.raises(MetricsError):
        SecurityVerdict(0.1, 0.1, -1.0, 0.0, True, True)


# ---------------------------------------------------------------- probe sweep


def test_sweep_matches_closed_forms():
    thetas = np.linspace(0.0, math.pi / 2, 16)
    for point in probe_family_sweep(thetas):
        e_expected = (1.0 - math.cos(point.theta)) / 2.0
        assert point.error_rate == pytest.approx(e_expected, abs=1e-12)
        assert point.info_ae == pytest.approx(binary_entropy(e_expected), abs=1e-12)
        assert point.info_ab == pytest.approx(1.0 - binary_entropy(e_expected), abs=1e-12)


def test_sweep_endpoints_and_monotonicity():
    points = probe_family_sweep(np.linspace(0.0, math.pi / 2, 16))
    assert points[0].error_rate == pytest.approx(0.0, abs=1e-12)
    assert points[0].info_ab == pytest.approx(1.0, abs=1e-12)
    assert points[0].info_ae == pytest.approx(0.0, abs=1e-12)
    assert points[-1].error_rate == pytest.approx(0.5, abs=1e-12)
    assert points[-1].info_ab == pytest.approx(0.0, abs=1e-12)
    assert points[-1].info_ae == pytest.approx(1.0, abs=1e-12)
    for a, b in zip(points, points[1:]):
        assert b.info_ae >= a.info_ae - 1e-12
        assert b.info_ab <= a.info_ab + 1e-12


def test_condition_flips_at_most_once_on_sweep():
    points = probe_family_sweep(np.linspace(0.0, math.pi / 2, 16))
    holds = [p.info_ab >= p.info_ae for p in points]
    flips = sum(a != b for a, b in zip(holds, holds[1:]))
    assert holds[0] and not holds[-1]
    assert flips == 1


def test_information_crossing():
    point = information_crossing()
    assert abs(point.info_ab - point.info_ae) < 1e-6
    assert point.theta == pytest.approx(0.676219559749875, abs=1e-9)
    assert point.error_rate == pytest.approx(0.11002786443835955, abs=1e-9)
    # at the crossing both rates sit at one half
    assert point.info_ab == pytest.approx(0.5, abs=1e-7)


def test_default_threshold_regenerates():
    assert calibrated_threshold() == pytest.approx(DEFAULT_QUANTUM_THRESHOLD, abs=1e-12)


def test_crossing_needs_valid_bracket():
    with pytest.raises(MetricsError):
        information_crossing(lo=1.0, hi=1.2)
