import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosim.gpt import (
    FiducialSpec,
    GptState,
    GptValidationError,
    PrBox,
    PureGbit,
    distinguishing_fiducial,
    embed_qubit,
    gbit_pure,
    measure_fiducial,
    mix,
    pr_box_sample,
    sample_outcome,
)
from conftest import assert_frequency

TWO_TWO = FiducialSpec(2, 2)


def specs_strategy():
    return st.builds(
        FiducialSpec,
        num_fiducials=st.integers(min_value=1, max_value=4),
        num_outcomes=st.integers(min_value=2, max_value=5),
    )


def assignment_strategy(spec):
    return st.tuples(
        *[st.integers(0, spec.num_outcomes - 1) for _ in range(spec.num_fiducials)]
    )


# ---------------------------------------------------------------- pure gbits


def test_two_two_pure_gbit_tables():
    # the four definite-outcome states of the minimal theory, rows (X, Z)
    expected = {
        (0, 0): ((1.0, 0.0), (1.0, 0.0)),
        (0, 1): ((1.0, 0.0), (0.0, 1.0)),
        (1, 0): ((0.0, 1.0), (1.0, 0.0)),
        (1, 1): ((0.0, 1.0), (0.0, 1.0)),
    }
    for assignment, table in expected.items():
        assert gbit_pure(TWO_TWO, assignment).probs == table


def test_classical_bit_is_the_j1_theory():
    spec = FiducialSpec(1, 2)
    assert gbit_pure(spec, (0,)).probs == ((1.0, 0.0),)
    assert gbit_pure(spec, (1,)).probs == ((0.0, 1.0),)


def test_pure_gbit_rejects_out_of_range_assignment():
    with pytest.raises(GptValidationError):
        gbit_pure(TWO_TWO, (0, 2))
    with pytest.raises(GptValidationError):
        gbit_pure(TWO_TWO, (0,))


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
def test_pure_gbit_rows_are_point_masses(seed, spec):
    rng = np.random.default_rng(seed)
    assignment = tuple(int(a) for a in rng.integers(0, spec.num_outcomes, spec.num_fiducials))
    state = gbit_pure(spec, assignment)
    for mu, row in enumerate(state.probs):
        assert row[assignment[mu]] == 1.0
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- validation


def test_state_row_normalization_enforced():
    with pytest.raises(GptValidationError):
        GptState(TWO_TWO, ((0.6, 0.6), (1.0, 0.0)))
    with pytest.raises(GptValidationError):
        GptState(TWO_TWO, ((1.2, -0.2), (1.0, 0.0)))
    # within tolerance is fine
    GptState(TWO_TWO, ((0.5 + 4e-13, 0.5 - 4e-13), (1.0, 0.0)))


def test_state_shape_enforced():
    with pytest.raises(GptValidationError):
        GptState(TWO_TWO, ((1.0, 0.0),))
    with pytest.raises(GptValidationError):
        GptState(TWO_TWO, ((1.0, 0.0, 0.0), (1.0, 0.0)))


def test_spec_bounds():
    with pytest.raises(GptValidationError):
        FiducialSpec(0, 2)
    with pytest.raises(GptValidationError):
        FiducialSpec(2, 1)


# ---------------------------------------------------------------- mixtures


def test_equal_mixture_of_fixed_x_gbits():
    # both states answer X with outcome 0; Z becomes uniform in the mixture
    g00 = gbit_pure(TWO_TWO, (0, 0))
    g01 = gbit_pure(TWO_TWO, (0, 1))
    mixed = mix([g00, g01], [0.5, 0.5])
    assert mixed.probs == ((1.0, 0.0), (0.5, 0.5))


def test_mix_identity_and_weight_errors():
    g = gbit_pure(TWO_TWO, (1, 0))
    assert mix([g], [1.0]).probs == g.probs
    with pytest.raises(GptValidationError):
        mix([g, g], [0.7, 0.7])
    with pytest.raises(GptValidationError):
        mix([g, g], [1.5, -0.5])
    with pytest.raises(GptValidationError):
        mix([g, gbit_pure(FiducialSpec(3, 2), (0, 0, 0))], [0.5, 0.5])


@given(
    seed=st.integers(0, 2**32 - 1),
    spec=specs_strategy(),
    count=st.integers(1, 5),
)
@example(seed=3244, spec=FiducialSpec(3, 2), count=3)  # an entry rounded to 1 + 1ulp
@settings(max_examples=60)
def test_mix_closure_under_random_weights(seed, spec, count):
    rng = np.random.default_rng(seed)
    states = [
        gbit_pure(spec, tuple(int(a) for a in rng.integers(0, spec.num_outcomes, spec.num_fiducials)))
        for _ in range(count)
    ]
    raw = rng.random(count) + 1e-3
    weights = (raw / raw.sum()).tolist()
    mixed = mix(states, weights)  # constructor revalidates normalization
    for row in mixed.probs:
        assert abs(math.fsum(row) - 1.0) <= 1e-12


# ---------------------------------------------------------------- qubit embedding


def test_embed_qubit_tables():
    assert embed_qubit("Z+").probs == ((0.5, 0.5), (0.5, 0.5), (1.0, 0.0))
    assert embed_qubit("Z-").probs == ((0.5, 0.5), (0.5, 0.5), (0.0, 1.0))
    assert embed_qubit("X+").probs == ((1.0, 0.0), (0.5, 0.5), (0.5, 0.5))
    assert embed_qubit("Y-").probs == ((0.5, 0.5), (0.0, 1.0), (0.5, 0.5))
    with pytest.raises(GptValidationError):
        embed_qubit("Q+")


def test_embedded_qubit_measurement_statistics():
    # definite on its own axis, uniform on a conjugate axis
    state = embed_qubit("Z+")
    rng = np.random.default_rng(7)
    for _ in range(200):
        outcome, _ = measure_fiducial(state, 2, rng)
        assert outcome == 0
    trials = 100_000
    ones = sum(sample_outcome(state, 0, rng) for _ in range(trials))
    assert_frequency(ones, trials, 0.5, 5.0)


# ---------------------------------------------------------------- measurement


def test_measurement_disturbs_conjugate_rows():
    # measuring X on the (1, 0) gbit gives outcome 1 surely and wipes Z
    g = gbit_pure(TWO_TWO, (1, 0))
    rng = np.random.default_rng(3)
    outcome, post = measure_fiducial(g, 0, rng)
    assert outcome == 1
    assert post.probs == ((0.0, 1.0), (0.5, 0.5))
    # the post state equals the even mixture of the two X=1 gbits
    remix = mix([gbit_pure(TWO_TWO, (1, 0)), gbit_pure(TWO_TWO, (1, 1))], [0.5, 0.5])
    assert post.probs == remix.probs


def test_measurement_fixed_point():
    # a state already of post-measurement form is reproduced exactly
    state = GptState(TWO_TWO, ((1.0, 0.0), (0.5, 0.5)))
    rng = np.random.default_rng(11)
    outcome, post = measure_fiducial(state, 0, rng)
    assert outcome == 0
    assert post.probs == state.probs


def test_measurement_statistics_and_disturbance_shape():
    spec = FiducialSpec(2, 2)
    g = gbit_pure(spec, (0, 0))
    rng = np.random.default_rng(5)
    trials = 100_000
    for _ in range(trials // 100):
        outcome, post = measure_fiducial(g, 1, rng)
        assert outcome == 0
        assert post.probs == ((0.5, 0.5), (1.0, 0.0))
    ones = sum(sample_outcome(g, 1, rng) for _ in range(trials))
    assert ones == 0  # the row is a point mass


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
@settings(max_examples=60)
def test_measurement_repeatability(seed, spec):
    # measuring the same fiducial twice repeats the outcome surely
    rng = np.random.default_rng(seed)
    assignment = tuple(int(a) for a in rng.integers(0, spec.num_outcomes, spec.num_fiducials))
    mu = int(rng.integers(0, spec.num_fiducials))
    state = gbit_pure(spec, assignment)
    first, post = measure_fiducial(state, mu, rng)
    second, post2 = measure_fiducial(post, mu, rng)
    assert second == first
    assert post2.probs == post.probs


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
@settings(max_examples=60)
def test_measurement_resets_unmeasured_rows(seed, spec):
    rng = np.random.default_rng(seed)
    assignment = tuple(int(a) for a in rng.integers(0, spec.num_outcomes, spec.num_fiducials))
    mu = int(rng.integers(0, spec.num_fiducials))
    outcome, post = measure_fiducial(gbit_pure(spec, assignment), mu, rng)
    k = spec.num_outcomes
    for nu, row in enumerate(post.probs):
        if nu == mu:
            assert row[outcome] == 1.0
        else:
            assert row == ((1.0 / k,) * k)


def test_measure_rejects_bad_fiducial():
    g = gbit_pure(TWO_TWO, (0, 0))
    rng = np.random.default_rng(0)
    with pytest.raises(GptValidationError):
        measure_fiducial(g, 2, rng)
    with pytest.raises(GptValidationError):
        measure_fiducial(g, -1, rng)


# ---------------------------------------------------------------- distinguishability


def test_distinguishing_fiducial_least_index():
    g00 = PureGbit(TWO_TWO, (0, 0))
    g01 = PureGbit(TWO_TWO, (0, 1))
    g10 = PureGbit(TWO_TWO, (1, 0))
    g11 = PureGbit(TWO_TWO, (1, 1))
    assert distinguishing_fiducial(g00, g01) == 1
    assert distinguishing_fiducial(g00, g10) == 0
    assert distinguishing_fiducial(g00, g11) == 0  # tie broken to least index
    assert distinguishing_fiducial(g00, g00) is None
    with pytest.raises(GptValidationError):
        distinguishing_fiducial(g00, PureGbit(FiducialSpec(3, 2), (0, 0, 0)))


def test_distinguishing_fiducial_separates_in_one_shot():
    # a single measurement of the returned fiducial tells the states apart
    rng = np.random.default_rng(23)
    a = PureGbit(TWO_TWO, (0, 1))
    b = PureGbit(TWO_TWO, (1, 1))
    mu = distinguishing_fiducial(a, b)
    for _ in range(50):
        oa, _ = measure_fiducial(a.to_state(), mu, rng)
        ob, _ = measure_fiducial(b.to_state(), mu, rng)
        assert oa != ob


# ---------------------------------------------------------------- PR box


def test_pr_box_definition_cases():
    rng = np.random.default_rng(1)
    for x in (0, 1):
        for y in (0, 1):
            for _ in range(100):
                a, b = pr_box_sample(x, y, rng)
                assert a ^ b == (x & y)


def test_pr_box_uniform_marginals_and_no_signaling():
    rng = np.random.default_rng(2)
    trials = 100_000
    box = PrBox()
    # a's marginal must not depend on y (and symmetrically for b on x)
    for x in (0, 1):
        counts = {}
        for y in (0, 1):
            counts[y] = sum(box.sample(x, y, rng)[0] for _ in range(trials))
            assert_frequency(counts[y], trials, 0.5, 5.0)
    for y in (0, 1):
        for x in (0, 1):
            ones_b = sum(box.sample(x, y, rng)[1] for _ in range(trials))
            assert_frequency(ones_b, trials, 0.5, 5.0)


def test_pr_box_rejects_non_bits():
    rng = np.random.default_rng(0)
    with pytest.raises(GptValidationError):
        pr_box_sample(2, 0, rng)
    with pytest.raises(GptValidationError):
        pr_box_sample(0, -1, rng)
