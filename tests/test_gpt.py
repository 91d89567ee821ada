import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosim.gpt import (
    FiducialSpec,
    GbitBlock,
    GptValidationError,
    measure_fiducial,
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


class PresetDraws:
    """Generator stand-in whose integers() returns preset uniform draws,
    so a test can enumerate every value each draw can take."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def integers(self, low, high, size):
        assert low == 0 and size == self.draws.size and self.draws.max() < high
        return self.draws


def random_codewords(spec, rng, size):
    return GbitBlock(spec, rng.integers(0, spec.num_outcomes, size=size))


# ---------------------------------------------------------------- codewords


def test_classical_bit_is_the_j1_theory():
    spec = FiducialSpec(1, 2)
    rng = np.random.default_rng(0)
    block = GbitBlock(spec, [0, 1])
    assert sample_outcome(block, 0, rng).tolist() == [0, 1]
    outcomes, post = measure_fiducial(block, 0, rng)
    assert outcomes.tolist() == [0, 1]
    assert sample_outcome(post, 0, rng).tolist() == [0, 1]  # nothing left to disturb


def test_pure_gbit_rejects_out_of_range_assignment():
    with pytest.raises(GptValidationError):
        GbitBlock(TWO_TWO, [0, 2])
    with pytest.raises(GptValidationError):
        GbitBlock(TWO_TWO, [0, -1])
    with pytest.raises(GptValidationError):
        GbitBlock(TWO_TWO, [0, 1], fiducials=[0, 2])


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
def test_pure_gbit_rows_are_point_masses(seed, spec):
    # a pristine codeword answers every fiducial with its value
    rng = np.random.default_rng(seed)
    block = random_codewords(spec, rng, 50)
    for mu in range(spec.num_fiducials):
        assert (sample_outcome(block, mu, rng) == block.outcomes).all()


# ---------------------------------------------------------------- validation


def test_state_shape_enforced():
    with pytest.raises(ValueError):
        GbitBlock(TWO_TWO, [0, 1, 0], fiducials=[0, 1])
    with pytest.raises(ValueError):
        sample_outcome(GbitBlock(TWO_TWO, [0, 1]), [0, 1, 0], np.random.default_rng(0))


@pytest.mark.parametrize("call", [
    lambda rng: GbitBlock(TWO_TWO, [0.9, 1.7]),
    lambda rng: GbitBlock(TWO_TWO, [0, 1], fiducials=[0.2, -0.5]),
    lambda rng: sample_outcome(GbitBlock(TWO_TWO, [0, 1]), [0.5, 1.9], rng),
    lambda rng: measure_fiducial(GbitBlock(TWO_TWO, [0, 1]), 0.5, rng),
], ids=["outcomes", "fiducials", "sample-outcome", "measure-fiducial"])
def test_non_integer_indices_are_rejected(call):
    # a float index used to be truncated to a valid outcome or fiducial
    with pytest.raises(GptValidationError, match="must be integers, got dtype float64"):
        call(np.random.default_rng(0))
    empty = GbitBlock(TWO_TWO, [], fiducials=[])  # an empty list has no dtype to check
    assert sample_outcome(empty, [], np.random.default_rng(0)).size == 0


def test_spec_bounds():
    with pytest.raises(GptValidationError):
        FiducialSpec(0, 2)
    with pytest.raises(GptValidationError):
        FiducialSpec(2, 1)


def test_block_take_and_put():
    block = GbitBlock(FiducialSpec(2, 4), [0, 1, 2, 3])
    assert len(block) == 4
    assert block.take([3, 0]).outcomes.tolist() == [3, 0]
    measured = GbitBlock(block.spec, [2, 2], fiducials=[1, 1])
    merged = block.put([0, 2], measured)
    assert merged.outcomes.tolist() == [2, 1, 2, 3]
    assert merged.fiducials.tolist() == [1, -1, 1, -1]
    assert block.fiducials.tolist() == [-1] * 4  # the original is untouched


def test_put_rejects_gbits_of_another_theory():
    # put checks no gbit again, so gbits valid for another spec must not pass
    block = GbitBlock(TWO_TWO, [0, 1])
    with pytest.raises(GptValidationError, match="cannot put gbits"):
        block.put([0], GbitBlock(FiducialSpec(2, 4), [3]))
    assert block.put([0], GbitBlock(FiducialSpec(2, 2), [1])).outcomes.tolist() == [1, 1]


def test_blocks_compare_by_identity():
    # a generated __eq__ would compare the arrays and raise on their truth value
    block = GbitBlock(TWO_TWO, [0, 1])
    assert block == block
    assert block != GbitBlock(TWO_TWO, [0, 1])
    assert block in [GbitBlock(TWO_TWO, [0, 1]), block]


# ---------------------------------------------------------------- measurement


def test_embedded_qubit_measurement_statistics():
    # a qubit's Z+ table under the (X, Y, Z) fiducials: definite on its
    # own axis, uniform on a conjugate axis
    spec = FiducialSpec(3, 2)
    rng = np.random.default_rng(7)
    z_plus = GbitBlock(spec, [0] * 200, fiducials=2)
    outcomes, _ = measure_fiducial(z_plus, 2, rng)
    assert (outcomes == 0).all()
    trials = 100_000
    ones = int(sample_outcome(GbitBlock(spec, [0] * trials, fiducials=2), 0, rng).sum())
    assert_frequency(ones, trials, 0.5, 5.0)


def test_measurement_disturbs_conjugate_rows():
    # measuring X on the value-1 codeword gives outcome 1 surely and wipes Z
    rng = np.random.default_rng(3)
    trials = 100_000
    outcomes, post = measure_fiducial(GbitBlock(TWO_TWO, [1] * trials), 0, rng)
    assert (outcomes == 1).all()
    assert (post.fiducials == 0).all() and (post.outcomes == 1).all()
    assert (sample_outcome(post, 0, rng) == 1).all()
    assert_frequency(int(sample_outcome(post, 1, rng).sum()), trials, 0.5, 5.0)


def test_measurement_fixed_point():
    # a state already of post-measurement form is reproduced exactly
    state = GbitBlock(TWO_TWO, [0], fiducials=[0])
    rng = np.random.default_rng(11)
    outcomes, post = measure_fiducial(state, 0, rng)
    assert outcomes.tolist() == [0]
    assert post.outcomes.tolist() == state.outcomes.tolist()
    assert post.fiducials.tolist() == state.fiducials.tolist()


@pytest.mark.parametrize("before", [None, [0, 1, 0]], ids=["pristine", "measured"])
def test_measurement_outputs_cannot_edit_the_blocks(before):
    # the outcomes are shared with the post block, and may view the input's;
    # its fiducials view the caller's: editing them through what comes back
    # must fail
    codewords, chosen = np.array([0, 1, 1]), np.array([1, 1, 0])
    block = GbitBlock(TWO_TWO, codewords, fiducials=before)
    outcomes, post = measure_fiducial(block, chosen, np.random.default_rng(2))
    kept = outcomes.tolist()
    for array in (outcomes, post.outcomes, post.fiducials):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1 - array[0]
    assert codewords.tolist() == block.outcomes.tolist() == [0, 1, 1]
    assert outcomes.tolist() == post.outcomes.tolist() == kept
    assert post.fiducials.tolist() == chosen.tolist() == [1, 1, 0]


def test_measurement_statistics_and_disturbance_shape():
    rng = np.random.default_rng(5)
    trials = 100_000
    g = GbitBlock(TWO_TWO, [0] * trials)
    outcomes, post = measure_fiducial(g, 1, rng)
    assert (outcomes == 0).all()
    assert (post.fiducials == 1).all() and (post.outcomes == 0).all()
    ones = int(sample_outcome(g, 1, rng).sum())
    assert ones == 0  # the row is a point mass


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
@settings(max_examples=60)
def test_measurement_repeatability(seed, spec):
    # measuring the same fiducial twice repeats the outcome surely
    rng = np.random.default_rng(seed)
    block = random_codewords(spec, rng, 50)
    mu = rng.integers(0, spec.num_fiducials, size=50)
    first, post = measure_fiducial(block, mu, rng)
    second, post2 = measure_fiducial(post, mu, rng)
    assert (second == first).all()
    assert (post2.outcomes == post.outcomes).all()
    assert (post2.fiducials == post.fiducials).all()


@given(seed=st.integers(0, 2**32 - 1), spec=specs_strategy())
@settings(max_examples=60)
def test_measurement_resets_unmeasured_rows(seed, spec):
    # after measuring mu, every other fiducial's outcome is the uniform
    # draw, whatever the codeword was; enumerate every draw value
    rng = np.random.default_rng(seed)
    j, k = spec.num_fiducials, spec.num_outcomes
    mu = int(rng.integers(0, j))
    draws = np.arange(k)
    block = GbitBlock(spec, np.full(k, rng.integers(0, k)))
    outcomes, post = measure_fiducial(block, mu, rng)
    assert (post.fiducials == mu).all() and (post.outcomes == outcomes).all()
    for nu in range(j):
        seen = sample_outcome(post, nu, PresetDraws(draws))
        if nu == mu:
            assert (seen == outcomes).all()
        else:
            assert sorted(seen.tolist()) == list(range(k))


def test_measure_rejects_bad_fiducial():
    g = GbitBlock(TWO_TWO, [0, 0])
    rng = np.random.default_rng(0)
    with pytest.raises(GptValidationError):
        measure_fiducial(g, 2, rng)
    with pytest.raises(GptValidationError):
        measure_fiducial(g, [0, -1], rng)
    with pytest.raises(GptValidationError):
        sample_outcome(g, [2, 0], rng)


def test_block_model_matches_fiducial_table_rule():
    # exact oracle: for every (J, K) in {2,3,4}^2, codeword value, Eve
    # fiducial and Bob fiducial, enumerate both uniform draws and compare
    # the joint outcome distribution with the fiducial-table rule
    for j, k in itertools.product((2, 3, 4), repeat=2):
        spec = FiducialSpec(j, k)
        value, eve_fid, bob_fid, eve_draw, bob_draw = (
            axis.ravel() for axis in np.indices((k, j, j, k, k))
        )
        block = GbitBlock(spec, value)
        assert (sample_outcome(block, bob_fid, PresetDraws(bob_draw)) == value).all()
        eve, post = measure_fiducial(block, eve_fid, PresetDraws(eve_draw))
        bob = sample_outcome(post, bob_fid, PresetDraws(bob_draw))
        model = np.zeros((k, j, j, k, k))
        np.add.at(model, (value, eve_fid, bob_fid, eve, bob), 1.0 / k**2)
        for v, mu, nu in itertools.product(range(k), range(j), range(j)):
            table = np.zeros((j, k))
            table[:, v] = 1.0  # the codeword: point mass at v in every row
            expected = np.zeros((k, k))
            for a in range(k):
                measured = np.full((j, k), 1.0 / k)
                measured[mu] = np.eye(k)[a]  # collapse the measured row
                expected[a] = table[mu, a] * measured[nu]
            np.testing.assert_allclose(model[v, mu, nu], expected, atol=1e-12)
