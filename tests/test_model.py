"""Exact enumeration: weights, normalization, PMF tables, marginals,
joints, and seeded sampling."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import fvbm
from fvbm.model import _log_weights

from oracles import (
    block_log_weights,
    mask_marginal_probability,
    mask_pairwise_joint,
    naive_pmf,
    random_params,
)


def _oracle_log_z(logw: np.ndarray) -> float:
    top = float(logw.max())
    return top + math.log(math.fsum(np.exp(logw - top)))


def _assert_matches_block_oracle(params):
    expected = block_log_weights(params)
    logw = _log_weights(params, cap=params.d)
    assert np.all(np.abs(logw - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))
    logz = _oracle_log_z(expected)
    assert abs(fvbm.log_normalization(params) - logz) <= 1e-13 * max(1.0, abs(logz))
    np.testing.assert_allclose(
        fvbm.enumerate_pmf(params).probabilities, np.exp(expected - logz), rtol=1e-12, atol=0
    )


def test_log_unnormalized_zero_params():
    params = fvbm.FvbmParams.zeros(3)
    assert fvbm.log_unnormalized(params, [1, -1, 1]) == 0.0


def test_log_unnormalized_hand_values():
    params = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    assert fvbm.log_unnormalized(params, [1, 1]) == pytest.approx(0.5, abs=1e-15)
    tilted = fvbm.FvbmParams(bias=[1.0, -1.0], interaction=[[0, 0.5], [0.5, 0]])
    # x'b = 1*1 + (-1)(-1) = 2, quadratic term = m12 * x1 * x2 = -0.5
    assert fvbm.log_unnormalized(tilted, [1, -1]) == pytest.approx(1.5, abs=1e-15)


def test_log_unnormalized_dimension_mismatch():
    with pytest.raises(fvbm.DataError):
        fvbm.log_unnormalized(fvbm.FvbmParams.zeros(2), [1, 1, 1])


def test_normalization_constant_hand_values():
    flat = fvbm.FvbmParams.zeros(1)
    assert fvbm.normalization_constant(flat) == pytest.approx(2.0, rel=1e-14)
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    expected = 2.0 * math.exp(0.5) + 2.0 * math.exp(-0.5)
    assert fvbm.normalization_constant(pair) == pytest.approx(expected, rel=1e-14)
    assert fvbm.normalization_constant(fvbm.FvbmParams.zeros(3)) == pytest.approx(
        8.0, rel=1e-14
    )


def test_normalization_cap():
    with pytest.raises(fvbm.DataError):
        fvbm.log_normalization(fvbm.FvbmParams.zeros(21))
    # raising the cap explicitly is allowed
    assert fvbm.log_normalization(fvbm.FvbmParams.zeros(4), cap=21) == pytest.approx(
        4 * math.log(2.0)
    )


def test_normalization_large_parameters_no_overflow():
    params = fvbm.FvbmParams(bias=[400.0, -400.0], interaction=[[0, 50.0], [50.0, 0]])
    logz = fvbm.log_normalization(params)
    assert np.isfinite(logz)
    # the (+1, -1) state dominates: -m12 + b1 - b2 = 750
    assert logz == pytest.approx(750.0, rel=1e-12)


def test_enumeration_spans_multiple_blocks():
    # d=17 has more states than one 2^16 block of the oracle's streaming layout
    params = fvbm.FvbmParams.zeros(17)
    assert fvbm.log_normalization(params) == pytest.approx(17 * math.log(2.0), rel=1e-14)
    table = fvbm.enumerate_pmf(params)
    assert abs(float(table.probabilities.sum()) - 1.0) <= 1e-12
    assert table.probabilities.size == 1 << 17
    _assert_matches_block_oracle(random_params(np.random.default_rng(17), 17, scale=0.5))


@pytest.mark.parametrize("d", list(range(1, 13)) + [20])
def test_log_weights_match_block_oracle(d):
    rng = np.random.default_rng(400 + d)
    for scale in (0.3, 2.0):
        _assert_matches_block_oracle(random_params(rng, d, scale=scale))


def test_pmf_hand_values():
    assert fvbm.pmf(fvbm.FvbmParams.zeros(1), [1]) == pytest.approx(0.5, rel=1e-14)
    lean = fvbm.FvbmParams(bias=[1.0], interaction=[[0.0]])
    expected = math.exp(1) / (math.exp(1) + math.exp(-1))
    assert fvbm.pmf(lean, [1]) == pytest.approx(expected, rel=1e-14)
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    expected = math.exp(0.5) / (2 * math.exp(0.5) + 2 * math.exp(-0.5))
    assert fvbm.pmf(pair, [1, 1]) == pytest.approx(expected, rel=1e-14)


def test_enumerate_pmf_hand_values():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(1))
    np.testing.assert_allclose(table.probabilities, [0.5, 0.5], rtol=1e-14)
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(2))
    np.testing.assert_allclose(table.probabilities, [0.25] * 4, rtol=1e-14)
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    table = fvbm.enumerate_pmf(pair)
    agree = math.exp(0.5) / (math.exp(0.5) + math.exp(-0.5))
    assert fvbm.concordance(table, 0, 1) == pytest.approx(agree, rel=1e-13)


def test_enumerate_sums_to_one():
    rng = np.random.default_rng(42)
    for d in range(1, 11):
        params = random_params(rng, d, scale=2.0)
        table = fvbm.enumerate_pmf(params)
        assert abs(float(table.probabilities.sum()) - 1.0) <= 1e-12


def test_enumeration_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        params = random_params(rng, d, scale=1.5)
        table = fvbm.enumerate_pmf(params)
        for state, prob in naive_pmf(params).items():
            idx = fvbm.state_index(np.array(state))
            assert table.probabilities[idx] == pytest.approx(prob, rel=1e-12)


def test_pmf_matches_table_entries():
    rng = np.random.default_rng(6)
    params = random_params(rng, 5, scale=1.0)
    table = fvbm.enumerate_pmf(params)
    for i in (0, 7, 19, 31):
        x = fvbm.index_state(i, 5)
        assert abs(fvbm.pmf(params, x) - table.probabilities[i]) < 1e-12


def test_state_index_round_trip():
    for d in (1, 3, 6):
        for i in range(1 << d):
            assert fvbm.state_index(fvbm.index_state(i, d)) == i


def test_bias_negation_symmetry():
    rng = np.random.default_rng(8)
    params = random_params(rng, 4, scale=1.2)
    flipped = fvbm.FvbmParams(bias=-params.bias, interaction=params.interaction)
    table = fvbm.enumerate_pmf(params)
    table_flipped = fvbm.enumerate_pmf(flipped)
    for i in range(1 << 4):
        x = fvbm.index_state(i, 4)
        j = fvbm.state_index(-x)
        assert table_flipped.probabilities[j] == pytest.approx(
            table.probabilities[i], rel=1e-13
        )


def test_marginal_and_joint_against_brute_force():
    rng = np.random.default_rng(9)
    params = random_params(rng, 4, scale=1.0)
    table = fvbm.enumerate_pmf(params)
    d = 4
    for j in range(d):
        plus = np.array(
            [table.probabilities[i] for i in range(1 << d) if fvbm.index_state(i, d)[j] > 0]
        )
        # identical selection order makes the summation bit-for-bit equal
        assert fvbm.marginal_probability(table, j) == plus.sum()
        assert fvbm.marginal_probability(table, j) == pytest.approx(
            math.fsum(plus), abs=1e-15
        )
    joint = fvbm.pairwise_joint(table, 0, 2)
    brute = np.zeros((2, 2))
    for i in range(1 << d):
        x = fvbm.index_state(i, d)
        brute[0 if x[0] > 0 else 1, 0 if x[2] > 0 else 1] += table.probabilities[i]
    np.testing.assert_allclose(joint, brute, atol=1e-15)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_zero_params():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(3))
    for j in range(3):
        assert fvbm.marginal_probability(table, j) == pytest.approx(0.5, abs=1e-14)


def test_joint_zero_params():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(2))
    np.testing.assert_allclose(fvbm.pairwise_joint(table, 0, 1), 0.25, atol=1e-14)


# Only at d=17 are the selections large enough that summing the strided
# view without ``ravel`` changes the summation order.
@pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 17])
def test_marginal_and_joint_equal_mask_oracle(d):
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(600 + d), d))
    for j in range(d):
        assert fvbm.marginal_probability(table, j) == mask_marginal_probability(table, j)
        for k in range(d):
            if k != j:
                assert np.array_equal(
                    fvbm.pairwise_joint(table, j, k), mask_pairwise_joint(table, j, k)
                )


def test_index_errors():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(2))
    with pytest.raises(ValueError):
        fvbm.marginal_probability(table, 2)
    with pytest.raises(ValueError):
        fvbm.pairwise_joint(table, 1, 1)
    with pytest.raises(ValueError, match="coordinate -1 out of range"):
        fvbm.marginal_probability(table, -1)
    for j, k in ((-1, 0), (0, -2), (0, 2), (3, 1)):
        with pytest.raises(ValueError, match="out of range for d=2"):
            fvbm.pairwise_joint(table, j, k)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_permutes_marginals_and_joints(d, seed, data):
    params = random_params(np.random.default_rng(seed), d, scale=1.5)
    perm = data.draw(st.permutations(range(d)))
    relabelled = fvbm.FvbmParams(
        bias=params.bias[perm], interaction=params.interaction[np.ix_(perm, perm)]
    )
    table = fvbm.enumerate_pmf(params)
    moved = fvbm.enumerate_pmf(relabelled)
    for i in range(d):
        assert fvbm.marginal_probability(moved, i) == pytest.approx(
            fvbm.marginal_probability(table, perm[i]), abs=1e-12
        )
        for l in range(d):
            if l != i:
                np.testing.assert_allclose(
                    fvbm.pairwise_joint(moved, i, l),
                    fvbm.pairwise_joint(table, perm[i], perm[l]),
                    rtol=0,
                    atol=1e-12,
                )


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pairwise_joint_transposes_exactly(d, seed, data):
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(seed), d))
    j, k = data.draw(st.permutations(range(d)))[:2]
    assert np.array_equal(fvbm.pairwise_joint(table, k, j), fvbm.pairwise_joint(table, j, k).T)


def test_pmf_table_validation():
    with pytest.raises(ValueError):
        fvbm.PmfTable(d=2, probabilities=np.array([0.5, 0.5, 0.25, 0.25]) * 1.2)
    with pytest.raises(ValueError):
        fvbm.PmfTable(d=2, probabilities=np.array([0.5, 0.5, 0.5]))


def test_pmf_table_json_round_trip():
    pair = fvbm.FvbmParams(bias=[0.3, -0.2], interaction=[[0, 0.4], [0.4, 0]])
    table = fvbm.enumerate_pmf(pair)
    rebuilt = fvbm.PmfTable.from_json_dict(table.to_json_dict())
    np.testing.assert_array_equal(rebuilt.probabilities, table.probabilities)


def test_sample_deterministic_and_shaped():
    pair = fvbm.FvbmParams(bias=[0.1, -0.4], interaction=[[0, 0.3], [0.3, 0]])
    a = fvbm.sample(pair, 50, seed=123)
    b = fvbm.sample(pair, 50, seed=123)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 2)
    assert np.all(np.abs(a) == 1.0)
    assert not np.array_equal(a, fvbm.sample(pair, 50, seed=124))


def test_sample_empty():
    out = fvbm.sample(fvbm.FvbmParams.zeros(3), 0, seed=1)
    assert out.shape == (0, 3)
    with pytest.raises(ValueError):
        fvbm.sample(fvbm.FvbmParams.zeros(3), -1, seed=1)


def test_sample_mean_matches_symmetric_model():
    flat = fvbm.FvbmParams.zeros(1)
    draws = fvbm.sample(flat, 100_000, seed=77)
    # binomial standard error ~0.0032, allow 3 sigma plus slack
    assert abs(draws.mean()) < 0.02


def test_sample_concordance_matches_enumeration():
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    draws = fvbm.sample(pair, 100_000, seed=31)
    agree = (draws[:, 0] == draws[:, 1]).mean()
    expected = fvbm.concordance(fvbm.enumerate_pmf(pair), 0, 1)
    assert abs(agree - expected) < 0.01


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sample_chi_square_goodness_of_fit(d):
    rng = np.random.default_rng(100 + d)
    params = random_params(rng, d, scale=0.8)
    table = fvbm.enumerate_pmf(params)
    n = 100_000
    draws = fvbm.sample(params, n, seed=999 + d)
    idx = np.array([fvbm.state_index(x) for x in draws])
    observed = np.bincount(idx, minlength=1 << d)
    expected = n * table.probabilities
    stat = float(((observed - expected) ** 2 / expected).sum())
    cutoff = scipy.stats.chi2.ppf(0.999, df=(1 << d) - 1)
    assert stat < cutoff
