"""Conditional PMFs, the pseudolikelihood objective, and its derivatives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fvbm
from fvbm.pseudolikelihood import _log_pl

from oracles import (
    ORACLE_SHAPES,
    block_hessian,
    correlated_spins,
    design_hessian,
    fd_gradient,
    fd_jacobian,
    naive_log_pseudolikelihood,
    random_params,
    random_spins,
    relative_error,
)


def test_conditional_pmf_zero_params():
    params = fvbm.FvbmParams.zeros(3)
    for j in range(3):
        assert fvbm.conditional_pmf(params, [1, -1, 1], j) == 0.5


def test_conditional_pmf_matches_pmf_at_d1():
    lean = fvbm.FvbmParams(bias=[1.0], interaction=[[0.0]])
    assert fvbm.conditional_pmf(lean, [1], 0) == pytest.approx(
        fvbm.pmf(lean, [1]), rel=1e-14
    )


def test_conditional_pmf_matches_enumeration():
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    expected = math.exp(0.5) / (math.exp(0.5) + math.exp(-0.5))
    assert fvbm.conditional_pmf(pair, [1, 1], 0) == pytest.approx(expected, rel=1e-14)
    # cross-check against P(X_0 = +1 | X_1 = +1) from the joint
    table = fvbm.enumerate_pmf(pair)
    joint = fvbm.pairwise_joint(table, 0, 1)
    conditional = joint[0, 0] / (joint[0, 0] + joint[1, 0])
    assert fvbm.conditional_pmf(pair, [1, 1], 0) == pytest.approx(conditional, rel=1e-12)


def test_conditional_pmf_complement_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = random_params(rng, 4, scale=2.0)
        x = random_spins(rng, 1, 4)[0]
        for j in range(4):
            flipped = x.copy()
            flipped[j] = -flipped[j]
            total = fvbm.conditional_pmf(params, x, j) + fvbm.conditional_pmf(
                params, flipped, j
            )
            assert total == 1.0


def test_conditional_pmf_index_error():
    with pytest.raises(ValueError):
        fvbm.conditional_pmf(fvbm.FvbmParams.zeros(2), [1, 1], 2)


def test_log_pseudolikelihood_zero_params():
    data = random_spins(np.random.default_rng(0), 7, 3)
    assert fvbm.log_pseudolikelihood(fvbm.FvbmParams.zeros(3), data) == pytest.approx(
        7 * 3 * math.log(0.5), rel=1e-14
    )


def test_log_pseudolikelihood_hand_value():
    # at b = atanh(1/2) the conditional success probability is 3/4
    b = math.atanh(0.5)
    params = fvbm.FvbmParams(bias=[b], interaction=[[0.0]])
    data = np.array([[1.0], [1.0], [1.0], [-1.0]])
    expected = 3 * math.log(0.75) + math.log(0.25)
    assert fvbm.log_pseudolikelihood(params, data) == pytest.approx(expected, rel=1e-12)


def test_log_pseudolikelihood_matches_naive():
    rng = np.random.default_rng(23)
    for d in (1, 2, 4):
        params = random_params(rng, d, scale=1.5)
        data = random_spins(rng, 12, d)
        assert fvbm.log_pseudolikelihood(params, data) == pytest.approx(
            naive_log_pseudolikelihood(params.to_flat(), data, d), rel=1e-12
        )


def test_log_pseudolikelihood_nonpositive():
    rng = np.random.default_rng(24)
    for _ in range(10):
        params = random_params(rng, 3, scale=2.0)
        data = random_spins(rng, 9, 3)
        assert fvbm.log_pseudolikelihood(params, data) <= 0.0


def test_log_pseudolikelihood_equals_likelihood_at_d1():
    rng = np.random.default_rng(25)
    params = random_params(rng, 1, scale=1.5)
    data = random_spins(rng, 40, 1)
    loglik = sum(math.log(fvbm.pmf(params, row)) for row in data)
    assert fvbm.log_pseudolikelihood(params, data) == pytest.approx(loglik, abs=1e-12)


_Z_EDGES = [0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.sampled_from([-1.0, 1.0]),
            st.one_of(st.sampled_from(_Z_EDGES), st.floats(allow_nan=False)),
        ),
        min_size=1,
        max_size=20,
    )
)
@example(terms=[(sign, z) for sign in (-1.0, 1.0) for z in _Z_EDGES])
def test_log_pl_terms_within_stated_tolerance_of_logaddexp(terms):
    # _log_pl's docstring: each term -log sigmoid(-z), z = -2xa, is within
    # 4.5e-16 * max(1, |z|) of np.logaddexp(0, z)
    x = np.array([[sign] for sign, _ in terms])
    a = np.array([[-z / 2.0 * sign] for sign, z in terms])
    z = (-2.0 * x * a).ravel()
    expected = np.logaddexp(0.0, z)
    actual = np.array([-_log_pl(x[i : i + 1], a[i : i + 1]) for i in range(len(terms))])
    infinite = np.isinf(expected)
    np.testing.assert_array_equal(actual[infinite], expected[infinite])
    finite = ~infinite
    error = np.abs(actual[finite] - expected[finite])
    assert np.all(error <= 4.5e-16 * np.maximum(1.0, np.abs(z[finite])))


def test_log_pseudolikelihood_errors():
    with pytest.raises(fvbm.DataError):
        fvbm.log_pseudolikelihood(fvbm.FvbmParams.zeros(2), np.ones((3, 3)))
    with pytest.raises(fvbm.DataError):
        fvbm.log_pseudolikelihood(fvbm.FvbmParams.zeros(2), np.empty((0, 2)))


def test_score_all_ones_row():
    d = 4
    params = fvbm.FvbmParams.zeros(d)
    score = fvbm.pseudo_score(params, np.ones((1, d)))
    np.testing.assert_allclose(score[:d], 1.0, atol=1e-15)
    np.testing.assert_allclose(score[d:], 2.0, atol=1e-15)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(26)
    for d in (2, 3, 4):
        params = random_params(rng, d)
        data = random_spins(rng, 20, d)
        analytic = fvbm.pseudo_score(params, data)
        fd = fd_gradient(
            lambda th: fvbm.log_pseudolikelihood(fvbm.FvbmParams.from_flat(d, th), data),
            params.to_flat(),
        )
        assert relative_error(analytic, fd) < 1e-6


def test_per_observation_scores_sum_to_score():
    rng = np.random.default_rng(27)
    params = random_params(rng, 3)
    data = random_spins(rng, 15, 3)
    np.testing.assert_allclose(
        fvbm.per_observation_scores(params, data).sum(axis=0),
        fvbm.pseudo_score(params, data),
        rtol=1e-12,
        atol=1e-12,
    )


def test_per_observation_scores_are_single_row_scores():
    rng = np.random.default_rng(31)
    params = random_params(rng, 5)
    data = random_spins(rng, 12, 5)
    scores = fvbm.per_observation_scores(params, data)
    assert scores.shape == (12, params.n_params)
    for row, observation in zip(scores, data):
        np.testing.assert_array_equal(row, fvbm.pseudo_score(params, observation))


def test_hessian_zero_params_bias_block():
    d = 3
    h = fvbm.pseudo_hessian(fvbm.FvbmParams.zeros(d), np.ones((1, d)))
    np.testing.assert_allclose(np.diag(h)[:d], -1.0, atol=1e-15)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(28)
    for d in (2, 3):
        params = random_params(rng, d)
        data = random_spins(rng, 10, d)
        analytic = fvbm.pseudo_hessian(params, data)
        fd = fd_jacobian(
            lambda th: fvbm.pseudo_score(fvbm.FvbmParams.from_flat(d, th), data),
            params.to_flat(),
        )
        assert relative_error(analytic, fd) < 1e-5


@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_hessian_matches_design_oracle(d, n):
    rng = np.random.default_rng(2000 * d + n)
    params = random_params(rng, d, scale=0.5)
    data = correlated_spins(rng, n, d)
    gap = np.abs(fvbm.pseudo_hessian(params, data) - design_hessian(params, data))
    assert gap.max() <= 1e-12 * n


@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_hessian_matches_block_oracle_and_is_exactly_symmetric(d, n):
    rng = np.random.default_rng(2000 * d + n)
    params = random_params(rng, d, scale=0.5)
    data = correlated_spins(rng, n, d)
    h = fvbm.pseudo_hessian(params, data)
    assert np.abs(h - block_hessian(params, data)).max() <= 1e-12 * n
    assert np.array_equal(h, h.T)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(1, 60),
    scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_hessian_matches_both_oracles_property(d, n, scale, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, d, scale)
    data = random_spins(rng, n, d)
    h = fvbm.pseudo_hessian(params, data)
    assert np.array_equal(h, h.T)
    for oracle in (block_hessian, design_hessian):
        assert np.abs(h - oracle(params, data)).max() <= 1e-12 * n, oracle.__name__


def test_hessian_keeps_identical_and_mirror_columns_exact():
    # with x_1 = x_0 and x_2 = -x_0, and conditionals 0-2 saturated (sech^2
    # underflows to 0), each other conditional l gives m_l1 the same Hessian
    # column as m_l0 and m_l2 its negation: an exact null direction
    rng = np.random.default_rng(32)
    d = 5
    data = correlated_spins(rng, 500, d)
    data[:, 1] = data[:, 0]
    data[:, 2] = -data[:, 0]
    params = random_params(rng, d, scale=0.5)
    params = fvbm.FvbmParams(
        bias=np.r_[1000.0, 1000.0, 1000.0, params.bias[3:]], interaction=params.interaction
    )
    h = fvbm.pseudo_hessian(params, data)
    slot = fvbm.params.slot_map(d)
    for l in (3, 4):
        assert np.array_equal(h[:, slot[l, 1]], h[:, slot[l, 0]])
        assert np.array_equal(h[:, slot[l, 2]], -h[:, slot[l, 0]])
        assert h[slot[l, 0], slot[l, 0]] < -1.0


def test_hessian_symmetric():
    rng = np.random.default_rng(29)
    params = random_params(rng, 4, scale=2.0)
    data = random_spins(rng, 25, 4)
    h = fvbm.pseudo_hessian(params, data)
    assert np.max(np.abs(h - h.T)) < 1e-10


def test_score_vanishes_at_fit():
    rng = np.random.default_rng(30)
    data = random_spins(rng, 60, 3)
    result = fvbm.fit(data, fvbm.FitConfig(objective_tolerance=1e-13, max_iterations=5000))
    assert np.max(np.abs(fvbm.pseudo_score(result.params, data))) < 1e-6
