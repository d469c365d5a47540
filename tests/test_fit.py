"""Block-coordinate MM fitter: hand examples, monotonicity, convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvbm
from fvbm import jsonio

from oracles import (
    ORACLE_SHAPES,
    correlated_spins,
    incremental_fit,
    pair_loop_fit,
    random_params,
    random_spins,
)


def _tight(init=None):
    return fvbm.FitConfig(max_iterations=5000, objective_tolerance=1e-13, init=init)


def test_first_sweep_matches_sample_mean():
    data = np.array([[1.0], [1.0], [1.0], [-1.0]])
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=1, objective_tolerance=1e-30))
    # from zeros, the first bias update lands exactly on the sample mean
    assert result.params.bias[0] == pytest.approx(0.5, abs=1e-15)


def test_d1_fit_converges_to_atanh():
    data = np.array([[1.0], [1.0], [1.0], [-1.0]])
    result = fvbm.fit(data, _tight())
    assert result.converged
    assert result.params.bias[0] == pytest.approx(math.atanh(0.5), abs=1e-6)


def test_objective_trace_nondecreasing():
    rng = np.random.default_rng(40)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        data = random_spins(rng, int(rng.integers(5, 40)), d)
        init = random_params(rng, d, scale=2.0)
        result = fvbm.fit(data, fvbm.FitConfig(init=init, max_iterations=200))
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs >= -1e-10)


def test_objective_trace_is_log_pseudolikelihood_per_sweep():
    rng = np.random.default_rng(47)
    data = correlated_spins(rng, 400, 30)
    result = fvbm.fit(data)
    assert result.iterations_used > 5
    assert np.all(np.diff(result.objective_trace) >= -1e-10)
    # the fit is deterministic, so restarting one sweep at a time from the
    # previous sweep's parameters retraces the run
    params = fvbm.FvbmParams.zeros(30)
    for value in result.objective_trace:
        expected = fvbm.log_pseudolikelihood(params, data)
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)
        params = fvbm.fit(data, fvbm.FitConfig(max_iterations=1, init=params)).params


@pytest.mark.parametrize("case", ["zeros", "init", "constant-column", "cutoff"])
@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_fit_matches_pair_loop_oracle(d, n, case):
    rng = np.random.default_rng(1000 * d + n)
    data = correlated_spins(rng, n, d)
    config = fvbm.FitConfig()
    if case == "init":
        config = fvbm.FitConfig(init=random_params(rng, d, scale=0.5))
    elif case == "constant-column":
        # a constant column never converges; 40 sweeps drive its bias past 2.5
        data[:, 0] = 1.0
        config = fvbm.FitConfig(max_iterations=40)
    elif case == "cutoff":
        config = fvbm.FitConfig(max_iterations=3)
    fast = fvbm.fit(data, config)
    slow = pair_loop_fit(data, config)
    assert fast.iterations_used == slow.iterations_used
    assert fast.converged == slow.converged
    assert fast.degenerate_columns == slow.degenerate_columns
    np.testing.assert_allclose(
        fast.params.to_flat(), slow.params.to_flat(), rtol=0.0, atol=1e-12
    )


def _assert_same_fit(fast, slow):
    assert fast.iterations_used == slow.iterations_used
    assert fast.converged == slow.converged
    assert fast.degenerate_columns == slow.degenerate_columns
    np.testing.assert_allclose(
        fast.params.to_flat(), slow.params.to_flat(), rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        fast.objective_trace, slow.objective_trace, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("oracle", [incremental_fit, pair_loop_fit])
@pytest.mark.parametrize("case", ["zeros", "init", "constant-column", "cutoff"])
@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_row_sweep_matches_per_pair_oracles(d, n, case, oracle):
    rng = np.random.default_rng(1000 * d + n)
    data = correlated_spins(rng, n, d)
    config = fvbm.FitConfig()
    if case == "init":
        config = fvbm.FitConfig(init=random_params(rng, d, scale=0.5))
    elif case == "constant-column":
        data[:, 0] = 1.0
        config = fvbm.FitConfig(max_iterations=40)
    elif case == "cutoff":
        config = fvbm.FitConfig(max_iterations=3)
    _assert_same_fit(fvbm.fit(data, config), oracle(data, config))


def test_row_sweep_matches_oracle_at_benchmark_tolerance():
    # the benchmark fits with --tol 1e-10, where the stopping test sits a
    # few dozen ulps of the objective from the per-sweep change
    rng = np.random.default_rng(24_2000)
    data = correlated_spins(rng, 2000, 24)
    config = fvbm.FitConfig(objective_tolerance=1e-10)
    fast = fvbm.fit(data, config)
    assert fast.converged
    _assert_same_fit(fast, incremental_fit(data, config))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(1, 60),
    sweeps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sweep_matches_incremental_oracle_property(d, n, sweeps, seed):
    rng = np.random.default_rng(seed)
    data = random_spins(rng, n, d)
    init = random_params(rng, d, scale=float(rng.uniform(0.0, 3.0)))
    config = fvbm.FitConfig(max_iterations=sweeps, init=init)
    _assert_same_fit(fvbm.fit(data, config), incremental_fit(data, config))


def test_monotone_from_extreme_initialization():
    rng = np.random.default_rng(46)
    data = random_spins(rng, 40, 3)
    init = random_params(rng, 3, scale=10.0)
    result = fvbm.fit(data, fvbm.FitConfig(init=init, max_iterations=300))
    assert np.all(np.diff(result.objective_trace) >= -1e-10)
    # far-out starts still land on the same maximizer
    reference = fvbm.fit(data, _tight())
    np.testing.assert_allclose(
        fvbm.fit(data, _tight(init=init)).params.to_flat(),
        reference.params.to_flat(),
        atol=1e-5,
    )


def test_initialization_independence():
    rng = np.random.default_rng(41)
    data = random_spins(rng, 80, 3)
    a = fvbm.fit(data, _tight(init=random_params(rng, 3, 2.0)))
    b = fvbm.fit(data, _tight(init=random_params(rng, 3, 2.0)))
    np.testing.assert_allclose(a.params.to_flat(), b.params.to_flat(), atol=1e-5)


def test_symmetry_and_zero_diagonal_preserved():
    rng = np.random.default_rng(42)
    data = random_spins(rng, 30, 4)
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=50))
    m = result.params.interaction
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), 0.0)


def test_fit_objective_beats_random_parameters():
    rng = np.random.default_rng(43)
    data = random_spins(rng, 50, 3)
    result = fvbm.fit(data, _tight())
    best = fvbm.log_pseudolikelihood(result.params, data)
    for _ in range(20):
        other = random_params(rng, 3, scale=2.0)
        assert fvbm.log_pseudolikelihood(other, data) <= best + 1e-9


def test_degenerate_column_flagged_not_fatal():
    rng = np.random.default_rng(44)
    data = random_spins(rng, 30, 3)
    data[:, 1] = 1.0
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=200))
    assert result.degenerate_columns == (1,)
    assert np.all(np.isfinite(result.params.to_flat()))


def test_consistency_with_known_truth():
    theta0 = np.array([0.2, -0.3, 0.0, 0.25, 0.3, -0.2, 0.1, 0.2, -0.15, 0.25])
    params0 = fvbm.FvbmParams.from_flat(4, theta0)
    data = fvbm.sample(params0, 10_000, seed=20160831)
    result = fvbm.fit(data)
    se = fvbm.standard_errors(fvbm.sandwich_covariance(result.params, data))
    assert np.all(np.abs(result.params.to_flat() - theta0) <= 4.0 * se)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        fvbm.FitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        fvbm.FitConfig(objective_tolerance=0.0)


def test_fit_rejects_empty_and_mismatched():
    with pytest.raises(fvbm.DataError):
        fvbm.fit(np.empty((0, 2)))
    with pytest.raises(fvbm.DataError):
        fvbm.fit(np.ones((4, 2)), fvbm.FitConfig(init=fvbm.FvbmParams.zeros(3)))


def test_fit_result_json_round_trip():
    rng = np.random.default_rng(45)
    data = random_spins(rng, 25, 3)
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=40))
    text = jsonio.dumps(result.to_json_dict(labels=["a", "b", "c"]))
    rebuilt = fvbm.FitResult.from_json_dict(jsonio.loads(text))
    np.testing.assert_array_equal(rebuilt.params.to_flat(), result.params.to_flat())
    np.testing.assert_array_equal(rebuilt.objective_trace, result.objective_trace)
    assert rebuilt.converged == result.converged
    assert rebuilt.iterations_used == result.iterations_used
