"""Damped Newton fitter: hand examples, monotonicity, convergence verdict.

``fit`` meets two oracles from ``oracles.py``: Newton on the block
Hessian (``cholesky_newton_fit``), and the block-MM sweeps of Nguyen &
Wood (2016) that ``fit`` replaced (``row_sweep_fit``).  The sweeps reach
the maximizer by another algorithm, so they check both the estimate and
the convergence verdict independently of Newton.
"""

import dataclasses
import importlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fvbm
from fvbm import jsonio

import reference_values as ref
from oracles import (
    ORACLE_SHAPES,
    cholesky_newton_fit,
    cholesky_newton_step,
    correlated_spins,
    eye_cholesky_inverse,
    eye_ridge_newton_step,
    random_params,
    random_spins,
    row_sweep_fit,
    small_spin_tables,
)

# ``fvbm.fit`` is the function; the module holds the constants and helpers.
fit_module = importlib.import_module("fvbm.fit")
pl = fvbm.pseudolikelihood


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
    # a start away from zeros takes Newton more than five steps
    init = random_params(rng, 30, scale=1.0)
    result = fvbm.fit(data, fvbm.FitConfig(init=init))
    assert result.iterations_used > 5
    assert np.all(np.diff(result.objective_trace) >= -1e-10)
    # the fit is deterministic, so restarting one iteration at a time from
    # the previous iteration's parameters retraces the run
    params = init
    for value in result.objective_trace:
        expected = fvbm.log_pseudolikelihood(params, data)
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)
        params = fvbm.fit(data, fvbm.FitConfig(max_iterations=1, init=params)).params


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
    se = np.sqrt(np.diag(fvbm.sandwich_covariance(result.params, data)))
    assert np.all(np.abs(result.params.to_flat() - theta0) <= 4.0 * se)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        fvbm.FitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        fvbm.FitConfig(objective_tolerance=0.0)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"max_iterations": 2.5}, "max_iterations must be an int, got 2.5"),
        ({"max_iterations": True}, "max_iterations must be an int, got True"),
        ({"objective_tolerance": float("inf")}, "objective_tolerance must be finite, got inf"),
        ({"objective_tolerance": float("nan")}, "objective_tolerance must be positive, got nan"),
    ],
)
def test_fit_config_refuses_a_cap_that_is_no_int_and_a_tolerance_that_is_not_finite(
    entry, message
):
    # an infinite tolerance stopped the fit after one step, and a float cap
    # reached range() as a TypeError
    with pytest.raises(ValueError) as refusal:
        fvbm.FitConfig(**entry)
    assert str(refusal.value) == message


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
    rebuilt = fvbm.FitResult.from_json_dict(json.loads(text))
    np.testing.assert_array_equal(rebuilt.params.to_flat(), result.params.to_flat())
    np.testing.assert_array_equal(rebuilt.objective_trace, result.objective_trace)
    assert rebuilt.converged == result.converged
    assert rebuilt.iterations_used == result.iterations_used


# ---------------------------------------------------------------------------
# Newton against the MM oracle, and the convergence verdict
# ---------------------------------------------------------------------------

# Newton and the MM sweeps at objective_tolerance=1e-13 stop at different
# distances from the maximizer: on ORACLE_SHAPES the parameters differed by
# at most 1.8e-8, the MM sweeps being the farther off.
NEWTON_MM_ATOL = 1e-7


@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_newton_matches_row_sweep_oracle_at_tight_tolerance(d, n):
    rng = np.random.default_rng(1000 * d + n)
    data = correlated_spins(rng, n, d)
    newton = fvbm.fit(data, _tight())
    mm = row_sweep_fit(data, _tight())
    assert newton.converged and mm.converged
    np.testing.assert_allclose(
        newton.params.to_flat(), mm.params.to_flat(), rtol=0.0, atol=NEWTON_MM_ATOL
    )
    best = mm.objective_trace[-1]
    assert newton.objective_trace[-1] >= best - 1e-12 * abs(best)


def test_verdict_matches_mm_on_paper_scale_draws():
    # At n=147 many draws from the paper's own estimates have no finite
    # maximizer.  The MM sweeps never meet the tolerance on those; Newton
    # meets it with steps of order one.  A 500-draw run (seeds 0-99 and
    # 1000-1399) gave equal verdicts on every draw, 236 of them converged;
    # converged fits' last steps were at most 2.8e-5, the others' at least 0.249.
    params = fvbm.FvbmParams.from_flat(8, np.asarray(ref.FLAT_ESTIMATES))
    verdicts = []
    for r in range(40):
        data = fvbm.sample(params, 147, seed=r)
        newton = fvbm.fit(data)
        assert newton.converged == row_sweep_fit(data).converged, f"draw {r}"
        verdicts.append(newton.converged)
    assert 0 < sum(verdicts) < len(verdicts)


# fit and the Cholesky-Newton oracle differ in the Hessian's summation
# order and, above 64 parameters, in the blocking of the solves.  On 36
# benchmark-shaped inputs (d=24, n=2000, tolerance 1e-10) and the 500
# paper-scale draws, iteration counts and verdicts were equal; parameters
# differed by at most 1.4e-8, and not at all on the draws.
NEWTON_ORACLE_ATOL = 1e-7


def _assert_same_newton_fit(result, oracle):
    assert result.iterations_used == oracle.iterations_used
    assert result.converged == oracle.converged
    assert result.degenerate_columns == oracle.degenerate_columns
    if result.converged:
        np.testing.assert_allclose(
            result.params.to_flat(), oracle.params.to_flat(), rtol=0.0, atol=NEWTON_ORACLE_ATOL
        )


@pytest.mark.parametrize("case", ["zeros", "init", "cutoff"])
@pytest.mark.parametrize("d, n", ORACLE_SHAPES)
def test_fit_matches_cholesky_newton_oracle(d, n, case):
    rng = np.random.default_rng(1000 * d + n)
    data = correlated_spins(rng, n, d)
    config = fvbm.FitConfig(objective_tolerance=1e-10)
    if case == "init":
        config = fvbm.FitConfig(init=random_params(rng, d, scale=0.5))
    elif case == "cutoff":
        config = fvbm.FitConfig(max_iterations=2)
    result, oracle = fvbm.fit(data, config), cholesky_newton_fit(data, config)
    _assert_same_newton_fit(result, oracle)
    np.testing.assert_allclose(
        result.params.to_flat(), oracle.params.to_flat(), rtol=0.0, atol=NEWTON_ORACLE_ATOL
    )


def test_fit_matches_cholesky_newton_oracle_on_paper_scale_draws():
    params = fvbm.FvbmParams.from_flat(8, np.asarray(ref.FLAT_ESTIMATES))
    for r in range(40):
        data = fvbm.sample(params, 147, seed=r)
        _assert_same_newton_fit(fvbm.fit(data), cholesky_newton_fit(data))


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(1, 60),
    scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
# separated tables on which Newton steps from LU solves of -H read as converged
@example(d=8, n=8, scale=2.5895090590304592, seed=6153)
@example(d=3, n=5, scale=2.800576515108108, seed=230863312)
@example(d=7, n=13, scale=2.227204605826325, seed=3477265738)
def test_converged_fit_has_vanishing_score(d, n, scale, seed):
    rng = np.random.default_rng(seed)
    data = random_spins(rng, n, d)
    result = fvbm.fit(data, fvbm.FitConfig(init=random_params(rng, d, scale)))
    if result.converged:
        assert np.max(np.abs(fvbm.pseudo_score(result.params, data))) / n <= 1e-6


# Relabelling the columns reorders the arithmetic, so converged fits agree
# only to about their last step: a targeted hypothesis search over 6000
# tables (2294 converged) found gaps of at most 2.0e-8.
RELABEL_ATOL = 1e-6


@settings(max_examples=100, deadline=None)
@given(x=small_spin_tables(), data=st.data())
def test_relabelling_columns_permutes_the_fit(x, data):
    perm = list(data.draw(st.permutations(range(x.shape[1]))))
    result, relabelled = fvbm.fit(x), fvbm.fit(x[:, perm])
    assert relabelled.converged == result.converged
    if result.converged:
        permuted = fvbm.FvbmParams(
            bias=result.params.bias[perm],
            interaction=result.params.interaction[np.ix_(perm, perm)],
        )
        np.testing.assert_allclose(
            relabelled.params.to_flat(), permuted.to_flat(), rtol=0.0, atol=RELABEL_ATOL
        )


def test_identical_columns_are_not_converged():
    # x_1 == x_0 predicts each from the other perfectly: no finite m_01
    data = random_spins(np.random.default_rng(48), 50, 3)
    data[:, 1] = data[:, 0]
    result = fvbm.fit(data)
    assert result.degenerate_columns == ()
    assert not result.converged
    assert 3 in result.large_step_coordinates()  # the slot of m_01
    assert np.abs(result.last_step).max() > fit_module.STEP_LIMIT


def test_constant_column_is_never_converged():
    data = random_spins(np.random.default_rng(49), 40, 3)
    data[:, 2] = -1.0
    result = fvbm.fit(data)
    assert result.degenerate_columns == (2,)
    assert not result.converged
    assert np.all(np.isfinite(result.params.to_flat()))


def test_newton_step_adds_ridge_when_cholesky_fails():
    # the information -H = diag(2, 0) has no Cholesky factor; the first
    # ridge, 1e-12 * 2, makes one and is the only lambda added
    info = np.diag([2.0, 0.0])
    step = fit_module._newton_step(np.array([1.0, 3e-12]), info)
    np.testing.assert_allclose(step, [1.0 / (2.0 + 2e-12), 1.5], rtol=1e-12)
    # with a positive definite -H it is the plain Newton step
    step = fit_module._newton_step(np.array([1.0, 1.0]), np.diag([2.0, 4.0]))
    np.testing.assert_allclose(step, [0.5, 0.25], rtol=1e-15)


def test_newton_step_ridge_has_the_bits_of_adding_a_scaled_identity(monkeypatch):
    # from a bias of -400 on a constant column its sech^2 underflows to 0,
    # and m_02, m_12 move a_0, a_1 exactly as -b_0, -b_1 do, so the
    # information has no Cholesky factor; there the diagonal written into
    # one copy gives the bits of info + ridge * I, and info is left as is
    data = random_spins(np.random.default_rng(48), 40, 3)
    data[:, 2] = -1.0
    init = fvbm.FvbmParams.from_flat(3, np.array([0.0, 0.0, -400.0, 0.0, 0.0, 0.0]))
    newton_step, ridged = fit_module._newton_step, []

    def checked(score, info):
        kept = info.copy()
        step = newton_step(score, info)
        assert np.array_equal(info, kept)
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            np.testing.assert_array_equal(step, eye_ridge_newton_step(score, info))
            ridged.append(step)
        return step

    monkeypatch.setattr(fit_module, "_newton_step", checked)
    fvbm.fit(data, fvbm.FitConfig(init=init, max_iterations=20))
    assert ridged
    # an eigenvalue of -1e-9 takes five ridges, each added to info's own diagonal
    q, _ = np.linalg.qr(np.random.default_rng(46).normal(size=(3, 3)))
    checked(np.array([1.0, -2.0, 0.5]), (q * [1.0, 0.5, -1e-9]) @ q.T)


def test_fit_refuses_a_start_whose_objective_is_not_finite():
    # m01 = m02 = 1e308 puts activations at +/-inf; the objective is -inf,
    # and every step would have been accepted as -inf >= -inf
    init = fvbm.FvbmParams.from_flat(3, np.array([0.0, 0.0, 0.0, 1e308, 1e308, 0.0]))
    data = random_spins(np.random.default_rng(72), 50, 3)
    with warnings.catch_warnings():
        # the overflow that makes it -inf is expected and must not warn
        warnings.simplefilter("error")
        with pytest.raises(
            fvbm.DataError, match=r"log-pseudolikelihood at the initializer is -inf"
        ):
            fvbm.fit(data, fvbm.FitConfig(init=init, max_iterations=3))


@pytest.mark.parametrize("p", [1, 36, 64, 65, 300])
def test_newton_step_matches_two_solves_with_the_whole_factor(p):
    rng = np.random.default_rng(p)
    root = rng.normal(size=(p, p + 5))
    hessian = -(root @ root.T)
    score = rng.normal(size=p)
    step = fit_module._newton_step(score, -hessian)
    expected = cholesky_newton_step(score, hessian)
    if p <= fit_module.SOLVE_BLOCK:
        np.testing.assert_array_equal(step, expected)
    else:
        np.testing.assert_allclose(step, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())


@st.composite
def _spd_matrices(draw):
    """Q diag(lam) Q' with p in 1-70, random eigenvalues spanning a condition
    number up to 1e10, and an overall scale from 1e-3 to 1e3."""
    p = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = 10.0 ** draw(st.floats(0.0, 10.0))
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    lam = np.exp(rng.uniform(-np.log(cond), 0.0, size=p))
    lam[0], lam[-1] = 1.0, 1.0 / cond if p > 1 else 1.0
    return (q * lam) @ q.T * 10.0 ** draw(st.floats(-3.0, 3.0))


def _check_cholesky_inverse(a):
    # The residual bound is 10 p eps cond(a); 3000 random draws of
    # _spd_matrices reached 1.5 p eps cond(a).
    inverse = fit_module._cholesky_inverse(np.linalg.cholesky(a))
    assert np.array_equal(inverse, inverse.T)
    eigvals = np.linalg.eigvalsh(a)
    bound = 10.0 * len(a) * np.finfo(float).eps * eigvals.max() / eigvals.min()
    assert np.abs(inverse @ a - np.eye(len(a))).max() <= bound


@settings(max_examples=200, deadline=None)
@given(a=_spd_matrices())
def test_cholesky_inverse_is_symmetric_and_inverts(a):
    _check_cholesky_inverse(a)


@pytest.mark.parametrize("p", [63, 64, 65, 128])
@pytest.mark.parametrize("cond", [1.0, 1e5, 1e10])
def test_cholesky_inverse_across_block_edges(p, cond):
    # one row short of, at, one past and at twice SOLVE_BLOCK
    rng = np.random.default_rng(p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    _check_cholesky_inverse((q * np.geomspace(1.0, 1.0 / cond, p)) @ q.T)


@pytest.mark.parametrize("p", [1, 3, 63, 64, 65, 300])
def test_cholesky_inverse_writes_w_over_the_factor_with_the_out_of_place_bits(p):
    # block row k of W reads only L's block row k and W's earlier rows, so
    # W can take L's storage and keep the bits of a separate identity; the
    # scale of 4 keeps L, and so W, away from the identity at p = 1
    rng = np.random.default_rng(p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    chol = np.linalg.cholesky((q * np.geomspace(4.0, 4e-6, p)) @ q.T)
    expected = eye_cholesky_inverse(chol)
    w = chol.copy()
    inverse = fit_module._cholesky_inverse(w)
    assert np.array_equal(inverse, expected)
    assert np.array_equal(w.T @ w, inverse)
    np.testing.assert_allclose(w @ chol, np.eye(p), rtol=0.0, atol=1e-9)


def test_identical_columns_keep_newton_steps_of_one_half():
    # on x_1 = x_0 the Newton step on m_01 stays near 1/2 only if the
    # Hessian keeps the exact near-null direction of the two columns; a
    # Hessian whose sums of s came from a separate column sum ended this
    # fit with a last step of 8.4e-3, eight times STEP_LIMIT
    rng = np.random.default_rng(1)
    data = correlated_spins(rng, 10_000, 8)
    data[:, 1] = data[:, 0]
    result = fvbm.fit(data, fvbm.FitConfig(objective_tolerance=1e-10))
    assert not result.converged
    assert np.abs(result.last_step).max() > 0.4


def test_newton_step_on_zero_hessian_is_finite():
    step = fit_module._newton_step(np.array([1e-12, 0.0]), np.zeros((2, 2)))
    np.testing.assert_allclose(step, [1.0, 0.0])


def test_backtracking_halves_an_overshooting_step(monkeypatch):
    # from b=5 the full Newton step on a 3:1 sample jumps past -2000
    data = np.array([[1.0], [1.0], [1.0], [-1.0]])
    init = fvbm.FvbmParams(bias=[5.0], interaction=[[0.0]])
    result = fvbm.fit(data, _tight(init=init))
    assert result.converged
    assert result.params.bias[0] == pytest.approx(math.atanh(0.5), abs=1e-9)
    assert np.all(np.diff(result.objective_trace) >= 0.0)
    # with no halving allowed the fit takes no step and says so
    monkeypatch.setattr(fit_module, "MAX_HALVINGS", 0)
    stuck = fvbm.fit(data, _tight(init=init))
    assert not stuck.converged
    assert stuck.iterations_used == 0
    assert stuck.last_step is None
    assert stuck.stopped_by == "no_ascent"
    assert stuck.unconverged_reason(["b"]) == (
        "it stopped after 0 iterations, where backtracking found no step that does "
        "not lower the objective, without meeting the objective tolerance"
    )
    assert stuck.objective_trace.size == 1
    np.testing.assert_array_equal(stuck.params.to_flat(), [5.0])


def test_fit_result_json_keeps_last_step():
    rng = np.random.default_rng(45)
    data = random_spins(rng, 25, 3)
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=2))
    obj = json.loads(jsonio.dumps(result.to_json_dict()))
    np.testing.assert_array_equal(
        fvbm.FitResult.from_json_dict(obj).last_step, result.last_step
    )
    del obj["last_step"]  # records written before the field load without it
    assert fvbm.FitResult.from_json_dict(obj).last_step is None


@pytest.mark.parametrize("converged", ["false", "true", 0, 1, None])
def test_fit_record_with_a_non_boolean_converged_is_malformed(converged):
    record = fvbm.fit(np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]])).to_json_dict()
    record["converged"] = converged
    with pytest.raises(fvbm.DataError, match="converged"):
        fvbm.FitResult.from_json_dict(record)


def test_fit_record_whose_converged_contradicts_its_evidence_is_malformed():
    a = np.random.default_rng(64).choice([-1.0, 1.0], 60)
    for data in (np.column_stack([a, a]), np.column_stack([a, np.ones(60)])):
        record = fvbm.fit(data).to_json_dict()
        assert record["converged"] is False
        fvbm.FitResult.from_json_dict(record)  # every record fit writes loads
        record["converged"] = True
        with pytest.raises(fvbm.DataError, match="converged true needs no degenerate column"):
            fvbm.FitResult.from_json_dict(record)


def test_converged_records_without_contrary_evidence_load():
    data = np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))
    result = fvbm.fit(data)
    assert result.converged
    assert fvbm.FitResult.from_json_dict(result.to_json_dict()).converged
    # a record built from known parameters, as the enumeration benchmark writes
    record = fvbm.FitResult(
        params=fvbm.FvbmParams.zeros(3), objective_trace=np.zeros(1),
        iterations_used=0, converged=True,
    ).to_json_dict()
    assert record["last_step"] is None
    assert fvbm.FitResult.from_json_dict(record).converged
    # a last step of exactly STEP_LIMIT still counts as converged, as in fit
    record["last_step"] = [fit_module.STEP_LIMIT] * 6
    assert fvbm.FitResult.from_json_dict(record).converged


def test_fit_records_the_rule_that_stopped_it():
    data = np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))
    names = fvbm.flat_labels(["a", "b", "c"])
    result = fvbm.fit(data)
    assert (result.stopped_by, result.converged) == ("tolerance", True)
    capped = fvbm.fit(data, fvbm.FitConfig(max_iterations=1))
    assert (capped.stopped_by, capped.converged) == ("max_iterations", False)
    stop = "it stopped at max_iterations=1 without meeting the objective tolerance"
    assert capped.unconverged_reason(names) == stop
    # failed conditions are joined in the verdict's order
    data[:, 1] = 1.0
    capped = fvbm.fit(data, fvbm.FitConfig(max_iterations=1))
    assert capped.unconverged_reason(names) == (
        f"column(s) b are constant, so their biases have no finite optimum; {stop}"
    )
    # a constant column stopped by the tolerance is not also blamed on its last step
    assert fvbm.fit(data).unconverged_reason(names) == (
        "column(s) b are constant, so their biases have no finite optimum"
    )


def test_fit_record_keeps_stopped_by_and_older_records_read_as_before():
    data = np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))
    record = fvbm.fit(data, fvbm.FitConfig(max_iterations=1)).to_json_dict()
    assert record["stopped_by"] == "max_iterations"
    assert fvbm.FitResult.from_json_dict(record).stopped_by == "max_iterations"
    del record["stopped_by"]
    older = fvbm.FitResult.from_json_dict(record)
    assert older.stopped_by is None
    reason = older.unconverged_reason([str(q) for q in range(6)])
    assert reason.startswith("its last step was large")
    assert reason.endswith("(separation) or the fit was cut off early")


@pytest.mark.parametrize(
    "entries",
    [
        {"stopped_by": "converged"},
        {"stopped_by": ["tolerance"]},
        {"stopped_by": "max_iterations"},
        {"stopped_by": "no_ascent"},
        {"converged": False},
    ],
)
def test_fit_record_whose_stopped_by_is_unknown_or_contradicted_is_malformed(entries):
    # on a converged fit's record: an unknown rule, a converged fit that
    # stopped short of its tolerance, and a tolerance stop without any
    # failed condition that reads unconverged
    data = np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))
    record = {**fvbm.fit(data).to_json_dict(), **entries}
    with pytest.raises(fvbm.DataError, match="stopped_by"):
        fvbm.FitResult.from_json_dict(record)
    del record["stopped_by"]
    if "converged" in entries:  # without stopped_by, the record reads as before
        reason = fvbm.FitResult.from_json_dict(record).unconverged_reason([""] * 6)
        n = record["iterations_used"]
        assert reason == f"it did not meet its objective tolerance in {n} iterations"


# The refusal of a record of d = 3, worded as the JSON reader has long worded it.
_MALFORMED_D3 = (
    "malformed fit record: converged must be true or false, stopped_by null or one of "
    "tolerance, max_iterations, no_ascent, last_step null or 6 numbers, and "
    "degenerate_columns indices below d=3; converged true needs no degenerate column, "
    "no |last_step| > 0.001 and stopped_by null or tolerance, and a tolerance stop with "
    "neither of the first two is converged true"
)


@settings(max_examples=300, deadline=None)
@given(
    stopped_by=st.sampled_from([None, *fit_module.STOP_RULES]),
    converged=st.booleans(),
    columns=st.lists(st.integers(0, 2), max_size=2, unique=True),
    last_step=st.none()
    | st.lists(st.sampled_from([0.0, -2e-4, 1e-3, -0.25, 5.0, math.nan]), min_size=6, max_size=6),
)
def test_constructor_and_json_reader_accept_the_same_records(
    stopped_by, converged, columns, last_step
):
    # the rule, spelled out apart from fit.py: a tolerance stop or none
    # recorded, no constant column, and every |step| <= 1e-3, which a NaN fails
    verdict = (
        stopped_by in (None, "tolerance")
        and not columns
        and (last_step is None or all(abs(v) <= 1e-3 for v in last_step))
    )
    # converged follows the rule, but a record without a stop may read unconverged
    consistent = converged == verdict or (not converged and stopped_by is None)
    params = fvbm.FvbmParams.zeros(3)
    record = {
        "schema_version": 1,
        "params": params.to_json_dict(),
        "objective_trace": [-4.0, -3.5],
        "iterations_used": 1,
        "stopped_by": stopped_by,
        "converged": converged,
        "degenerate_columns": columns,
        "last_step": last_step,
    }
    fields = {
        "params": params,
        "objective_trace": np.array([-4.0, -3.5]),
        "iterations_used": 1,
        "converged": converged,
        "degenerate_columns": tuple(columns),
        "last_step": None if last_step is None else np.array(last_step),
        "stopped_by": stopped_by,
    }
    outcomes = []
    for build in (lambda: fvbm.FitResult(**fields), lambda: fvbm.FitResult.from_json_dict(record)):
        try:
            outcomes.append(build())
        except fvbm.DataError as exc:
            outcomes.append(str(exc))
    built, read = outcomes
    if not consistent:
        assert built == read == _MALFORMED_D3
        return
    # the record is what to_json_dict writes, so the reader took that too
    assert json.dumps(built.to_json_dict()) == json.dumps(record) == json.dumps(read.to_json_dict())
    assert verdict or not built.converged
    if not built.converged:
        with pytest.raises(fvbm.DataError, match="^refusing inference on an unconverged fit: "):
            fvbm.build_report(built, np.ones((4, 3)))


def test_record_claiming_convergence_against_its_evidence_is_refused_in_memory():
    # converged, yet a constant column, a stop at the iteration cap and a
    # last step of 5: build_report once gave standard errors for this record,
    # which only the JSON reader refused
    with pytest.raises(fvbm.DataError, match="converged true needs no degenerate column"):
        fvbm.FitResult(
            params=fvbm.FvbmParams.zeros(2),
            objective_trace=np.zeros(2),
            iterations_used=1,
            converged=True,
            degenerate_columns=(0,),
            last_step=np.array([5.0, 0.0, 0.0]),
            stopped_by="max_iterations",
        )


def test_a_nan_last_step_counts_as_large():
    data = np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))
    result = fvbm.fit(data)
    assert result.converged
    nan_step = np.array([0.0, math.nan, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(fvbm.DataError, match="no \\|last_step\\| > 0.001"):
        dataclasses.replace(result, last_step=nan_step)
    record = {**result.to_json_dict(), "last_step": nan_step.tolist()}
    with pytest.raises(fvbm.DataError, match="no \\|last_step\\| > 0.001"):
        fvbm.FitResult.from_json_dict(record)
    # an older record may read unconverged, and then names the coordinate
    older = dataclasses.replace(result, converged=False, last_step=nan_step, stopped_by=None)
    assert older.large_step_coordinates() == [1]
    assert older.unconverged_reason(list("abcdef")).startswith(
        "its last step was large (up to nan > 0.001, on b)"
    )


@pytest.mark.parametrize("n", [-1, 1.0, 2.5, True, "1", None, [1]])
def test_fit_record_iterations_used_must_be_an_integer_of_at_least_zero(n):
    record = fvbm.fit(np.random.default_rng(65).choice([-1.0, 1.0], (400, 3))).to_json_dict()
    message = f"malformed fit record: iterations_used must be an integer >= 0, got {n!r}"
    with pytest.raises(fvbm.DataError, match=f"^{re.escape(message)}$"):
        fvbm.FitResult.from_json_dict({**record, "iterations_used": n})
    assert fvbm.FitResult.from_json_dict({**record, "iterations_used": 0}).iterations_used == 0
