"""Information matrices, sandwich covariance, Wald tests, FDR adjustment."""

import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

import fvbm
from fvbm import jsonio
from fvbm import inference
from fvbm.inference import _symmetric_inverse, two_sided_p_value
from fvbm.params import upper_indices

import reference_values as ref
from oracles import (
    COVARIANCE_RTOL,
    ORACLE_SHAPES,
    correlated_spins,
    eigh_sandwich_covariance,
    eigh_symmetric_inverse,
    fd_gradient,
    fd_jacobian,
    gram_info_2,
    loop_format_report_tables,
    random_params,
    random_spins,
    relative_covariance_error,
    small_spin_tables,
)


# ---------------------------------------------------------------------------
# information matrices
# ---------------------------------------------------------------------------


def test_info1_zero_params_bias_block():
    data = random_spins(np.random.default_rng(50), 12, 3)
    i1 = fvbm.empirical_info_1(fvbm.FvbmParams.zeros(3), data)
    np.testing.assert_allclose(np.diag(i1)[:3], 1.0, atol=1e-14)


def test_info1_psd_at_fit():
    rng = np.random.default_rng(51)
    data = random_spins(rng, 60, 3)
    result = fvbm.fit(data, fvbm.FitConfig(objective_tolerance=1e-12, max_iterations=3000))
    eigvals = np.linalg.eigvalsh(fvbm.empirical_info_1(result.params, data))
    assert eigvals.min() >= -1e-8


def test_info1_matches_finite_differences():
    rng = np.random.default_rng(52)
    params = random_params(rng, 3)
    data = random_spins(rng, 15, 3)
    fd = fd_jacobian(
        lambda th: fvbm.pseudo_score(fvbm.FvbmParams.from_flat(3, th), data),
        params.to_flat(),
    )
    np.testing.assert_allclose(
        fvbm.empirical_info_1(params, data), -fd / 15.0, rtol=0, atol=1e-5
    )


def test_info1_shares_hessian_code_path():
    # the Hessian divided in place by -n has the bits of the Hessian
    # negated and divided by n, at every oracle shape
    rng = np.random.default_rng(53)
    for d, n in [(4, 20), *ORACLE_SHAPES]:
        params = random_params(rng, d, scale=0.5)
        data = correlated_spins(rng, n, d)
        np.testing.assert_array_equal(
            fvbm.empirical_info_1(params, data), -fvbm.pseudo_hessian(params, data) / n
        )
    with pytest.raises(fvbm.DataError, match="data has 24 columns, model has 25"):
        fvbm.empirical_info_1(fvbm.FvbmParams.zeros(25), data)


def test_info2_gram_psd():
    rng = np.random.default_rng(54)
    params = random_params(rng, 3, scale=2.0)
    data = random_spins(rng, 25, 3)
    i2 = fvbm.empirical_info_2(params, data)
    np.testing.assert_allclose(i2, i2.T, atol=1e-14)
    assert np.linalg.eigvalsh(i2).min() >= -1e-10


# Largest |blocked_qr - one_shot_qr| / sqrt(one_shot_qq one_shot_rr) allowed
# for I2 summed over row blocks against gram_info_2; at most 2.1e-15 was
# measured over d 1-24, n 37-4001, blocks of p rows and of the default size.
INFO_2_RTOL = 2e-14


def _meat_rows(p):
    return max(inference.MEAT_BLOCK // p, p)


@pytest.mark.parametrize("d, n", ORACLE_SHAPES + [(10, 400), (8, 147), (24, 1092)])
def test_info2_is_exactly_symmetric_without_averaging_its_transpose(d, n):
    # numpy forms each block's ``scores.T @ scores`` from one triangle, so
    # the Gram matrix is exactly symmetric; in one block (up to 1092 rows at
    # d = 24) it equals the one-shot product and the earlier (g + g') / 2
    # form bit for bit, in several (d = 24, n = 2000) it agrees with them
    # within INFO_2_RTOL
    rng = np.random.default_rng(3000 * d + n)
    params = random_params(rng, d, scale=0.5)
    data = correlated_spins(rng, n, d)
    i2 = fvbm.empirical_info_2(params, data)
    g = gram_info_2(params, data)
    assert np.array_equal(i2, i2.T)
    if n <= _meat_rows(params.n_params):
        assert np.array_equal(i2, g) and np.array_equal(i2, (g + g.T) / 2.0)
    else:
        assert relative_covariance_error(i2, (g + g.T) / 2.0) <= INFO_2_RTOL


@pytest.mark.parametrize("d, n, meat_block", [(1, 50, 1), (4, 37, 1), (8, 147, 1), (24, 2000, None)])
def test_info2_over_row_blocks_agrees_with_the_one_shot_gram(d, n, meat_block, monkeypatch):
    # MEAT_BLOCK = 1 gives the smallest blocks, p rows: single rows at d = 1,
    # 10 rows for 37 at d = 4 and 36 rows for 147 at d = 8; the default
    # gives 1092 rows for 2000 at d = 24, so the last block is short but for
    # single rows.
    if meat_block is not None:
        monkeypatch.setattr(inference, "MEAT_BLOCK", meat_block)
    calls = []
    scores = inference.per_observation_scores
    monkeypatch.setattr(
        inference, "per_observation_scores", lambda params, x: calls.append(len(x)) or scores(params, x)
    )
    rng = np.random.default_rng(3200 * d + n)
    params = random_params(rng, d, scale=0.5)
    data = correlated_spins(rng, n, d)
    rows = _meat_rows(params.n_params)
    i2 = fvbm.empirical_info_2(params, data)
    assert calls == [rows] * (n // rows) + [n % rows] * (n % rows > 0) and len(calls) > 1
    assert np.array_equal(i2, i2.T)
    assert relative_covariance_error(i2, gram_info_2(params, data)) <= INFO_2_RTOL


def test_info2_matches_outer_product_of_fd_scores():
    # brute force: per-row score by finite differences of the one-row objective
    rng = np.random.default_rng(55)
    params = random_params(rng, 2)
    data = random_spins(rng, 6, 2)
    outer = np.zeros((3, 3))
    for row in data:
        s = fd_gradient(
            lambda th: fvbm.log_pseudolikelihood(
                fvbm.FvbmParams.from_flat(2, th), row.reshape(1, -1)
            ),
            params.to_flat(),
        )
        outer += np.outer(s, s)
    np.testing.assert_allclose(
        fvbm.empirical_info_2(params, data), outer / 6.0, atol=1e-8
    )


def test_aggregate_score_vanishes_at_d1_mple():
    # data (+1, -1) has mean zero, so b = 0 is the exact maximizer and the
    # per-row scores (+1 and -1) cancel in aggregate
    params = fvbm.FvbmParams.zeros(1)
    data = np.array([[1.0], [-1.0]])
    scores = fvbm.per_observation_scores(params, data)
    np.testing.assert_allclose(scores, [[1.0], [-1.0]], atol=1e-15)
    assert scores.sum() == 0.0
    np.testing.assert_allclose(fvbm.empirical_info_2(params, data), [[1.0]], atol=1e-15)


# ---------------------------------------------------------------------------
# sandwich covariance
# ---------------------------------------------------------------------------


def test_sandwich_matches_bernoulli_closed_form():
    rng = np.random.default_rng(56)
    data = np.concatenate([np.ones((30, 1)), -np.ones((10, 1))])
    result = fvbm.fit(data, fvbm.FitConfig(objective_tolerance=1e-14, max_iterations=5000))
    cov = fvbm.sandwich_covariance(result.params, data)
    b_hat = result.params.bias[0]
    expected = 1.0 / (40.0 * (1.0 - math.tanh(b_hat) ** 2))
    assert cov[0, 0] == pytest.approx(expected, rel=1e-6)


def test_sandwich_symmetric_and_positive():
    rng = np.random.default_rng(57)
    data = random_spins(rng, 80, 3)
    result = fvbm.fit(data, fvbm.FitConfig(max_iterations=500))
    cov = fvbm.sandwich_covariance(result.params, data)
    np.testing.assert_array_equal(cov, cov.T)
    assert np.all(np.diag(cov) > 0)
    assert np.all(np.sqrt(np.diag(cov)) > 0)


def test_sandwich_singular_information_raises():
    # identical rows leave the three d=2 coordinates rank-deficient
    data = np.ones((10, 2))
    params = fvbm.FvbmParams.zeros(2)
    with pytest.raises(fvbm.NumericalError) as excinfo:
        fvbm.sandwich_covariance(params, data, coordinate_names=["b0", "b1", "m01"])
    assert "b0" in str(excinfo.value) or "m01" in str(excinfo.value)


def _outcome(inverse, a, names):
    try:
        return inverse(a, names)
    except (fvbm.NumericalError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _battery(p):
    """Symmetric matrices Q diag(lam) Q' around the 1e12 condition limit,
    with eigenvalues spread evenly in log or one small and the rest 1, plus
    singular, indefinite, zero and NaN cases."""
    rng = np.random.default_rng(p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    conds = np.r_[1e8, 1e10, 1e11, np.geomspace(2e11, 5e12, 15), 1e13, 1e14]
    spectra = [np.geomspace(1.0, 1.0 / c, p) for c in conds]
    spectra += [np.r_[np.ones(p - 1), 1.0 / c] for c in conds]
    spectra += [np.r_[np.ones(p - 1), 0.0], np.r_[np.ones(p - 1), -0.5]]
    battery = [(q * lam) @ q.T for lam in spectra]
    nan = np.eye(p)
    nan[0, -1] = nan[-1, 0] = np.nan
    return battery + [np.zeros((p, p)), nan]


@pytest.mark.parametrize("p", [3, 55, 300])
def test_inverse_refuses_exactly_as_the_eigh_oracle(p, monkeypatch):
    # Only where |a|_F |inv(a)|_F <= 5e11 does the Cholesky inverse stand;
    # there cond(a) <= 5e11, so eigh accepts too.  Everything else runs the
    # eigh path, so refusals and their messages are the oracle's.  Inverses
    # accepted by both agree within 10 cond eps; 1.2 cond eps was measured.
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    names = [f"c{i}" for i in range(p)]
    paths = set()
    for a in _battery(p):
        calls.clear()
        got = _outcome(lambda a, names: _symmetric_inverse(lambda: a, names), a, names)
        expected = _outcome(eigh_symmetric_inverse, a, names)
        if isinstance(expected, tuple):
            assert got == expected
            paths.add("refused")
            continue
        paths.add("eigh" if len(calls) == 2 else "cholesky")
        eigvals = np.abs(np.linalg.eigvalsh(a))
        cond = eigvals.max() / eigvals.min()
        scale = 10.0 * cond * np.finfo(float).eps * np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=scale)
    assert paths == {"cholesky", "eigh", "refused"}


@pytest.mark.parametrize("p", [3, 55, 300])
def test_inverse_builds_the_matrix_again_only_for_a_factored_eigh(p, monkeypatch):
    # the matrix is dropped once factored: one build where the Cholesky
    # inverse stands or the factorization fails, two where a factored
    # matrix goes on to eigh
    eigh = np.linalg.eigh
    eighs = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or eigh(a))
    cases = set()
    for a in _battery(p):
        builds = []
        try:
            np.linalg.cholesky(a)
            factored = True
        except np.linalg.LinAlgError:
            factored = False
        eighs.clear()
        _outcome(lambda a, names: _symmetric_inverse(lambda: builds.append(1) or a, names), a, None)
        cases.add((factored, bool(eighs)))
        assert len(builds) == 1 + (factored and bool(eighs))
    assert cases == {(True, False), (True, True), (False, True)}


def _block_model(sizes, seed):
    """Independent blocks of ``random_params(rng, size, scale=0.5)``."""
    rng = np.random.default_rng(seed)
    return [random_params(rng, size, scale=0.5) for size in sizes]


def _block_draw(blocks, n):
    """``n`` rows with each block sampled exactly, block b with seed b + 1."""
    return np.hstack([fvbm.sample(block, n, seed=s) for s, block in enumerate(blocks, 1)])


def _truth_record(blocks):
    """The block-diagonal true parameters as a record marked converged."""
    params = fvbm.FvbmParams(
        bias=np.concatenate([b.bias for b in blocks]),
        interaction=scipy.linalg.block_diag(*(b.interaction for b in blocks)),
    )
    return fvbm.FitResult(params=params, objective_trace=np.zeros(1), iterations_used=0, converged=True)


def _d24_draw():
    # three independent 8-column blocks, each sampled exactly
    return _block_draw(_block_model([8, 8, 8], 24), 2000)


@functools.cache
def _fit_d24_draw():
    data = _d24_draw()
    data.setflags(write=False)
    return fvbm.fit(data), data


def test_sandwich_matches_eigh_oracle_on_a_d24_draw():
    result, data = _fit_d24_draw()
    assert result.converged
    cov = fvbm.sandwich_covariance(result.params, data)
    expected = eigh_sandwich_covariance(result.params, data)
    assert np.array_equal(cov, cov.T)
    assert relative_covariance_error(cov, expected) <= COVARIANCE_RTOL


def test_report_standard_errors_match_eigh_oracle():
    # the report reads the diagonal from one p^3 product; the oracle forms
    # the full symmetrized covariance through eigh
    for result, data in (_fit_d24_draw(), _small_fit(), _small_fit(seed=64, n=147, d=8)):
        assert result.converged
        se = fvbm.build_report(result, data).standard_errors
        expected = np.sqrt(np.diag(eigh_sandwich_covariance(result.params, data)))
        assert np.all(np.abs(se - expected) <= COVARIANCE_RTOL * expected)


def test_report_refuses_exactly_as_the_eigh_oracle(monkeypatch):
    # a bias b_a of 8 to 18 shrinks sech^2 on column a and sweeps cond(I1)
    # from 4e6 to 2e15: the Cholesky inverse, then eigh accepting past the
    # Frobenius bound, then refusals.  Records claim convergence so that the
    # report reaches the inverse.
    rng = np.random.default_rng(7)
    data = correlated_spins(rng, 400, 4)
    theta = random_params(rng, 4, scale=0.3).to_flat()
    names = fvbm.flat_labels(list("abcd"))
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    paths = set()
    for b in np.linspace(8.0, 18.0, 41):
        theta[0] = b
        params = fvbm.FvbmParams.from_flat(4, theta)
        record = fvbm.FitResult(
            params=params, objective_trace=np.zeros(1), iterations_used=0, converged=True
        )
        calls.clear()
        try:
            se = fvbm.build_report(record, data, coordinate_names=names).standard_errors
        except fvbm.NumericalError as exc:
            with pytest.raises(fvbm.NumericalError) as oracle:
                eigh_sandwich_covariance(params, data, coordinate_names=names)
            assert str(exc) == str(oracle.value)
            paths.add("refused")
            continue
        paths.add("eigh" if calls else "cholesky")
        expected = np.sqrt(np.diag(eigh_sandwich_covariance(params, data, names)))
        assert np.all(np.abs(se - expected) <= COVARIANCE_RTOL * expected)
    assert paths == {"cholesky", "eigh", "refused"}


def _traced_report_peak(record, data):
    tracemalloc.start()
    try:
        fvbm.build_report(record, data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_holds_no_score_matrix():
    # the one-shot meat holds the n-by-p scores together with I2 and
    # inv(I1) at least: 5.9 MiB at d = 24, n = 2000 (6.8 MiB was traced).
    # Blocks of MEAT_BLOCK entries stay well below it (3.6 MiB traced).
    result, data = _fit_d24_draw()
    n, p = data.shape[0], result.params.n_params
    assert _meat_rows(p) < n
    assert _traced_report_peak(result, data) < 8 * (n * p + 2 * p * p)


def test_report_at_d24_holds_no_score_block_beside_the_inverse():
    # I2 is summed before I1 is inverted, so the 1092-row score block and
    # its Gram are never held beside inv(I1): 3.60 MiB traced, 4.29 MiB
    # when the bread came first (3.61 and 4.51 where the call first built
    # the Hessian's cached gather indices)
    blocks = _block_model([8, 8, 8], 24)
    assert _traced_report_peak(_truth_record(blocks), _block_draw(blocks, 2000)) < 4.0 * 2**20


@pytest.mark.parametrize("n", [2000, 10_000])
def test_report_at_d60_holds_three_p_by_p_arrays(n):
    # seven 8-column blocks and one of 4, p = 1830: I2, the factor that W
    # is written over, and inv(I1) = W'W are the three arrays.  3.00 p^2
    # doubles were traced, 3.14 where the call first built the Hessian's
    # cached gather indices; holding I1 beside them gave 4.00 and 4.14.
    blocks = _block_model([8] * 7 + [4], 60)
    record = _truth_record(blocks)
    p = record.params.n_params
    assert _traced_report_peak(record, _block_draw(blocks, n)) < 3.25 * p * p * 8


def test_well_conditioned_report_runs_no_eigh(monkeypatch):
    def refuse(a):
        raise AssertionError("eigh called on a well-conditioned information matrix")

    data = _d24_draw()
    result = fvbm.fit(data)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = fvbm.build_report(result, data)
    assert np.all(np.isfinite(report.standard_errors))


def test_ill_conditioned_report_names_the_offending_coordinates():
    # identical rows leave the d=2 information singular; the hand-built
    # record claims convergence so that the report reaches the inverse
    data = np.ones((10, 2))
    record = fvbm.FitResult(
        params=fvbm.FvbmParams.zeros(2),
        objective_trace=np.zeros(1),
        iterations_used=0,
        converged=True,
    )
    names = ["b0", "b1", "m01"]
    with pytest.raises(fvbm.NumericalError) as excinfo:
        fvbm.build_report(record, data, coordinate_names=names)
    with pytest.raises(fvbm.NumericalError) as oracle:
        eigh_sandwich_covariance(record.params, data, coordinate_names=names)
    assert str(excinfo.value) == str(oracle.value)
    assert str(excinfo.value).endswith("carried by coordinate(s) b0, b1, m01")


# ---------------------------------------------------------------------------
# Wald tests
# ---------------------------------------------------------------------------


def test_wald_zero_difference():
    z, p = fvbm.wald_test([0.0], [0.1])
    assert z[0] == 0.0
    assert p[0] == 1.0


def test_wald_reference_bias_rows():
    z, p = fvbm.wald_test([-0.321], [0.165])
    assert z[0] == pytest.approx(-1.94545, abs=1e-4)
    assert abs(p[0] - 5.20e-02) <= 0.002
    z, p = fvbm.wald_test([-1.037], [0.207])
    assert z[0] == pytest.approx(-5.00966, abs=1e-4)
    # printed value is 5.71E-07; recomputation from 3-decimal inputs can
    # land anywhere in the rounding interval
    lo = two_sided_p_value((1.037 + 0.0005) / (0.207 - 0.0005))
    hi = two_sided_p_value((1.037 - 0.0005) / (0.207 + 0.0005))
    assert lo <= 5.71e-07 <= hi
    assert p[0] == pytest.approx(5.45e-07, rel=1e-2)


def test_wald_rejects_bad_se():
    with pytest.raises(ValueError):
        fvbm.wald_test([1.0], [0.0])
    with pytest.raises(ValueError):
        fvbm.wald_test([1.0], [-0.2])
    with pytest.raises(ValueError, match="must align"):
        fvbm.wald_test([1.0, 2.0], [0.1])


# ---------------------------------------------------------------------------
# FDR adjustment
# ---------------------------------------------------------------------------


def test_fdr_single_value_unchanged():
    np.testing.assert_allclose(fvbm.fdr_adjust([0.031], "by"), [0.031])
    np.testing.assert_allclose(fvbm.fdr_adjust([0.031], "bh"), [0.031])


def test_fdr_reference_bias_anchors():
    adjusted = fvbm.fdr_adjust(ref.BIAS_P, "by")
    harmonic8 = sum(1.0 / k for k in range(1, 9))
    assert harmonic8 == pytest.approx(2.717857142857143, rel=1e-12)
    assert adjusted[1] == pytest.approx(1.24e-05, rel=2e-2)   # from 5.71E-07
    assert adjusted[3] == pytest.approx(6.41e-03, rel=2e-2)   # from 5.89E-04
    # hand computation: rank-1 entry scales by c(8) * 8
    assert adjusted[1] == pytest.approx(harmonic8 * 8 * 5.71e-07, rel=1e-12)


def test_fdr_reference_interaction_anchor():
    adjusted = fvbm.fdr_adjust(ref.INTERACTION_P, "by")
    rows, cols = upper_indices(8)
    (slot,) = np.flatnonzero((rows == 2) & (cols == 6))  # NXT:DHJP, raw 7.24E-07
    # step-up minimum comes from rank 2: c(28) * 28 * 7.58E-07 / 2
    c28 = sum(1.0 / k for k in range(1, 29))
    assert adjusted[slot] == pytest.approx(c28 * 14 * 7.58e-07, rel=1e-12)
    assert adjusted[slot] == pytest.approx(4.17e-05, rel=2e-2)


def test_fdr_permutation_equivariance():
    rng = np.random.default_rng(58)
    p = rng.uniform(size=17)
    perm = rng.permutation(17)
    for method in ("bh", "by"):
        direct = fvbm.fdr_adjust(p, method)[perm]
        permuted = fvbm.fdr_adjust(p[perm], method)
        np.testing.assert_allclose(direct, permuted, atol=0)


def test_fdr_by_dominates_bh():
    rng = np.random.default_rng(59)
    p = rng.uniform(size=12)
    assert np.all(fvbm.fdr_adjust(p, "by") >= fvbm.fdr_adjust(p, "bh") - 1e-15)


def test_fdr_monotone_and_bounded():
    rng = np.random.default_rng(60)
    p = rng.uniform(size=25)
    for method in ("bh", "by"):
        adjusted = fvbm.fdr_adjust(p, method)
        assert np.all(adjusted >= p - 1e-15)
        assert np.all(adjusted <= 1.0)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adjusted[order]) >= -1e-15)


def test_fdr_validates_inputs():
    with pytest.raises(ValueError):
        fvbm.fdr_adjust([0.5, 1.2])
    with pytest.raises(ValueError):
        fvbm.fdr_adjust([0.5], method="holm")
    with pytest.raises(ValueError, match="1-D vector"):
        fvbm.fdr_adjust([[0.5, 0.2]])


def test_fdr_matches_scipy_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    if not hasattr(scipy_stats, "false_discovery_control"):
        pytest.skip("scipy too old for false_discovery_control")
    rng = np.random.default_rng(63)
    for method in ("bh", "by"):
        for _ in range(50):
            m = int(rng.integers(1, 60))
            p = rng.uniform(size=m)
            if rng.random() < 0.3:
                p[int(rng.integers(0, m))] = p[int(rng.integers(0, m))]
            np.testing.assert_allclose(
                fvbm.fdr_adjust(p, method),
                scipy_stats.false_discovery_control(p, method=method),
                rtol=0,
                atol=1e-15,
            )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _small_fit(seed=61, n=300, d=3):
    rng = np.random.default_rng(seed)
    params0 = random_params(rng, d, scale=0.5)
    data = fvbm.sample(params0, n, seed=seed)
    return fvbm.fit(data), data


def test_build_report_shapes_and_groups():
    result, data = _small_fit()
    report = fvbm.build_report(result, data)
    p = result.params.n_params
    assert report.n_params == p
    assert report.adjustment_groups == {"bias": [0, 1, 2], "interaction": [3, 4, 5]}
    assert np.all(report.adjusted_p_values >= report.p_values - 1e-15)
    assert np.all((report.p_values >= 0) & (report.p_values <= 1))


def test_build_report_refuses_unconverged_fits():
    rng = np.random.default_rng(63)
    data = random_spins(rng, 60, 3)
    names = fvbm.flat_labels(["a", "b", "c"])

    constant = data.copy()
    constant[:, 1] = 1.0
    with pytest.raises(fvbm.DataError, match=r"column\(s\) b are constant"):
        fvbm.build_report(fvbm.fit(constant), constant, coordinate_names=names)

    separated = data.copy()
    separated[:, 2] = separated[:, 0]
    with pytest.raises(fvbm.DataError, match=r"last step was large .*a:c"):
        fvbm.build_report(fvbm.fit(separated), separated, coordinate_names=names)

    result = fvbm.fit(data)
    assert result.converged
    capped = fvbm.FitResult(
        params=result.params,
        objective_trace=result.objective_trace,
        iterations_used=result.iterations_used,
        converged=False,
        last_step=np.zeros(6),
    )
    with pytest.raises(fvbm.DataError, match="did not meet its objective tolerance"):
        fvbm.build_report(capped, data)
    assert fvbm.build_report(result, data).n_params == 6


@settings(max_examples=100, deadline=None)
@given(x=small_spin_tables())
def test_report_is_finite_or_refused(x):
    # Most small tables are separated and refused; in a 6000-table run, 2294
    # were converged and every one of those gave a finite report.
    try:
        report = fvbm.build_report(fvbm.fit(x), x)
    except (fvbm.DataError, fvbm.NumericalError):
        return
    for values in (report.standard_errors, report.p_values, report.adjusted_p_values):
        assert np.all(np.isfinite(values))


def test_grouped_adjustment_differs_from_single_group():
    result, data = _small_fit()
    grouped = fvbm.build_report(result, data)
    single = fvbm.build_report(
        result, data, groups={"all": list(range(result.params.n_params))}
    )
    assert not np.allclose(grouped.adjusted_p_values, single.adjusted_p_values)


def test_report_reproduces_reference_adjustment():
    # the reference raw p-values are printed to 3 significant digits, so the
    # reproduction check brackets each adjusted value between the step-up
    # adjustments of the half-ulp-down and half-ulp-up input vectors (the
    # step-up map is monotone in its inputs)
    for raw, printed in (
        (ref.BIAS_P, ref.BIAS_P_ADJUSTED),
        (ref.INTERACTION_P, ref.INTERACTION_P_ADJUSTED),
    ):
        half = np.array([0.5 * ref.last_digit_unit(v) for v in raw])
        lo = fvbm.fdr_adjust(np.clip(raw - half, 0.0, 1.0), "by")
        hi = fvbm.fdr_adjust(np.clip(raw + half, 0.0, 1.0), "by")
        for value_lo, value_hi, target in zip(lo, hi, printed):
            unit = ref.last_digit_unit(target)
            assert value_lo - 2.0 * unit <= target <= value_hi + 2.0 * unit


def test_null_calibration():
    # under a zero-parameter truth, raw p-values are approximately uniform
    rng = np.random.default_rng(62)
    d, n, reps = 2, 2000, 150
    hits = 0
    total = 0
    for r in range(reps):
        data = fvbm.sample(fvbm.FvbmParams.zeros(d), n, seed=10_000 + r)
        result = fvbm.fit(data)
        report = fvbm.build_report(result, data)
        hits += int((report.p_values < 0.05).sum())
        total += report.n_params
    fraction = hits / total
    assert abs(fraction - 0.05) < 0.03


def test_report_json_round_trip():
    result, data = _small_fit()
    report = fvbm.build_report(result, data)
    rebuilt = fvbm.InferenceReport.from_json_dict(
        json.loads(jsonio.dumps(report.to_json_dict(labels=["x", "y", "z"])))
    )
    np.testing.assert_array_equal(rebuilt.estimates, report.estimates)
    np.testing.assert_array_equal(rebuilt.adjusted_p_values, report.adjusted_p_values)
    assert rebuilt.adjustment_groups == report.adjustment_groups


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"standard_errors": [np.inf, 1.0, 1.0]}, "standard_errors must be finite"),
        ({"estimates": [0.5, np.nan, 0.5]}, "estimates must be finite"),
        ({"z_scores": [0.5, 0.5, -np.inf]}, "z_scores must be finite"),
        ({"adjustment_groups": {"bias": [0, 1.0, 2]}}, "indices must be ints, got 1.0"),
        ({"adjustment_groups": {"bias": [0, 1], "x": ["2"]}}, "indices must be ints, got '2'"),
        ({"adjustment_groups": {"all": [0, True, 2]}}, "indices must be ints, got True"),
        ({"method": "BY"}, "method must be 'by' or 'bh', got 'BY'"),
        ({"method": 5}, "method must be 'by' or 'bh', got 5"),
    ],
)
def test_report_refuses_fields_that_no_inference_gives(entry, message):
    fields = {
        "estimates": [0.5, 0.5, 0.5],
        "standard_errors": [1.0, 1.0, 1.0],
        "z_scores": [0.5, 0.5, 0.5],
        "p_values": [0.6, 0.6, 0.6],
        "adjusted_p_values": [1.0, 1.0, 1.0],
        "adjustment_groups": {"bias": [0, 1], "interaction": [np.int64(2)]},
        "method": "bh",
    }
    assert fvbm.InferenceReport(**fields).d == 2
    with pytest.raises(ValueError, match=re.escape(message)):
        fvbm.InferenceReport(**{**fields, **entry})


def test_build_report_records_the_method_by_its_lower_case_name():
    result, data = _small_fit()
    assert fvbm.build_report(result, data, method="BH").method == "bh"


@pytest.mark.parametrize("d, width", [(3, 2), (8, 4), (12, 14)])
def test_format_report_tables_matches_cell_by_cell_oracle(d, width):
    # values from 1e-300 to 1e4 in size, of both signs and zero; at width
    # 14 the labels are wider than the 11-character minimum column
    rng = np.random.default_rng(d)
    p = fvbm.flat_length(d)
    values = rng.choice([-1.0, 1.0], p) * 10.0 ** rng.uniform(-300, 4, p)
    values[0] = 0.0
    p_values = 10.0 ** rng.uniform(-300, 0, p)
    report = fvbm.InferenceReport(
        estimates=values,
        standard_errors=np.abs(values) + 0.5,
        z_scores=-values,
        p_values=p_values,
        adjusted_p_values=np.minimum(1.0, 3.0 * p_values),
        adjustment_groups=fvbm.inference.default_groups(d),
    )
    labels = [f"{j:0{width}d}" for j in range(d)]
    assert fvbm.format_report_tables(report, labels) == loop_format_report_tables(report, labels)


def test_format_report_tables():
    result, data = _small_fit()
    report = fvbm.build_report(result, data)
    text = fvbm.format_report_tables(report, ["AA", "BB", "CC"])
    assert "A: biases" in text
    assert "B: interactions" in text
    # the interaction block prints the lower triangle: row BB under column AA
    assert text.count("Estimate") == 2
    for label in ("AA", "BB", "CC"):
        assert label in text
    with pytest.raises(ValueError):
        fvbm.format_report_tables(report, ["AA", "BB"])
