"""Exact enumeration: weights, normalization, PMF tables, marginals,
joints, and seeded sampling."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import fvbm
from fvbm.cli import main
from fvbm.model import _TARGET_BLOCK, _half_factors, _log_weights, _weight_blocks

from oracles import (
    block_log_weights,
    doubling_log_weights,
    eager_probabilities,
    mask_marginal_probability,
    mask_pairwise_joint,
    naive_pmf,
    naive_state_weights,
    random_params,
    slice_fixed_sum,
    table_sample,
)

# Marginals and joints come from the blocked products of ``pair_cells``,
# whose summation order matches no per-cell sum, so each cell is held to a
# relative bound against the correctly rounded sum of its own states.  The
# worst error seen was 1.7e-15, at d <= 20.
CELL_RTOL = 1e-14


def _oracle_log_z(logw: np.ndarray) -> float:
    top = float(logw.max())
    return top + math.log(math.fsum(np.exp(logw - top)))


def _assert_within_log_weight_bound(logw: np.ndarray, expected: np.ndarray) -> None:
    assert np.all(np.abs(logw - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


def _assert_matches_block_oracle(params):
    # the meet-in-the-middle product sums each state's terms in another
    # order than either oracle, so it is held to a bound, not equality
    expected = block_log_weights(params)
    logw = _log_weights(params)
    _assert_within_log_weight_bound(logw, expected)
    _assert_within_log_weight_bound(logw, doubling_log_weights(params))
    logz = _oracle_log_z(expected)
    np.testing.assert_allclose(
        fvbm.enumerate_pmf(params).probabilities, np.exp(expected - logz), rtol=1e-12, atol=0
    )


def _state(x) -> int:
    """The state index of a +/-1 configuration: bit j is set where x_j = +1."""
    return sum(1 << j for j, v in enumerate(x) if v > 0)


def test_log_unnormalized_zero_params():
    np.testing.assert_array_equal(_log_weights(fvbm.FvbmParams.zeros(3)), np.zeros(8))


def test_log_unnormalized_hand_values():
    params = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    assert _log_weights(params)[_state([1, 1])] == pytest.approx(0.5, abs=1e-15)
    tilted = fvbm.FvbmParams(bias=[1.0, -1.0], interaction=[[0, 0.5], [0.5, 0]])
    # x'b = 1*1 + (-1)(-1) = 2, quadratic term = m12 * x1 * x2 = -0.5
    assert _log_weights(tilted)[_state([1, -1])] == pytest.approx(1.5, abs=1e-15)


def test_normalization_constant_hand_values():
    # each state of a zero model has probability 1/z, z = 2^d
    for d, z in ((1, 2.0), (3, 8.0)):
        table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(d))
        np.testing.assert_allclose(table.probabilities, 1.0 / z, rtol=1e-14)
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    z = 2.0 * math.exp(0.5) + 2.0 * math.exp(-0.5)
    expected = [math.exp(0.5) / z, math.exp(-0.5) / z, math.exp(-0.5) / z, math.exp(0.5) / z]
    np.testing.assert_allclose(fvbm.enumerate_pmf(pair).probabilities, expected, rtol=1e-14)


def test_normalization_cap():
    # every enumerating function refuses d > ENUMERATION_CAP before it allocates
    big = fvbm.FvbmParams.zeros(fvbm.ENUMERATION_CAP + 1)
    for enumerate_states in (fvbm.enumerate_pmf, lambda params: fvbm.sample(params, 1, seed=0)):
        with pytest.raises(fvbm.DataError) as refusal:
            enumerate_states(big)
        assert str(refusal.value) == "enumeration over 2^21 states exceeds the cap of d<=20"


def test_normalization_large_parameters_no_overflow():
    params = fvbm.FvbmParams(bias=[400.0, -400.0], interaction=[[0, 50.0], [50.0, 0]])
    # the (+1, -1) state dominates: -m12 + b1 - b2 = 750, and the next is
    # 700 below it
    assert _log_weights(params).max() == 750.0
    table = fvbm.enumerate_pmf(params)
    assert np.all(np.isfinite(table.probabilities))
    assert table.probabilities[_state([1, -1])] == 1.0
    assert table.probabilities.sum() == 1.0


def test_enumeration_spans_multiple_blocks():
    # d=17 has more states than one 2^16 block of the oracle's streaming layout
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(17))
    np.testing.assert_allclose(table.probabilities, 2.0**-17, rtol=1e-14)
    assert abs(float(table.probabilities.sum()) - 1.0) <= 1e-12
    assert table.probabilities.size == 1 << 17
    _assert_matches_block_oracle(random_params(np.random.default_rng(17), 17, scale=0.5))


@pytest.mark.parametrize("d", range(1, fvbm.ENUMERATION_CAP + 1))
def test_log_weights_match_block_oracle(d):
    # every split shape: odd d gives unequal halves, d=1 an empty low half
    rng = np.random.default_rng(400 + d)
    for scale in (0.3, 2.0):
        _assert_matches_block_oracle(random_params(rng, d, scale=scale))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 12),
    scale=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_weights_match_both_oracles_for_any_parameters(d, scale, seed):
    params = random_params(np.random.default_rng(seed), d, scale=scale)
    logw = _log_weights(params)
    _assert_within_log_weight_bound(logw, block_log_weights(params))
    _assert_within_log_weight_bound(logw, doubling_log_weights(params))


def test_pmf_hand_values():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(1))
    assert table.probabilities[_state([1])] == pytest.approx(0.5, rel=1e-14)
    lean = fvbm.FvbmParams(bias=[1.0], interaction=[[0.0]])
    expected = math.exp(1) / (math.exp(1) + math.exp(-1))
    table = fvbm.enumerate_pmf(lean)
    assert table.probabilities[_state([1])] == pytest.approx(expected, rel=1e-14)
    pair = fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0, 0.5], [0.5, 0]])
    expected = math.exp(0.5) / (2 * math.exp(0.5) + 2 * math.exp(-0.5))
    table = fvbm.enumerate_pmf(pair)
    assert table.probabilities[_state([1, 1])] == pytest.approx(expected, rel=1e-14)


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
            assert table.probabilities[_state(state)] == pytest.approx(prob, rel=1e-12)


def test_pmf_matches_table_entries():
    rng = np.random.default_rng(6)
    params = random_params(rng, 5, scale=1.0)
    table = fvbm.enumerate_pmf(params)
    weights = naive_state_weights(params)
    z = math.fsum(weights.values())
    for i in (0, 7, 19, 31):
        x = tuple(1.0 if i >> j & 1 else -1.0 for j in range(5))
        assert abs(weights[x] / z - table.probabilities[i]) < 1e-12


def test_bias_negation_symmetry():
    rng = np.random.default_rng(8)
    params = random_params(rng, 4, scale=1.2)
    flipped = fvbm.FvbmParams(bias=-params.bias, interaction=params.interaction)
    table = fvbm.enumerate_pmf(params)
    table_flipped = fvbm.enumerate_pmf(flipped)
    for i in range(1 << 4):
        # negating every spin complements every bit
        j = (1 << 4) - 1 - i
        assert table_flipped.probabilities[j] == pytest.approx(
            table.probabilities[i], rel=1e-13
        )


def _fsum_marginal(table, j: int) -> float:
    plus = (np.arange(1 << table.d) >> j) & 1 == 1
    return math.fsum(table.probabilities[plus].tolist())


def _fsum_joint(table, j: int, k: int) -> np.ndarray:
    """The 2x2 joint of (X_j, X_k), each cell a ``math.fsum`` of its states."""
    idx = np.arange(1 << table.d)
    pj, pk = (idx >> j) & 1 == 1, (idx >> k) & 1 == 1
    p = table.probabilities
    return np.array([[math.fsum(p[a & c].tolist()) for c in (pk, ~pk)] for a in (pj, ~pj)])


def _assert_within(actual, expected, rtol=CELL_RTOL):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.all(np.abs(actual - expected) <= rtol * np.abs(expected)), (actual, expected)


def test_marginal_and_joint_against_brute_force():
    rng = np.random.default_rng(9)
    params = random_params(rng, 4, scale=1.0)
    table = fvbm.enumerate_pmf(params)
    d = 4
    for j in range(d):
        plus = np.array(
            [table.probabilities[i] for i in range(1 << d) if i >> j & 1]
        )
        marginal = fvbm.marginal_probability(table, j)
        _assert_within(marginal, math.fsum(plus))
        _assert_within(marginal, slice_fixed_sum(table, {j: 1}), 2 * CELL_RTOL)
    joint = fvbm.pairwise_joint(table, 0, 2)
    brute = np.zeros((2, 2))
    for i in range(1 << d):
        brute[1 - (i & 1), 1 - (i >> 2 & 1)] += table.probabilities[i]
    np.testing.assert_allclose(joint, brute, atol=1e-15)
    _assert_within(joint, _fsum_joint(table, 0, 2))
    sliced = [[slice_fixed_sum(table, {0: a, 2: c}) for c in (1, 0)] for a in (1, 0)]
    _assert_within(joint, sliced, 2 * CELL_RTOL)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_zero_params():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(3))
    for j in range(3):
        assert fvbm.marginal_probability(table, j) == pytest.approx(0.5, abs=1e-14)


def test_joint_zero_params():
    table = fvbm.enumerate_pmf(fvbm.FvbmParams.zeros(2))
    np.testing.assert_allclose(fvbm.pairwise_joint(table, 0, 1), 0.25, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 17])
def test_marginal_and_joint_equal_mask_oracle(d):
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(600 + d), d))
    for j in range(d):
        marginal = fvbm.marginal_probability(table, j)
        _assert_within(marginal, _fsum_marginal(table, j))
        _assert_within(marginal, mask_marginal_probability(table, j), 2 * CELL_RTOL)
        _assert_within(marginal, slice_fixed_sum(table, {j: 1}), 2 * CELL_RTOL)
        for k in range(j + 1, d):
            joint = fvbm.pairwise_joint(table, j, k)
            _assert_within(joint, _fsum_joint(table, j, k))
            _assert_within(joint, mask_pairwise_joint(table, j, k), 2 * CELL_RTOL)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), scale=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_every_pair_cell_is_within_the_bound(d, scale, seed):
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(seed), d, scale=scale))
    marginals = [fvbm.marginal_probability(table, j) for j in range(d)]
    _assert_within(marginals, [_fsum_marginal(table, j) for j in range(d)])
    for j in range(d):
        for k in range(j + 1, d):
            joint = fvbm.pairwise_joint(table, j, k)
            _assert_within(joint, _fsum_joint(table, j, k))
            assert abs(joint.sum() - 1.0) <= 1e-14
            _assert_within(joint[0].sum(), marginals[j], 2 * CELL_RTOL)
            _assert_within(joint[:, 0].sum(), marginals[k], 2 * CELL_RTOL)


def test_adjacent_pairs_at_the_enumeration_cap():
    d = 20
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(660), d, scale=0.5))
    for j in range(d):
        _assert_within(fvbm.marginal_probability(table, j), _fsum_marginal(table, j))
    for j in range(d - 1):
        _assert_within(fvbm.pairwise_joint(table, j, j + 1), _fsum_joint(table, j, j + 1))


def _probs_through_cli(directory, params, pairs) -> dict:
    """``fvbm probs`` on a fit record of ``params``, columns X0, X1, ..."""
    labels = [f"X{j}" for j in range(params.d)]
    record = fvbm.FitResult(
        params=params, objective_trace=np.zeros(1), iterations_used=0, converged=True
    )
    fit_path, out = directory / "fit.json", directory / "probs.json"
    fvbm.jsonio.dump(record.to_json_dict(labels), fit_path)
    flags = [arg for j, k in pairs for arg in ("--pair", f"X{j},X{k}")]
    assert main(["probs", str(fit_path), "-o", str(out), *flags]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("d", [1, 2, 11, 20])
def test_streamed_and_table_pair_cells_equal_mask_oracle(tmp_path, d):
    # the table streams its cells from blocks of the log-weight product, and
    # the CLI reads that table: both are within CELL_RTOL (1e-14 relative) of
    # the mask oracle, which sums the probabilities in another order
    params = random_params(np.random.default_rng(670 + d), d, scale=0.5)
    table = fvbm.enumerate_pmf(params)
    if d <= 11:
        pairs = [(j, k) for j in range(d) for k in range(d) if j != k]
    else:  # adjacent, reversed and across the two halves of the state index
        pairs = [(j, j + 1) for j in range(d - 1)] + [(9, 2), (19, 0)]
        pairs += [(j, j + d // 2) for j in range(d // 2)]
    probs = _probs_through_cli(tmp_path, params, pairs)
    for j in range(d):
        expected = mask_marginal_probability(table, j)
        _assert_within(probs["marginals"][f"X{j}"], expected)
        assert probs["marginals"][f"X{j}"] == fvbm.marginal_probability(table, j)
    assert len(probs["pairs"]) == len(pairs)
    for (j, k), pair in zip(pairs, probs["pairs"]):
        expected = mask_pairwise_joint(table, j, k)
        cells = pair["joint"]
        joint = [[cells["++"], cells["+-"]], [cells["-+"], cells["--"]]]
        _assert_within(joint, expected)
        assert np.array_equal(joint, fvbm.pairwise_joint(table, j, k))
        assert pair["concordance"] == fvbm.concordance(table, j, k)


def test_probs_holds_no_state_table(tmp_path):
    # one 32-row block of weights (256 KiB at d=20) and the half-state
    # indicators, never the 8 MiB of 2^20 probabilities
    params = random_params(np.random.default_rng(690), 20, scale=0.1)
    pairs = [(j, j + 1) for j in range(19)]
    peak = _traced_peak(lambda: _probs_through_cli(tmp_path, params, pairs))
    assert peak < 2 * 2**20


def test_pair_cells_are_computed_once_read_only_and_not_serialized():
    table = fvbm.enumerate_pmf(random_params(np.random.default_rng(661), 5))
    cells = table.pair_cells
    assert "probabilities" not in vars(table)  # the cells never read the 2^d vector
    probabilities = table.probabilities
    assert cells.shape == (2, 5, 2, 5) and table.pair_cells is cells
    assert probabilities.shape == (32,) and table.probabilities is probabilities
    for read_out in (cells, probabilities):
        assert not read_out.flags.writeable
        with pytest.raises(ValueError):
            read_out.flat[0] = 0.5
    assert [f.name for f in dataclasses.fields(table)] == ["params"]
    assert table.d == 5
    joint = fvbm.pairwise_joint(table, 1, 3)
    joint[0, 0] = 2.0
    assert fvbm.pairwise_joint(table, 1, 3)[0, 0] < 1.0


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


@pytest.mark.parametrize("d", [1, 6, 13, 20])
def test_enumerated_probabilities_keep_their_bits(d):
    # made on first read by the one whole product, shifted and exponentiated
    # in place, so they keep the bits of the eager enumeration
    params = random_params(np.random.default_rng(640 + d), d)
    probabilities = fvbm.enumerate_pmf(params).probabilities
    expected = eager_probabilities(params)
    assert probabilities.dtype == expected.dtype == np.float64
    assert not probabilities.flags.writeable
    np.testing.assert_array_equal(probabilities.view(np.int64), expected.view(np.int64))


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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 12, 20])
def test_sample_equals_table_oracle(d):
    # 2^d below (d < 5), at (d = 5) and above one chunk of 32 states; 2000
    # draws end in a partial block of targets
    assert 2000 % _TARGET_BLOCK
    params = random_params(np.random.default_rng(600 + d), d, scale=0.3)
    for seed in (0, 7, 2**40):
        np.testing.assert_array_equal(
            fvbm.sample(params, 2000, seed=seed), table_sample(params, 2000, seed=seed)
        )


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 10),
    scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 700),
)
def test_sample_equals_table_oracle_for_any_parameters(d, scale, seed, n):
    params = random_params(np.random.default_rng(seed), d, scale=scale)
    np.testing.assert_array_equal(
        fvbm.sample(params, n, seed=seed), table_sample(params, n, seed=seed)
    )


@pytest.mark.parametrize("huge", [slice(0, 5), slice(5, 10)])
def test_sample_draws_only_states_of_positive_probability(huge):
    # b = +/-400 on five coordinates leaves one setting of them with nonzero
    # weight: on the high bits 31 of 32 chunks weigh exactly zero, on the
    # low bits every chunk holds one state of nonzero weight among 31 zeros
    rng = np.random.default_rng(640)
    params = random_params(rng, 10, scale=0.5)
    bias = params.bias.copy()
    bias[huge] = 400.0 * rng.choice([-1.0, 1.0], size=5)
    params = fvbm.FvbmParams(bias=bias, interaction=params.interaction)
    probabilities = fvbm.enumerate_pmf(params).probabilities
    assert np.count_nonzero(probabilities) == 32
    draws = fvbm.sample(params, 5000, seed=41)
    assert np.all(probabilities[(draws > 0) @ (1 << np.arange(10))] > 0.0)
    np.testing.assert_array_equal(draws, table_sample(params, 5000, seed=41))


@pytest.mark.parametrize("huge", [slice(0, 7), slice(7, 14)])
def test_streamed_blocks_far_below_the_max_weigh_zero(huge):
    # b = +/-400 on the high seven of 14 coordinates leaves one of the 128
    # rows of weights nonzero, so exp(shift_b - max) of the three 32-row
    # blocks without it underflows to zero; on the low seven every row keeps
    # one nonzero column
    rng = np.random.default_rng(650)
    params = random_params(rng, 14, scale=0.5)
    bias = params.bias.copy()
    bias[huge] = 400.0 * rng.choice([-1.0, 1.0], size=7)
    params = fvbm.FvbmParams(bias=bias, interaction=params.interaction)
    shifts = np.array([shift for _, _, shift in _weight_blocks(*_half_factors(params))])
    assert len(shifts) == 4
    assert np.count_nonzero(np.exp(shifts - shifts.max())) == (1 if huge.start else 4)
    table = fvbm.enumerate_pmf(params)
    assert np.count_nonzero(table.probabilities) == 128
    for seed in (43, 2**40):
        np.testing.assert_array_equal(
            fvbm.sample(params, 3000, seed=seed), table_sample(params, 3000, seed=seed)
        )
    for j in range(14):
        _assert_within(fvbm.marginal_probability(table, j), mask_marginal_probability(table, j))
        for k in range(j + 1, 14):
            _assert_within(fvbm.pairwise_joint(table, j, k), mask_pairwise_joint(table, j, k))


# One 2^20 float64 vector (8 MiB) plus the half-state tables.
ONE_STATE_VECTOR_AT_CAP = 9 * 2**20


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enumerate_pmf(params):
    # a table makes its probabilities on first read, so they are read here
    return fvbm.enumerate_pmf(params).probabilities


def pair_cells(params):
    return fvbm.enumerate_pmf(params).pair_cells


@pytest.mark.parametrize("enumerate_states", [enumerate_pmf, pair_cells])
def test_enumeration_holds_one_state_vector(enumerate_states):
    # the log-weights are exponentiated in place, with no 2^d temporaries,
    # and the pair cells are streamed from row blocks of their product
    params = random_params(np.random.default_rng(621), 20, scale=0.1)
    assert _traced_peak(lambda: enumerate_states(params)) < ONE_STATE_VECTOR_AT_CAP


# The traced peak of the sampler's earlier 2^d-long CDF at d=20, n=20000.
SEQUENTIAL_CDF_PEAK = 8.77 * 2**20


def test_sample_frees_table_before_decoding():
    # the streamed passes hold the sorted targets, their order, the 2^15
    # chunk edges and one row block of weights, all gone before the
    # 20000-by-20 decode (3.05 MiB of draws) allocates; measured 3.96 MiB
    params = random_params(np.random.default_rng(620), 20, scale=0.1)
    peak = _traced_peak(lambda: fvbm.sample(params, 20_000, seed=3))
    assert peak < ONE_STATE_VECTOR_AT_CAP
    assert peak < SEQUENTIAL_CDF_PEAK
    assert peak < 4.5 * 2**20


def test_sample_and_simulate_hold_no_state_vector(tmp_path):
    # the chunk edges and one row block of weights (256 KiB each at d=20),
    # never the 8 MiB of 2^20 weights; measured 0.86 and 0.87 MiB
    params = random_params(np.random.default_rng(622), 20, scale=0.1)
    params_path = tmp_path / "params.json"
    fvbm.jsonio.dump(params.to_json_dict(), params_path)
    args = ["simulate", str(params_path), "--n", "500", "-o", str(tmp_path / "sim.csv")]
    assert _traced_peak(lambda: fvbm.sample(params, 500, seed=5)) < 2**20
    assert _traced_peak(lambda: main(args)) < 2**20


@pytest.mark.parametrize(
    "n, seed, message",
    [
        (2.0, 1, "n must be an int, got 2.0"),
        (True, 1, "n must be an int, got True"),
        (-1, 1, "n must be nonnegative, got -1"),
        (5, 1.0, "seed must be an int, got 1.0"),
        (5, False, "seed must be an int, got False"),
        (5, -1, "seed must be nonnegative, got -1"),
        (0, -1, "seed must be nonnegative, got -1"),
        (0, "1", "seed must be an int, got '1'"),
    ],
)
def test_sample_refuses_bad_arguments_up_front(n, seed, message):
    # checked before the n == 0 return and before any enumeration
    big = fvbm.FvbmParams.zeros(fvbm.ENUMERATION_CAP + 1)
    for params in (fvbm.FvbmParams.zeros(3), big):
        with pytest.raises(ValueError) as refusal:
            fvbm.sample(params, n, seed=seed)
        assert str(refusal.value) == message


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sample_chi_square_goodness_of_fit(d):
    rng = np.random.default_rng(100 + d)
    params = random_params(rng, d, scale=0.8)
    table = fvbm.enumerate_pmf(params)
    n = 100_000
    draws = fvbm.sample(params, n, seed=999 + d)
    idx = (draws > 0) @ (1 << np.arange(d))
    observed = np.bincount(idx, minlength=1 << d)
    expected = n * table.probabilities
    stat = float(((observed - expected) ** 2 / expected).sum())
    cutoff = scipy.stats.chi2.ppf(0.999, df=(1 << d) - 1)
    assert stat < cutoff
