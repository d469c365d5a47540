"""Parameter container, flat layout, and spin validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fvbm
from fvbm import jsonio
from fvbm.params import slot_map

from oracles import random_params


def test_flat_length():
    assert fvbm.flat_length(1) == 1
    assert fvbm.flat_length(2) == 3
    assert fvbm.flat_length(8) == 36


def test_pair_indices_lexicographic():
    assert fvbm.pair_indices(3) == [(0, 1), (0, 2), (1, 2)]
    assert fvbm.pair_indices(4)[:4] == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_slot_map_indexes_the_flat_layout():
    np.testing.assert_array_equal(slot_map(3), [[0, 3, 4], [3, 1, 5], [4, 5, 2]])
    for d in (1, 2, 6):
        slot = slot_map(d)
        assert [slot[j, j] for j in range(d)] == list(range(d))
        for q, (j, k) in enumerate(fvbm.pair_indices(d), start=d):
            assert slot[j, k] == slot[k, j] == q
    with pytest.raises(ValueError):
        slot_map(3)[0, 0] = 7


def test_flat_labels():
    labels = fvbm.flat_labels(["A", "B", "C"])
    assert labels == ["A", "B", "C", "A:B", "A:C", "B:C"]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            arrays(np.float64, fvbm.flat_length(d), elements=st.floats(-1e300, 1e300)),
        )
    )
)
def test_flat_round_trip(shaped_theta):
    d, theta = shaped_theta
    params = fvbm.FvbmParams.from_flat(d, theta)
    np.testing.assert_array_equal(params.to_flat(), theta)
    rebuilt = fvbm.FvbmParams.from_flat(d, params.to_flat())
    np.testing.assert_array_equal(rebuilt.bias, params.bias)
    np.testing.assert_array_equal(rebuilt.interaction, params.interaction)


def test_flat_layout_order():
    params = fvbm.FvbmParams(
        bias=[1.0, 2.0, 3.0],
        interaction=[[0.0, 12.0, 13.0], [12.0, 0.0, 23.0], [13.0, 23.0, 0.0]],
    )
    np.testing.assert_array_equal(params.to_flat(), [1, 2, 3, 12, 13, 23])


def test_params_validation():
    with pytest.raises(ValueError):
        fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        fvbm.FvbmParams(bias=[0.0, 0.0], interaction=[[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        fvbm.FvbmParams(bias=[np.inf, 0.0], interaction=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fvbm.FvbmParams(bias=[0.0], interaction=np.zeros((2, 2)))


def test_params_immutable():
    params = fvbm.FvbmParams.zeros(2)
    with pytest.raises(ValueError):
        params.bias[0] = 1.0


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(11)
    params = random_params(rng, 4, scale=3.0)
    text = jsonio.dumps(params.to_json_dict())
    rebuilt = fvbm.FvbmParams.from_json_dict(jsonio.loads(text))
    np.testing.assert_array_equal(rebuilt.bias, params.bias)
    np.testing.assert_array_equal(rebuilt.interaction, params.interaction)


def test_json_seventeen_digit_floats():
    text = jsonio.dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})


def test_spin_validation():
    with pytest.raises(fvbm.DataError):
        fvbm.as_spin_matrix([[1.0, 0.5]])
    with pytest.raises(fvbm.DataError):
        fvbm.as_spin_matrix(np.empty((0, 3)))
    out = fvbm.as_spin_matrix([[1, -1], [-1, 1]])
    assert out.dtype == np.float64
    with pytest.raises(fvbm.DataError):
        fvbm.as_spin_vector([1.0, 2.0])
