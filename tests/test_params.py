"""Parameter container, flat layout, and spin validation."""

import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fvbm
from fvbm import jsonio
from fvbm.params import flat_dimension, slot_map, upper_indices

from oracles import random_params


def test_flat_length():
    assert fvbm.flat_length(1) == 1
    assert fvbm.flat_length(2) == 3
    assert fvbm.flat_length(8) == 36


def test_upper_indices_lexicographic():
    np.testing.assert_array_equal(upper_indices(3), [[0, 0, 1], [1, 2, 2]])
    rows, cols = upper_indices(4)
    np.testing.assert_array_equal([rows[:4], cols[:4]], [[0, 0, 0, 1], [1, 2, 3, 2]])
    with pytest.raises(ValueError):
        rows[0] = 1


def test_slot_map_indexes_the_flat_layout():
    np.testing.assert_array_equal(slot_map(3), [[0, 3, 4], [3, 1, 5], [4, 5, 2]])
    for d in (1, 2, 6):
        slot = slot_map(d)
        assert [slot[j, j] for j in range(d)] == list(range(d))
        for q, (j, k) in enumerate(zip(*upper_indices(d)), start=d):
            assert slot[j, k] == slot[k, j] == q
    with pytest.raises(ValueError):
        slot_map(3)[0, 0] = 7


def test_flat_labels():
    labels = fvbm.flat_labels(["A", "B", "C"])
    assert labels == ["A", "B", "C", "A:B", "A:C", "B:C"]


def test_check_labels_accepts_d_distinct_strings():
    assert fvbm.check_labels(["A", "B"], 2) == ["A", "B"]
    assert fvbm.check_labels(("A", "", "b"), 3) == ["A", "", "b"]


@pytest.mark.parametrize(
    "labels, message",
    [
        (5, "must be a list of strings, got 5"),
        ("AB", "must be a list of strings"),
        (None, "must be a list of strings"),
        ([1, 2], "must be a list of strings"),
        (["A", 3], "must be a list of strings"),
        ({"A": 1, "B": 2}, "must be a list of strings"),
        (["A"], "1 labels for 2 columns"),
        (["A", "B", "C"], "3 labels for 2 columns"),
        (["A", "A"], r"repeats column label\(s\) A"),
    ],
)
def test_check_labels_refuses(labels, message):
    with pytest.raises(fvbm.DataError, match=message):
        fvbm.check_labels(labels, 2)


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
    rebuilt = fvbm.FvbmParams.from_json_dict(json.loads(text))
    np.testing.assert_array_equal(rebuilt.bias, params.bias)
    np.testing.assert_array_equal(rebuilt.interaction, params.interaction)


def test_json_shortest_repr_floats():
    assert jsonio.dumps({"x": 1.0 / 3.0, "p": 1.0}) == '{"x": 0.3333333333333333, "p": 1.0}\n'


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})


class _Text(str):
    pass


_finite_or_not = st.floats(allow_nan=True, allow_infinity=True)
# quotes, backslashes, control and non-ASCII characters, lone surrogates
_escaped = st.text(
    alphabet=st.sampled_from(list('a"\\/\x00\x08\t\n\x1f\x7fé\u2028\ud800\udfff\U0001f600')),
    max_size=6,
)
_strings = st.one_of(st.text(max_size=4), _escaped)
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(list(fvbm.Vote)),
    _strings,
    _strings.map(_Text),
    _finite_or_not,
    _finite_or_not.map(np.float64),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(_finite_or_not, max_size=8),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8).map(tuple),
        st.dictionaries(st.one_of(_strings, _strings.map(_Text)), children, max_size=4),
    ),
    max_leaves=24,
)


def _plain(obj):
    """``obj`` as ``json.loads`` gives it back: float and int subclasses as
    the type they extend, tuples as lists, str subclasses as str, and a high
    surrogate followed by a low one as the code point of the pair."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, str):
        return obj.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return {_plain(k): _plain(v) for k, v in obj.items()}


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, (list, tuple)):
        return all(map(_finite, obj))
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    return True


def _same(a, b) -> bool:
    """Equal trees with equal types, floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(map(_same, a.values(), b.values()))
    return a == b


@settings(max_examples=300, deadline=None)
@given(obj=_json_trees)
def test_json_text_reads_back_bit_for_bit(obj):
    # a non-finite float anywhere refuses the tree; any other tree is one
    # line that reads back with the same types and float bits
    if not _finite(obj):
        with pytest.raises(ValueError):
            jsonio.dumps(obj)
        return
    text = jsonio.dumps(obj)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert _same(json.loads(text), _plain(obj))


@settings(max_examples=200, deadline=None)
@given(obj=_json_trees)
def test_json_load_refuses_exactly_what_dumps_refuses(tmp_path_factory, obj):
    # json.dumps with allow_nan writes every non-finite float as one of the
    # tokens; jsonio.load reads back all and only what jsonio.dumps writes
    path = tmp_path_factory.getbasetemp() / "load-refuses.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    if _finite(obj):
        assert _same(jsonio.load(path), _plain(obj))
    else:
        with pytest.raises(ValueError, match="is not a JSON number"):
            jsonio.load(path)


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 12), elements=st.floats(-1e300, 1e300)))
def test_tolist_writes_the_bytes_of_per_element_floats(values):
    # signed zeros and subnormals included: the JSON writers list arrays
    # with tolist(), as they once did with float() per element
    values = np.concatenate([values, [0.0, -0.0, 5e-324, -2.2250738585072014e-308]])
    assert jsonio.dumps(values.tolist()) == jsonio.dumps([float(v) for v in values])
    spins = np.where(values < 0, -1.0, 1.0).reshape(1, -1)
    listed = [[int(v) for v in row] for row in spins]
    assert jsonio.dumps(spins.astype(np.int64).tolist()) == jsonio.dumps(listed)


def test_spin_validation():
    with pytest.raises(fvbm.DataError):
        fvbm.as_spin_matrix([[1.0, 0.5]])
    with pytest.raises(fvbm.DataError):
        fvbm.as_spin_matrix(np.empty((0, 3)))
    out = fvbm.as_spin_matrix([[1, -1], [-1, 1]])
    assert out.dtype == np.float64


@pytest.mark.parametrize("bad", [0.5, 0.0, 2.0, -1.0000000000000002, np.nan, np.inf, -np.inf])
def test_spin_validation_names_the_first_offending_cell(bad):
    x = np.ones((4, 3))
    x[3, 0] = -bad  # a later cell in row-major order
    x[2, 1] = bad
    with pytest.raises(fvbm.DataError) as refusal:
        fvbm.as_spin_matrix(x)
    assert str(refusal.value) == (
        "spin data must contain only -1/+1; offending cell (row 2, column 1)"
    )


def test_spin_validation_adds_no_float_temporary():
    # two n-by-d boolean masks (0.76 MiB), not np.abs(x)'s float copy (3 MiB)
    x = np.where(np.random.default_rng(5).random((20_000, 20)) < 0.5, 1.0, -1.0)
    tracemalloc.start()
    try:
        assert fvbm.as_spin_matrix(x) is x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.size + 2**16


def test_flat_dimension_inverts_flat_length():
    lengths = {fvbm.flat_length(d): d for d in range(1, 300)}
    for p in range(-3, max(lengths) + 1):
        assert flat_dimension(p) == lengths.get(p)
    d = 10**8 + 7  # 8p + 1 is past 2**53, where a float square root rounds
    assert flat_dimension(fvbm.flat_length(d)) == d
    assert flat_dimension(fvbm.flat_length(d) + 1) is None


@pytest.mark.parametrize("d", [0, -1, 2.9, 2.0, True, "2", None, [2]])
def test_parameter_record_d_must_be_an_integer_of_at_least_one(d):
    # int() would read 2.9, true and "2" as 2, 1 and 2; a d below 1 has no layout
    record = {"d": d, "bias": [0.0, 0.0], "interaction_upper": [0.0]}
    message = f"malformed parameter record: d must be an integer >= 1, got {d!r}"
    with pytest.raises(fvbm.DataError, match=f"^{re.escape(message)}$"):
        fvbm.FvbmParams.from_json_dict(record)
    assert fvbm.FvbmParams.from_json_dict({**record, "d": 2}).d == 2


def test_a_network_of_no_nodes_is_valid():
    assert fvbm.NetworkSpec(nodes=[], edges=[], mode="raw", level=0.05).nodes == []
