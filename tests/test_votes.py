"""Vote parsing, split resolution, imputation, and agreement encoding."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvbm
from fvbm.votes import Vote
from oracles import list_read_spin_csv, loop_knn_impute_cells, loop_write_spin_csv


def _table(text: str) -> fvbm.VoteTable:
    return fvbm.parse_votes(io.StringIO(text))


def _splits(text: str) -> fvbm.SplitResolution:
    return fvbm.parse_split_records(io.StringIO(text))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_normalizes_tokens():
    table = _table(
        "date,number,P1,P2,P3\n"
        "13/9,2,No,YES ,split\n"
        "14/9,1,-, yes ,\n"
    )
    assert table.parties == ["P1", "P2", "P3"]
    assert table.dates == ["13/9", "14/9"]
    assert table.numbers == ["2", "1"]
    assert table.cells[0] == [Vote.NO, Vote.YES, Vote.SPLIT]
    assert table.cells[1] == [Vote.MISSING, Vote.YES, Vote.MISSING]


def test_parse_rejects_ragged_rows():
    with pytest.raises(fvbm.DataError, match="row 1"):
        _table("date,number,P1,P2\n1/1,1,Yes\n")


def test_parse_rejects_unknown_token():
    with pytest.raises(fvbm.DataError, match="P2"):
        _table("date,number,P1,P2\n1/1,1,Yes,Abstain\n")


def test_parse_rejects_duplicate_parties():
    with pytest.raises(fvbm.DataError):
        _table("date,number,P1,P1\n1/1,1,Yes,No\n")


def test_parse_split_records():
    resolution = _splits(
        "date,number,senator,vote\n"
        "23/11,1,Burston,No\n"
        "23/11,1,Culleton,No\n"
        "23/11,1,Hanson,Yes\n"
        "23/11,1,Roberts,Yes\n"
    )
    record = resolution.for_row("23/11", "1")
    assert record == {
        "burston": Vote.NO,
        "culleton": Vote.NO,
        "hanson": Vote.YES,
        "roberts": Vote.YES,
    }


def test_split_records_reject_split_vote():
    with pytest.raises(fvbm.DataError):
        _splits("date,number,senator,vote\n1/1,1,Who,Split\n")


# ---------------------------------------------------------------------------
# split resolution
# ---------------------------------------------------------------------------

_SPLIT_VOTES = (
    "date,number,GOV,PHON,OTH\n"
    "23/11,1,Yes,Split,No\n"
    "01/12,4,No,Split,Yes\n"
    "02/12,1,Yes,No,Yes\n"
    "03/12,1,No,-,No\n"
)

_SPLIT_MEMBERS = (
    "date,number,senator,vote\n"
    "23/11,1,Burston,No\n"
    "23/11,1,Culleton,No\n"
    "23/11,1,Hanson,Yes\n"
    "23/11,1,Roberts,Yes\n"
    "01/12,4,Burston,No\n"
    "01/12,4,Culleton,Yes\n"
    "01/12,4,Hanson,No\n"
    "01/12,4,Roberts,-\n"
)


def test_resolution_majority_and_extraction():
    table = _table(_SPLIT_VOTES)
    resolved = fvbm.resolve_splits(
        table, _splits(_SPLIT_MEMBERS), extract_member="Culleton"
    )
    assert resolved.parties == ["GOV", "PHON", "OTH", "CULL"]
    phon = resolved.column("PHON")
    cull = resolved.column("CULL")
    # 23/11 #1: remaining members {No, Yes, Yes} -> Yes; Culleton voted No
    assert phon[0] is Vote.YES
    assert cull[0] is Vote.NO
    # 01/12 #4: remaining members {No, No, Missing} -> No; Culleton voted Yes
    assert phon[1] is Vote.NO
    assert cull[1] is Vote.YES
    # non-split rows: extracted member copies the party column
    assert cull[2] is Vote.NO
    assert cull[3] is Vote.MISSING
    # other columns untouched
    assert resolved.column("GOV") == table.column("GOV")
    assert resolved.column("OTH") == table.column("OTH")


def test_resolution_majority_without_extraction():
    table = _table(_SPLIT_VOTES)
    resolved = fvbm.resolve_splits(table, _splits(_SPLIT_MEMBERS))
    assert resolved.parties == ["GOV", "PHON", "OTH"]
    # full member majority: {No, No, Yes, Yes} is a tie -> Missing
    assert resolved.column("PHON")[0] is Vote.MISSING
    # {No, Yes, No, Missing} -> No
    assert resolved.column("PHON")[1] is Vote.NO


def test_resolution_tie_maps_to_missing():
    table = _table("date,number,GOV,P\n1/1,1,Yes,Split\n")
    resolution = _splits(
        "date,number,senator,vote\n1/1,1,A,Yes\n1/1,1,B,No\n1/1,1,C,Yes\n"
    )
    resolved = fvbm.resolve_splits(table, resolution, extract_member="C")
    # remaining members {Yes, No} tie -> Missing
    assert resolved.column("P")[0] is Vote.MISSING
    assert resolved.column("C")[0] is Vote.YES


def test_resolution_missing_records_error():
    table = _table(_SPLIT_VOTES)
    with pytest.raises(fvbm.DataError, match="01/12"):
        fvbm.resolve_splits(
            table,
            _splits(
                "date,number,senator,vote\n"
                "23/11,1,Burston,No\n23/11,1,Culleton,No\n"
                "23/11,1,Hanson,Yes\n23/11,1,Roberts,Yes\n"
            ),
        )


def test_resolution_unknown_member_error():
    table = _table(_SPLIT_VOTES)
    with pytest.raises(fvbm.DataError, match="nobody"):
        fvbm.resolve_splits(table, _splits(_SPLIT_MEMBERS), extract_member="nobody")


def test_extract_label_override():
    table = _table(_SPLIT_VOTES)
    resolved = fvbm.resolve_splits(
        table, _splits(_SPLIT_MEMBERS), extract_member="Culleton", extract_label="SOLO"
    )
    assert resolved.parties[-1] == "SOLO"


# ---------------------------------------------------------------------------
# sparse-column dropping
# ---------------------------------------------------------------------------


def test_drop_sparse_columns():
    rows = ["date,number,KEEP,SPARSE"]
    for i in range(10):
        rows.append(f"1/1,{i},Yes,{'-' if i < 9 else 'Yes'}")
    table = _table("\n".join(rows) + "\n")
    kept = fvbm.drop_sparse_columns(table, threshold=0.5)
    assert kept.parties == ["KEEP"]
    retained = fvbm.drop_sparse_columns(table, threshold=0.95)
    assert retained.parties == ["KEEP", "SPARSE"]


def test_drop_sparse_columns_senate_scale():
    # a column observed on only 5 of 147 divisions goes; a fully observed
    # one stays at the default threshold
    rows = ["date,number,FULL,MOSTLY_GONE"]
    for i in range(147):
        rows.append(f"1/1,{i},Yes,{'Yes' if i < 5 else '-'}")
    table = _table("\n".join(rows) + "\n")
    assert table.missing_fraction("MOSTLY_GONE") == pytest.approx(142 / 147)
    kept = fvbm.drop_sparse_columns(table, threshold=0.5)
    assert kept.parties == ["FULL"]


def test_drop_threshold_validation():
    table = _table("date,number,P\n1/1,1,Yes\n")
    with pytest.raises(ValueError):
        fvbm.drop_sparse_columns(table, threshold=0.0)
    with pytest.raises(ValueError):
        fvbm.drop_sparse_columns(table, threshold=1.5)


# ---------------------------------------------------------------------------
# k-NN imputation
# ---------------------------------------------------------------------------


def test_knn_handcrafted_example():
    # distances to the incomplete row over its two observed columns:
    # row 1 -> 0, row 2 -> 0.5, row 3 -> 1, row 4 -> 0; the three nearest
    # are rows 1, 4, 2 and their middle-column values majority-vote to "y"
    rows = [
        ["y", "y", "y"],
        ["y", "y", "n"],
        ["n", "n", "n"],
        ["y", "n", "y"],
        ["y", None, "y"],
    ]
    filled = fvbm.knn_impute_cells(rows, k=3)
    assert filled[4][1] == "y"
    # everything observed is untouched
    for i in range(4):
        assert filled[i] == rows[i]


def test_knn_no_missing_is_identity():
    rows = [["a", "b"], ["b", "a"], ["a", "a"]]
    assert fvbm.knn_impute_cells(rows, k=1) == rows


def test_knn_never_alters_observed_cells():
    rng = np.random.default_rng(70)
    rows = [
        [("y" if rng.random() < 0.5 else "n") if rng.random() > 0.2 else None
         for _ in range(4)]
        for _ in range(12)
    ]
    for r in rows:
        if all(v is None for v in r):
            r[0] = "y"
    filled = fvbm.knn_impute_cells(rows, k=3)
    for i in range(12):
        for j in range(4):
            if rows[i][j] is not None:
                assert filled[i][j] == rows[i][j]
            else:
                assert filled[i][j] in ("y", "n")


def test_knn_deterministic():
    rows = [["y", None], ["y", "y"], ["n", "n"], ["y", "n"]]
    a = fvbm.knn_impute_cells(rows, k=3)
    b = fvbm.knn_impute_cells(rows, k=3)
    assert a == b


def test_knn_k_validation():
    rows = [["y", "y"], ["n", None]]
    with pytest.raises(fvbm.DataError):
        fvbm.knn_impute_cells(rows, k=3)
    with pytest.raises(ValueError):
        fvbm.ImputeConfig(k=0)


def test_knn_unimputable_cell_error():
    rows = [["y", None], ["y", None], ["n", None]]
    with pytest.raises(fvbm.DataError, match="column 2"):
        fvbm.knn_impute_cells(rows, k=1)


def test_knn_all_missing_row_error():
    rows = [[None, None], ["y", "n"], ["y", "y"]]
    with pytest.raises(fvbm.DataError, match="row 1"):
        fvbm.knn_impute_cells(rows, k=1)


def test_knn_impute_table_requires_resolved_splits():
    table = _table("date,number,P1,P2\n1/1,1,Yes,Split\n1/1,2,Yes,No\n")
    with pytest.raises(fvbm.DataError):
        fvbm.knn_impute(table)


def test_knn_impute_table_end_to_end():
    table = _table(
        "date,number,P1,P2\n"
        "1/1,1,Yes,No\n"
        "1/1,2,Yes,No\n"
        "1/1,3,Yes,-\n"
        "1/1,4,No,Yes\n"
        "1/1,5,Yes,No\n"
    )
    complete = fvbm.knn_impute(table, fvbm.ImputeConfig(k=3))
    assert all(v is not Vote.MISSING for row in complete.cells for v in row)
    # nearest rows to row 3 all carry P2 = No
    assert complete.cells[2][1] is Vote.NO


def test_knn_tie_rules():
    # k=1 among three rows at distance 0: the lowest index wins, although
    # the column majority is "y"
    rows = [["y", None], ["y", "n"], ["y", "y"], ["y", "y"]]
    assert fvbm.knn_impute_cells(rows, k=1)[0][1] == "n"
    # k=2 splits 1-1 ("n" first): the column majority "y" wins over the
    # first neighbor and over name order
    rows = [["y", None], ["y", "n"], ["y", "y"], ["n", "y"], ["n", "y"]]
    assert fvbm.knn_impute_cells(rows, k=2)[0][1] == "y"
    # k=2 splits 1-1 and P2 is 2-2 overall: the category name decides, so
    # "Vote.NO" beats "Vote.YES", which appears first and is defined first
    table = _table(
        "date,number,P1,P2\n"
        "1/1,1,Yes,-\n"
        "1/1,2,Yes,Yes\n"
        "1/1,3,Yes,No\n"
        "1/1,4,No,Yes\n"
        "1/1,5,No,No\n"
    )
    complete = fvbm.knn_impute(table, fvbm.ImputeConfig(k=2))
    assert complete.cells[0][1] is Vote.NO


def test_knn_cells_reject_k_below_one():
    with pytest.raises(ValueError, match="k must be at least 1"):
        fvbm.knn_impute_cells([["y", None], ["y", "n"]], k=0)


def _random_cells(rng, n, d, categories, missing):
    values = rng.integers(len(categories), size=(n, d))
    holes = rng.random((n, d)) < missing
    return [
        [None if hole else categories[v] for v, hole in zip(vrow, hrow)]
        for vrow, hrow in zip(values, holes)
    ]


def _impute_outcome(impute, rows, k):
    try:
        return impute(rows, k)
    except fvbm.DataError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 15),
    d=st.integers(1, 6),
    categories=st.lists(
        st.sampled_from(["yes", "no", "abstain"]), min_size=1, max_size=3, unique=True
    ),
    missing=st.floats(0.0, 0.8),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_knn_matches_loop_oracle(n, d, categories, missing, k, seed):
    rows = _random_cells(np.random.default_rng(seed), n, d, categories, missing)
    assert _impute_outcome(fvbm.knn_impute_cells, rows, k) == _impute_outcome(
        loop_knn_impute_cells, rows, k
    )


@pytest.mark.parametrize("n, k", [(400, 3), (1000, 4)])
def test_knn_matches_loop_oracle_at_stress_size(n, k):
    rows = _random_cells(np.random.default_rng(n), n, 10, [Vote.YES, Vote.NO], 0.1)
    assert fvbm.knn_impute_cells(rows, k) == loop_knn_impute_cells(rows, k)


# ---------------------------------------------------------------------------
# agreement encoding and proportions
# ---------------------------------------------------------------------------


def test_encode_agreement_rules():
    table = _table(
        "date,number,GOV,P1,P2\n"
        "1/1,1,Yes,Yes,No\n"
        "1/1,2,No,Yes,No\n"
    )
    encoded = fvbm.encode_agreement(table, "GOV")
    assert encoded.labels == ["P1", "P2"]
    np.testing.assert_array_equal(encoded.values, [[1.0, -1.0], [-1.0, 1.0]])


def test_encode_agreement_counts_disagreements():
    rng = np.random.default_rng(71)
    n = 30
    lines = ["date,number,GOV,P1"]
    votes = []
    for i in range(n):
        gov = "Yes" if rng.random() < 0.5 else "No"
        p1 = "Yes" if rng.random() < 0.5 else "No"
        votes.append((gov, p1))
        lines.append(f"1/1,{i},{gov},{p1}")
    table = _table("\n".join(lines) + "\n")
    encoded = fvbm.encode_agreement(table, "GOV")
    disagreements = sum(g != p for g, p in votes)
    assert int((encoded.values[:, 0] < 0).sum()) == disagreements


def test_encode_agreement_requires_complete_table():
    table = _table("date,number,GOV,P1\n1/1,1,Yes,-\n")
    with pytest.raises(fvbm.DataError):
        fvbm.encode_agreement(table, "GOV")
    with pytest.raises(fvbm.DataError):
        fvbm.encode_agreement(table, "NOPE")


def test_empirical_proportions():
    values = np.ones((147, 2))
    values[: 147 - 19, 1] = -1.0
    p, se = fvbm.empirical_proportions(values)
    assert p[0] == 1.0
    assert se[0] == 0.0
    assert p[1] == pytest.approx(19 / 147)
    # the familiar binomial standard error at p ~ 0.129, n = 147
    assert se[1] == pytest.approx(math.sqrt((19 / 147) * (128 / 147) / 147), rel=1e-12)
    assert round(float(se[1]), 3) == 0.028


def test_spin_matrix_json_round_trip():
    rng = np.random.default_rng(73)
    values = rng.choice([-1.0, 1.0], size=(5, 2))
    obj = fvbm.spin_matrix_to_json_dict(["p", "q"], values)
    labels, loaded = fvbm.spin_matrix_from_json_dict(obj)
    assert labels == ["p", "q"]
    np.testing.assert_array_equal(loaded, values)
    with pytest.raises(fvbm.DataError):
        fvbm.spin_matrix_from_json_dict({"labels": ["p"], "values": [[1, -1]]})


def test_spin_csv_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    values = rng.choice([-1.0, 1.0], size=(9, 3))
    path = tmp_path / "spins.csv"
    fvbm.write_spin_csv(path, ["a", "b", "c"], values)
    labels, loaded = fvbm.read_spin_csv(path)
    assert labels == ["a", "b", "c"]
    np.testing.assert_array_equal(loaded, values)
    fvbm.write_spin_csv(path, ["a"], np.empty((0, 1)))
    labels, loaded = fvbm.read_spin_csv(path)
    assert labels == ["a"]
    assert loaded.shape == (0, 1)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 30), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    label_chars=st.text(alphabet="ab_Zé ", max_size=3),
)
def test_spin_csv_bytes_match_loop_oracle(tmp_path_factory, shape, seed, label_chars):
    values = np.random.default_rng(seed).choice([-1.0, 1.0], size=shape)
    labels = [f"{label_chars}{j}" for j in range(shape[1])]
    directory = tmp_path_factory.mktemp("csv")
    fvbm.write_spin_csv(directory / "new.csv", labels, values)
    loop_write_spin_csv(directory / "old.csv", labels, values)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def test_spin_csv_label_count_mismatch(tmp_path):
    path = tmp_path / "spins.csv"
    with pytest.raises(fvbm.DataError, match="3 labels for 2 columns"):
        fvbm.write_spin_csv(path, ["a", "b", "c"], np.ones((4, 2)))
    with pytest.raises(fvbm.DataError, match="1 labels for 2 columns"):
        fvbm.write_spin_csv(path, ["a"], np.empty((0, 2)))
    assert not path.exists()


_SPIN_TOKENS = ["1", "-1", " 1", "+1", "1.0", "-1e0", '"1"']
_BAD_TOKENS = ["0", "2", "x", ""]


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(["a", " b", "c ", '"d,e"']), max_size=4),
    n=st.integers(0, 6),
    ending=st.sampled_from(["\n", "\r\n"]),
    fault=st.sampled_from([None, "token", "short", "long", "blank", "empty file"]),
    data=st.data(),
)
def test_read_spin_csv_matches_list_oracle(tmp_path_factory, header, n, ending, fault, data):
    cells = st.lists(st.sampled_from(_SPIN_TOKENS), min_size=len(header), max_size=len(header))
    rows = data.draw(st.lists(cells, min_size=n, max_size=n))
    if fault is not None and rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        if fault == "token" and header:
            rows[i][data.draw(st.integers(0, len(header) - 1))] = data.draw(
                st.sampled_from(_BAD_TOKENS)
            )
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["1"]
        elif fault == "blank":
            rows[i] = []
    lines = [",".join(header)] + [",".join(r) for r in rows]
    if fault == "empty file":
        lines = []
    path = tmp_path_factory.mktemp("read") / "spins.csv"
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
    try:
        expected = list_read_spin_csv(path)
    except fvbm.DataError as exc:
        with pytest.raises(fvbm.DataError) as raised:
            fvbm.read_spin_csv(path)
        assert str(raised.value) == str(exc)
        return
    labels, values = fvbm.read_spin_csv(path)
    assert labels == expected[0]
    assert values.shape == expected[1].shape
    np.testing.assert_array_equal(values, expected[1])
