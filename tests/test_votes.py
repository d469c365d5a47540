"""Vote parsing, split resolution, imputation, and agreement encoding."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fvbm
from fvbm import votes as votes_module
from fvbm.cli import main
from fvbm.model import _spins
from fvbm.votes import Vote
from oracles import (
    ListVoteTable,
    canonical_cells,
    cell_parse_votes,
    list_drop_sparse_columns,
    list_encode_agreement,
    list_knn_impute,
    list_read_spin_csv,
    list_resolve_splits,
    loop_write_spin_csv,
    random_params,
    replace_block_plus,
    row_loop_knn_fill,
    traced_peak,
)


def _table(text: str) -> fvbm.VoteTable:
    return fvbm.parse_votes(io.StringIO(text))


def _splits(text: str) -> dict[tuple[str, str], dict[str, Vote]]:
    return fvbm.parse_split_records(io.StringIO(text))


def _column(table: fvbm.VoteTable, party: str) -> list[Vote]:
    return [Vote(v) for v in table.cells[:, table.parties.index(party)].tolist()]


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
    assert table.cells.tolist() == [
        [Vote.NO, Vote.YES, Vote.SPLIT],
        [Vote.MISSING, Vote.YES, Vote.MISSING],
    ]


def test_parse_rejects_ragged_rows():
    with pytest.raises(fvbm.DataError, match="row 1"):
        _table("date,number,P1,P2\n1/1,1,Yes\n")


def test_parse_rejects_unknown_token():
    with pytest.raises(fvbm.DataError, match="P2"):
        _table("date,number,P1,P2\n1/1,1,Yes,Abstain\n")


def test_parse_rejects_duplicate_parties():
    with pytest.raises(fvbm.DataError):
        _table("date,number,P1,P1\n1/1,1,Yes,No\n")


def test_parse_reports_the_first_faulty_row():
    # an unknown token before a later short row, and a short row before a
    # later unknown token
    with pytest.raises(fvbm.DataError, match="unknown vote token 'Abstain' at data row 1"):
        _table("date,number,P1,P2\n1/1,1,Yes,Abstain\n1/1,2,Yes\n")
    with pytest.raises(fvbm.DataError, match="data row 1 has 3 fields"):
        _table("date,number,P1,P2\n1/1,1,Yes\n1/1,2,Yes,Abstain\n")
    with pytest.raises(fvbm.DataError, match="token 'x' at data row 1, column 'P1'"):
        _table("date,number,P1,P2\n1/1,1,x,y\n")


# known tokens four times as likely as unknown ones
_PARSE_TOKENS = ["Yes", "no", " YES ", "Split", "sPlit ", "-", " - ", ""] * 4 + ["Abstain", "y", "-1"]


@settings(max_examples=300, deadline=None)
@given(
    # "P2" and "P2 " strip to one party, which the table refuses
    parties=st.lists(st.sampled_from(["P1", "P2", " P3", "P4", "P2 "]), max_size=4, unique=True),
    rows=st.lists(
        st.tuples(
            st.sampled_from([0] * 12 + [-1, 1]),
            st.lists(st.sampled_from(_PARSE_TOKENS), min_size=1, max_size=6),
        ),
        max_size=8,
    ),
)
def test_parse_votes_matches_the_per_cell_oracle(parties, rows):
    # a row is as wide as the header unless its offset of -1 or +1 makes it
    # short or long; its tokens repeat to fill it
    width = len(parties)
    lines = [",".join(["date", "number", *parties])]
    for r, (offset, tokens) in enumerate(rows):
        cells = (tokens * (width + 1))[: max(width + offset, 0)]
        lines.append(",".join([f"{r}/1", str(r % 3), *cells]))
    text = "\n".join(lines) + "\n"

    def outcome(parse):
        try:
            table = parse(io.StringIO(text))
        except fvbm.DataError as exc:
            return "error", str(exc)
        return table.dates, table.numbers, table.parties, table.cells.tolist()

    assert outcome(fvbm.parse_votes) == outcome(cell_parse_votes)


def test_parse_split_records():
    records = _splits(
        "date,number,senator,vote\n"
        "23/11,1,Burston,No\n"
        "23/11,1,Culleton,No\n"
        "23/11,1,Hanson,Yes\n"
        "23/11,1,Roberts,Yes\n"
    )
    assert records == {
        ("23/11", "1"): {
            "burston": Vote.NO,
            "culleton": Vote.NO,
            "hanson": Vote.YES,
            "roberts": Vote.YES,
        }
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
    phon = _column(resolved, "PHON")
    cull = _column(resolved, "CULL")
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
    assert _column(resolved, "GOV") == _column(table, "GOV")
    assert _column(resolved, "OTH") == _column(table, "OTH")


def test_resolution_majority_without_extraction():
    table = _table(_SPLIT_VOTES)
    resolved = fvbm.resolve_splits(table, _splits(_SPLIT_MEMBERS))
    assert resolved.parties == ["GOV", "PHON", "OTH"]
    # full member majority: {No, No, Yes, Yes} is a tie -> Missing
    assert _column(resolved, "PHON")[0] is Vote.MISSING
    # {No, Yes, No, Missing} -> No
    assert _column(resolved, "PHON")[1] is Vote.NO


def test_resolution_tie_maps_to_missing():
    table = _table("date,number,GOV,P\n1/1,1,Yes,Split\n")
    records = _splits(
        "date,number,senator,vote\n1/1,1,A,Yes\n1/1,1,B,No\n1/1,1,C,Yes\n"
    )
    resolved = fvbm.resolve_splits(table, records, extract_member="C")
    # remaining members {Yes, No} tie -> Missing
    assert _column(resolved, "P")[0] is Vote.MISSING
    assert _column(resolved, "C")[0] is Vote.YES


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


@pytest.mark.parametrize("member", [None, ""])
def test_extract_label_without_a_member_is_refused(member):
    table = _table(_SPLIT_VOTES)
    with pytest.raises(ValueError, match="^extract_label needs extract_member$"):
        fvbm.resolve_splits(
            table, _splits(_SPLIT_MEMBERS), extract_member=member, extract_label="SOLO"
        )


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
    assert np.count_nonzero(table.cells[:, 1] == Vote.MISSING) == 142
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


# rows of "y", "n" and None as Yes, No and Missing votes, and back; the
# other names map the tables of up to 4 categories onto Yes and No
_AS_VOTE = {None: Vote.MISSING, "y": Vote.YES, "yes": Vote.YES, "abstain": Vote.YES,
            "n": Vote.NO, "no": Vote.NO, "absent": Vote.NO}
_AS_LETTER = {Vote.YES: "y", Vote.NO: "n", Vote.MISSING: None}


def _vote_table(rows: list[list]) -> fvbm.VoteTable:
    return fvbm.VoteTable(
        dates=[f"{r}/1" for r in range(len(rows))],
        numbers=["1"] * len(rows),
        parties=[f"P{c}" for c in range(len(rows[0]))],
        cells=[[_AS_VOTE[v] for v in row] for row in rows],
    )


def _impute_letters(rows: list[list], k: int) -> list[list]:
    """``knn_impute`` of rows of "y", "n" and None, read back as letters."""
    filled = fvbm.knn_impute(_vote_table(rows), fvbm.ImputeConfig(k=k))
    return [[_AS_LETTER[v] for v in row] for row in filled.cells.tolist()]


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
    filled = _impute_letters(rows, k=3)
    assert filled[4][1] == "y"
    # everything observed is untouched
    for i in range(4):
        assert filled[i] == rows[i]


def test_knn_no_missing_is_identity():
    rows = [["y", "n"], ["n", "y"], ["y", "y"]]
    assert _impute_letters(rows, k=1) == rows


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
    filled = _impute_letters(rows, k=3)
    for i in range(12):
        for j in range(4):
            if rows[i][j] is not None:
                assert filled[i][j] == rows[i][j]
            else:
                assert filled[i][j] in ("y", "n")


def test_knn_deterministic():
    rows = [["y", None], ["y", "y"], ["n", "n"], ["y", "n"]]
    a = _impute_letters(rows, k=3)
    b = _impute_letters(rows, k=3)
    assert a == b


def test_knn_k_validation():
    rows = [["y", "y"], ["n", None]]
    with pytest.raises(fvbm.DataError):
        _impute_letters(rows, k=3)
    with pytest.raises(ValueError):
        fvbm.ImputeConfig(k=0)


def test_knn_unimputable_cell_error():
    rows = [["y", None], ["y", None], ["n", None]]
    with pytest.raises(fvbm.DataError, match="column 2"):
        _impute_letters(rows, k=1)


def test_knn_all_missing_row_error():
    rows = [[None, None], ["y", "n"], ["y", "y"]]
    with pytest.raises(fvbm.DataError, match="row 1"):
        _impute_letters(rows, k=1)


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
    assert not np.any(complete.cells == Vote.MISSING)
    # nearest rows to row 3 all carry P2 = No
    assert Vote(complete.cells[2, 1]) is Vote.NO


def test_knn_tie_rules():
    # k=1 among three rows at distance 0: the lowest index wins, although
    # the column majority is "y"
    rows = [["y", None], ["y", "n"], ["y", "y"], ["y", "y"]]
    assert _impute_letters(rows, k=1)[0][1] == "n"
    # k=2 splits 1-1 ("n" first): the column majority "y" wins over the
    # first neighbor and over code order
    rows = [["y", None], ["y", "n"], ["y", "y"], ["n", "y"], ["n", "y"]]
    assert _impute_letters(rows, k=2)[0][1] == "y"
    # k=2 splits 1-1 and P2 is 2-2 overall: the lowest code decides, so No
    # beats Yes, which appears first
    table = _table(
        "date,number,P1,P2\n"
        "1/1,1,Yes,-\n"
        "1/1,2,Yes,Yes\n"
        "1/1,3,Yes,No\n"
        "1/1,4,No,Yes\n"
        "1/1,5,No,No\n"
    )
    complete = fvbm.knn_impute(table, fvbm.ImputeConfig(k=2))
    assert Vote(complete.cells[0, 1]) is Vote.NO


def test_knn_cells_reject_k_below_one():
    with pytest.raises(ValueError, match="k must be at least 1"):
        _impute_letters([["y", None], ["y", "n"]], k=0)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
def test_impute_config_refuses_a_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="k must be an int"):
        fvbm.ImputeConfig(k=k)
    with pytest.raises(ValueError, match="k must be an int"):
        _impute_letters([["y", None], ["y", "n"], ["n", "n"]], k)


def _random_cells(rng, n, d, categories, missing):
    values = rng.integers(len(categories), size=(n, d))
    holes = rng.random((n, d)) < missing
    return [
        [None if hole else categories[v] for v, hole in zip(vrow, hrow)]
        for vrow, hrow in zip(values, holes)
    ]


@pytest.mark.parametrize("k", [3, 4])
def test_knn_fill_matches_the_row_loop_at_imputation_scale(k):
    # 10% missing: 1000 rows of 60 columns hold ~6000 cells in many blocks;
    # at 600 rows of 12, _FILL_BLOCK // n = 6 cells is less than a row's 12
    # columns, so the block budget is d
    rng = np.random.default_rng(k)
    for n, d in [(1000, 60), (600, 12)]:
        observed = rng.random((n, d)) >= 0.1
        codes = np.where(observed, rng.integers(2, size=observed.shape), Vote.MISSING)
        codes = codes.astype(np.int8)
        filled = votes_module._knn_fill(codes, observed, k)
        expected = row_loop_knn_fill(codes, observed, k)
        assert filled.dtype == expected.dtype
        np.testing.assert_array_equal(filled, expected)


@st.composite
def cell_tables(draw):
    """Up to 15 rows of up to 6 cells from up to 4 categories, with holes."""
    n, d = draw(st.integers(1, 15)), draw(st.integers(1, 6))
    categories = draw(
        st.lists(
            st.sampled_from(["yes", "no", "abstain", "absent"]), min_size=1, max_size=4, unique=True
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_cells(rng, n, d, categories, draw(st.floats(0.0, 0.8)))


# k=1: every row that observes column 2 has no overlap with row 1, so the
# lowest index wins, although the column's majority is "y"
_ZERO_OVERLAP = [["y", None], [None, "n"], [None, "y"], [None, "y"]]
# k=3: column 2 has one observer, so each vote has one voter
_FEW_OBSERVERS = [["y", "y"], ["n", None], ["y", None], ["n", None]]
# k=1: rows 2 and 3 are at 2/4 and 1/2 from row 1, the same double, so row
# 2 wins by index; ranking 1/2 before 2/4 would choose row 3's "y", and the
# swapped table catches the opposite order
_EQUAL_RATIOS = [
    ["y", "y", "y", "y", None],
    ["n", "n", "y", "y", "n"],
    ["n", "y", None, None, "y"],
]
_EQUAL_RATIOS_SWAPPED = [_EQUAL_RATIOS[0], _EQUAL_RATIOS[2], _EQUAL_RATIOS[1]]


def _fill_outcome(fill, codes, observed, k):
    try:
        filled = fill(codes, observed, k)
    except fvbm.DataError as exc:
        return type(exc), str(exc)
    return filled.dtype, filled.tolist()


@settings(max_examples=300, deadline=None)
@given(
    rows=cell_tables(), k=st.integers(1, 5), budget=st.integers(1, 64), filler=st.integers(-1, 3)
)
@example(rows=_ZERO_OVERLAP, k=1, budget=1, filler=0)
@example(rows=_FEW_OBSERVERS, k=3, budget=1, filler=0)
@example(rows=_EQUAL_RATIOS, k=1, budget=1, filler=0)
@example(rows=_EQUAL_RATIOS_SWAPPED, k=1, budget=1, filler=0)
def test_knn_blocks_match_the_loop_oracles(rows, k, budget, filler):
    # a budget below n gives blocks of about d cells; the codes under
    # missing cells, ``filler``, may be codes that vote
    categories = sorted({v for row in rows for v in row if v is not None})
    codes = np.array(
        [[filler if v is None else categories.index(v) for v in row] for row in rows],
        dtype=np.int8,
    )
    observed = np.array([[v is not None for v in row] for row in rows])
    table = _vote_table(rows)
    listed = ListVoteTable(
        table.dates, table.numbers, table.parties, [[_AS_VOTE[v] for v in row] for row in rows]
    )
    config = fvbm.ImputeConfig(k=k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(votes_module, "_FILL_BLOCK", budget)
        assert _stage_outcome(fvbm.knn_impute, table, config) == _stage_outcome(
            list_knn_impute, listed, config
        )
        assert _fill_outcome(votes_module._knn_fill, codes, observed, k) == _fill_outcome(
            row_loop_knn_fill, codes, observed, k
        )


def test_knn_edge_tables_impute_as_described():
    assert _impute_letters(_ZERO_OVERLAP, 1)[0][1] == "n"
    assert [row[1] for row in _impute_letters(_FEW_OBSERVERS, 3)] == ["y"] * 4
    assert _impute_letters(_EQUAL_RATIOS, 1)[0][4] == "n"
    assert _impute_letters(_EQUAL_RATIOS_SWAPPED, 1)[0][4] == "y"


# ---------------------------------------------------------------------------
# agreement encoding and proportions
# ---------------------------------------------------------------------------


def test_encode_agreement_rules():
    table = _table(
        "date,number,GOV,P1,P2\n"
        "1/1,1,Yes,Yes,No\n"
        "1/1,2,No,Yes,No\n"
    )
    labels, values = fvbm.encode_agreement(table, "GOV")
    assert labels == ["P1", "P2"]
    np.testing.assert_array_equal(values, [[1.0, -1.0], [-1.0, 1.0]])


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
    _, values = fvbm.encode_agreement(table, "GOV")
    disagreements = sum(g != p for g, p in votes)
    assert int((values[:, 0] < 0).sum()) == disagreements


def test_encode_agreement_requires_complete_table():
    table = _table("date,number,GOV,P1\n1/1,1,Yes,-\n")
    with pytest.raises(fvbm.DataError):
        fvbm.encode_agreement(table, "GOV")
    with pytest.raises(fvbm.DataError):
        fvbm.encode_agreement(table, "NOPE")


def test_encode_agreement_gives_the_pair_that_the_spin_csv_reads_back(tmp_path):
    table = _table("date,number,GOV,P1,P2\n1/1,1,Yes,Yes,No\n1/1,2,No,Yes,No\n1/1,3,No,No,No\n")
    labels, values = fvbm.encode_agreement(table, "P1")
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = -1.0
    path = tmp_path / "spins.csv"
    fvbm.write_spin_csv(path, labels, values)
    read_labels, read_values = fvbm.read_spin_csv(path)
    assert read_labels == labels == ["GOV", "P2"]
    assert read_values.dtype == values.dtype and read_values.shape == values.shape
    np.testing.assert_array_equal(read_values, values)


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
    obj = json.loads(fvbm.jsonio.dumps(fvbm.spin_matrix_to_json_dict(["p", "q"], values)))
    assert obj["labels"] == ["p", "q"]
    np.testing.assert_array_equal(np.array(obj["values"], dtype=np.float64), values)


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


def _assert_written_as_loop_oracle(directory, labels, values):
    fvbm.write_spin_csv(directory / "new.csv", labels, values)
    loop_write_spin_csv(directory / "old.csv", labels, values)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()
    read, loaded = fvbm.read_spin_csv(directory / "new.csv")
    assert read == labels
    np.testing.assert_array_equal(loaded, values)


# d up to 70 crosses the writer's 8-column runs at every remainder
@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 30), st.integers(1, 70)),
    seed=st.integers(0, 2**32 - 1),
    label_chars=st.text(alphabet="ab_Zé ", max_size=3),
)
def test_spin_csv_bytes_match_loop_oracle(tmp_path_factory, shape, seed, label_chars):
    values = np.random.default_rng(seed).choice([-1.0, 1.0], size=shape)
    labels = [f"{label_chars}{j}" for j in range(shape[1])]
    directory = tmp_path_factory.mktemp("csv")
    if label_chars != label_chars.lstrip():
        with pytest.raises(fvbm.DataError, match="would not read back"):
            fvbm.write_spin_csv(directory / "new.csv", labels, values)
        return
    _assert_written_as_loop_oracle(directory, labels, values)


@pytest.mark.parametrize("d", [8, 9, 20])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_spin_csv_bytes_match_loop_oracle_at_block_edges(tmp_path, d, extra):
    n = votes_module._WRITE_BLOCK + extra
    values = np.random.default_rng(100 * d + extra).choice([-1.0, 1.0], size=(n, d))
    _assert_written_as_loop_oracle(tmp_path, [f"X{j}" for j in range(d)], values)


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("width", range(1, 9))
def test_cell_table_keys_runs_by_the_state_index_of_their_cells(width, last):
    # bit j of a code is set when cell j is +1, as in the model's state indices
    codes = np.arange(1 << width)
    expected = [
        "".join(f"{int(cell)}," for cell in cells)[:-1] + ("\n" if last else ",")
        for cells in _spins(codes, width)
    ]
    table = votes_module._cell_table(width, last)
    assert [entry.decode() for entry in table] == expected


@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 20])
@pytest.mark.parametrize("n", [0, 1, votes_module._WRITE_BLOCK + 1])
def test_simulate_writes_the_bytes_of_its_sample(tmp_path, d, n):
    # simulate writes from the state indices: the runs of 8 columns at every
    # width, in one block of rows and across two
    params = random_params(np.random.default_rng(700 + d), d, scale=0.5)
    fvbm.jsonio.dump(params.to_json_dict(), tmp_path / "params.json")
    sampled, simulated = tmp_path / "sample.csv", tmp_path / "simulate.csv"
    labels = [f"X{j + 1}" for j in range(d)]
    fvbm.write_spin_csv(sampled, labels, fvbm.sample(params, n, seed=d))
    args = ["simulate", str(tmp_path / "params.json"), "--n", str(n), "--seed", str(d)]
    assert main([*args, "-o", str(simulated)]) == 0
    assert simulated.read_bytes() == sampled.read_bytes()


def test_spin_csv_label_count_mismatch(tmp_path):
    path = tmp_path / "spins.csv"
    with pytest.raises(fvbm.DataError, match="3 labels for 2 columns"):
        fvbm.write_spin_csv(path, ["a", "b", "c"], np.ones((4, 2)))
    with pytest.raises(fvbm.DataError, match="1 labels for 2 columns"):
        fvbm.write_spin_csv(path, ["a"], np.empty((0, 2)))
    assert not path.exists()


@pytest.mark.parametrize(
    "labels, message",
    [(["A", "A", "B"], r"repeats column label\(s\) A"), (["A", "B", 3], "list of strings")],
)
def test_writers_refuse_what_check_labels_refuses(tmp_path, labels, message):
    path = tmp_path / "spins.csv"
    values = np.ones((4, 3))
    with pytest.raises(fvbm.DataError, match=message):
        fvbm.write_spin_csv(path, labels, values)
    assert not path.exists()
    with pytest.raises(fvbm.DataError, match=message):
        fvbm.spin_matrix_to_json_dict(labels, values)


def test_writers_refuse_values_other_than_plus_or_minus_one(tmp_path):
    path = tmp_path / "spins.csv"
    values = np.ones((2, 2))
    values[1, 0] = 0.5
    message = r"only -1/\+1; offending cell \(row 1, column 0\)"
    with pytest.raises(fvbm.DataError, match=message):
        fvbm.write_spin_csv(path, ["a", "b"], values)
    assert not path.exists()
    with pytest.raises(fvbm.DataError, match=message):
        fvbm.spin_matrix_to_json_dict(["a", "b"], values)


_UNREADABLE_LABELS = ["a,b", 'a"b', "a\rb", "a\nb", "a\x00b", " a", "a\t", "\x85a", "\udcff"]


@pytest.mark.parametrize("labels", [["x", label] for label in _UNREADABLE_LABELS] + [[""]])
def test_write_spin_csv_refuses_a_label_it_cannot_read_back(tmp_path, labels):
    path = tmp_path / "spins.csv"
    values = np.ones((2, len(labels)))
    with pytest.raises(fvbm.DataError, match=f"column label {re.escape(repr(labels[-1]))}"):
        fvbm.write_spin_csv(path, labels, values)
    assert not path.exists()
    # JSON records carry any distinct strings
    assert fvbm.spin_matrix_to_json_dict(labels, values)["labels"] == labels


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
    n=st.integers(0, 3),
)
def test_written_labels_are_refused_or_read_back(tmp_path_factory, labels, n):
    path = tmp_path_factory.mktemp("labels") / "spins.csv"
    values = np.ones((n, len(labels)))
    try:
        fvbm.write_spin_csv(path, labels, values)
    except fvbm.DataError:
        assert not path.exists()
        return
    read, loaded = fvbm.read_spin_csv(path)
    assert read == labels
    np.testing.assert_array_equal(loaded, values)


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


_NEAR_CANONICAL = ["0", "11", "1-1", "--1", "-", "", "-11", "1-", "+1", "01"]


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    n=st.integers(0, 6),
    fault=st.sampled_from(
        [None, "token", "short", "long", "blank", "no final newline", "trailing comma"]
    ),
    data=st.data(),
)
def test_read_spin_csv_byte_pass_matches_list_oracle(tmp_path_factory, d, n, fault, data):
    # files in the writer's own form up to one fault, so that both the
    # vectorized byte pass and its csv.reader fallback are exercised
    cells = st.lists(st.sampled_from(["1", "-1"]), min_size=d, max_size=d)
    rows = data.draw(st.lists(cells, min_size=n, max_size=n))
    if fault is not None and rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        if fault == "token":
            rows[i][data.draw(st.integers(0, d - 1))] = data.draw(
                st.sampled_from(_NEAR_CANONICAL)
            )
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["-1"]
        elif fault == "blank":
            rows[i] = []
        elif fault == "trailing comma":
            rows[i] = rows[i] + [""]
    body = "".join(",".join(r) + "\n" for r in rows)
    if fault == "no final newline":
        body = body[:-1]
    header = ",".join(f"c{j}" for j in range(d))
    if fault is None:
        assert canonical_cells(body.encode(), d) is not None
        assert votes_module._block_plus(body.encode(), d) is not None
    path = tmp_path_factory.mktemp("bytes") / "spins.csv"
    path.write_bytes((header + "\n" + body).encode("utf-8"))
    _assert_read_as_list_oracle(path)


def _assert_read_as_list_oracle(path, blocks=(None, 1, 5, 64)):
    """``read_spin_csv`` gives the list oracle's labels and values, or its
    error message, at each read block size in ``blocks``.  The default
    sizes cut the header and rows of a few bytes anywhere; None keeps
    ``_READ_BLOCK``, which reads such a small file at once."""
    try:
        expected = list_read_spin_csv(path)
    except fvbm.DataError as exc:
        expected = exc
    for block in blocks:
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(votes_module, "_READ_BLOCK", block)
            if isinstance(expected, fvbm.DataError):
                with pytest.raises(fvbm.DataError) as raised:
                    fvbm.read_spin_csv(path)
                assert str(raised.value) == str(expected)
                continue
            labels, values = fvbm.read_spin_csv(path)
        assert labels == expected[0]
        assert values.shape == expected[1].shape and values.dtype == np.float64
        np.testing.assert_array_equal(values, expected[1])


@settings(max_examples=400, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.integers(0, 5),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 200),
            st.sampled_from(b"-1,\n\r0+ "),
        ),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_byte_pass_agrees_with_csv_reader_on_mutated_bodies(tmp_path_factory, d, n, edits, data):
    # the byte pass either refuses a mutated body or reads the values that
    # csv.reader reads; it never accepts a file that csv.reader refuses
    cells = st.lists(st.sampled_from(["1", "-1"]), min_size=d, max_size=d)
    rows = data.draw(st.lists(cells, min_size=n, max_size=n))
    body = bytearray("".join(",".join(r) + "\n" for r in rows).encode())
    for op, at, byte in edits:
        at %= len(body) + 1
        if op == "insert":
            body.insert(at, byte)
        elif at < len(body):
            if op == "delete":
                del body[at]
            else:
                body[at] = byte
    header = ",".join(f"c{j}" for j in range(d))
    text = header.encode() + b"\n" + bytes(body)
    fast = canonical_cells(bytes(body), d)
    plus = votes_module._block_plus(bytes(body), d)
    # the position decoder accepts the bodies that the replace decoder, run
    # over the whole body, accepts, with the same cells; that decoder in
    # turn reads what csv.reader reads
    assert (plus is None) == (fast is None)
    if plus is not None:
        np.testing.assert_array_equal(np.where(plus, 1.0, -1.0), fast)
    path = tmp_path_factory.mktemp("mutated") / "spins.csv"
    path.write_bytes(text)
    try:
        expected = list_read_spin_csv(path)
    except fvbm.DataError:
        assert fast is None
    else:
        if fast is not None:
            assert fast.shape == expected[1].shape
            np.testing.assert_array_equal(fast, expected[1])
    _assert_read_as_list_oracle(path)


def test_position_decode_agrees_with_replace_decode_on_single_byte_edits():
    # a deletion, and a substitution and an insertion of each of a set of
    # near-canonical bytes, at 1200 random places of a d=20 body
    d = 20
    values = np.random.default_rng(31).choice([-1.0, 1.0], size=(12, d))
    values[0, 0] = 1.0
    body = b"".join(b",".join(b"1" if v > 0 else b"-1" for v in row) + b"\n" for row in values)
    assert votes_module._block_plus(body, d).tolist() == (values > 0).tolist()
    # the block's first cell has no byte before it, so the last byte is not
    # read as its sign
    edits = [body + b"-"]
    for at in np.random.default_rng(32).integers(0, len(body), size=1200).tolist():
        edits.append(body[:at] + body[at + 1 :])
        for byte in [bytes([b]) for b in b"-1,\n\r0+ "]:
            edits += [body[:at] + byte + body[at + 1 :], body[:at] + byte + body[at:]]
    for mutated in edits:
        plus, oracle = votes_module._block_plus(mutated, d), replace_block_plus(mutated, d)
        assert (plus is None) == (oracle is None), mutated
        if plus is not None:
            assert plus.tolist() == oracle.tolist()
    assert len(edits) == 1 + 1200 * 17


# Faults in the last row of a canonical file: (old bytes, new bytes).
_LAST_ROW_FAULTS = {
    "plus sign": (b"-1,", b"+1,"),
    "zero": (b"-1,", b"0,"),
    "float": (b"-1,", b"-1.0,"),
    "short row": (b"-1,", b""),
    "word": (b"-1,", b"x,"),
    "carriage return": (b"\n", b"\r\n"),
    "no final newline": (b"\n", b""),
}


@pytest.mark.parametrize("fault", _LAST_ROW_FAULTS)
def test_a_fault_in_the_last_block_reads_as_csv_reader(tmp_path, monkeypatch, fault):
    # every block before the last decodes; the last one's fault sends the
    # whole file through csv.reader, which reads it as the list oracle does
    d = 20
    values = np.random.default_rng(len(fault)).choice([-1.0, 1.0], size=(3000, d))
    values[-1, 0] = -1.0
    path = tmp_path / "spins.csv"
    fvbm.write_spin_csv(path, [f"c{j}" for j in range(d)], values)
    text = path.read_bytes()
    start = text.rindex(b"\n", 0, -1) + 1
    old, new = _LAST_ROW_FAULTS[fault]
    last = text[start:].replace(old, new, 1) if old == b"-1," else text[start:-1] + new
    path.write_bytes(text[:start] + last)
    decoded = []
    block_plus = votes_module._block_plus
    monkeypatch.setattr(
        votes_module, "_block_plus", lambda rows, d: decoded.append(block_plus(rows, d)) or decoded[-1]
    )
    _assert_read_as_list_oracle(path, blocks=[None])
    assert len(decoded) > 2 and all(p is not None for p in decoded[:-1]) and decoded[-1] is None


def test_a_file_with_lone_carriage_returns_reads_as_csv_reader(tmp_path):
    # no block holds a newline, so the reads gather, each joined once, into
    # one block at the end; csv.reader then reads the file's rows
    values = np.random.default_rng(9).choice([-1.0, 1.0], size=(3000, 20))
    path = tmp_path / "spins.csv"
    fvbm.write_spin_csv(path, [f"c{j}" for j in range(20)], values)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    assert path.stat().st_size > 2 * votes_module._READ_BLOCK
    with open(path, "rb") as handle:
        assert list(votes_module._row_blocks(handle)) == [path.read_bytes()]
    _assert_read_as_list_oracle(path, blocks=[None, 16])
    np.testing.assert_array_equal(fvbm.read_spin_csv(path)[1], values)


def test_read_spin_csv_holds_its_output_and_one_block(tmp_path):
    # the 20000-by-20 float output (3.05 MiB), one mask byte a cell and one
    # block's bytes; measured 3.44 MiB, 5.17 when the whole file was decoded
    # at once
    values = np.random.default_rng(74).choice([-1.0, 1.0], size=(20000, 20))
    path = tmp_path / "spins.csv"
    fvbm.write_spin_csv(path, [f"c{j}" for j in range(20)], values)
    assert traced_peak(lambda: fvbm.read_spin_csv(path)) < 3.6 * 2**20
    np.testing.assert_array_equal(fvbm.read_spin_csv(path)[1], values)


@pytest.mark.parametrize(
    "text",
    [
        "c0\n1\n-",  # a last token cut short, without a final newline
        "c0\n1\n-1",
        "c0,c1\n1,-1\n-1,-",
        "c0\n\n1\n",
        "c0\n1\n\n",
        "c0,c1\n-1,1\n",
        "c0,c1\n1\n-1\n",  # two short rows that hold 2 tokens in all
        "c0,c1,c2\n1,1\n-1\n1,1,1\n",
    ],
)
def test_read_spin_csv_edge_files_match_list_oracle(tmp_path, text):
    path = tmp_path / "spins.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_read_as_list_oracle(path)


# ---------------------------------------------------------------------------
# the code matrix and the list oracles of its stages
# ---------------------------------------------------------------------------


def test_vote_codes_order_no_before_yes():
    assert [int(v) for v in (Vote.NO, Vote.YES, Vote.SPLIT, Vote.MISSING)] == [0, 1, 2, 3]
    assert sorted([Vote.YES, Vote.NO], key=str) == [Vote.NO, Vote.YES]


def test_vote_table_cells_are_a_read_only_int8_matrix():
    table = _table("date,number,P1,P2\n1/1,1,Yes,-\n1/1,2,Split,No\n")
    assert table.cells.dtype == np.int8 and table.cells.shape == (2, 2)
    assert not table.cells.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.cells[0, 0] = Vote.NO
    assert table.cells.tolist() == [[Vote.YES, Vote.MISSING], [Vote.SPLIT, Vote.NO]]


def test_vote_table_copies_the_matrix_it_is_given():
    given_cells = np.array([[Vote.YES, Vote.NO]])
    table = fvbm.VoteTable(["1/1"], ["1"], ["P1", "P2"], given_cells)
    given_cells[0, 0] = Vote.NO
    assert table.cells.tolist() == [[Vote.YES, Vote.NO]]


@pytest.mark.parametrize(
    "cells",
    [
        [[Vote.YES, Vote.NO], [Vote.YES]],  # ragged
        [[Vote.YES], [Vote.NO]],  # one cell per row for two parties
        np.zeros((2, 3), dtype=np.int8),
        np.zeros((2, 2, 1), dtype=np.int8),
        [[Vote.YES, 4], [Vote.NO, Vote.NO]],
        [[Vote.YES, -1], [Vote.NO, Vote.NO]],
        [[Vote.YES, "yes"], [Vote.NO, Vote.NO]],
        [[Vote.YES, None], [Vote.NO, Vote.NO]],
        np.array([[1.0, 0.5], [0.0, 0.0]]),
    ],
)
def test_vote_table_refuses_cells_of_the_wrong_size_or_values(cells):
    with pytest.raises(fvbm.DataError, match="cells must"):
        fvbm.VoteTable(["1/1", "1/1"], ["1", "2"], ["P1", "P2"], cells)


def test_vote_tables_compare_by_identity():
    text = "date,number,P1\n1/1,1,Yes\n"
    table = _table(text)
    assert table == table
    assert table != _table(text)
    assert np.array_equal(table.cells, _table(text).cells)


def test_header_only_votes_prepare_to_a_header_only_matrix(tmp_path):
    votes = tmp_path / "votes.csv"
    votes.write_text("date,number,GOV,P1,P2\n")
    out = tmp_path / "m.csv"
    assert main(["prepare", str(votes), "--reference", "GOV", "-o", str(out)]) == 0
    assert out.read_text() == "P1,P2\n"
    prov = json.loads((tmp_path / "m.csv.prov.json").read_text())
    assert (prov["rows"], prov["imputed_cells"], prov["dropped_columns"]) == (0, 0, [])


def test_all_missing_column_is_dropped():
    table = _table("date,number,GOV,GONE,P1\n1/1,1,Yes,-,No\n1/1,2,No,,No\n1/1,3,Yes,-,Yes\n")
    assert (table.cells[:, 1] == Vote.MISSING).all()
    kept = fvbm.drop_sparse_columns(table, threshold=0.9)
    assert kept.parties == ["GOV", "P1"]
    assert kept.cells.tolist() == [[1, 0], [0, 0], [1, 1]]
    complete = fvbm.knn_impute(kept, fvbm.ImputeConfig(k=2))
    np.testing.assert_array_equal(
        fvbm.encode_agreement(complete, "GOV")[1], [[-1.0], [1.0], [1.0]]
    )
    # kept at threshold 1, it has no observed cell to impute from
    with pytest.raises(fvbm.DataError, match="column 2 has no neighbor"):
        fvbm.knn_impute(fvbm.drop_sparse_columns(table, threshold=1.0), fvbm.ImputeConfig(k=2))


_CASE_PARTIES = ["GOV", "P1", "P2", "P3"]
_CASE_MEMBERS = ["ann", "bob", "cy", "mo"]


@st.composite
def vote_cases(draw):
    """A random vote table as rows of Vote members, with member records,
    extraction, drop threshold and k.  Columns are Missing at shares of 0
    up to 1, so some are all-missing; split rows have 1-4 members, so
    majorities tie; a few rows split in two parties.  The member "mo" sits
    in party 1 but now and then in another party's split record."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(0, 14)), draw(st.sampled_from([1, 2, 3, 3, 4, 4]))
    split_share = draw(st.sampled_from([0.0, 0.2, 0.4]))
    column_missing = rng.choice([0.0, 0.0, 0.1, 0.3, 0.6, 1.0], size=d)
    column_splits = np.full(d, split_share)
    column_splits[1 % d] *= 2
    cells = []
    for _ in range(n):
        row = [
            Vote.MISSING if rng.random() < column_missing[c] else Vote(rng.integers(2))
            for c in range(d)
        ]
        for c in np.flatnonzero(rng.random(d) < column_splits).tolist()[: 1 + (rng.random() < 0.1)]:
            row[c] = Vote.SPLIT
        cells.append(row)
    records = []
    for r, row in enumerate(cells):
        if (Vote.SPLIT in row and rng.random() < 0.95) or rng.random() < 0.1:
            home = row.index(Vote.SPLIT) == 1 % d if Vote.SPLIT in row else False
            members = rng.permutation(_CASE_MEMBERS[:3])[: rng.integers(1, 4)].tolist()
            if home or rng.random() < 0.03:
                members.append("mo")
            for member in members:
                records.append((f"{r}/1", "1", member, rng.choice(["Yes", "No", "-"])))
    return {
        "parties": _CASE_PARTIES[:d],
        "cells": cells,
        "records": records,
        "extract": draw(st.sampled_from([None, None, None, "mo", "MO", "nobody"])),
        "label": draw(st.sampled_from([None, "SOLO", "SOLO", "P1"])),
        "threshold": draw(st.sampled_from([0.25, 0.5, 0.9, 1.0])),
        "k": draw(st.integers(1, 4)),
    }


def _stage_outcome(stage, *args):
    """What a stage gives: a table's parties and codes, a matrix's labels
    and values, or the type and message of its ValueError (a DataError is one)."""
    try:
        out = stage(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return out[0], out[1].tolist()
    cells = out.cells.tolist() if isinstance(out.cells, np.ndarray) else out.cells
    return out.parties, [[int(v) for v in row] for row in cells]


def _oracle_prepare(case, table, records):
    """Outputs and provenance counts of ``prepare``, from the list oracles."""
    resolved = list_resolve_splits(table, records, case["extract"], case["label"])
    kept = list_drop_sparse_columns(resolved, case["threshold"])
    if "GOV" in resolved.parties and "GOV" not in kept.parties:
        raise fvbm.DataError(
            f"reference party 'GOV' was dropped as sparse: its missing share "
            f"{resolved.missing_fraction('GOV'):.3g} exceeds --drop-threshold {case['threshold']}"
        )
    missing = sum(v is Vote.MISSING for row in kept.cells for v in row)
    complete = list_knn_impute(kept, fvbm.ImputeConfig(k=case["k"]))
    columns, values = list_encode_agreement(complete, "GOV")
    counts = {
        "split_cells_resolved": sum(v is Vote.SPLIT for row in table.cells for v in row),
        "dropped_columns": [p for p in resolved.parties if p not in kept.parties],
        "imputed_cells": missing,
        "columns": columns,
    }
    return (columns, values), counts


@settings(max_examples=300, deadline=None)
@given(case=vote_cases())
def test_array_stages_match_the_list_oracles(tmp_path_factory, case):
    tokens = {Vote.YES: "Yes", Vote.NO: "no", Vote.SPLIT: "Split", Vote.MISSING: "-"}
    directory = tmp_path_factory.mktemp("prepare")
    votes, splits = directory / "votes.csv", directory / "splits.csv"
    rows = [["date", "number", *case["parties"]]]
    rows += [[f"{r}/1", "1", *(tokens[v] for v in row)] for r, row in enumerate(case["cells"])]
    votes.write_text("".join(",".join(row) + "\n" for row in rows))
    splits.write_text(
        "date,number,senator,vote\n" + "".join(",".join(rec) + "\n" for rec in case["records"])
    )
    table, records = fvbm.parse_votes(votes), fvbm.parse_split_records(splits)
    listed = ListVoteTable(table.dates, table.numbers, table.parties, case["cells"])
    assert table.cells.tolist() == case["cells"]

    # stage by stage, on the raw table too, so every refusal is reached
    extract = case["extract"], case["label"]
    assert _stage_outcome(fvbm.resolve_splits, table, records, *extract) == _stage_outcome(
        list_resolve_splits, listed, records, *extract
    )
    assert _stage_outcome(fvbm.drop_sparse_columns, table, case["threshold"]) == _stage_outcome(
        list_drop_sparse_columns, listed, case["threshold"]
    )
    config = fvbm.ImputeConfig(k=case["k"])
    assert _stage_outcome(fvbm.knn_impute, table, config) == _stage_outcome(
        list_knn_impute, listed, config
    )
    assert _stage_outcome(fvbm.encode_agreement, table, "GOV") == _stage_outcome(
        list_encode_agreement, listed, "GOV"
    )

    # the whole command, provenance counts included
    out = directory / "m.csv"
    argv = ["prepare", str(votes), "--splits", str(splits), "--reference", "GOV", "-o", str(out),
            "--k", str(case["k"]), "--drop-threshold", str(case["threshold"])]
    if case["extract"]:
        argv += ["--extract-member", case["extract"]]
    if case["label"]:
        argv += ["--extract-label", case["label"]]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    if case["label"] and not case["extract"]:
        usage = "usage error: --extract-label needs --extract-member\n"
        assert (code, stderr.getvalue()) == (1, usage)
        return
    try:
        (columns, expected), counts = _oracle_prepare(case, listed, records)
    except fvbm.DataError as exc:
        assert (code, stderr.getvalue()) == (2, f"data error: {exc}\n")
        return
    assert code == 0
    labels, values = fvbm.read_spin_csv(out)
    assert labels == columns
    np.testing.assert_array_equal(values, expected)
    prov = json.loads((directory / "m.csv.prov.json").read_text())
    assert {key: prov[key] for key in counts} == counts
