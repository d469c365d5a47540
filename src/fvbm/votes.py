"""Party-level division records: parsing, split resolution, imputation,
and +/-1 agreement encoding.

Input CSV schema: header ``date,number,<party>,<party>,...``; each later
row holds one division with cells from {Yes, No, Split, -, <empty>}
(case-insensitive, whitespace ignored).  A dash or empty cell means no
vote was cast.  Member-level records used to resolve Split cells arrive
as a second CSV with header ``date,number,senator,vote``.

Pipeline order: parse -> resolve splits -> drop sparse columns -> impute
-> encode agreement.  Imputation happens on the Yes/No table, before the
+/-1 encoding.  Every stage is deterministic.
"""

from __future__ import annotations

import csv
import logging
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .params import as_spin_matrix, check_labels

log = logging.getLogger(__name__)


class Vote(Enum):
    YES = "yes"
    NO = "no"
    SPLIT = "split"
    MISSING = "missing"


_TOKENS = {"yes": Vote.YES, "no": Vote.NO, "split": Vote.SPLIT, "-": Vote.MISSING, "": Vote.MISSING}


def _normalize_cell(token: str, row: int, column: str) -> Vote:
    vote = _TOKENS.get(token.strip().lower())
    if vote is None:
        raise DataError(
            f"unknown vote token {token!r} at data row {row}, column {column!r}"
        )
    return vote


def _rows_from(source) -> list[list[str]]:
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))
    return list(csv.reader(source))


@dataclass
class VoteTable:
    """Rectangular table of party-level votes with per-row division metadata."""

    dates: list[str]
    numbers: list[str]
    parties: list[str]
    cells: list[list[Vote]]

    def __post_init__(self) -> None:
        if len(set(self.parties)) != len(self.parties):
            raise DataError("party identifiers must be unique")
        n = len(self.cells)
        if len(self.dates) != n or len(self.numbers) != n:
            raise DataError("per-row metadata must match the number of rows")
        for i, row in enumerate(self.cells):
            if len(row) != len(self.parties):
                raise DataError(
                    f"data row {i + 1} has {len(row)} cells, "
                    f"expected {len(self.parties)}"
                )

    @property
    def n(self) -> int:
        return len(self.cells)

    def column(self, party: str) -> list[Vote]:
        return [row[self.parties.index(party)] for row in self.cells]

    def missing_fraction(self, party: str) -> float:
        col = self.column(party)
        if not col:
            return 0.0
        return sum(v is Vote.MISSING for v in col) / len(col)


def parse_votes(source) -> VoteTable:
    """Read the division CSV into a :class:`VoteTable`."""
    rows = _rows_from(source)
    if not rows:
        raise DataError("votes file is empty")
    header = [h.strip() for h in rows[0]]
    if len(header) < 3:
        raise DataError("votes header must be date,number,<party>,...")
    parties = header[2:]
    dates, numbers, cells = [], [], []
    for i, raw in enumerate(rows[1:], start=1):
        if len(raw) != len(header):
            raise DataError(
                f"data row {i} has {len(raw)} fields, expected {len(header)}"
            )
        dates.append(raw[0].strip())
        numbers.append(raw[1].strip())
        cells.append(
            [_normalize_cell(tok, i, parties[c]) for c, tok in enumerate(raw[2:])]
        )
    return VoteTable(dates=dates, numbers=numbers, parties=parties, cells=cells)


@dataclass
class SplitResolution:
    """Member-level votes for split divisions, keyed by (date, number).

    Senator identifiers are matched case-insensitively.
    """

    records: dict[tuple[str, str], dict[str, Vote]]

    def for_row(self, date: str, number: str) -> dict[str, Vote] | None:
        return self.records.get((date, number))


def parse_split_records(source) -> SplitResolution:
    """Read the member-level CSV (``date,number,senator,vote``)."""
    rows = _rows_from(source)
    if not rows:
        raise DataError("split records file is empty")
    records: dict[tuple[str, str], dict[str, Vote]] = {}
    for i, raw in enumerate(rows[1:], start=1):
        if len(raw) != 4:
            raise DataError(f"split record row {i} must have 4 fields, got {len(raw)}")
        date, number, senator, token = (f.strip() for f in raw)
        vote = _normalize_cell(token, i, "vote")
        if vote is Vote.SPLIT:
            raise DataError(f"split record row {i}: a member vote cannot be 'Split'")
        records.setdefault((date, number), {})[senator.lower()] = vote
    return SplitResolution(records=records)


def _majority(votes: list[Vote]) -> Vote:
    yes = sum(v is Vote.YES for v in votes)
    no = sum(v is Vote.NO for v in votes)
    if yes > no:
        return Vote.YES
    if no > yes:
        return Vote.NO
    return Vote.MISSING


def resolve_splits(
    table: VoteTable,
    resolution: SplitResolution,
    extract_member: str | None = None,
    extract_label: str | None = None,
) -> VoteTable:
    """Replace Split cells by the remaining members' majority vote.

    When ``extract_member`` is given, that member is pulled out as a new
    column appended to the table: their party's vote on rows where the
    party did not split, their own recorded vote on split rows, and
    Missing where no vote is recorded.  The member is excluded from the
    majority computation for their own party, and an exact majority tie
    maps to Missing.
    """
    member = extract_member.lower() if extract_member else None
    split_rows: list[tuple[int, int]] = []
    for r, row in enumerate(table.cells):
        cols = [c for c, v in enumerate(row) if v is Vote.SPLIT]
        if len(cols) > 1:
            raise DataError(
                f"row {r + 1} ({table.dates[r]} #{table.numbers[r]}) has "
                f"multiple split parties; member records cannot be attributed"
            )
        if cols:
            split_rows.append((r, cols[0]))

    member_col: int | None = None
    if member is not None:
        parties_seen = set()
        for r, c in split_rows:
            rec = resolution.for_row(table.dates[r], table.numbers[r])
            if rec and member in rec:
                parties_seen.add(c)
        if not parties_seen:
            raise DataError(
                f"extract member {extract_member!r} appears in no split record"
            )
        if len(parties_seen) > 1:
            names = sorted(table.parties[c] for c in parties_seen)
            raise DataError(
                f"extract member {extract_member!r} appears in splits of "
                f"multiple parties: {names}"
            )
        member_col = parties_seen.pop()

    cells = [list(row) for row in table.cells]
    for r, c in split_rows:
        rec = resolution.for_row(table.dates[r], table.numbers[r])
        if rec is None:
            raise DataError(
                f"split cell at {table.dates[r]} #{table.numbers[r]} "
                f"(party {table.parties[c]!r}) has no member-level records"
            )
        votes = [v for s, v in sorted(rec.items()) if not (c == member_col and s == member)]
        cells[r][c] = _majority(votes)

    parties = list(table.parties)
    if member is not None:
        label = extract_label or extract_member[:4].upper()
        if label in parties:
            raise DataError(f"extract label {label!r} collides with an existing party")
        split_by_row = {r: c for r, c in split_rows}
        for r in range(table.n):
            if split_by_row.get(r) == member_col:
                rec = resolution.for_row(table.dates[r], table.numbers[r]) or {}
                cells[r].append(rec.get(member, Vote.MISSING))
            else:
                cells[r].append(table.cells[r][member_col])
        parties.append(label)

    return VoteTable(
        dates=list(table.dates), numbers=list(table.numbers), parties=parties, cells=cells
    )


def drop_sparse_columns(table: VoteTable, threshold: float = 0.5) -> VoteTable:
    """Remove columns whose fraction of Missing cells exceeds ``threshold``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    keep = [
        c
        for c, party in enumerate(table.parties)
        if table.missing_fraction(party) <= threshold
    ]
    dropped = [p for c, p in enumerate(table.parties) if c not in keep]
    if dropped:
        log.info("dropping sparse column(s): %s", ", ".join(dropped))
    return VoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=[table.parties[c] for c in keep],
        cells=[[row[c] for c in keep] for row in table.cells],
    )


@dataclass(frozen=True)
class ImputeConfig:
    """k-nearest-neighbor imputation settings.

    Distance between rows is the Hamming mismatch count over mutually
    observed columns, normalized by the number of such columns; rows with
    no mutual overlap rank last.  Neighbor ties break by ascending row
    index.  Vote ties among the selected neighbors (possible only for
    even ``k``) break toward the column-wide majority, then by category
    name.
    """

    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


def knn_impute_cells(rows: list[list], k: int) -> list[list]:
    """Generic categorical k-NN imputation; ``None`` marks a missing cell.

    Distances and vote counts are computed on the original observed cells
    only, so the result does not depend on the order in which missing
    cells are visited, and observed cells are never altered.  Categories
    are coded in ``str`` order, so the final tie-break is the lowest code.
    A distance is a ratio of two small integers divided in float64: the
    same double as Python's ``int / int``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = len(rows)
    if n == 0:
        return []
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise DataError("imputation input must be rectangular")
    if k > n - 1:
        raise DataError(f"k={k} needs at least {k + 1} rows, got {n}")
    seen = dict.fromkeys(v for r in rows for v in r if v is not None)
    categories = sorted(seen, key=str)
    code = {cat: c for c, cat in enumerate(categories)}
    codes = np.array(
        [[-1 if v is None else code[v] for v in r] for r in rows], dtype=np.intp
    ).reshape(n, d)
    observed = codes >= 0
    empty = ~observed.any(axis=1)
    if empty.any():
        raise DataError(f"row {np.argmax(empty) + 1} has no observed cells")
    unseen = ~observed.any(axis=0)
    if unseen.any():
        # every row misses that column, so row 1 is the first to ask for it
        raise DataError(
            f"cell at row 1, column {np.argmax(unseen) + 1} has no neighbor "
            f"with that column observed"
        )

    m = len(categories)
    flat = np.nonzero(observed)[1] * m + codes[observed]
    column_counts = np.bincount(flat, minlength=d * m).reshape(d, m)
    result = [list(r) for r in rows]
    for i in np.flatnonzero(~observed.all(axis=1)):
        mutual = observed & observed[i]
        overlap = mutual.sum(axis=1)
        mismatch = (mutual & (codes != codes[i])).sum(axis=1)
        dist = np.full(n, np.inf)
        np.divide(mismatch, overlap, out=dist, where=overlap > 0)
        order = np.argsort(dist, kind="stable")  # row i never votes: its j is missing
        for j in np.flatnonzero(~observed[i]):
            votes = np.bincount(codes[order[observed[order, j]][:k], j], minlength=m)
            best = np.where(votes == votes.max(), column_counts[j], -1)
            result[i][j] = categories[np.argmax(best)]
    return result


def knn_impute(table: VoteTable, config: ImputeConfig | None = None) -> VoteTable:
    """Fill every Missing cell of a split-resolved table."""
    config = config or ImputeConfig()
    for r, row in enumerate(table.cells):
        if any(v is Vote.SPLIT for v in row):
            raise DataError(f"row {r + 1} still contains Split cells; resolve first")
    raw = [[None if v is Vote.MISSING else v for v in row] for row in table.cells]
    filled = knn_impute_cells(raw, config.k)
    return VoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=list(table.parties),
        cells=[list(row) for row in filled],
    )


@dataclass(frozen=True)
class AgreementMatrix:
    """+/-1 agreement-encoded observations with one distinct label per column."""

    labels: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = as_spin_matrix(self.values, allow_empty=True)
        values.setflags(write=False)
        object.__setattr__(self, "labels", check_labels(self.labels, values.shape[1]))
        object.__setattr__(self, "values", values)


def encode_agreement(table: VoteTable, reference: str) -> AgreementMatrix:
    """Encode each non-reference party's agreement with the reference.

    +1 where the party voted with the reference party, -1 where against.
    Requires a complete Yes/No table (resolve and impute first).
    """
    if reference not in table.parties:
        raise DataError(f"reference party {reference!r} not present in the table")
    ref_idx = table.parties.index(reference)
    for r, row in enumerate(table.cells):
        for c, vote in enumerate(row):
            if vote not in (Vote.YES, Vote.NO):
                raise DataError(
                    f"cell at row {r + 1}, column {table.parties[c]!r} is "
                    f"{vote.value!r}; agreement encoding needs a complete table"
                )
    labels = [p for c, p in enumerate(table.parties) if c != ref_idx]
    values = np.empty((table.n, len(labels)))
    for r, row in enumerate(table.cells):
        ref = row[ref_idx]
        out = [1.0 if v is ref else -1.0 for c, v in enumerate(row) if c != ref_idx]
        values[r] = out
    return AgreementMatrix(labels=labels, values=values)


def empirical_proportions(values) -> tuple[np.ndarray, np.ndarray]:
    """Per-column fraction of +1 entries and its binomial standard error."""
    x = as_spin_matrix(values)
    p = (x > 0).mean(axis=0)
    se = np.sqrt(p * (1.0 - p) / x.shape[0])
    return p, se


def spin_matrix_to_json_dict(labels: list[str], values: np.ndarray) -> dict:
    """JSON form of a +/-1 matrix (the CSV layout's sibling format)."""
    x = as_spin_matrix(values, allow_empty=True)
    return {
        "schema_version": 1,
        "labels": check_labels(labels, x.shape[1]),
        "values": [[int(v) for v in row] for row in x],
    }


def spin_matrix_from_json_dict(obj: dict) -> tuple[list[str], np.ndarray]:
    try:
        labels = [str(s) for s in obj["labels"]]
        rows = obj["values"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed spin matrix record: {exc}") from exc
    values = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(labels)))
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise DataError("spin matrix values do not match the label count")
    return labels, as_spin_matrix(values, allow_empty=True)


# Characters that split, quote or end a header field, or that UTF-8 cannot encode.
_UNREADABLE = re.compile('[,"\r\n\x00\ud800-\udfff]')


def _csv_header(labels: list[str]) -> bytes:
    """The header line of a spin CSV, if :func:`read_spin_csv` reads it back
    as ``labels``; otherwise a DataError naming the label that it would not."""
    for label in labels:
        if label != label.strip() or _UNREADABLE.search(label):
            raise DataError(
                f"column label {label!r} would not read back from a spin CSV, whose "
                f"labels hold no comma, quote, line break, NUL or lone surrogate and "
                f"no leading or trailing whitespace"
            )
    if labels == [""]:
        raise DataError("column label '' would not read back from a spin CSV of one column")
    return (",".join(labels) + "\n").encode("utf-8")


def write_spin_csv(path, labels: list[str], values: np.ndarray) -> None:
    """Write a +/-1 matrix as CSV with a label header (deterministic bytes).

    Every cell starts as the bytes ``-1,``; +1 cells drop the ``-`` and the
    last ``,`` of each row becomes a newline, so no cell is a Python string.
    ``labels`` must be one distinct string per column (:func:`check_labels`)
    that the reader gets back as written (:func:`_csv_header`).
    """
    x = as_spin_matrix(values, allow_empty=True)
    header = _csv_header(check_labels(labels, x.shape[1]))
    cells = np.empty(x.shape + (3,), dtype=np.uint8)
    cells[...] = np.frombuffer(b"-1,", dtype=np.uint8)
    cells[:, -1, 2] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, :, 0] = x < 0
    Path(path).write_bytes(header + cells[keep].tobytes())


def _canonical_cells(body: bytes, d: int) -> np.ndarray | None:
    """The cells of a CSV body in :func:`write_spin_csv`'s own form, or None.

    That form is rows of d tokens ``1`` or ``-1``, joined by commas, each
    row ending in a newline.  With only those four byte values present,
    writing each ``-1`` as ``0`` leaves one byte per token, so a body in
    that form becomes exactly d (token, separator) byte pairs per row:
    tokens ``0`` or ``1``, separators d-1 commas and then a newline.  Any
    other body, a stray ``-`` included, breaks that layout.
    """
    if body.translate(None, b"-1,\n"):
        return None
    pairs = np.frombuffer(body.replace(b"-1", b"0"), dtype=np.uint8)
    if pairs.size % (2 * d):
        return None
    pairs = pairs.reshape(-1, d, 2)
    tokens, seps = pairs[..., 0], pairs[..., 1]
    plus = tokens == ord("1")
    if not (
        np.all(plus | (tokens == ord("0")))
        and np.all(seps[:, :-1] == ord(","))
        and np.all(seps[:, -1] == ord("\n"))
    ):
        return None
    return np.where(plus, 1.0, -1.0)


def read_spin_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a +/-1 CSV produced by :func:`write_spin_csv`.

    A file in the writer's own form (an unquoted header, then ``1`` and
    ``-1`` cells and ``\\n`` line ends only) is decoded from its bytes in
    one vectorized pass; ``csv.reader`` would read such a file to the same
    values.  Any other file goes through ``csv.reader``, row by row into
    one packed float buffer: no per-cell Python object outlives its row,
    so a large file leaves no fragmented small-object memory behind in a
    long-running process.
    """
    head, newline, body = Path(path).read_bytes().partition(b"\n")
    if newline and head and not any(c in head for c in b'"\r\x00'):
        try:
            labels = [h.strip() for h in head.decode("utf-8").split(",")]
        except UnicodeDecodeError:
            labels = None
        values = None if labels is None else _canonical_cells(body, len(labels))
        if values is not None:
            return labels, as_spin_matrix(values, allow_empty=True)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"spin CSV {path} is empty")
        labels = [h.strip() for h in header]
        cells = array("d")
        n = 0
        for n, raw in enumerate(reader, start=1):
            if len(raw) != len(labels):
                raise DataError(f"data row {n} has {len(raw)} fields, expected {len(labels)}")
            try:
                cells.extend([float(tok) for tok in raw])
            except ValueError as exc:
                raise DataError(f"non-numeric entry in data row {n}") from exc
    values = np.array(cells, dtype=np.float64).reshape(n, len(labels))
    return labels, as_spin_matrix(values, allow_empty=True)
