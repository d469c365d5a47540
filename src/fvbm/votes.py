"""Party-level division records: parsing, split resolution, imputation,
and +/-1 agreement encoding.

Input CSV schema: header ``date,number,<party>,<party>,...``; each later
row holds one division with cells from {Yes, No, Split, -, <empty>}
(case-insensitive, whitespace ignored).  A dash or empty cell means no
vote was cast.  Member-level records used to resolve Split cells arrive
as a second CSV with header ``date,number,senator,vote``.

Pipeline order: parse -> resolve splits -> drop sparse columns -> impute
-> encode agreement.  Imputation happens on the Yes/No table, before the
+/-1 encoding.  Every stage is deterministic, and reads and writes the one
int8 matrix of :class:`Vote` codes in ``VoteTable.cells`` as a whole array.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import os
import re
import stat
from array import array
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import DataError
from .params import as_spin_matrix, check_labels

log = logging.getLogger(__name__)


class Vote(IntEnum):
    """A vote as its code in ``VoteTable.cells``; No < Yes is imputation's last tie-break."""

    NO = 0
    YES = 1
    SPLIT = 2
    MISSING = 3


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


@dataclass(eq=False)
class VoteTable:
    """Party-level votes, one row per division, with per-row metadata.

    ``cells`` is a read-only n-by-d int8 matrix of :class:`Vote` codes, one
    column per party.  It may be given as any n-by-d array-like of codes or
    Vote members, such as a list of rows.  Tables compare by identity: the
    generated ``==`` would ask an ndarray for a single truth value.
    """

    dates: list[str]
    numbers: list[str]
    parties: list[str]
    cells: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.parties)) != len(self.parties):
            raise DataError("party identifiers must be unique")
        n, d = len(self.cells), len(self.parties)
        if len(self.dates) != n or len(self.numbers) != n:
            raise DataError("per-row metadata must match the number of rows")
        try:  # a ragged list of rows is a ValueError; no rows at all, shape (0,)
            cells = np.array(self.cells)
            valid = cells.shape in ((n, d), (0,)) and np.isin(cells, list(Vote)).all()
        except ValueError:
            valid = False
        if not valid:
            raise DataError(f"cells must be {n} rows of {d} vote codes 0-3, one per party")
        self.cells = cells.astype(np.int8).reshape(n, d)
        self.cells.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.cells)


def parse_votes(source) -> VoteTable:
    """Read the division CSV into a :class:`VoteTable`, normalizing each
    distinct cell token once; the first faulty row in file order is the error."""
    rows = _rows_from(source)
    if not rows:
        raise DataError("votes file is empty")
    header = [h.strip() for h in rows[0]]
    if len(header) < 3:
        raise DataError("votes header must be date,number,<party>,...")
    parties, body = header[2:], rows[1:]
    tokens = {t for raw in body for t in raw[2:]}
    codes = {t: int(_TOKENS.get(t.strip().lower(), -1)) for t in tokens}  # -1: unknown
    cells = []
    for i, raw in enumerate(body, start=1):
        if len(raw) != len(header):
            raise DataError(
                f"data row {i} has {len(raw)} fields, expected {len(header)}"
            )
        cells.append(row := [codes[t] for t in raw[2:]])
        if -1 in row:  # the row's first unknown token raises
            c = row.index(-1)
            _normalize_cell(raw[2 + c], i, parties[c])
    dates, numbers = [raw[0].strip() for raw in body], [raw[1].strip() for raw in body]
    return VoteTable(dates, numbers, parties, np.array(cells, dtype=np.int8))


def parse_split_records(source) -> dict[tuple[str, str], dict[str, Vote]]:
    """Read the member-level CSV (``date,number,senator,vote``) into
    ``{(date, number): {senator: vote}}``, senators lower-cased so that
    they match case-insensitively."""
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
    return records


def resolve_splits(
    table: VoteTable,
    records: dict[tuple[str, str], dict[str, Vote]],
    extract_member: str | None = None,
    extract_label: str | None = None,
) -> VoteTable:
    """Replace Split cells by the remaining members' majority vote, read
    from the ``records`` of :func:`parse_split_records`.

    When ``extract_member`` is given, that member is pulled out as a new
    column appended to the table: their party's vote on rows where the
    party did not split, their own recorded vote on split rows, and
    Missing where no vote is recorded.  The member is excluded from the
    majority computation for their own party, and an exact majority tie
    maps to Missing.  ``extract_label`` names that column (default the
    member's first four letters, upper-cased); without a member it is a
    ValueError.
    """
    member = extract_member.lower() if extract_member else None
    if extract_label is not None and member is None:
        raise ValueError("extract_label needs extract_member")
    split_rows, split_cols = np.nonzero(table.cells == Vote.SPLIT)
    repeated = split_rows[1:][split_rows[1:] == split_rows[:-1]]
    if repeated.size:
        r = repeated[0]
        raise DataError(
            f"row {r + 1} ({table.dates[r]} #{table.numbers[r]}) has "
            f"multiple split parties; member records cannot be attributed"
        )
    splits = [
        (r, c, records.get((table.dates[r], table.numbers[r])))
        for r, c in zip(split_rows.tolist(), split_cols.tolist())
    ]

    member_col: int | None = None
    if member is not None:
        parties_seen = {c for _, c, rec in splits if rec and member in rec}
        if not parties_seen:
            raise DataError(f"extract member {extract_member!r} appears in no split record")
        if len(parties_seen) > 1:
            names = sorted(table.parties[c] for c in parties_seen)
            raise DataError(
                f"extract member {extract_member!r} appears in splits of "
                f"multiple parties: {names}"
            )
        member_col = parties_seen.pop()

    # the extracted member's column starts as a copy of their party's
    extra = [] if member_col is None else [member_col]
    cells = np.hstack([table.cells, table.cells[:, extra]])
    for r, c, rec in splits:
        if rec is None:
            raise DataError(
                f"split cell at {table.dates[r]} #{table.numbers[r]} "
                f"(party {table.parties[c]!r}) has no member-level records"
            )
        votes = [v for s, v in rec.items() if s != member or c != member_col]
        yes, no = votes.count(Vote.YES), votes.count(Vote.NO)
        cells[r, c] = Vote.YES if yes > no else Vote.NO if no > yes else Vote.MISSING
        if c == member_col:
            cells[r, -1] = rec.get(member, Vote.MISSING)

    parties = list(table.parties)
    if member is not None:
        label = extract_label or extract_member[:4].upper()
        if label in parties:
            raise DataError(f"extract label {label!r} collides with an existing party")
        parties.append(label)

    return VoteTable(
        dates=list(table.dates), numbers=list(table.numbers), parties=parties, cells=cells
    )


def check_drop_threshold(threshold: float) -> None:
    """Refuse a drop threshold outside (0, 1] with a ValueError."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")


def drop_sparse_columns(table: VoteTable, threshold: float = 0.5) -> VoteTable:
    """Remove columns whose fraction of Missing cells exceeds ``threshold``."""
    check_drop_threshold(threshold)
    keep = np.count_nonzero(table.cells == Vote.MISSING, axis=0) / max(table.n, 1) <= threshold
    dropped = [p for p, kept in zip(table.parties, keep) if not kept]
    if dropped:
        log.info("dropping sparse column(s): %s", ", ".join(dropped))
    return VoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=[p for p, kept in zip(table.parties, keep) if kept],
        cells=table.cells[:, keep],
    )


@dataclass(frozen=True)
class ImputeConfig:
    """k-nearest-neighbor imputation settings.

    Distance between rows is the Hamming mismatch count over mutually
    observed columns, normalized by the number of such columns; rows with
    no mutual overlap rank last.  Neighbor ties break by ascending row
    index.  Vote ties among the selected neighbors (possible only for
    even ``k``) break toward the column-wide majority, then to the lowest
    code, so No before Yes.
    """

    k: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"k must be an int, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


# Elements in each n-wide temporary of one block of rows in _knn_fill.
_FILL_BLOCK = 4096


def _knn_fill(codes: np.ndarray, observed: np.ndarray, k: int) -> np.ndarray:
    """``codes`` with each cell outside ``observed`` set by the rules of
    :class:`ImputeConfig`, a final tie going to the lowest code.

    Distances and vote counts use the observed cells only, so the result
    does not depend on the order of the missing cells, and observed cells
    are never altered.  A distance is a ratio of two small integers divided
    in float64: the same double as Python's ``int / int``.

    Incomplete rows go through in blocks of consecutive rows that hold
    about ``max(d, _FILL_BLOCK // n)`` missing cells, so each n-wide
    temporary of a block has about ``max(d * n, _FILL_BLOCK)`` elements and
    a block never holds fewer cells than a row has columns.  For the rows of a block, one product of observed indicators
    and one-hot codes over d*m columns gives (d+1)*overlap + agree against
    every row: exact integer counts of the mutually observed columns and of
    those among them with equal codes.  mismatch/overlap is thus one of
    (d+1)^2 ratios, ranked once with ``np.unique`` (overlap 0 is inf, last);
    equal doubles such as 1/2 and 2/4 share a rank.  ``key = rank * n + row``
    is unique and orders the rows as a stable sort of their distances does:
    by distance, then by row.  For a missing cell (i, j) the rows that lack
    column j get a key above every other, so ``np.argpartition`` finds the
    k smallest keys: the same set of rows as the first k of that stable
    order.  Fewer than k rows may observe j, so a chosen row votes only if
    it does.  The votes of all cells are counted at once after the blocks,
    in O(cells * k * m).  The per-row loop that this replaces, and matches
    bitwise, is the oracle ``row_loop_knn_fill`` in ``tests/oracles.py``.
    """
    n, d = codes.shape
    filled = codes.copy()
    if n == 0:
        return filled
    if k > n - 1:
        raise DataError(f"k={k} needs at least {k + 1} rows, got {n}")
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

    m = int(codes[observed].max()) + 1
    # a row's observed indicators, then the one-hot of its observed codes
    rows, cols = np.nonzero(observed)
    marks = np.zeros((n, d + d * m))
    marks[rows, cols] = 1.0
    marks[rows, d + cols * m + codes[rows, cols]] = 1.0
    column_counts = marks[:, d:].sum(axis=0).reshape(d, m)
    # the distance of each (d+1)*overlap + agree; agree > overlap never occurs
    overlap, agree = np.divmod(np.arange((d + 1) ** 2), d + 1)
    dist = np.full(overlap.shape, np.inf)
    np.divide(overlap - agree, overlap, out=dist, where=overlap > 0)
    rank_key = np.unique(dist, return_inverse=True)[1] * n
    # the row's part of its key for each column: the row, or above every key
    row_key = np.where(observed.T, np.arange(n), rank_key.max() + n)

    cell_rows, cell_cols = np.nonzero(~observed)
    incomplete, at, holes = np.unique(cell_rows, return_inverse=True, return_counts=True)
    ends = np.cumsum(holes)
    block = (ends - holes) // max(d, _FILL_BLOCK // n)
    starts = np.flatnonzero(np.diff(block, prepend=-1))
    near = np.empty((cell_rows.size, k), dtype=np.intp)
    for s, e in zip(starts, [*starts[1:], incomplete.size]):
        cells = slice(ends[s] - holes[s], ends[e - 1])
        scaled = marks[incomplete[s:e]]
        scaled[:, :d] *= d + 1
        key = rank_key[(scaled @ marks.T).astype(np.intp)]
        key = key[at[cells] - s] + row_key[cell_cols[cells]]
        near[cells] = np.argpartition(key, k - 1, axis=1)[:, :k]

    j = cell_cols[:, None]
    voter_codes = np.where(observed[near, j], codes[near, j], -1)  # -1 casts no vote
    votes = np.count_nonzero(voter_codes[:, :, None] == np.arange(m), axis=1)
    tied = votes == votes.max(axis=1, keepdims=True)
    filled[cell_rows, cell_cols] = np.argmax(np.where(tied, column_counts[cell_cols], -1), axis=1)
    return filled


def knn_impute(table: VoteTable, config: ImputeConfig | None = None) -> VoteTable:
    """Fill every Missing cell of a split-resolved table."""
    config = config or ImputeConfig()
    split = (table.cells == Vote.SPLIT).any(axis=1)
    if split.any():
        raise DataError(f"row {np.argmax(split) + 1} still contains Split cells; resolve first")
    return VoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=list(table.parties),
        cells=_knn_fill(table.cells, table.cells != Vote.MISSING, config.k),
    )


def encode_agreement(table: VoteTable, reference: str) -> tuple[list[str], np.ndarray]:
    """Encode each non-reference party's agreement with the reference.

    +1 where the party voted with the reference party, -1 where against.
    Requires a complete Yes/No table (resolve and impute first).  Returns
    the pair that :func:`write_spin_csv` takes and :func:`read_spin_csv`
    returns: the other parties' labels, in table order, and the read-only
    n-by-(d-1) float64 matrix of +/-1 values.
    """
    if reference not in table.parties:
        raise DataError(f"reference party {reference!r} not present in the table")
    if len(table.parties) == 1:
        raise DataError(f"no party besides the reference {reference!r} to encode")
    incomplete = np.argwhere(table.cells > Vote.YES)
    if incomplete.size:
        r, c = incomplete[0]
        raise DataError(
            f"cell at row {r + 1}, column {table.parties[c]!r} is "
            f"{Vote(table.cells[r, c]).name.lower()!r}; agreement encoding needs a complete table"
        )
    ref_idx = table.parties.index(reference)
    others = [c for c in range(len(table.parties)) if c != ref_idx]
    values = np.where(table.cells[:, others] == table.cells[:, [ref_idx]], 1.0, -1.0)
    values.setflags(write=False)
    return [table.parties[c] for c in others], values


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
        "values": x.astype(np.int64).tolist(),
    }


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


# Rows per write: a block's codes, cell bytes and joined text stay a few
# hundred KB at tens of columns, so the whole body is never one temporary.
_WRITE_BLOCK = 2048


@functools.cache
def _cell_table(width: int, last: bool) -> np.ndarray:
    """The bytes of a run of ``width`` cells for each of its 2^width codes.

    A run's code is the state index of its cells: bit j is set when cell j
    is +1, the convention of the state indices in :mod:`fvbm.model`.  A
    cell reads ``1,`` or ``-1,``, except that the run's final cell ends in a
    newline when the run ends its row (``last``).  Built by doubling: each
    cell appends its two forms to every entry so far.  Read-only, as every
    caller shares it.
    """
    entries = [b""]
    for j in range(width):
        forms = (b"-1\n", b"1\n") if last and j == width - 1 else (b"-1,", b"1,")
        entries = [entry + form for form in forms for entry in entries]
    table = np.array(entries, dtype=object)
    table.flags.writeable = False
    return table


def _write_runs(path, labels: list[str], d: int, code_blocks) -> None:
    """Write a spin CSV of ``d`` columns whose rows are given as run codes,
    one array of rows at a time from ``code_blocks`` (deterministic bytes).

    Each row is cut into runs of 8 columns, and run c's code, below 2^w for
    its w columns, is the :func:`_cell_table` key of its cells (bits of the
    :mod:`fvbm.model` state index).  Offset by 256 c, it picks that run's
    cell bytes, so no cell is formatted on its own.  Each array of codes
    goes to the file joined, through one handle.

    ``labels`` must be one distinct string per column (:func:`check_labels`)
    that the reader gets back as written (:func:`_csv_header`).  Both are
    checked before the file is opened, so a refused write leaves no file.
    """
    header = _csv_header(check_labels(labels, d))
    # run c's entries start at 256 c: every run but the last has all 8 columns
    table = np.concatenate([_cell_table(min(8, d - s), s + 8 >= d) for s in range(0, d, 8)])
    offsets = 256 * np.arange((d + 7) // 8)
    with open(path, "wb") as handle:
        handle.write(header)
        for codes in code_blocks:
            handle.write(b"".join(table[codes + offsets].ravel().tolist()))


def write_spin_csv(path, labels: list[str], values: np.ndarray) -> None:
    """Write a +/-1 matrix as CSV with a label header (deterministic bytes).

    The rows go through :func:`_write_runs` ``_WRITE_BLOCK`` at a time, each
    run's code packed from its cells' ``> 0``, column 8c + j in bit j of
    byte c.  ``labels`` are checked as there, after the values.
    """
    x = as_spin_matrix(values, allow_empty=True)
    blocks = (x[start : start + _WRITE_BLOCK] > 0 for start in range(0, len(x), _WRITE_BLOCK))
    codes = (np.packbits(plus, axis=1, bitorder="little") for plus in blocks)
    _write_runs(path, labels, x.shape[1], codes)


def _write_state_csv(path, labels: list[str], states: np.ndarray, d: int) -> None:
    """Write the spin CSV of ``d``-coordinate state indices without making
    their +/-1 rows: the bytes of :func:`write_spin_csv` of those rows.

    Run c holds bits 8c on of a state, and its bits from d up are zero, so
    its code is ``(s >> 8c) & 255``.  The codes go through
    :func:`_write_runs` ``_WRITE_BLOCK`` states at a time.
    """
    shifts = np.arange(0, d, 8)
    starts = range(0, len(states), _WRITE_BLOCK)
    blocks = (states[start : start + _WRITE_BLOCK, None] for start in starts)
    _write_runs(path, labels, d, ((s >> shifts) & 255 for s in blocks))


# Bytes per read of a spin CSV: a block's bytes and masks stay a few hundred
# KB, so the whole file is never one temporary.
_READ_BLOCK = 1 << 16


def _row_blocks(handle):
    """The bytes of ``handle`` in blocks that each end in a newline, then any
    bytes after the last newline, read at most ``_READ_BLOCK`` bytes at a
    time.  Reads of a regular file stop at its size, so a file that fits one
    block is read once, at that size.  The bytes since the last newline are
    joined once, when the next newline or the end comes, so a file with no
    newline (lone ``\\r`` line ends, say) costs time linear in its size."""
    info = os.fstat(handle.fileno())
    left = info.st_size - handle.tell() if stat.S_ISREG(info.st_mode) else math.inf
    carry = []
    while left > 0 and (block := handle.read(min(_READ_BLOCK, left))):
        left -= len(block)
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*carry, block[:cut]])
            carry = [block[cut:]]
        else:
            carry.append(block)
    if rest := b"".join(carry):
        yield rest


def _block_plus(block: bytes, d: int) -> np.ndarray | None:
    """Whether each cell of the rows ``block`` is +1, if they are in
    :func:`write_spin_csv`'s own form; otherwise None.

    That form is rows of d tokens ``1`` or ``-1``, joined by commas, each
    row ending in a newline.  The cells are read off by position: each cell
    is a ``1`` followed by its separator, a comma or, for every d-th cell,
    a newline, and it is -1 where a ``-`` precedes that ``1``.  Those bytes
    are distinct, so the block holds nothing else exactly when its size is
    2 per cell plus 1 per minus sign; a ``1`` in a block's last byte has no
    separator and is not counted, so that block is refused.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    ones = np.flatnonzero(buf[:-1] == ord("1"))
    if ones.size % d:
        return None
    seps = buf[ones + 1].reshape(-1, d)
    if not (np.all(seps[:, :-1] == ord(",")) and np.all(seps[:, -1] == ord("\n"))):
        return None
    minus = buf[ones - 1] == ord("-")
    minus[:1] &= ones[:1] > 0  # a block's first byte has no byte before it
    if buf.size != 2 * ones.size + np.count_nonzero(minus):
        return None
    return ~minus.reshape(-1, d)


def _read_canonical(handle) -> tuple[list[str], np.ndarray] | None:
    """The labels and +/-1 values of a spin CSV in :func:`write_spin_csv`'s
    own form, an unquoted header and then rows that :func:`_block_plus`
    decodes, read from ``handle`` in :func:`_row_blocks`; otherwise None."""
    blocks = _row_blocks(handle)
    head, newline, rows = next(blocks, b"").partition(b"\n")
    if not (newline and head) or any(c in head for c in b'"\r\x00'):
        return None
    try:
        labels = [h.strip() for h in head.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    plus = []
    while rows is not None:
        cells = _block_plus(rows, len(labels))
        if cells is None:
            return None
        plus.append(cells)
        rows = next(blocks, None)
    # the masks, one byte a cell, fill one float64 output, mapped to +/-1 in
    # place: no float temporary, and no check of values the decode proved
    values = np.concatenate(plus, dtype=np.float64)
    values *= 2.0
    values -= 1.0
    return labels, values


def read_spin_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a +/-1 CSV produced by :func:`write_spin_csv`.

    A file in the writer's own form (an unquoted header, then ``1`` and
    ``-1`` cells and ``\\n`` line ends only) is decoded from its bytes in
    blocks of whole rows, read at most ``_READ_BLOCK`` bytes at a time,
    into one float64 output; ``csv.reader`` would read such a file to the
    same values.  Any other file, one whose fault lies in any block
    included, goes through ``csv.reader``, row by row into one packed float
    buffer: no per-cell Python object outlives its row, so a large file
    leaves no fragmented small-object memory behind in a long-running
    process.
    """
    with open(path, "rb") as handle:
        canonical = _read_canonical(handle)
    if canonical is not None:
        return canonical
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
