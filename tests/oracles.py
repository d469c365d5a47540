"""Independent oracles shared by the test modules.

Everything here is deliberately naive: plain Python loops and textbook
formulas, no reuse of the package's vectorized paths, so agreement is
evidence rather than tautology.
"""

import csv
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fvbm
from fvbm import DataError, FvbmParams
from fvbm.fit import MAX_HALVINGS, SOLVE_BLOCK, STEP_LIMIT, _cholesky_solve
from fvbm.inference import CONDITION_LIMIT
from fvbm.model import _log_weights
from fvbm.params import slot_map
from fvbm.pseudolikelihood import _activations, _check_dims, _log_pl, _sech2
from fvbm.votes import ImputeConfig, Vote, _normalize_cell, _rows_from


def random_params(rng: np.random.Generator, d: int, scale: float = 1.0) -> FvbmParams:
    bias = rng.uniform(-scale, scale, size=d)
    m = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            m[j, k] = m[k, j] = rng.uniform(-scale, scale)
    return FvbmParams(bias=bias, interaction=m)


def random_spins(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=(n, d))


@st.composite
def small_spin_tables(draw) -> np.ndarray:
    """Hypothesis strategy: +/-1 tables of 1-4 columns and 1-40 rows, most
    of them separated (no finite maximum pseudolikelihood estimate)."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    return draw(arrays(np.float64, (n, d), elements=st.sampled_from([-1.0, 1.0])))


def correlated_spins(
    rng: np.random.Generator, n: int, d: int, strength: float = 0.6
) -> np.ndarray:
    """Spins sharing one latent normal factor, so every pair is correlated."""
    latent = strength * rng.normal(size=(n, 1)) + rng.normal(size=(n, d))
    return np.where(latent >= 0.0, 1.0, -1.0)


# (d, n) shapes on which the vectorized fit and Hessian meet their oracles.
ORACLE_SHAPES = [(1, 50), (2, 50), (8, 300), (24, 2000)]


def naive_log_pseudolikelihood(theta: np.ndarray, data: np.ndarray, d: int) -> float:
    """Direct double-loop evaluation of the pseudolikelihood objective."""
    b = theta[:d]
    m = np.zeros((d, d))
    q = d
    for j in range(d):
        for k in range(j + 1, d):
            m[j, k] = m[k, j] = theta[q]
            q += 1
    total = 0.0
    for x in data:
        for j in range(d):
            a = float(m[j] @ x + b[j])
            total += x[j] * a - np.logaddexp(a, -a)
    return total


def naive_pseudo_score(theta: np.ndarray, data: np.ndarray, d: int) -> np.ndarray:
    """Direct double-loop gradient of :func:`naive_log_pseudolikelihood`:
    conditional j adds r_j = x_j - tanh(a_j) to b_j, and m_jk gets
    r_j x_k + r_k x_j."""
    b = theta[:d]
    m = np.zeros((d, d))
    q = d
    for j in range(d):
        for k in range(j + 1, d):
            m[j, k] = m[k, j] = theta[q]
            q += 1
    grad = np.zeros(q)
    for x in data:
        r = [x[j] - math.tanh(float(m[j] @ x + b[j])) for j in range(d)]
        q = d
        for j in range(d):
            grad[j] += r[j]
            for k in range(j + 1, d):
                grad[q] += r[j] * x[k] + r[k] * x[j]
                q += 1
    return grad


def naive_state_weights(params: FvbmParams) -> dict[tuple, float]:
    """Unnormalized weights for every configuration, keyed by tuple."""
    weights = {}
    for combo in itertools.product([-1.0, 1.0], repeat=params.d):
        x = np.array(combo)
        weights[combo] = math.exp(
            0.5 * float(x @ params.interaction @ x) + float(x @ params.bias)
        )
    return weights


def naive_pmf(params: FvbmParams) -> dict[tuple, float]:
    weights = naive_state_weights(params)
    z = math.fsum(weights.values())
    return {state: w / z for state, w in weights.items()}


def fd_gradient(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    grad = np.empty_like(x)
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (func(plus) - func(minus)) / (2.0 * h)
    return grad


def fd_jacobian(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a vector function."""
    cols = []
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        cols.append((func(plus) - func(minus)) / (2.0 * h))
    return np.stack(cols, axis=1)


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(expected))), 1e-8)
    return float(np.max(np.abs(actual - expected))) / scale


def row_sweep_fit(data, config=None) -> "fvbm.FitResult":
    """Block-MM fit of Nguyen & Wood (2016), its pair steps batched by rows.

    Each sweep first updates every bias, b_j += mean_i[x_ij - tanh(a_ij)],
    then runs the pairs (j, k) in lexicographic order with

        m_jk += (1/2) mean_i[2 x_ij x_ik - x_ik tanh(a_ij) - x_ij tanh(a_ik)]

    on the freshest values; the objective never decreases.  Row j is the
    pairs (j, j+1), ..., (j, d-1): within it a_k (k > j) is read and moved
    by pair (j, k) alone, so one product t[j+1:] @ x_j gives every cross
    term at the start of the row, and one outer-product add and one tanh
    move a_{j+1}, ..., a_{d-1} at its end.  Only a_j's chain is per pair,
    and its update after the row's last pair is skipped, because a_j is not
    read again in the sweep.  The activations are recomputed in full once
    per sweep, which gives the trace entry and the next bias step.
    """
    config = config or fvbm.FitConfig()
    x = fvbm.as_spin_matrix(data)
    n, d = x.shape

    if config.init is not None:
        if config.init.d != d:
            raise DataError(
                f"initializer has d={config.init.d}, data has {d} columns"
            )
        b = config.init.bias.copy()
        m = config.init.interaction.copy()
    else:
        b = np.zeros(d)
        m = np.zeros((d, d))

    degenerate = tuple(int(j) for j in np.flatnonzero(np.abs(x.mean(axis=0)) == 1.0))
    xt = np.ascontiguousarray(x.T)
    gram = xt @ x
    xrows = list(xt)

    # a holds the activations a_ij = m_j'x_i + b_j, recomputed in full once
    # per sweep; during the pair updates act[j] and t[j] hold a_j and its
    # tanh as contiguous rows, updated incrementally row by row of pairs.
    a = x @ m + b
    trace = [_log_pl(x, a)]
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_iterations + 1):
        step_b = (x - np.tanh(a)).mean(axis=0)
        b = b + step_b
        act = np.ascontiguousarray(a.T) + step_b[:, None]
        t = np.tanh(act)
        for j in range(d - 1):
            rest = slice(j + 1, d)
            act_j, t_j, g_j = act[j], t[j], gram[j]
            cross = t[rest] @ xrows[j]
            steps = []
            for k in range(j + 1, d):
                step = (g_j[k] - 0.5 * (xrows[k] @ t_j + cross[k - j - 1])) / n
                steps.append(step)
                if k < d - 1:
                    act_j += step * xrows[k]
                    np.tanh(act_j, out=t_j)
            steps = np.array(steps)
            m[j, rest] += steps
            m[rest, j] = m[j, rest]
            act[rest] += steps[:, None] * xrows[j]
            np.tanh(act[rest], out=t[rest])
        a = x @ m + b
        trace.append(_log_pl(x, a))
        if abs(trace[-1] - trace[-2]) < config.objective_tolerance:
            converged = True
            break

    return fvbm.FitResult(
        params=FvbmParams(bias=b, interaction=m),
        objective_trace=np.asarray(trace),
        iterations_used=sweeps,
        converged=converged,
        degenerate_columns=degenerate,
    )


def activation_design(x: np.ndarray, l: int) -> np.ndarray:
    """n-by-p matrix whose rows are grad(a_l) per observation."""
    n, d = x.shape
    w = np.zeros((n, d + d * (d - 1) // 2))
    w[:, l] = 1.0
    slot = d
    for j in range(d):
        for k in range(j + 1, d):
            if j == l:
                w[:, slot] = x[:, k]
            elif k == l:
                w[:, slot] = x[:, j]
            slot += 1
    return w


def design_hessian(params: FvbmParams, data: np.ndarray) -> np.ndarray:
    """Pseudolikelihood Hessian as d dense n-by-p design Gram products."""
    x = fvbm.as_spin_matrix(data)
    s = 1.0 / np.cosh(x @ params.interaction + params.bias) ** 2
    h = np.zeros((params.n_params, params.n_params))
    for l in range(params.d):
        w = activation_design(x, l)
        h -= (w * s[:, l : l + 1]).T @ w
    return (h + h.T) / 2.0


def block_hessian(params: FvbmParams, data) -> np.ndarray:
    """Pseudolikelihood Hessian as d scattered d-by-d blocks, O(n d^3).

    With z the data with column l set to 1, conditional l contributes
    -z' diag(s_l) z at rows and columns (b_l, m_lk for k != l); the sum is
    symmetrized by averaging with its transpose.
    """
    x = fvbm.as_spin_matrix(data)
    _check_dims(params, x)
    d = params.d
    slot = slot_map(d)
    s = _sech2(_activations(params, x))
    h = np.zeros((params.n_params, params.n_params))
    z = x.copy()
    for l in range(d):
        z[:, l] = 1.0
        h[np.ix_(slot[l], slot[l])] -= (z * s[:, l : l + 1]).T @ z
        z[:, l] = x[:, l]
    return (h + h.T) / 2.0


def cholesky_newton_step(score: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Solve (-H + lambda I) step = score through a Cholesky factor, with
    the first lambda of 0, 1e-12 max|H|, 1e-11 max|H|, ... that has one."""
    system = -hessian
    scale = float(np.abs(hessian).max()) or 1.0
    ridge = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(
                system + ridge * np.eye(score.size) if ridge else system
            )
            break
        except np.linalg.LinAlgError:
            ridge = 10.0 * ridge if ridge else 1e-12 * scale
    return np.linalg.solve(chol.T, np.linalg.solve(chol, score))


def eye_ridge_newton_step(score: np.ndarray, info: np.ndarray) -> np.ndarray:
    """The Newton step with each ridge added as ``info + ridge * np.eye(p)``,
    a fresh p-by-p sum per retry, then the package's substitutions."""
    ridge = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(info + ridge * np.eye(score.size) if ridge else info)
            break
        except np.linalg.LinAlgError:
            if ridge:
                ridge *= 10.0
            else:
                ridge = 1e-12 * (float(np.abs(info).max()) or 1.0)
    return _cholesky_solve(chol, score)


def cholesky_newton_fit(data, config=None) -> "fvbm.FitResult":
    """Damped Newton fit on the block Hessian, stepping by two triangular
    solves with the Cholesky factor, with the package's stopping rule.

    Each iteration evaluates the score, the Hessian and the objective from
    their own activations.
    """
    config = config or fvbm.FitConfig()
    x = fvbm.as_spin_matrix(data)
    d = x.shape[1]
    if config.init is None:
        params = FvbmParams.zeros(d)
    elif config.init.d != d:
        raise DataError(f"initializer has d={config.init.d}, data has {d} columns")
    else:
        params = config.init

    degenerate = tuple(int(j) for j in np.flatnonzero(np.abs(x.mean(axis=0)) == 1.0))
    theta = params.to_flat()
    trace = [_log_pl(x, _activations(params, x))]
    last_step = None
    stopped = False
    for _ in range(config.max_iterations):
        step = cholesky_newton_step(
            fvbm.pseudo_score(params, x), block_hessian(params, x)
        )
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + step
            if np.all(np.isfinite(candidate)):
                trial = FvbmParams.from_flat(d, candidate)
                value = _log_pl(x, _activations(trial, x))
                if value >= trace[-1]:
                    break
            step *= 0.5
        else:
            break
        theta, params, last_step = candidate, trial, step
        trace.append(value)
        if abs(trace[-1] - trace[-2]) < config.objective_tolerance:
            stopped = True
            break

    converged = (
        stopped and not degenerate and float(np.abs(last_step).max()) <= STEP_LIMIT
    )
    return fvbm.FitResult(
        params=params,
        objective_trace=np.asarray(trace),
        iterations_used=len(trace) - 1,
        converged=converged,
        degenerate_columns=degenerate,
        last_step=last_step,
    )


def loop_knn_impute_cells(rows: list[list], k: int) -> list[list]:
    """Generic categorical k-NN imputation; ``None`` marks a missing cell.

    Distances and vote counts are computed on the original observed cells
    only, so the result does not depend on the order in which missing
    cells are visited, and observed cells are never altered.
    """
    n = len(rows)
    if n == 0:
        return []
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise DataError("imputation input must be rectangular")
    if k > n - 1:
        raise DataError(f"k={k} needs at least {k + 1} rows, got {n}")
    if any(all(v is None for v in r) for r in rows):
        empty = next(i for i, r in enumerate(rows) if all(v is None for v in r))
        raise DataError(f"row {empty + 1} has no observed cells")

    result = [list(r) for r in rows]
    column_counts = [
        Counter(rows[r][c] for r in range(n) if rows[r][c] is not None)
        for c in range(d)
    ]
    for i in range(n):
        for j in range(d):
            if rows[i][j] is not None:
                continue
            candidates = []
            for r in range(n):
                if r == i or rows[r][j] is None:
                    continue
                mutual = [
                    c
                    for c in range(d)
                    if rows[i][c] is not None and rows[r][c] is not None
                ]
                if mutual:
                    dist = sum(rows[i][c] != rows[r][c] for c in mutual) / len(mutual)
                else:
                    dist = math.inf
                candidates.append((dist, r))
            if not candidates:
                raise DataError(
                    f"cell at row {i + 1}, column {j + 1} has no neighbor "
                    f"with that column observed"
                )
            candidates.sort()
            counts = Counter(rows[r][j] for _, r in candidates[:k])
            top = max(counts.values())
            tied = [cat for cat, cnt in counts.items() if cnt == top]
            if len(tied) > 1:
                tied.sort(key=lambda cat: (-column_counts[j][cat], str(cat)))
            result[i][j] = tied[0]
    return result


def row_loop_knn_fill(codes: np.ndarray, observed: np.ndarray, k: int) -> np.ndarray:
    """``votes._knn_fill`` one incomplete row at a time: a length-n distance
    pass and a stable ``argsort`` per row.

    Distances and vote counts use the observed cells only, so the result
    does not depend on the order of the missing cells, and observed cells
    are never altered.  A distance is a ratio of two small integers divided
    in float64: the same double as Python's ``int / int``.
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
    flat = np.nonzero(observed)[1] * m + codes[observed]
    column_counts = np.bincount(flat, minlength=d * m).reshape(d, m)
    for i in np.flatnonzero(~observed.all(axis=1)):
        mutual = observed & observed[i]
        overlap = mutual.sum(axis=1)
        mismatch = (mutual & (codes != codes[i])).sum(axis=1)
        dist = np.full(n, np.inf)
        np.divide(mismatch, overlap, out=dist, where=overlap > 0)
        order = np.argsort(dist, kind="stable")  # row i never votes: its j is missing
        for j in np.flatnonzero(~observed[i]):
            votes = np.bincount(codes[order[observed[order, j]][:k], j], minlength=m)
            filled[i, j] = np.argmax(np.where(votes == votes.max(), column_counts[j], -1))
    return filled


def cell_parse_votes(source) -> "fvbm.VoteTable":
    """``parse_votes`` one cell at a time: each token normalized where it
    stands, each row checked for its field count before its tokens."""
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
            raise DataError(f"data row {i} has {len(raw)} fields, expected {len(header)}")
        dates.append(raw[0].strip())
        numbers.append(raw[1].strip())
        cells.append([_normalize_cell(tok, i, parties[c]) for c, tok in enumerate(raw[2:])])
    return fvbm.VoteTable(dates=dates, numbers=numbers, parties=parties, cells=cells)


@dataclass
class ListVoteTable:
    """The list-of-lists vote table that the list oracles below read and
    write: ``cells`` holds one list of :class:`Vote` members per row."""

    dates: list[str]
    numbers: list[str]
    parties: list[str]
    cells: list[list[Vote]]

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


def _list_majority(votes: list[Vote]) -> Vote:
    yes = sum(v is Vote.YES for v in votes)
    no = sum(v is Vote.NO for v in votes)
    if yes > no:
        return Vote.YES
    if no > yes:
        return Vote.NO
    return Vote.MISSING


def list_resolve_splits(
    table: ListVoteTable,
    records: dict[tuple[str, str], dict[str, Vote]],
    extract_member: str | None = None,
    extract_label: str | None = None,
) -> ListVoteTable:
    """Replace Split cells by the remaining members' majority vote, cell by
    cell (see :func:`fvbm.resolve_splits`)."""
    member = extract_member.lower() if extract_member else None
    if extract_label is not None and member is None:
        raise ValueError("extract_label needs extract_member")
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
            rec = records.get((table.dates[r], table.numbers[r]))
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
        rec = records.get((table.dates[r], table.numbers[r]))
        if rec is None:
            raise DataError(
                f"split cell at {table.dates[r]} #{table.numbers[r]} "
                f"(party {table.parties[c]!r}) has no member-level records"
            )
        votes = [v for s, v in sorted(rec.items()) if not (c == member_col and s == member)]
        cells[r][c] = _list_majority(votes)

    parties = list(table.parties)
    if member is not None:
        label = extract_label or extract_member[:4].upper()
        if label in parties:
            raise DataError(f"extract label {label!r} collides with an existing party")
        split_by_row = {r: c for r, c in split_rows}
        for r in range(table.n):
            if split_by_row.get(r) == member_col:
                rec = records.get((table.dates[r], table.numbers[r])) or {}
                cells[r].append(rec.get(member, Vote.MISSING))
            else:
                cells[r].append(table.cells[r][member_col])
        parties.append(label)

    return ListVoteTable(
        dates=list(table.dates), numbers=list(table.numbers), parties=parties, cells=cells
    )


def list_drop_sparse_columns(table: ListVoteTable, threshold: float = 0.5) -> ListVoteTable:
    """Remove columns whose fraction of Missing cells exceeds ``threshold``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    keep = [
        c
        for c, party in enumerate(table.parties)
        if table.missing_fraction(party) <= threshold
    ]
    return ListVoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=[table.parties[c] for c in keep],
        cells=[[row[c] for c in keep] for row in table.cells],
    )


def list_knn_impute(table: ListVoteTable, config: ImputeConfig | None = None) -> ListVoteTable:
    """Fill every Missing cell of a split-resolved table through
    :func:`loop_knn_impute_cells`."""
    config = config or ImputeConfig()
    for r, row in enumerate(table.cells):
        if any(v is Vote.SPLIT for v in row):
            raise DataError(f"row {r + 1} still contains Split cells; resolve first")
    raw = [[None if v is Vote.MISSING else v for v in row] for row in table.cells]
    filled = loop_knn_impute_cells(raw, config.k)
    return ListVoteTable(
        dates=list(table.dates),
        numbers=list(table.numbers),
        parties=list(table.parties),
        cells=[list(row) for row in filled],
    )


def list_encode_agreement(table: ListVoteTable, reference: str) -> tuple[list[str], np.ndarray]:
    """Encode each non-reference party's agreement with the reference, cell
    by cell (see :func:`fvbm.encode_agreement`)."""
    if reference not in table.parties:
        raise DataError(f"reference party {reference!r} not present in the table")
    if len(table.parties) == 1:
        raise DataError(f"no party besides the reference {reference!r} to encode")
    ref_idx = table.parties.index(reference)
    for r, row in enumerate(table.cells):
        for c, vote in enumerate(row):
            if vote not in (Vote.YES, Vote.NO):
                raise DataError(
                    f"cell at row {r + 1}, column {table.parties[c]!r} is "
                    f"{vote.name.lower()!r}; agreement encoding needs a complete table"
                )
    labels = [p for c, p in enumerate(table.parties) if c != ref_idx]
    values = np.empty((table.n, len(labels)))
    for r, row in enumerate(table.cells):
        ref = row[ref_idx]
        out = [1.0 if v is ref else -1.0 for c, v in enumerate(row) if c != ref_idx]
        values[r] = out
    return labels, values


def block_log_weights(params: FvbmParams, block: int = 1 << 16) -> np.ndarray:
    """Log-weights of all 2^d states from explicit state blocks.

    Each block decodes its state indices to +/-1 rows and evaluates
    0.5 * x'Mx + x'b row by row.
    """
    d = params.d
    total = 1 << d
    logw = np.empty(total)
    for start in range(0, total, block):
        stop = min(start + block, total)
        idx = np.arange(start, stop, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(d)[None, :]) & 1
        states = bits.astype(np.float64) * 2.0 - 1.0
        quad = 0.5 * np.einsum("ij,ij->i", states @ params.interaction, states)
        logw[start:stop] = quad + states @ params.bias
    return logw


def doubling_log_weights(params: FvbmParams) -> np.ndarray:
    """Log-weights of all 2^d states by doubling the table one coordinate
    at a time.

    With the field f_j = b_j + sum_{k<j} m_jk x_k, appending coordinate j
    sets ``logw[2^j + i] = logw[i] + f_j[i]``, then ``logw[i] -= f_j[i]``;
    later fields f_l double alike, into f_l - m_jl and f_l + m_jl.
    """
    d = params.d
    m = params.interaction
    logw = np.zeros(1 << d)
    field = params.bias[:, None].copy()
    for j in range(d):
        half = 1 << j
        f, rest = field[0], field[1:]
        np.add(logw[:half], f, out=logw[half : 2 * half])
        logw[:half] -= f
        coupling = m[j, j + 1 :, None]
        field = np.empty((d - j - 1, 2 * half))
        np.subtract(rest, coupling, out=field[:, :half])
        np.add(rest, coupling, out=field[:, half:])
    return logw


def eager_probabilities(params: FvbmParams) -> np.ndarray:
    """All 2^d probabilities as the eager enumeration made them: the whole
    log-weight product, shifted by its max, exponentiated and normalized in
    place, the bits that ``PmfTable.probabilities`` must keep."""
    w = _log_weights(params)
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    return w


def slice_fixed_sum(table: "fvbm.PmfTable", fixed: dict[int, int]) -> float:
    """Probability that bit j of the state is ``fixed[j]`` for each key j,
    summed over a strided slice of the table reshaped to ``(2,) * d``, which
    has coordinate j on axis d-1-j.
    ``ravel`` keeps the ascending index order a boolean mask selects in."""
    index = [slice(None)] * table.d
    for j, bit in fixed.items():
        if not 0 <= j < table.d:
            raise ValueError(f"coordinate {j} out of range for d={table.d}")
        index[table.d - 1 - j] = bit
    states = table.probabilities.reshape((2,) * table.d)
    return float(states[tuple(index)].ravel().sum())


def _coordinate_signs(table: "fvbm.PmfTable", j: int) -> np.ndarray:
    if not 0 <= j < table.d:
        raise ValueError(f"coordinate {j} out of range for d={table.d}")
    idx = np.arange(1 << table.d)
    return ((idx >> j) & 1).astype(bool)


def mask_marginal_probability(table: "fvbm.PmfTable", j: int) -> float:
    """P(X_j = +1) as the sum of a boolean-masked copy of the table."""
    plus = _coordinate_signs(table, j)
    return float(table.probabilities[plus].sum())


def mask_pairwise_joint(table: "fvbm.PmfTable", j: int, k: int) -> np.ndarray:
    """2x2 joint of (X_j, X_k) from boolean masks, rows and columns (+1, -1)."""
    if j == k:
        raise ValueError("pairwise joint needs two distinct coordinates")
    pj = _coordinate_signs(table, j)
    pk = _coordinate_signs(table, k)
    p = table.probabilities
    return np.array(
        [
            [float(p[pj & pk].sum()), float(p[pj & ~pk].sum())],
            [float(p[~pj & pk].sum()), float(p[~pj & ~pk].sum())],
        ]
    )


def loop_write_spin_csv(path, labels: list[str], values: np.ndarray) -> None:
    """Write a +/-1 matrix as CSV, formatting each cell with ``str(int(v))``."""
    x = fvbm.as_spin_matrix(values, allow_empty=True)
    lines = [",".join(labels)]
    for row in x:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def list_read_spin_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a +/-1 CSV by parsing every row into a list of floats first."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataError(f"spin CSV {path} is empty")
    labels = [h.strip() for h in rows[0]]
    data = []
    for i, raw in enumerate(rows[1:], start=1):
        if len(raw) != len(labels):
            raise DataError(f"data row {i} has {len(raw)} fields, expected {len(labels)}")
        try:
            data.append([float(tok) for tok in raw])
        except ValueError as exc:
            raise DataError(f"non-numeric entry in data row {i}") from exc
    values = np.asarray(data) if data else np.empty((0, len(labels)))
    return labels, fvbm.as_spin_matrix(values, allow_empty=True)


def replace_block_plus(block: bytes, d: int) -> np.ndarray | None:
    """Whether each cell of the rows ``block`` is +1, if they are in
    ``fvbm.write_spin_csv``'s own form, or None, by rewriting each ``-1`` as
    ``0``: the block decoder of the reader before it read cells by position.

    That form is rows of d tokens ``1`` or ``-1``, joined by commas, each
    row ending in a newline.  With only those four byte values present,
    writing each ``-1`` as ``0`` leaves one byte per token, so rows in
    that form become exactly d (token, separator) byte pairs per row.
    """
    if block.translate(None, b"-1,\n"):
        return None
    pairs = np.frombuffer(block.replace(b"-1", b"0"), dtype=np.uint8)
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
    return plus


def canonical_cells(body: bytes, d: int) -> np.ndarray | None:
    """The +/-1 cells of a whole CSV body in ``fvbm.write_spin_csv``'s own
    form, or None, from one pass of :func:`replace_block_plus` over all of
    its bytes: the reader's byte pass before it read in blocks."""
    plus = replace_block_plus(body, d)
    return None if plus is None else np.where(plus, 1.0, -1.0)


def table_sample(params: FvbmParams, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws from a PMF table built from :func:`block_log_weights`
    and normalized here, kept alive with its one sequential 2^d-long CDF
    throughout.

    ``fvbm.sample`` searches no 2^d-long CDF: it finds each target among
    the unnormalized totals of 32-state chunks, then within its chunk, so
    its CDF boundaries differ from these in the last bits.  The draws still
    agree exactly unless a uniform lands within rounding of a CDF boundary,
    which the seeded tests never meet.
    """
    d = params.d
    if n == 0:
        return np.empty((0, d))
    logw = block_log_weights(params)
    w = np.exp(logw - logw.max())
    cdf = np.cumsum(w / math.fsum(w))
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.minimum(idx, (1 << d) - 1)
    bits = (idx[:, None] >> np.arange(d)[None, :]) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def listed_network(report, labels: list[str], mode: str, level: float) -> dict:
    """The network record of :func:`fvbm.build_network`, every node and edge
    field worked out from the report and listed by hand, pair by pair."""
    p = report.p_values if mode == "raw" else report.adjusted_p_values
    d = len(labels)
    biases = [float(b) for b in report.estimates[:d]]
    largest = max(abs(b) for b in biases)
    nodes = []
    for i, label in enumerate(labels):
        if p[i] > level:
            decision = "insignificant"
        else:
            decision = "positive-significant" if biases[i] >= 0 else "negative-significant"
        share = abs(biases[i]) / largest if largest > 0 else 0.0
        opacity = min(max(share, 0.15), 1.0)
        nodes.append({"label": label, "bias": biases[i], "decision": decision, "opacity": opacity})
    edges = []
    slot = d
    for j in range(d):
        for k in range(j + 1, d):
            p_value = float(p[slot])
            thickness = 10.0 if p_value <= 0.0 else min(max(-math.log10(p_value), 0.1), 10.0)
            edges.append(
                {
                    "source": labels[j],
                    "target": labels[k],
                    "sign": -1 if report.estimates[slot] < 0 else 1,
                    "significant": p_value <= level,
                    "thickness": thickness,
                    "p_value": p_value,
                }
            )
            slot += 1
    return {"schema_version": 1, "mode": mode, "level": level, "nodes": nodes, "edges": edges}


def eye_cholesky_inverse(chol: np.ndarray) -> np.ndarray:
    """W'W for W = inv(L) by blocked forward substitution into a separate
    identity, leaving the factor ``chol`` as it was."""
    w = np.eye(len(chol))
    for k in range(0, len(chol), SOLVE_BLOCK):
        rows, cols = slice(k, k + SOLVE_BLOCK), slice(0, k + SOLVE_BLOCK)
        w[rows, cols] = np.linalg.solve(
            chol[rows, rows], w[rows, cols] - chol[rows, :k] @ w[:k, cols]
        )
    return w.T @ w


def eigh_symmetric_inverse(a: np.ndarray, coordinate_names: list[str] | None) -> np.ndarray:
    """inv(a) from a full eigendecomposition, refused (NumericalError) when
    the eigenvalue ratio exceeds 1e12 or is not finite."""
    eigvals, eigvecs = np.linalg.eigh(a)
    absvals = np.abs(eigvals)
    worst = int(np.argmin(absvals))
    cond = np.inf if absvals[worst] == 0.0 else float(absvals.max() / absvals[worst])
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        v = np.abs(eigvecs[:, worst])
        offenders = [int(i) for i in np.flatnonzero(v >= 0.5 * v.max())]
        shown = (
            ", ".join(coordinate_names[i] for i in offenders)
            if coordinate_names
            else ", ".join(str(i) for i in offenders)
        )
        raise fvbm.NumericalError(
            f"information matrix is singular or ill-conditioned "
            f"(condition number {cond:.3g}); near-null direction is carried "
            f"by coordinate(s) {shown}"
        )
    return (eigvecs / eigvals) @ eigvecs.T


def eigh_sandwich_covariance(
    params: FvbmParams, data, coordinate_names: list[str] | None = None
) -> np.ndarray:
    """(1/n) inv(I1) I2 inv(I1), symmetrized, with inv(I1) from
    :func:`eigh_symmetric_inverse`."""
    x = fvbm.as_spin_matrix(data)
    i1_inv = eigh_symmetric_inverse(fvbm.empirical_info_1(params, x), coordinate_names)
    i2 = fvbm.empirical_info_2(params, x)
    cov = i1_inv @ i2 @ i1_inv / x.shape[0]
    return (cov + cov.T) / 2.0


def gram_info_2(params: FvbmParams, data) -> np.ndarray:
    """I2 as one product of the whole n-by-p score matrix."""
    scores = fvbm.per_observation_scores(params, data)
    return scores.T @ scores / scores.shape[0]


# Largest |cov_ij - oracle_ij| / sqrt(oracle_ii oracle_jj) allowed against
# eigh_sandwich_covariance; at most 9.3e-15 was measured on fits of d = 2,
# 8 and 24 with condition numbers of 2-10.
COVARIANCE_RTOL = 1e-13


def relative_covariance_error(cov: np.ndarray, expected: np.ndarray) -> float:
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    return float((np.abs(cov - expected) / scale).max())


def loop_format_report_tables(report: "fvbm.InferenceReport", labels: list[str]) -> str:
    """The report tables with every cell formatted and padded on its own."""
    d = len(fvbm.check_labels(labels, report.d))
    quantities = [
        ("Estimate", report.estimates, lambda v: f"{v:.3f}"),
        ("Std. err.", report.standard_errors, lambda v: f"{v:.3f}"),
        ("z-score", report.z_scores, lambda v: f"{v:.3f}"),
        ("p-value", report.p_values, lambda v: f"{v:.2E}"),
        ("adj. p", report.adjusted_p_values, lambda v: f"{v:.2E}"),
    ]
    width = max(11, max(len(s) for s in labels) + 2)
    head = "".join(f"{s:>{width}}" for s in labels)
    lines = ["A: biases", f"{'':12s}{head}"]
    for name, vec, fmt in quantities:
        row = "".join(f"{fmt(vec[i]):>{width}}" for i in range(d))
        lines.append(f"{name:12s}{row}")
    lines.append("")
    lines.append("B: interactions")
    slot = slot_map(d)
    for name, vec, fmt in quantities:
        lines.append(name)
        lines.append(f"{'':{width}}" + "".join(f"{s:>{width}}" for s in labels[:-1]))
        for r in range(1, d):
            cells = "".join(f"{fmt(v):>{width}}" for v in vec[slot[r, :r]])
            lines.append(f"{labels[r]:>{width}}" + cells)
        lines.append("")
    return "\n".join(lines)


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
