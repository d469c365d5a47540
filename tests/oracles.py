"""Independent oracles shared by the test modules.

Everything here is deliberately naive: plain Python loops and textbook
formulas, no reuse of the package's vectorized paths, so agreement is
evidence rather than tautology.
"""

import csv
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np

import fvbm
from fvbm import DataError, FvbmParams


def random_params(rng: np.random.Generator, d: int, scale: float = 1.0) -> FvbmParams:
    bias = rng.uniform(-scale, scale, size=d)
    m = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            m[j, k] = m[k, j] = rng.uniform(-scale, scale)
    return FvbmParams(bias=bias, interaction=m)


def random_spins(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=(n, d))


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


def pair_loop_fit(data, config=None) -> "fvbm.FitResult":
    """Block-MM fit with each pair step recomputing both activation columns.

    The package's sweep updates the activations incrementally; this one
    evaluates every quantity afresh from the current parameters, at
    O(n d^3) per sweep, with the same update order and stopping rule.
    """
    config = config or fvbm.FitConfig()
    x = fvbm.as_spin_matrix(data)
    d = x.shape[1]
    init = config.init or FvbmParams.zeros(d)
    b = init.bias.copy()
    m = init.interaction.copy()
    degenerate = tuple(int(j) for j in np.flatnonzero(np.abs(x.mean(axis=0)) == 1.0))
    trace = [fvbm.log_pseudolikelihood(FvbmParams(b, m), x)]
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_iterations + 1):
        b = b + (x - np.tanh(x @ m + b)).mean(axis=0)
        for j in range(d):
            for k in range(j + 1, d):
                aj = x @ m[:, j] + b[j]
                ak = x @ m[:, k] + b[k]
                step = 0.5 * np.mean(
                    2.0 * x[:, j] * x[:, k]
                    - x[:, k] * np.tanh(aj)
                    - x[:, j] * np.tanh(ak)
                )
                m[j, k] += step
                m[k, j] = m[j, k]
        trace.append(fvbm.log_pseudolikelihood(FvbmParams(b, m), x))
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
