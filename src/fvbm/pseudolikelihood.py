"""Conditional PMFs, the log-pseudolikelihood, and its derivatives.

The conditional probability of coordinate j given the rest depends only on
the activation a_j = m_j'x + b_j (m_j is column j of the interaction
matrix, whose zero diagonal removes the self term):

    f(x_j | x_(j)) = exp(x_j a_j) / (exp(a_j) + exp(-a_j))
                   = sigmoid(2 x_j a_j).

Summing log f over coordinates and observations gives the
log-pseudolikelihood, which never touches the normalization constant.
Score and Hessian follow from the activations being linear in the
parameters: with t_j = tanh(a_j) and s_j = sech^2(a_j),

    per-observation score    = sum_j (x_j - t_j) * grad(a_j)
    per-observation Hessian  = -sum_j s_j * grad(a_j) grad(a_j)'

where grad(a_j) is 1 at b_j and x_k at m_jk (pair slots touching j).
All derivatives are over the canonical flat layout of ``params``.

Since grad(a_l) is nonzero only on the d slots (b_l, m_lk for k != l),
the Hessian is a sum of d scattered d-by-d blocks.  With z the data with
column l set to 1, conditional l contributes

    -z' diag(s_l) z    at rows and columns (b_l, m_lk for k != l),

so the whole Hessian costs O(n d^3) instead of O(n d p^2) with
p = d + d(d-1)/2.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_matrix, as_spin_vector, slot_map, upper_indices


def _activations(params: FvbmParams, x: np.ndarray) -> np.ndarray:
    """a_ij = m_j'x_i + b_j for every observation and coordinate."""
    return x @ params.interaction + params.bias


def _check_dims(params: FvbmParams, x: np.ndarray) -> None:
    if x.shape[1] != params.d:
        raise DataError(
            f"data has {x.shape[1]} columns, model has {params.d} coordinates"
        )


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + np.exp(-t))
    e = np.exp(t)
    return e / (1.0 + e)


def _sech2(a: np.ndarray) -> np.ndarray:
    # 4 e^{-2|a|} / (1 + e^{-2|a|})^2: exact at 0, underflows cleanly to 0.
    e = np.exp(-2.0 * np.abs(a))
    return 4.0 * e / (1.0 + e) ** 2


def conditional_pmf(params: FvbmParams, x, j: int) -> float:
    """f(x_j | x_(j)) for a single observation.

    The probability of the complementary value is computed as the exact
    complement, so the two conditionals always sum to one.
    """
    x = as_spin_vector(x)
    if x.size != params.d:
        raise DataError(f"observation has {x.size} coordinates, model has {params.d}")
    if not 0 <= j < params.d:
        raise ValueError(f"coordinate {j} out of range for d={params.d}")
    a = float(params.interaction[j] @ x + params.bias[j])
    q = _sigmoid(2.0 * a)
    return q if x[j] > 0 else 1.0 - q


def _log_pl(x: np.ndarray, a: np.ndarray) -> float:
    """The log-pseudolikelihood from data and activations of equal shape.

    Each term is log sigmoid(2xa) = -softplus(z) with z = -2xa, computed in
    place as max(z, 0) + log(1 + exp(-|z|)) with numpy's vectorized exp and
    log.  Against ``np.logaddexp(0, z)`` each term agrees within
    4.5e-16 * max(1, |z|) (2.4e-16 measured over 2e6 points): 1 + exp(-|z|)
    lies in (1, 2], so rounding it costs log at most about 1.1e-16, and the
    final add rounds relative to max(z, 0).  Infinite z gives the same
    limits, inf and 0.
    """
    z = x * a
    z *= -2.0
    pos = np.maximum(z, 0.0)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.log(z, out=z)
    z += pos
    return float(-z.sum())


def log_pseudolikelihood(params: FvbmParams, data) -> float:
    """Sum of log conditional PMFs over all coordinates and observations."""
    x = as_spin_matrix(data)
    _check_dims(params, x)
    return _log_pl(x, _activations(params, x))


def pseudo_score(params: FvbmParams, data) -> np.ndarray:
    """Analytic gradient of the log-pseudolikelihood over the flat layout.

    Each interaction coordinate m_jk collects contributions from both the
    j-th and the k-th conditional term.
    """
    x = as_spin_matrix(data)
    _check_dims(params, x)
    d = params.d
    resid = x - np.tanh(_activations(params, x))
    rows, cols = upper_indices(d)
    cross = resid.T @ x
    return np.concatenate([resid.sum(axis=0), cross[rows, cols] + cross[cols, rows]])


def per_observation_scores(params: FvbmParams, data) -> np.ndarray:
    """n-by-p matrix whose rows are each observation's total score vector.

    Rows sum to :func:`pseudo_score`.
    """
    x = as_spin_matrix(data)
    _check_dims(params, x)
    d = params.d
    slot = slot_map(d)
    resid = x - np.tanh(_activations(params, x))
    scores = np.empty((x.shape[0], params.n_params))
    scores[:, :d] = resid
    # The pairs (j, k > j) of one row fill a contiguous run of slots; filling
    # a run at a time keeps temporaries at n-by-d, not n-by-p.
    for j in range(d - 1):
        run = slice(slot[j, j + 1], slot[j, d - 1] + 1)
        scores[:, run] = resid[:, j : j + 1] * x[:, j + 1 :] + x[:, j : j + 1] * resid[:, j + 1 :]
    return scores


def pseudo_hessian(params: FvbmParams, data) -> np.ndarray:
    """Analytic Hessian of the log-pseudolikelihood (symmetric, p-by-p).

    Built from d scattered d-by-d blocks, one per conditional (see the
    module docstring), in O(n d^3) time.
    """
    x = as_spin_matrix(data)
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
