"""The log-pseudolikelihood and its derivatives.

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
every entry of -H is a sum over conditionals l and observations of s_il
times one of 1, x_ik or x_ik x_im.  A precomputed gather adds them up from

    G = s' W,   W = [1, x, x_j x_k for j < k],   p = d + d(d-1)/2,

at O(n d p), half the cost of d separate d-by-d blocks.  G is one product
per block of observations, with W's rows for the block built in a buffer,
so the n-by-p matrix W is never formed.  Equal or opposite columns of W
then give equal or opposite sums: with identical or mirror-image data
columns the Hessian keeps the exact near-null direction whose tiny
curvature sets the Newton step on such separated data.  An
entry and its mirror sum the same terms in the same order, so the result
is exactly symmetric.  Against the block form, entries differ by rounding
only: at most 1e-12 n in the tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_matrix, flat_length, slot_map, upper_indices


def _activations(params: FvbmParams, x: np.ndarray) -> np.ndarray:
    """a_ij = m_j'x_i + b_j for every observation and coordinate."""
    return x @ params.interaction + params.bias


def _check_dims(params: FvbmParams, x: np.ndarray) -> None:
    if x.shape[1] != params.d:
        raise DataError(
            f"data has {x.shape[1]} columns, model has {params.d} coordinates"
        )


def _sech2(a: np.ndarray) -> np.ndarray:
    # 4 e^{-2|a|} / (1 + e^{-2|a|})^2: exact at 0, underflows cleanly to 0.
    e = np.exp(-2.0 * np.abs(a))
    return 4.0 * e / (1.0 + e) ** 2


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


def _score(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The score from data and activations of equal shape."""
    resid = x - np.tanh(a)
    rows, cols = upper_indices(x.shape[1])
    cross = resid.T @ x
    return np.concatenate([resid.sum(axis=0), cross[rows, cols] + cross[cols, rows]])


def pseudo_score(params: FvbmParams, data) -> np.ndarray:
    """Analytic gradient of the log-pseudolikelihood over the flat layout.

    Each interaction coordinate m_jk collects contributions from both the
    j-th and the k-th conditional term.
    """
    x = as_spin_matrix(data)
    _check_dims(params, x)
    return _score(x, _activations(params, x))


def per_observation_scores(params: FvbmParams, data) -> np.ndarray:
    """n-by-p matrix whose rows are each observation's total score vector.

    Rows sum to :func:`pseudo_score`.  The matrix is the transpose of a
    p-by-n buffer, so that each coordinate's scores are contiguous.
    """
    x = as_spin_matrix(data)
    _check_dims(params, x)
    d = params.d
    slot = slot_map(d)
    xt = np.ascontiguousarray(x.T)
    resid = xt - np.tanh(_activations(params, x).T)
    scores = np.empty((params.n_params, x.shape[0]))
    scores[:d] = resid
    # The pairs (j, k > j) of one row fill a contiguous run of slots; filling
    # a run at a time keeps temporaries at d-by-n, not p-by-n.
    for j in range(d - 1):
        run = slice(slot[j, j + 1], slot[j, d - 1] + 1)
        scores[run] = resid[j] * xt[j + 1 :] + xt[j] * resid[j + 1 :]
    return scores.T


@functools.lru_cache(maxsize=8)
def _hessian_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the p-by-p Hessian and into the transpose of G,
    (1+p)-by-d, for every (l, u, v).  The arrays are cached and read-only.

    Conditional l adds s_il z_u z_v to the entry (slot[l, u], slot[l, v]),
    where z is x with z_l = 1.  z_u z_v is 1 when u == v, the x of the other
    coordinate when one of them is l, and x_u x_v otherwise: W's columns 0,
    1 + slot[k, k] and 1 + slot[u, v].
    """
    p = flat_length(d)
    slot = slot_map(d)
    l, u, v = np.ogrid[:d, :d, :d]
    pair = slot[np.where(u == l, v, u), np.where(v == l, u, v)]
    source = np.where(u == v, 0, 1 + pair) * d + l
    target = (slot[l, u] * p + slot[l, v]).ravel()
    source = source.ravel()
    target.setflags(write=False)
    source.setflags(write=False)
    return target, source


def _information(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The information -H from data and activations of equal shape."""
    n, d = x.shape
    p = flat_length(d)
    rows, cols = upper_indices(d)
    xt = np.ascontiguousarray(x.T)
    s = _sech2(a)
    # Observations per block of the design: enough for an efficient product,
    # few enough that the block (about 256 KB) stays in cache.
    block = max(64, (1 << 15) // (1 + p))
    design = np.empty((1 + p, min(block, n)))
    design[0] = 1.0
    gt = np.zeros((1 + p, d))
    for start in range(0, n, block):
        xb = xt[:, start : start + block]
        w = design[:, : xb.shape[1]]
        w[1 : d + 1] = xb
        pairs = w[d + 1 :]
        np.take(xb, rows, axis=0, out=pairs, mode="clip")  # in range: no buffered copy
        pairs *= xb[cols]
        gt += w @ s[start : start + block]
    target, source = _hessian_gather(d)
    return np.bincount(target, weights=gt.ravel()[source], minlength=p * p).reshape(p, p)


def pseudo_hessian(params: FvbmParams, data) -> np.ndarray:
    """Analytic Hessian of the log-pseudolikelihood (symmetric, p-by-p).

    Gathered from G (see the module docstring) in O(n d p) time.
    """
    x = as_spin_matrix(data)
    _check_dims(params, x)
    h = _information(x, _activations(params, x))
    return np.negative(h, out=h)
