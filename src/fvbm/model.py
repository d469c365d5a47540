"""Exact model evaluation by full-state enumeration.

The probability of a +/-1 configuration ``x`` is

    P(x) = exp(0.5 * x'Mx + x'b) / z,    z = sum over all 2^d states,

so anything exact (the normalization constant, the full PMF table,
marginals, pairwise joints, exact sampling) costs 2^d work.  Operations
that enumerate refuse dimensions above ``ENUMERATION_CAP`` (default 20)
rather than silently blowing up.

State indexing convention, fixed so PMF tables are portable: state index
``i`` encodes coordinate ``j`` (0-based) in bit ``j`` of ``i``, with a set
bit meaning +1.  Index 0 is the all-minus-one state and index 2^d - 1 the
all-plus-one state.

Appending coordinate j to the states of coordinates 0..j-1 doubles the
log-weight table: with the field f_j = b_j + sum_{k<j} m_jk x_k, set
``logw[2^j + i] = logw[i] + f_j[i]``, then ``logw[i] -= f_j[i]``.  Later
fields f_l double alike, into f_l - m_jl and f_l + m_jl.  One 2^d vector
(8 MB at d=20) is filled in place; the fields add at most 2^d entries.
Reshaped to ``(2,) * d``, a table has coordinate j on axis d-1-j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_vector

ENUMERATION_CAP = 20


def _check_cap(d: int, cap: int) -> None:
    if d > cap:
        raise DataError(
            f"enumeration over 2^{d} states exceeds the cap of d<={cap}; "
            f"raise the cap explicitly if you really want this"
        )


def _spins(idx, d: int) -> np.ndarray:
    """+/-1 configurations of state indices: bit j of each index is coordinate j."""
    bits = (np.asarray(idx)[..., None] >> np.arange(d)) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def index_state(i: int, d: int) -> np.ndarray:
    """Spin configuration for a state index under the canonical convention."""
    if not 0 <= i < (1 << d):
        raise ValueError(f"state index {i} out of range for d={d}")
    return _spins(i, d)


def state_index(x) -> int:
    """Inverse of :func:`index_state`."""
    x = as_spin_vector(x)
    return int(sum(1 << j for j in range(x.size) if x[j] > 0))


def _log_weights(params: FvbmParams, cap: int) -> np.ndarray:
    """Exponents 0.5 * x'Mx + x'b of all 2^d states (module docstring)."""
    d = params.d
    _check_cap(d, cap)
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


def _log_sum_exp(logw: np.ndarray) -> float:
    top = logw.max()
    shifted = logw - top
    return float(top + np.log(np.exp(shifted, out=shifted).sum()))


def log_unnormalized(params: FvbmParams, x) -> float:
    """Exponent 0.5 * x'Mx + x'b of the unnormalized probability weight."""
    x = as_spin_vector(x)
    if x.size != params.d:
        raise DataError(f"observation has {x.size} coordinates, model has {params.d}")
    return float(0.5 * x @ params.interaction @ x + x @ params.bias)


def log_normalization(params: FvbmParams, cap: int = ENUMERATION_CAP) -> float:
    """log z as a max-shifted log-sum-exp over the 2^d log-weights of the
    doubling recurrence (module docstring): 8 MB at d=20, plus at most as
    much again in temporaries (the fields, then the shifted copy).  That
    peak, 16 MB at d=20, doubles with each d, so it passes the ~21 MB of
    streaming the states in 2^16 blocks only if ``cap`` is raised past 20.
    """
    return _log_sum_exp(_log_weights(params, cap))


def normalization_constant(params: FvbmParams, cap: int = ENUMERATION_CAP) -> float:
    """The plain normalization constant z.  May overflow to inf for extreme
    parameters; use :func:`log_normalization` in that regime."""
    return float(np.exp(log_normalization(params, cap=cap)))


def pmf(params: FvbmParams, x, cap: int = ENUMERATION_CAP) -> float:
    """Exact probability of one configuration."""
    return float(np.exp(log_unnormalized(params, x) - log_normalization(params, cap=cap)))


@dataclass(frozen=True)
class PmfTable:
    """Full PMF over all 2^d states in the canonical index order."""

    d: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probabilities, dtype=np.float64, copy=True)
        if p.shape != (1 << self.d,):
            raise ValueError(
                f"expected {1 << self.d} probabilities for d={self.d}, got {p.shape}"
            )
        if np.any(p < -1e-15) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum():.17g}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "probabilities": [float(v) for v in self.probabilities]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PmfTable":
        try:
            return cls(d=int(obj["d"]), probabilities=np.asarray(obj["probabilities"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed PMF record: {exc}") from exc


def enumerate_pmf(params: FvbmParams, cap: int = ENUMERATION_CAP) -> PmfTable:
    """Probabilities of all 2^d states; sums to one within 1e-12."""
    logw = _log_weights(params, cap)
    logw -= _log_sum_exp(logw)
    return PmfTable(d=params.d, probabilities=np.exp(logw, out=logw))


def _fixed_sum(table: PmfTable, fixed: dict[int, int]) -> float:
    """Probability that bit j of the state is ``fixed[j]`` for each key j.
    ``ravel`` keeps the ascending index order a boolean mask selects in."""
    index = [slice(None)] * table.d
    for j, bit in fixed.items():
        if not 0 <= j < table.d:
            raise ValueError(f"coordinate {j} out of range for d={table.d}")
        index[table.d - 1 - j] = bit
    states = table.probabilities.reshape((2,) * table.d)
    return float(states[tuple(index)].ravel().sum())


def marginal_probability(table: PmfTable, j: int) -> float:
    """P(X_j = +1) under the table (0-based coordinate)."""
    return _fixed_sum(table, {j: 1})


def pairwise_joint(table: PmfTable, j: int, k: int) -> np.ndarray:
    """2x2 joint of (X_j, X_k): rows index X_j in (+1, -1), columns X_k.

    Entry [0, 0] is P(X_j=+1, X_k=+1), entry [1, 1] is P(X_j=-1, X_k=-1).
    """
    if j == k:
        raise ValueError("pairwise joint needs two distinct coordinates")
    return np.array(
        [[_fixed_sum(table, {j: a, k: c}) for c in (1, 0)] for a in (1, 0)]
    )


def concordance(table: PmfTable, j: int, k: int) -> float:
    """P(X_j == X_k): the sum of the two agreement cells of the joint."""
    joint = pairwise_joint(table, j, k)
    return float(joint[0, 0] + joint[1, 1])


def sample(
    params: FvbmParams, n: int, seed: int, cap: int = ENUMERATION_CAP
) -> np.ndarray:
    """Exact i.i.d. draws by inverse CDF over the enumerated PMF.

    Deterministic for a fixed seed.  Returns an n-by-d matrix of +/-1;
    n = 0 yields an empty matrix.
    """
    if n < 0:
        raise ValueError(f"sample size must be nonnegative, got {n}")
    d = params.d
    if n == 0:
        return np.empty((0, d))
    table = enumerate_pmf(params, cap=cap)
    cdf = np.cumsum(table.probabilities)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return _spins(np.minimum(idx, (1 << d) - 1), d)
