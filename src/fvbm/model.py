"""Exact model evaluation by full-state enumeration.

The probability of a +/-1 configuration ``x`` is

    P(x) = exp(0.5 * x'Mx + x'b) / z,    z = sum over all 2^d states,

so anything exact (the full PMF table, marginals, pairwise joints, exact
sampling) costs 2^d work.  Operations that enumerate refuse dimensions
above ``ENUMERATION_CAP`` (20) rather than silently blowing up.

State indexing convention: state index ``i`` encodes coordinate ``j``
(0-based) in bit ``j`` of ``i``, with a set bit meaning +1.  Index 0 is the
all-minus-one state and index 2^d - 1 the all-plus-one state.

Log-weights meet in the middle.  Split the state index into its
hi = d - d//2 high and lo = d//2 low bits, i = h * 2^lo + l, so state i is
the high-half spins s_hi[h] beside the low-half spins s_lo[l].  With q_hi
and q_lo the log-weights of each half's own sub-model (its block of M and
b), the exponent of state i is

    logw[h, l] = q_hi[h] + q_lo[l] + s_hi[h]' M[hi, lo] s_lo[l].

The half terms ride in the cross product as two extra columns,

    logw = [s_hi M[hi, lo], q_hi, 1] [s_lo, 1, q_lo]',

so one (2^hi x (lo+2)) by ((lo+2) x 2^lo) product makes all 2^d
log-weights.  Its factors are small (1024 x 12 at d=20); its output is
the only 2^d array.  Every exact quantity then exponentiates that array
once, in place, after subtracting its max: the PMF divides by the sum,
and :func:`sample` takes its CDF in place.  One 2^d vector (8 MB at d=20)
is held, with no 2^d temporaries.  The log-weights are within
1e-13 * max(1, |logw|) of summing each state's terms directly.

Marginals and pairwise joints are read from one array of pair cells,
``cells[a, j, c, k] = P(X_j = s_a, X_k = s_c)`` with s = (+1, -1), whose
diagonal ``cells[0, j, 0, j]`` is P(X_j = +1).  Splitting the state index
into its high and low bits as above views the table as
``w = p.reshape(2^hi, 2^lo)``.  With the 0/1 indicator matrix
``C = [B, 1 - B]`` of each half's states (B[s, j] = bit j of s):

    pairs across the halves     C_hi' (w C_lo)
    pairs within the low bits   C_lo' diag(w.sum(0)) C_lo
    pairs within the high bits  C_hi' diag(w.sum(1)) C_hi

Every cell is a sum of nonnegative probabilities, never a difference.
The cost is two passes over the table plus one 2^d-by-2lo product, ~3 ms
at d=20.  Each cell is within a relative 1e-14 of the correctly rounded
(``math.fsum``) sum of its states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .params import FvbmParams

ENUMERATION_CAP = 20


def _spins(idx, d: int) -> np.ndarray:
    """+/-1 configurations of state indices: bit j of each index is coordinate j."""
    bits = (np.asarray(idx)[..., None] >> np.arange(d)) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def _sub_log_weights(spins: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * s'Ms + s'b for each row s of ``spins``."""
    return 0.5 * np.einsum("ij,ij->i", spins @ m, spins) + spins @ b


def _check_enumerable(d: int) -> None:
    if d > ENUMERATION_CAP:
        raise DataError(
            f"enumeration over 2^{d} states exceeds the cap of d<={ENUMERATION_CAP}"
        )


def _log_weights(params: FvbmParams) -> np.ndarray:
    """Exponents 0.5 * x'Mx + x'b of all 2^d states, in one 2^d vector
    (module docstring)."""
    d = params.d
    _check_enumerable(d)
    m, b = params.interaction, params.bias
    lo = d // 2
    s_hi, s_lo = (_spins(np.arange(1 << k), k) for k in (d - lo, lo))
    left = np.column_stack(
        [s_hi @ m[lo:, :lo], _sub_log_weights(s_hi, m[lo:, lo:], b[lo:]), np.ones(len(s_hi))]
    )
    right = np.column_stack(
        [s_lo, np.ones(len(s_lo)), _sub_log_weights(s_lo, m[:lo, :lo], b[:lo])]
    )
    return (left @ right.T).reshape(-1)


def _shifted_weights(params: FvbmParams) -> np.ndarray:
    """exp(logw - max logw) of all 2^d states: the one exponentiation of the
    module, done in place on the log-weights."""
    w = _log_weights(params)
    w -= w.max()
    return np.exp(w, out=w)


def _indicators(bits: int) -> np.ndarray:
    """C = [B, 1 - B] over the 2^bits states of ``bits`` coordinates:
    column a*bits + j is 1 where coordinate j is s_a, s = (+1, -1)."""
    b = (np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1
    return np.concatenate([b, 1 - b], axis=1).astype(np.float64)


def _within(c: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """C' diag(mass) C: the pair cells of the coordinates ``c`` indicates."""
    return (c * mass[:, None]).T @ c


@dataclass(frozen=True)
class PmfTable:
    """Full PMF over all 2^d states in the canonical index order.

    Direct construction copies the probabilities and checks their shape,
    range and sum; :func:`enumerate_pmf`, which builds a valid vector
    itself, skips both (the copy alone is 8 MB at d=20).

    :attr:`pair_cells` holds every marginal and pairwise joint of the
    table in a 2-by-d-by-2-by-d array (module docstring).  It is computed
    on first use by two passes over the table and one product, ~3 ms at
    d=20; each cell is within a relative 1e-14 of the correctly rounded
    sum of its states.
    """

    d: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be an int of at least 1, got {self.d!r}")
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

    @cached_property
    def pair_cells(self) -> np.ndarray:
        """Read-only ``cells[a, j, c, k] = P(X_j = s_a, X_k = s_c)``, s = (+1, -1),
        by the blocked products of the module docstring."""
        lo = self.d // 2
        hi = self.d - lo
        w = self.probabilities.reshape(1 << hi, 1 << lo)
        c_lo, c_hi = _indicators(lo), _indicators(hi)
        cells = np.empty((2, self.d, 2, self.d))
        across = (c_hi.T @ (w @ c_lo)).reshape(2, hi, 2, lo)
        cells[:, lo:, :, :lo] = across
        cells[:, :lo, :, lo:] = across.transpose(2, 3, 0, 1)
        cells[:, :lo, :, :lo] = _within(c_lo, w.sum(axis=0)).reshape(2, lo, 2, lo)
        cells[:, lo:, :, lo:] = _within(c_hi, w.sum(axis=1)).reshape(2, hi, 2, hi)
        cells.setflags(write=False)
        return cells

    @classmethod
    def _trusted(cls, d: int, probabilities: np.ndarray) -> "PmfTable":
        """Wrap a 2^d vector built in this module without copying or
        validating it; the table takes ownership and makes it read-only."""
        table = object.__new__(cls)
        probabilities.setflags(write=False)
        object.__setattr__(table, "d", d)
        object.__setattr__(table, "probabilities", probabilities)
        return table


def enumerate_pmf(params: FvbmParams) -> PmfTable:
    """Probabilities of all 2^d states; sums to one within 1e-12."""
    w = _shifted_weights(params)
    w /= w.sum()
    return PmfTable._trusted(params.d, w)


def _check_coordinate(table: PmfTable, j: int) -> None:
    if not 0 <= j < table.d:
        raise ValueError(f"coordinate {j} out of range for d={table.d}")


def marginal_probability(table: PmfTable, j: int) -> float:
    """P(X_j = +1) under the table (0-based coordinate)."""
    _check_coordinate(table, j)
    return float(table.pair_cells[0, j, 0, j])


def pairwise_joint(table: PmfTable, j: int, k: int) -> np.ndarray:
    """2x2 joint of (X_j, X_k): rows index X_j in (+1, -1), columns X_k.

    Entry [0, 0] is P(X_j=+1, X_k=+1), entry [1, 1] is P(X_j=-1, X_k=-1).
    The joint of (X_k, X_j) is exactly its transpose.
    """
    if j == k:
        raise ValueError("pairwise joint needs two distinct coordinates")
    _check_coordinate(table, j)
    _check_coordinate(table, k)
    if j > k:
        return table.pair_cells[:, k, :, j].T.copy()
    return table.pair_cells[:, j, :, k].copy()


def concordance(table: PmfTable, j: int, k: int) -> float:
    """P(X_j == X_k): the sum of the two agreement cells of the joint."""
    joint = pairwise_joint(table, j, k)
    return float(joint[0, 0] + joint[1, 1])


def sample(params: FvbmParams, n: int, seed: int) -> np.ndarray:
    """Exact i.i.d. draws by inverse CDF over the enumerated weights.

    Deterministic for a fixed seed.  Returns an n-by-d matrix of +/-1;
    n = 0 yields an empty matrix, and d > ENUMERATION_CAP is refused for
    every n, 0 included.  ``n`` and ``seed`` must be nonnegative ints (not
    bools).
    """
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    d = params.d
    _check_enumerable(d)
    if n == 0:
        return np.empty((0, d))
    # The unnormalized CDF overwrites the weights, and is freed before the
    # n-by-d decode allocates.
    cdf = _shifted_weights(params)
    np.cumsum(cdf, out=cdf)
    # Searching the uniforms in sorted order walks the CDF (8 MB at d=20)
    # once from front to back instead of at random.
    u = np.random.default_rng(seed).random(n)
    order = np.argsort(u)
    idx = np.empty(n, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, u[order] * cdf[-1], side="right")
    del cdf
    return _spins(np.minimum(idx, (1 << d) - 1), d)
