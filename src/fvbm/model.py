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
log-weights, and a block of its rows makes those rows' log-weights.  Its
factors are small (1024 x 12 at d=20).  The log-weights are within
1e-13 * max(1, |logw|) of summing each state's terms directly.

:func:`enumerate_pmf` holds the whole product as one 2^d vector (8 MB at
d=20), shifted by its max and exponentiated in place.  :func:`sample` and
:func:`pair_cells` hold no 2^d vector: they stream 32-row blocks of the
product, each made in one held buffer, shifted by its own max shift_b and
exponentiated there, and scale each block's sums by exp(shift_b - max
shift), so a block far below the max weighs exactly zero.

:func:`sample` inverts a two-level CDF in two passes.  The first keeps
only the totals of 32-state chunks (256 KiB at d=20), and a cumulative
sum over them gives the chunk edges.  Each target u * total (u uniform
on [0, 1)) is found among the edges, in sorted order.  The second pass
remakes each block that holds targets and places each target within its
chunk by the prefix sums of one product with a triangular ones matrix.
Each target stays strictly below the total and below its chunk's last
prefix sum, so rounding never puts a draw past its chunk or on a state
of zero weight.  The draws equal those of one sequential 2^d-long CDF
(``oracles.table_sample``) unless a uniform lands within rounding of a
CDF boundary.

Marginals and pairwise joints are read from one array of pair cells,
``cells[a, j, c, k] = P(X_j = s_a, X_k = s_c)`` with s = (+1, -1), whose
diagonal ``cells[0, j, 0, j]`` is P(X_j = +1).  View the weights as
``w = weights.reshape(2^hi, 2^lo)``, split as above.  With the 0/1
indicator matrix ``C = [B, 1 - B]`` of each half's states
(B[s, j] = bit j of s):

    pairs across the halves     C_hi' (w C_lo)
    pairs within the low bits   C_lo' diag(w.sum(0)) C_lo
    pairs within the high bits  C_hi' diag(w.sum(1)) C_hi

Each row block of w adds its rows of ``w C_lo`` and of the row sums, and
its column sums, so the cells need no whole table.  :func:`pair_cells`
sums the streamed blocks in one pass and divides the cells by the total
weight once at the end.  ``PmfTable.pair_cells`` sums its stored
probabilities as one block.  Every cell is a sum of nonnegative weights, never a
difference, and is within a relative 1e-14 of the correctly rounded
(``math.fsum``) sum of its states' probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .params import FvbmParams

ENUMERATION_CAP = 20
_CHUNK = 32  # states per chunk of the sampler's inverse CDF
_TARGET_BLOCK = 1024  # sampler targets placed within their chunks per product
_ROW_BLOCK = 32  # rows of the 2^hi-by-2^lo weights per streamed block


def _bits(idx, d: int) -> np.ndarray:
    """Bits 0..d-1 of each state index, as uint8 columns."""
    octets = np.asarray(idx, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=d, bitorder="little")


def _spins(idx, d: int) -> np.ndarray:
    """+/-1 configurations of state indices: bit j of each index is coordinate j."""
    spins = np.multiply(_bits(idx, d), 2.0)
    spins -= 1.0
    return spins


def _sub_log_weights(spins: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * s'Ms + s'b for each row s of ``spins``."""
    return 0.5 * np.einsum("ij,ij->i", spins @ m, spins) + spins @ b


def _check_enumerable(d: int) -> None:
    if d > ENUMERATION_CAP:
        raise DataError(
            f"enumeration over 2^{d} states exceeds the cap of d<={ENUMERATION_CAP}"
        )


def _half_factors(params: FvbmParams) -> tuple[np.ndarray, np.ndarray]:
    """The factors [s_hi M[hi, lo], q_hi, 1] and [s_lo, 1, q_lo] whose
    product ``left @ right.T`` is the 2^hi-by-2^lo log-weights (module
    docstring)."""
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
    return left, right


def _log_weights(params: FvbmParams) -> np.ndarray:
    """Exponents 0.5 * x'Mx + x'b of all 2^d states, in one 2^d vector
    (module docstring)."""
    left, right = _half_factors(params)
    return (left @ right.T).reshape(-1)


def _weight_blocks(left: np.ndarray, right: np.ndarray, blocks=None):
    """Row blocks ``(b, exp(logw_b - shift_b), shift_b)`` of the weights
    viewed as 2^hi-by-2^lo, shift_b the max of block b's log-weights, each
    made in one held buffer; ``blocks`` picks the blocks (default all)."""
    size = min(_ROW_BLOCK, len(left))
    buffer = np.empty((size, len(right)))
    for b in range(len(left) // size) if blocks is None else blocks:
        np.matmul(left[b * size : (b + 1) * size], right.T, out=buffer)
        shift = buffer.max()
        buffer -= shift
        yield b, np.exp(buffer, out=buffer), shift


def _indicators(bits: int) -> np.ndarray:
    """C = [B, 1 - B] over the 2^bits states of ``bits`` coordinates:
    column a*bits + j is 1 where coordinate j is s_a, s = (+1, -1)."""
    b = _bits(np.arange(1 << bits), bits)
    return np.concatenate([b, 1 - b], axis=1).astype(np.float64)


def _within(c: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """C' diag(mass) C: the pair cells of the coordinates ``c`` indicates."""
    return (c * mass[:, None]).T @ c


def _pair_cell_sums(d: int, blocks) -> tuple[np.ndarray, float]:
    """Unnormalized pair cells and the total weight, from equal row blocks
    ``(b, w_b, shift_b)`` of 2^d weights viewed as 2^hi-by-2^lo, each
    block's sums scaled by exp(shift_b - max shift) (module docstring)."""
    lo = d // 2
    hi = d - lo
    c_lo = _indicators(lo)
    by_row = np.empty((1 << hi, 2 * lo))  # w C_lo
    row_mass = np.empty(1 << hi)
    col_sums, shifts = [], []
    for b, w, shift in blocks:
        rows = slice(b * len(w), (b + 1) * len(w))
        np.matmul(w, c_lo, out=by_row[rows])
        w.sum(axis=1, out=row_mass[rows])
        col_sums.append(w.sum(axis=0))
        shifts.append(shift)
    del w  # the last block's buffer
    scale = np.exp(np.subtract(shifts, max(shifts)))
    row_scale = np.repeat(scale, len(row_mass) // len(scale))
    by_row *= row_scale[:, None]
    row_mass *= row_scale
    col_mass = sum(s * c for s, c in zip(scale, col_sums))
    c_hi = _indicators(hi)
    across = (c_hi.T @ by_row).reshape(2, hi, 2, lo)
    del by_row  # before the within-half products allocate
    cells = np.empty((2, d, 2, d))
    cells[:, lo:, :, :lo] = across
    cells[:, :lo, :, lo:] = across.transpose(2, 3, 0, 1)
    cells[:, :lo, :, :lo] = _within(c_lo, col_mass).reshape(2, lo, 2, lo)
    cells[:, lo:, :, lo:] = _within(c_hi, row_mass).reshape(2, hi, 2, hi)
    return cells, float(row_mass.sum())


@dataclass(frozen=True)
class PmfTable:
    """Full PMF over all 2^d states in the canonical index order.

    Direct construction copies the probabilities and checks their shape,
    range and sum; :func:`enumerate_pmf`, which builds a valid vector
    itself, skips both (the copy alone is 8 MB at d=20).

    :attr:`pair_cells` holds every marginal and pairwise joint of the
    table in a 2-by-d-by-2-by-d array (module docstring).  It is computed
    on first use by two passes over the table and one product, ~3 ms at
    d=20, the block sums of :func:`pair_cells` over the whole table as one
    block; each cell is within a relative 1e-14 of the correctly rounded
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
        by the blocked products of the module docstring over the whole table."""
        lo = self.d // 2
        w = self.probabilities.reshape(-1, 1 << lo)
        cells, _ = _pair_cell_sums(self.d, [(0, w, 0.0)])
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
    w = _log_weights(params)
    w -= w.max()
    np.exp(w, out=w)
    w /= w.sum()
    return PmfTable._trusted(params.d, w)


def pair_cells(params: FvbmParams) -> np.ndarray:
    """The model's read-only pair cells, as ``PmfTable.pair_cells`` holds
    them, streamed from row blocks of the log-weight product, so no 2^d
    table is built (module docstring)."""
    cells, total = _pair_cell_sums(params.d, _weight_blocks(*_half_factors(params)))
    cells /= total
    cells.setflags(write=False)
    return cells


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
    return _joint(table.pair_cells, j, k)


def _joint(cells: np.ndarray, j: int, k: int) -> np.ndarray:
    """The 2x2 joint of distinct coordinates (X_j, X_k) from pair cells,
    read from the j < k cells so that (X_k, X_j) gives exactly its transpose."""
    if j > k:
        return cells[:, k, :, j].T.copy()
    return cells[:, j, :, k].copy()


def concordance(table: PmfTable, j: int, k: int) -> float:
    """P(X_j == X_k): the sum of the two agreement cells of the joint."""
    joint = pairwise_joint(table, j, k)
    return float(joint[0, 0] + joint[1, 1])


def sample(params: FvbmParams, n: int, seed: int) -> np.ndarray:
    """Exact i.i.d. draws by a two-level inverse CDF over the enumerated
    weights (module docstring).

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
    # Sorting the uniforms first frees their unsorted copy before any
    # weights exist, and visits the chunks from front to back.
    u = np.random.default_rng(seed).random(n)
    order = np.argsort(u)
    targets = u[order]
    del u
    states = np.empty(n, dtype=np.int64)
    states[order] = _sorted_states(params, targets)
    return _spins(states, d)


def _sorted_states(params: FvbmParams, targets: np.ndarray) -> np.ndarray:
    """The state indices drawn by sorted uniforms ``targets``, written over
    them, by the two-pass inverse CDF of the module docstring."""
    left, right = _half_factors(params)
    width = min(_CHUNK, len(left) * len(right))
    # First pass: each row block's chunk totals in its own shift, then scaled;
    # edges[c] is the weight of the chunks before c
    edges = np.zeros(len(left) * len(right) // width + 1)
    totals = edges[1:].reshape(len(left) // min(_ROW_BLOCK, len(left)), -1)
    shifts = []
    for b, w, shift in _weight_blocks(left, right):
        np.matmul(w.reshape(-1, width), np.ones(width), out=totals[b])
        shifts.append(shift)
    del w  # the first pass's buffer
    scale = np.exp(np.subtract(shifts, max(shifts)))
    totals *= scale[:, None]
    np.cumsum(edges[1:], out=edges[1:])
    # a target at the total would pass the last chunk of positive weight
    targets *= edges[-1]
    np.minimum(targets, math.nextafter(edges[-1], 0.0), out=targets)
    # targets[bounds[b]:bounds[b + 1]] fall in the chunks of row block b
    bounds = np.searchsorted(targets, edges[:: totals.shape[1]])
    # Column t of L @ rows' (L the lower-triangular ones) holds the prefix
    # sums of target t's chunk; its state is the chunk's first state plus
    # the count of those sums <= its rest.  Held flat buffers give each
    # block contiguous views, so one block's temporaries never meet the
    # next block's.
    prefix_ones = np.cumsum(np.eye(width), axis=0)
    size = min(len(targets), _TARGET_BLOCK) * width
    prefix, below = np.empty(size), np.empty(size, dtype=bool)
    # each block's states overwrite its targets once they are read
    sorted_states = targets.view(np.int64)
    # Second pass: remake each row block that holds targets
    for b, w, _ in _weight_blocks(left, right, np.flatnonzero(np.diff(bounds))):
        chunks = w.reshape(-1, width)
        first = b * len(chunks)
        block_edges = edges[first : first + len(chunks) + 1]
        for start in range(bounds[b], bounds[b + 1], _TARGET_BLOCK):
            block = slice(start, min(start + _TARGET_BLOCK, bounds[b + 1]))
            chunk = np.searchsorted(block_edges[1:], targets[block], side="right")
            cells = len(chunk) * width
            sums = np.matmul(prefix_ones, chunks[chunk].T, out=prefix[:cells].reshape(width, -1))
            rest = targets[block] - block_edges[chunk]
            rest /= scale[b]  # in the block's own shift, as its sums are
            # The edges and the prefix sums round apart, so a rest may pass its
            # chunk: it stays below the last sum (positive, so one less in its bits).
            np.minimum(rest, (sums[-1].view(np.int64) - 1).view(np.float64), out=rest)
            hits = np.less_equal(sums, rest, out=below[:cells].reshape(width, -1))
            sorted_states[block] = (first + chunk) * width + hits.sum(axis=0)
    return sorted_states
