"""Parameter and spin-data containers.

A fully-visible Boltzmann machine over ``d`` spin variables (each valued in
{-1, +1}) is parametrized by a bias vector ``b`` of length ``d`` and a
symmetric interaction matrix ``M`` with zeros on the diagonal.  Everything
in this package shares one canonical flat layout for the parameter vector:

    theta = (b_1, ..., b_d,  m_12, m_13, ..., m_1d, m_23, ..., m_{d-1,d})

i.e. biases first, then the upper triangle of ``M`` in row-major
(lexicographic) order, for a total of ``d + d*(d-1)/2`` entries.  All
coordinate indices in the public API are 0-based.
"""

from __future__ import annotations

import functools
import math
import reprlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError


def flat_length(d: int) -> int:
    """Number of free parameters for dimension ``d``."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return d + d * (d - 1) // 2


def flat_dimension(p: int) -> int | None:
    """The d with ``flat_length(d) == p``, or None if there is none."""
    d = (math.isqrt(8 * p + 1) - 1) // 2 if p > 0 else 0
    return d if d and flat_length(d) == p else None


@functools.lru_cache(maxsize=64)
def upper_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (j, k), j < k, of the flat layout's pairs.

    This is ``np.triu_indices(d, 1)``: pair q of the upper triangle sits at
    flat slot ``d + q``.  The arrays are cached and read-only.
    """
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=64)
def slot_map(d: int) -> np.ndarray:
    """d-by-d map from coordinates to flat-layout slots (cached, read-only).

    ``slot[j, k] == slot[k, j]`` is the flat index of m_jk for j != k, and
    ``slot[j, j] == j`` is the flat index of b_j.  Row l therefore lists the
    slots where the gradient of activation a_l is nonzero: 1 at
    ``slot[l, l]`` and x_k at ``slot[l, k]``.
    """
    rows, cols = upper_indices(d)
    slot = np.empty((d, d), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = np.arange(d, flat_length(d))
    slot[np.arange(d), np.arange(d)] = np.arange(d)
    slot.setflags(write=False)
    return slot


def flat_labels(names: list[str]) -> list[str]:
    """Human-readable labels for every flat-layout coordinate.

    Bias coordinates keep the variable name; interaction coordinates are
    rendered as ``"A:B"``.
    """
    rows, cols = upper_indices(len(names))
    return list(names) + [f"{names[j]}:{names[k]}" for j, k in zip(rows, cols)]


def check_labels(labels, d: int) -> list[str]:
    """``labels`` as a list if it is exactly ``d`` distinct strings, else a
    DataError: outputs are keyed by column label."""
    if not isinstance(labels, (list, tuple)) or not all(isinstance(s, str) for s in labels):
        raise DataError(f"column labels must be a list of strings, got {reprlib.repr(labels)}")
    if len(labels) != d:
        raise DataError(f"{len(labels)} labels for {d} columns")
    if repeated := [s for s, count in Counter(labels).items() if count > 1]:
        raise DataError(f"repeats column label(s) {', '.join(repeated)}")
    return list(labels)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FvbmParams:
    """Model parameters: bias vector and symmetric zero-diagonal interactions.

    Attributes:
        bias: Length-d float vector.
        interaction: d-by-d symmetric float matrix with zero diagonal.

    Instances are immutable; the underlying arrays are marked read-only.
    """

    bias: np.ndarray
    interaction: np.ndarray

    def __post_init__(self) -> None:
        b = _readonly(np.atleast_1d(self.bias))
        m = _readonly(np.atleast_2d(self.interaction))
        if b.ndim != 1 or b.size == 0:
            raise ValueError("bias must be a nonempty 1-D vector")
        d = b.size
        if m.shape != (d, d):
            raise ValueError(f"interaction must be {d}x{d}, got {m.shape}")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(m))):
            raise ValueError("parameters must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("interaction matrix must be symmetric")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("interaction matrix must have a zero diagonal")
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "interaction", m)

    @property
    def d(self) -> int:
        return self.bias.size

    @property
    def n_params(self) -> int:
        return flat_length(self.d)

    @classmethod
    def zeros(cls, d: int) -> "FvbmParams":
        return cls(bias=np.zeros(d), interaction=np.zeros((d, d)))

    @classmethod
    def from_flat(cls, d: int, theta: np.ndarray) -> "FvbmParams":
        """Rebuild parameters from the canonical flat vector."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (flat_length(d),):
            raise ValueError(
                f"flat vector for d={d} must have length {flat_length(d)}, "
                f"got shape {theta.shape}"
            )
        rows, cols = upper_indices(d)
        m = np.zeros((d, d))
        m[rows, cols] = m[cols, rows] = theta[d:]
        return cls(bias=theta[:d], interaction=m)

    def to_flat(self) -> np.ndarray:
        """Canonical flat vector: biases, then upper-triangle interactions."""
        rows, cols = upper_indices(self.d)
        return np.concatenate([self.bias, self.interaction[rows, cols]])

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "bias": self.bias.tolist(),
            "interaction_upper": self.to_flat()[self.d:].tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FvbmParams":
        try:
            d = obj["d"]
            if type(d) is not int or d < 1:
                raise TypeError(f"d must be an integer >= 1, got {d!r}")
            bias = np.asarray(obj["bias"], dtype=np.float64)
            upper = np.asarray(obj["interaction_upper"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed parameter record: {exc}") from exc
        if bias.shape != (d,) or upper.shape != (flat_length(d) - d,):
            raise DataError(
                f"parameter record inconsistent with d={d}: "
                f"bias has {bias.size} entries, upper triangle {upper.size}"
            )
        return cls.from_flat(d, np.concatenate([bias, upper]))


def as_spin_matrix(values, *, allow_empty: bool = False) -> np.ndarray:
    """Validate and convert observations to an n-by-d float array of +/-1.

    Args:
        values: Anything array-like with two dimensions.
        allow_empty: Permit n == 0 (used by simulation with n=0).

    Raises:
        DataError: On wrong shape or entries other than -1/+1.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] == 0:
        raise DataError(f"spin data must be a 2-D matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        if allow_empty:
            return x
        raise DataError("spin data must contain at least one row")
    # checked on boolean masks, one byte a cell, with no float temporary
    spin = x == 1.0
    spin |= x == -1.0
    if not spin.all():
        bad = np.argwhere(~spin)[0]
        raise DataError(
            f"spin data must contain only -1/+1; offending cell "
            f"(row {bad[0]}, column {bad[1]})"
        )
    return x
