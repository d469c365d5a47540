"""Maximum pseudolikelihood estimation by block minorize-maximize sweeps.

Each sweep first updates every bias coordinate

    b_j <- b_j + mean_i[ x_ij - tanh(m_j'x_i + b_j) ]

using the interaction matrix from the previous sweep, then updates the
interaction coordinates in lexicographic pair order

    m_jk <- m_jk + (1/2) mean_i[ 2 x_ij x_ik
                                 - x_ik tanh(m_j'x_i + b_j)
                                 - x_ij tanh(m_k'x_i + b_k) ]

where each pair update reads the freshest available values: the biases
updated this sweep and an interaction matrix in which pairs earlier in the
order already carry their new value.  Every update maximizes a minorizing
surrogate, so the objective never decreases, and the iteration converges
to the global maximizer from any starting point.  Update order is fixed,
which makes the fit deterministic.

A sweep costs O(n d^2).  The activations a_j and their tanh t_j are held
as rows of d-by-n arrays, and the Gram matrix x'x is precomputed, so the
m_jk step needs the two cross terms x_k't_j and x_j't_k, and then moves
only a_j (by step * x_k) and a_k (by step * x_j).  The pairs run by rows:
row j is (j, j+1), ..., (j, d-1).  Within row j, a_k (k > j) is read and
moved by pair (j, k) alone, so it still holds its start-of-row value when
that pair reads it, and its move need not land before row j+1.  Batching
the a_k side therefore keeps exactly the freshest values of the pair
order: one product t[j+1:] @ x_j gives every x_j't_k at the start of the
row, and one outer-product add and one tanh move a_{j+1}, ..., a_{d-1} at
its end.  Only the chain of a_j stays sequential, at one dot product, one
vector update and one tanh per pair.  Rows after j read only a_k with
k > j, so a_j and t_j are not read again in the sweep once row j ends,
and the update after the row's last pair is skipped.  The activations
are recomputed in full once per sweep, after the pair updates: that one
O(n d^2) product gives the sweep's objective value and the next sweep's
bias step, and it keeps the incremental updates from drifting for longer
than one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_matrix
from .pseudolikelihood import _log_pl


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules and initialization for :func:`fit`.

    ``objective_tolerance`` is the absolute objective change per sweep
    below which the fit is declared converged.  ``init`` of ``None``
    starts from all-zero parameters, which the global-convergence
    guarantee makes as good as any other start.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-8
    init: FvbmParams | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.objective_tolerance > 0:
            raise ValueError("objective_tolerance must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus the per-sweep objective trace.

    ``objective_trace[0]`` is the objective at initialization and each
    later entry follows one full sweep; the sequence is nondecreasing up
    to float roundoff.  ``degenerate_columns`` lists data columns whose
    entries all share one sign; such a column pushes its bias toward
    infinity and the reported coordinate is not a finite maximizer.
    """

    params: FvbmParams
    objective_trace: np.ndarray
    iterations_used: int
    converged: bool
    degenerate_columns: tuple[int, ...] = ()

    def to_json_dict(self, labels: list[str] | None = None) -> dict:
        out = {
            "schema_version": 1,
            "params": self.params.to_json_dict(),
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "degenerate_columns": list(self.degenerate_columns),
        }
        if labels is not None:
            out["labels"] = list(labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        try:
            return cls(
                params=FvbmParams.from_json_dict(obj["params"]),
                objective_trace=np.asarray(obj["objective_trace"], dtype=np.float64),
                iterations_used=int(obj["iterations_used"]),
                converged=bool(obj["converged"]),
                degenerate_columns=tuple(obj.get("degenerate_columns", ())),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed fit record: {exc}") from exc


def fit(data, config: FitConfig | None = None) -> FitResult:
    """Compute the maximum pseudolikelihood estimate for +/-1 data."""
    config = config or FitConfig()
    x = as_spin_matrix(data)
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
    # tanh as contiguous rows, updated incrementally row by row of pairs
    # (module docstring).
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

    return FitResult(
        params=FvbmParams(bias=b, interaction=m),
        objective_trace=np.asarray(trace),
        iterations_used=sweeps,
        converged=converged,
        degenerate_columns=degenerate,
    )
