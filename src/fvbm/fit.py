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

A sweep costs O(n d^2).  During the pair updates the activations a_j and
their tanh are held as rows of d-by-n arrays; with the Gram matrix x'x
precomputed, a pair update needs two length-n dot products, and the m_jk
step then changes only a_j (by step * x_k) and a_k (by step * x_j).  The
activations are recomputed in full once per sweep, after the pair
updates: that one O(n d^2) product gives the sweep's objective value and
the next sweep's bias step, and it keeps the incremental updates from
drifting for longer than one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_matrix, pair_indices
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
    pairs = pair_indices(d)
    xt = np.ascontiguousarray(x.T)
    gram = xt @ x

    # a holds the activations a_ij = m_j'x_i + b_j, recomputed in full once
    # per sweep; during the pair updates act[j] and t[j] hold a_j and its
    # tanh as contiguous rows, updated incrementally.
    a = x @ m + b
    trace = [_log_pl(x, a)]
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_iterations + 1):
        step_b = (x - np.tanh(a)).mean(axis=0)
        b = b + step_b
        act = np.ascontiguousarray(a.T) + step_b[:, None]
        t = np.tanh(act)
        for j, k in pairs:
            step = (gram[j, k] - 0.5 * (xt[k] @ t[j] + xt[j] @ t[k])) / n
            m[j, k] += step
            m[k, j] = m[j, k]
            act[j] += step * xt[k]
            act[k] += step * xt[j]
            np.tanh(act[j], out=t[j])
            np.tanh(act[k], out=t[k])
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
