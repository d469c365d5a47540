"""Maximum pseudolikelihood estimation by damped Newton iteration.

The log-pseudolikelihood is a sum of d logistic log-likelihoods with tied
parameters, so it is concave in the flat parameter vector theta, and
:func:`pseudo_score` and :func:`pseudo_hessian` give its exact gradient g
and Hessian H.  Each iteration takes one Newton step:

    (-H + lambda I) step = g,

with lambda = 0 whenever the Cholesky factorization of -H succeeds.  When
it fails (-H is singular or indefinite in floating point: a constant
column, or cells whose sech^2 has underflowed), a Levenberg ridge is
added, starting at lambda = 1e-12 * max|H| and growing tenfold until the
factorization succeeds.  The step comes from forward and back
substitution with that factor.  -H + lambda I is positive definite, so
the step is an ascent direction.

The substitutions use the factor, not an LU solve of the same system.  On
separated data -H is singular to rounding; the factorization can accept
it while an LU solve returns a step of order 1e16 with a residual as
large as the score.  The parameters then sit where their rounding swamps
every later step, backtracking shrinks the steps below ``STEP_LIMIT``,
and the fit reads as converged with a large score.  Tables of 1-8
columns and 1-60 rows from random starts gave two such fits in 5500 with
LU solves, and none in 12000 with the factor.

Backtracking halves the step until the objective at theta + step is not
below the current one, so the objective trace never decreases.  If
``MAX_HALVINGS`` halvings find no such point, the fit takes no step,
stops, and is not converged.

The fit stops when an accepted step changes the objective by less than
``objective_tolerance``, after ``max_iterations`` steps, or when
backtracking finds no step (``FitResult.stopped_by`` records which).
Stopping on the tolerance alone does not mean that an estimate exists.
On separated data (no finite maximizer; Albert & Anderson 1984) the
objective approaches its supremum while the parameters run off to
infinity, so its change dies out while every Newton step stays of order
one.  ``converged`` is therefore true only if the tolerance stopped the
fit, the largest |entry| of the last accepted step is at most
``STEP_LIMIT``, and no column is constant.  On 500 draws of n=147 from
the paper's d=8 estimates, the last step of a fit whose estimate exists
was at most 2.8e-5, and of one whose estimate does not exist about 0.25
or more, so 1e-3 separates the two with room on both sides.

An iteration costs the O(n d p) Hessian (p = d + d(d-1)/2), one O(p^3)
Cholesky factorization, its O(p^2 SOLVE_BLOCK) substitutions, and one
O(n d^2) objective per backtracking trial.  A start whose objective is
not finite is refused: every step from it would be accepted as
-inf >= -inf.  The activations are computed once per accepted point:
the objective, the score and the Hessian of the next iteration all read
them.  Near the maximizer Newton converges
quadratically: a well-posed fit takes a handful of iterations where the
block-MM sweeps of Nguyen & Wood (2016) took tens to hundreds.  Against
Newton on the Hessian of d separate blocks, solved by two
``np.linalg.solve`` calls on the whole factor, the fit differs by
rounding only: equal iteration counts and verdicts, and parameters within
1e-7, in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .params import FvbmParams, as_spin_matrix
from .pseudolikelihood import _activations, _hessian_gather, _information, _log_pl, _score

# Largest |entry| of the last accepted step that a converged fit may have.
STEP_LIMIT = 1e-3
# Unknowns per block of the substitutions in a Newton step.
SOLVE_BLOCK = 64
# Step halvings tried before an iteration gives up.  Sixty shrink any step
# up to about 100 below the rounding of parameters of order one.
MAX_HALVINGS = 60
# The rules that can stop a fit, as ``FitResult.stopped_by`` names them.
STOP_RULES = ("tolerance", "max_iterations", "no_ascent")


@dataclass(frozen=True)
class FitConfig:
    """Stopping rules and initialization for :func:`fit`.

    ``max_iterations`` caps the Newton iterations.  ``objective_tolerance``
    is the absolute objective change per iteration below which the fit
    stops (see the module docstring for when that counts as converged).
    ``init`` of ``None`` starts from all-zero parameters; concavity makes
    the maximizer, when it exists, the same from any start.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-8
    init: FvbmParams | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.objective_tolerance > 0:
            raise ValueError(
                f"objective_tolerance must be positive, got {self.objective_tolerance}"
            )


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus the per-iteration objective trace.

    ``objective_trace[0]`` is the objective at initialization and each
    later entry follows one accepted Newton step; the sequence is
    nondecreasing.  ``iterations_used`` counts those steps.
    ``degenerate_columns`` lists data columns whose entries all share one
    sign; such a column pushes its bias toward infinity and the reported
    coordinate is not a finite maximizer.  ``last_step`` is the last
    accepted step over the flat layout, or ``None`` if no step was taken.
    ``stopped_by`` names the rule of ``STOP_RULES`` that stopped the fit
    (``None`` in an older record).  A record whose fields do not fit its
    parameters, or whose ``converged`` contradicts them, is malformed.
    """

    params: FvbmParams
    objective_trace: np.ndarray
    iterations_used: int
    converged: bool
    degenerate_columns: tuple[int, ...] = ()
    last_step: np.ndarray | None = None
    stopped_by: str | None = None

    def large_step_coordinates(self) -> list[int]:
        """Flat coordinates that the last step moved by more than STEP_LIMIT."""
        if self.last_step is None:
            return []
        return [int(q) for q in np.flatnonzero(np.abs(self.last_step) > STEP_LIMIT)]

    def unconverged_reason(self, names: list[str]) -> str | None:
        """Why the fit is not converged, or None: constant columns, then a stop
        short of the tolerance, joined by "; ", and a large last step only if
        neither applies.  ``names`` labels the flat coordinates."""
        if self.converged:
            return None
        n, why = self.iterations_used, []
        if self.degenerate_columns:
            shown = ", ".join(names[j] for j in self.degenerate_columns)
            why.append(f"column(s) {shown} are constant, so their biases have no finite optimum")
        if self.stopped_by == "max_iterations":
            why.append(f"it stopped at max_iterations={n} without meeting the objective tolerance")
        elif self.stopped_by == "no_ascent":
            why.append(
                f"it stopped after {n} iterations, where backtracking found no step that does "
                f"not lower the objective, without meeting the objective tolerance"
            )
        if not why and (large := self.large_step_coordinates()):
            size = float(np.abs(self.last_step).max())
            shown = ", ".join(names[q] for q in large)
            # A record with ``stopped_by`` words a cut-off fit by its stop above.
            cut_off = "" if self.stopped_by else " or the fit was cut off early"
            why.append(
                f"its last step was large (up to {size:.3g} > {STEP_LIMIT:g}, on {shown}); "
                f"a large last step means the estimate does not exist (separation){cut_off}"
            )
        return "; ".join(why) or f"it did not meet its objective tolerance in {n} iterations"

    def to_json_dict(self, labels: list[str] | None = None) -> dict:
        out = {
            "schema_version": 1,
            "params": self.params.to_json_dict(),
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations_used": self.iterations_used,
            "stopped_by": self.stopped_by,
            "converged": self.converged,
            "degenerate_columns": list(self.degenerate_columns),
            "last_step": (
                None if self.last_step is None else [float(v) for v in self.last_step]
            ),
        }
        if labels is not None:
            out["labels"] = list(labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        try:
            params = FvbmParams.from_json_dict(obj["params"])
            converged, columns = obj["converged"], obj.get("degenerate_columns", [])
            step, stopped_by = obj.get("last_step"), obj.get("stopped_by")
            step = None if step is None else np.asarray(step, dtype=np.float64)
            result = cls(
                params=params,
                objective_trace=np.asarray(obj["objective_trace"], dtype=np.float64),
                iterations_used=int(obj["iterations_used"]),
                converged=converged,
                degenerate_columns=tuple(columns),
                last_step=step,
                stopped_by=stopped_by,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed fit record: {exc}") from exc
        p, d = params.n_params, params.d
        large = result.large_step_coordinates()
        verdict = stopped_by in (None, "tolerance") and not (columns or large)
        if not (
            isinstance(converged, bool)
            and stopped_by in (None, *STOP_RULES)
            and (step is None or step.shape == (p,))
            and isinstance(columns, list)
            and all(type(j) is int and 0 <= j < d for j in columns)
            and (converged == verdict or not converged and stopped_by != "tolerance")
        ):
            raise DataError(
                f"malformed fit record: converged must be true or false, stopped_by null "
                f"or one of {', '.join(STOP_RULES)}, last_step null or {p} numbers, and "
                f"degenerate_columns indices below d={d}; converged true needs no degenerate "
                f"column, no |last_step| > {STEP_LIMIT:g} and stopped_by null or tolerance, "
                f"and a tolerance stop with neither of the first two is converged true"
            )
        return result


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L' x = b by forward and back substitution with the lower
    triangular L, SOLVE_BLOCK unknowns at a time.

    numpy has no triangular solver, so each diagonal block is solved by
    ``np.linalg.solve``: O(SOLVE_BLOCK^2 p) in all, where two solves with
    the whole factor cost O(p^3).  Up to SOLVE_BLOCK unknowns it is those
    two solves.
    """
    x = b.copy()
    starts = range(0, b.size, SOLVE_BLOCK)
    for k in starts:
        rows = slice(k, k + SOLVE_BLOCK)
        x[rows] = np.linalg.solve(chol[rows, rows], x[rows] - chol[rows, :k] @ x[:k])
    for k in reversed(starts):
        rows = slice(k, k + SOLVE_BLOCK)
        below = slice(k + SOLVE_BLOCK, None)
        x[rows] = np.linalg.solve(
            chol[rows, rows].T, x[rows] - chol[below, rows].T @ x[below]
        )
    return x


def _cholesky_inverse(chol: np.ndarray) -> np.ndarray:
    """inv(L L') = W'W for the lower triangular L, where W = inv(L) comes
    from the forward substitution of :func:`_cholesky_solve` applied to the
    identity, SOLVE_BLOCK rows at a time.

    W is lower triangular, so the rows of a block need only the columns up
    to the block's end.  numpy computes ``W.T @ W`` as a symmetric rank-k
    update of one triangle and mirrors it, so the inverse is exactly
    symmetric.
    """
    w = np.eye(len(chol))
    for k in range(0, len(chol), SOLVE_BLOCK):
        rows, cols = slice(k, k + SOLVE_BLOCK), slice(0, k + SOLVE_BLOCK)
        w[rows, cols] = np.linalg.solve(
            chol[rows, rows], w[rows, cols] - chol[rows, :k] @ w[:k, cols]
        )
    return w.T @ w


def _newton_step(score: np.ndarray, info: np.ndarray) -> np.ndarray:
    """Solve (-H + lambda I) step = score by a Cholesky factor of ``info`` = -H
    plus the first lambda of 0, 1e-12 max|H|, 1e-11 max|H|, ... that has one.

    Each retry writes info's diagonal plus lambda into the diagonal of one
    copy: the bits of ``info + lambda * I``, whose off-diagonal adds 0.0.
    """
    ridge, system = 0.0, info
    while True:
        try:
            chol = np.linalg.cholesky(system)
            break
        except np.linalg.LinAlgError:
            if ridge:
                ridge *= 10.0
            else:
                ridge = 1e-12 * (float(np.abs(info).max()) or 1.0)
                system = info.copy()
            np.fill_diagonal(system, np.diagonal(info) + ridge)
    return _cholesky_solve(chol, score)


def fit(data, config: FitConfig | None = None) -> FitResult:
    """Compute the maximum pseudolikelihood estimate for +/-1 data."""
    config = config or FitConfig()
    x = as_spin_matrix(data)
    d = x.shape[1]
    if config.init is None:
        params = FvbmParams.zeros(d)
    elif config.init.d != d:
        raise DataError(f"initializer has d={config.init.d}, data has {d} columns")
    else:
        params = config.init

    degenerate = tuple(int(j) for j in np.flatnonzero(np.abs(x.mean(axis=0)) == 1.0))
    theta = params.to_flat()
    gather = _hessian_gather(d)
    # an initializer with huge entries overflows here; the check below
    # refuses it, so numpy's overflow warnings would only repeat that
    with np.errstate(over="ignore"):
        a = _activations(params, x)
        trace = [_log_pl(x, a)]
    if not np.isfinite(trace[0]):
        raise DataError(
            f"the log-pseudolikelihood at the initializer is {trace[0]}; "
            f"start from parameters where it is finite"
        )
    last_step = None
    stopped_by = "max_iterations"
    for _ in range(config.max_iterations):
        step = _newton_step(_score(x, a), _information(x, a, gather))
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + step
            if np.all(np.isfinite(candidate)):
                trial = FvbmParams.from_flat(d, candidate)
                trial_a = _activations(trial, x)
                value = _log_pl(x, trial_a)
                if value >= trace[-1]:
                    break
            step *= 0.5
        else:
            stopped_by = "no_ascent"
            break
        theta, params, a, last_step = candidate, trial, trial_a, step
        trace.append(value)
        if abs(trace[-1] - trace[-2]) < config.objective_tolerance:
            stopped_by = "tolerance"
            break

    converged = (
        stopped_by == "tolerance"
        and not degenerate
        and float(np.abs(last_step).max()) <= STEP_LIMIT
    )
    return FitResult(
        params=params,
        objective_trace=np.asarray(trace),
        iterations_used=len(trace) - 1,
        converged=converged,
        degenerate_columns=degenerate,
        last_step=last_step,
        stopped_by=stopped_by,
    )
