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
fit, no |entry| of the last step exceeds ``STEP_LIMIT`` (NaN counts as
large), and no column is constant.  On 500 draws of n=147 from
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
from .pseudolikelihood import _activations, _information, _log_pl, _score

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

    ``max_iterations``, an int of at least 1, caps the Newton iterations.
    ``objective_tolerance``, positive and finite, is the absolute objective
    change per iteration below which the fit stops (see the module
    docstring for when that counts as converged).
    ``init`` of ``None`` starts from all-zero parameters; concavity makes
    the maximizer, when it exists, the same from any start.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-8
    init: FvbmParams | None = None

    def __post_init__(self) -> None:
        cap, tol = self.max_iterations, self.objective_tolerance
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"max_iterations must be an int, got {cap!r}")
        if cap < 1:
            raise ValueError(f"max_iterations must be at least 1, got {cap}")
        if not tol > 0:
            raise ValueError(f"objective_tolerance must be positive, got {tol}")
        if tol == np.inf:  # it would stop the fit after one step, as if converged
            raise ValueError(f"objective_tolerance must be finite, got {tol}")


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
    (``None`` in an older record).  The constructor refuses, as a malformed
    record (DataError), fields that do not fit the parameters, a
    ``converged`` that contradicts ``_converges`` and an objective trace that
    is not finite, whether the record was read from JSON or built in memory.
    """

    params: FvbmParams
    objective_trace: np.ndarray
    iterations_used: int
    converged: bool
    degenerate_columns: tuple[int, ...] = ()
    last_step: np.ndarray | None = None
    stopped_by: str | None = None

    def __post_init__(self) -> None:
        try:
            trace = np.asarray(self.objective_trace, dtype=np.float64)
            step = None if self.last_step is None else np.asarray(self.last_step, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed fit record: {exc}") from exc
        object.__setattr__(self, "objective_trace", trace)
        object.__setattr__(self, "last_step", step)
        p, d, columns = self.params.n_params, self.params.d, self.degenerate_columns
        if not (
            isinstance(self.converged, bool)
            and self.stopped_by in (None, *STOP_RULES)
            and (step is None or step.shape == (p,))
            and isinstance(columns, tuple)
            and all(type(j) is int and 0 <= j < d for j in columns)
            # a record without stopped_by may read unconverged whatever the rule says
            and (
                self.converged == _converges(self.stopped_by, columns, step)
                or not self.converged and self.stopped_by is None
            )
        ):
            raise DataError(
                f"malformed fit record: converged must be true or false, stopped_by null "
                f"or one of {', '.join(STOP_RULES)}, last_step null or {p} numbers, and "
                f"degenerate_columns indices below d={d}; converged true needs no degenerate "
                f"column, no |last_step| > {STEP_LIMIT:g} and stopped_by null or tolerance, "
                f"and a tolerance stop with neither of the first two is converged true"
            )
        if not np.all(np.isfinite(trace)):
            raise DataError("malformed fit record: objective_trace must be finite")

    def large_step_coordinates(self) -> list[int]:
        """Flat coordinates that the last step moved by more than STEP_LIMIT or by NaN."""
        if self.last_step is None:
            return []
        return np.flatnonzero(~(np.abs(self.last_step) <= STEP_LIMIT)).tolist()

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
            "objective_trace": self.objective_trace.tolist(),
            "iterations_used": self.iterations_used,
            "stopped_by": self.stopped_by,
            "converged": self.converged,
            "degenerate_columns": list(self.degenerate_columns),
            "last_step": None if self.last_step is None else self.last_step.tolist(),
        }
        if labels is not None:
            out["labels"] = list(labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        try:
            params, n = FvbmParams.from_json_dict(obj["params"]), obj["iterations_used"]
            trace, converged = obj["objective_trace"], obj["converged"]
            if type(n) is not int or n < 0:
                raise TypeError(f"iterations_used must be an integer >= 0, got {n!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed fit record: {exc}") from exc
        columns = obj.get("degenerate_columns", [])
        columns = tuple(columns) if isinstance(columns, list) else columns
        return cls(params, trace, n, converged, columns, obj.get("last_step"), obj.get("stopped_by"))


def _converges(stopped_by: str | None, degenerate_columns, last_step) -> bool:
    """The convergence rule of the module docstring, where an older record may
    name no stop; a NaN in the step makes its max NaN, which fails the test."""
    return (
        stopped_by in (None, "tolerance")
        and not degenerate_columns
        and (last_step is None or float(np.abs(last_step).max()) <= STEP_LIMIT)
    )


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
    to the block's end.  W is written over ``chol``, which is left holding
    W: block row k of W needs only L's block row k and W's earlier rows,
    and L's zeros past a block's end are W's, so no identity is allocated.
    numpy computes ``W.T @ W`` as a symmetric rank-k update of one triangle
    and mirrors it, so the inverse is exactly symmetric.
    """
    for k in range(0, len(chol), SOLVE_BLOCK):
        end = min(k + SOLVE_BLOCK, len(chol))
        chol[k:end, :end] = np.linalg.solve(
            chol[k:end, k:end], np.eye(end - k, end, k) - chol[k:end, :k] @ chol[:k, :end]
        )
    return chol.T @ chol


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
        step = _newton_step(_score(x, a), _information(x, a))
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

    return FitResult(
        params=params,
        objective_trace=np.asarray(trace),
        iterations_used=len(trace) - 1,
        converged=_converges(stopped_by, degenerate, last_step),
        degenerate_columns=degenerate,
        last_step=last_step,
        stopped_by=stopped_by,
    )
