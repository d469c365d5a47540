"""Sandwich covariance, Wald z-tests, and false-discovery-rate adjustment.

The pseudolikelihood is not the true likelihood, so valid standard errors
need the sandwich form: with

    I1 = -(1/n) sum_i H_i      (negative mean per-observation Hessian)
    I2 =  (1/n) sum_i s_i s_i' (Gram matrix of per-observation scores)

evaluated at the fitted parameters, the estimator covariance is

    Cov = (1/n) * inv(I1) I2 inv(I1)

and per-coordinate standard errors are the square roots of its diagonal.
I2 is summed over blocks of max(MEAT_BLOCK // p, p) rows, one S_b'S_b
per block of per-observation scores, so the n-by-p score matrix is never
held; a table of one block gets the one-shot product's bits.  The report
needs only the diagonal, which with K = inv(I1) symmetric is

    Var_q = (1/n) sum_k (K I2)_qk K_qk,

one p^3 product where the full covariance takes two.
Wald z-scores divide the estimates by those standard errors (a null of
zero); two-sided p-values come from the standard normal tail via erfc.

inv(I1) is W'W with W = inv(L) from the Cholesky factor I1 = L L'.  The
report holds at most three p-by-p arrays at once.  The meat comes first:
I2, one score block of at least p rows and its Gram.  Then, beside I2, I1
is dropped once factored, W is written over L, and W'W is formed; I1 is
built again only where ``eigh`` must run after a factorization.  Last come
I2, inv(I1) and their product.  A fit whose I1 has a condition number
above ``CONDITION_LIMIT`` (1e12) is refused.  For a symmetric positive
definite A (Frobenius norms),

    cond_2(A) <= |A|_F |inv(A)|_F <= p cond_2(A),

so the Cholesky inverse stands when that product is at most half the
limit; the factor of 2 covers the p eps cond rounding of the condition
number that an eigendecomposition computes.  Otherwise (no factor, a NaN,
or a product past the bound) ``eigh`` runs: it refuses above the limit,
naming the coordinates of the near-null eigenvector, or inverts.  So the
refusals are those of the eigendecomposition alone, and covariances agree
with it within 1e-13 sqrt(Cov_ii Cov_jj) in the tests.

``fdr_adjust`` implements the step-up adjusted p-values

    adj_(i) = min(1, min_{j >= i} c(m) * m * p_(j) / j)

over the ascending order, with c(m) = 1 for Benjamini-Hochberg and
c(m) = sum_{k<=m} 1/k for Benjamini-Yekutieli (valid under arbitrary
dependence between the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .fit import FitResult, _cholesky_inverse
from .params import (
    FvbmParams, _readonly, as_spin_matrix, check_labels, flat_dimension, flat_length, slot_map
)
from .pseudolikelihood import per_observation_scores, pseudo_hessian

CONDITION_LIMIT = 1e12
# Score entries per row block of the meat (2.5 MiB); a block has at least
# p rows.  The size was set for a long-lived process that fits and infers
# in turn: with 1 MiB blocks glibc trims the heap after infer, and the next
# fit re-faults it.  At d=24, n=2000, minor faults per harness pass were
# 13.8k with 1 MiB blocks and 4.5k at this size, and about 1 with the meat
# first and W in L's storage (see CHANGES.md).  The size stays, because
# the block partition sets I2's bits.
MEAT_BLOCK = 5 << 16


def empirical_info_1(params: FvbmParams, data) -> np.ndarray:
    """Negative mean Hessian of the log-pseudolikelihood (the "bread")."""
    x = as_spin_matrix(data)
    # in place: -(-I) / n and (-I) / -n round alike, and no p-by-p temporary
    # is made
    h = pseudo_hessian(params, x)
    h /= -x.shape[0]
    return h


def _score_gram(params: FvbmParams, x: np.ndarray) -> np.ndarray:
    """S'S for the per-observation scores S of the rows ``x``; S is freed on
    return, before the caller adds the product to its sum."""
    scores = per_observation_scores(params, x)
    return scores.T @ scores


def empirical_info_2(params: FvbmParams, data) -> np.ndarray:
    """Mean outer product of per-observation scores (the "meat").

    A Gram matrix, hence symmetric positive semi-definite.  It is summed
    over blocks of max(MEAT_BLOCK // p, p) rows, so memory is O(p^2 + p
    rows), not O(n p).  numpy computes each ``scores.T @ scores`` as a
    symmetric rank-k update of one triangle and mirrors it, so every block,
    and so the sum, is exactly symmetric without averaging it with its
    transpose.  With one block the result has the bits of the one-shot
    ``scores.T @ scores / n``.
    """
    x = as_spin_matrix(data)
    n, p = x.shape[0], params.n_params
    rows = max(MEAT_BLOCK // p, p)
    i2 = _score_gram(params, x[:rows])
    for start in range(rows, n, rows):
        i2 += _score_gram(params, x[start : start + rows])
    i2 /= n
    return i2


def _symmetric_inverse(build, coordinate_names: list[str] | None) -> np.ndarray:
    """inv(a) for the symmetric ``a = build()``, refused when its condition
    number exceeds CONDITION_LIMIT (module docstring).  ``a`` is dropped once
    factored, and built again only if ``eigh`` must run on it."""
    a = build()
    norm = np.linalg.norm(a)
    try:
        chol = np.linalg.cholesky(a)
        a = None
        inverse = _cholesky_inverse(chol)
    except np.linalg.LinAlgError:
        pass
    else:
        # cond(a) <= |a|_F |inv(a)|_F; a NaN fails the comparison
        if norm * np.linalg.norm(inverse) <= CONDITION_LIMIT / 2:
            return inverse
    chol = inverse = None  # not held beside eigh's arrays
    eigvals, eigvecs = np.linalg.eigh(build() if a is None else a)
    absvals = np.abs(eigvals)
    worst = int(np.argmin(absvals))
    cond = np.inf if absvals[worst] == 0.0 else float(absvals.max() / absvals[worst])
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        v = np.abs(eigvecs[:, worst])
        offenders = [int(i) for i in np.flatnonzero(v >= 0.5 * v.max())]
        shown = (
            ", ".join(coordinate_names[i] for i in offenders)
            if coordinate_names
            else ", ".join(str(i) for i in offenders)
        )
        raise NumericalError(
            f"information matrix is singular or ill-conditioned "
            f"(condition number {cond:.3g}); near-null direction is carried "
            f"by coordinate(s) {shown}"
        )
    return (eigvecs / eigvals) @ eigvecs.T


def sandwich_covariance(
    params: FvbmParams, data, coordinate_names: list[str] | None = None
) -> np.ndarray:
    """Estimator covariance (1/n) * inv(I1) I2 inv(I1) at ``params``.

    Raises:
        NumericalError: If I1 has condition number above 1e12; the message
            names the coordinates carrying the near-null direction.
    """
    x = as_spin_matrix(data)
    # bread first, unlike the report: bench/test_bench.py pins this call order
    i1_inv = _symmetric_inverse(lambda: empirical_info_1(params, x), coordinate_names)
    cov = i1_inv @ empirical_info_2(params, x) @ i1_inv / x.shape[0]
    return (cov + cov.T) / 2.0


def _sandwich_variances(
    params: FvbmParams, data, coordinate_names: list[str] | None
) -> np.ndarray:
    """The diagonal of :func:`sandwich_covariance` from one p^3 product:
    (1/n) sum_k (K I2)_qk K_qk with the symmetric K = inv(I1), I2 first."""
    x = as_spin_matrix(data)
    i2 = empirical_info_2(params, x)
    i1_inv = _symmetric_inverse(lambda: empirical_info_1(params, x), coordinate_names)
    products = i1_inv @ i2
    products *= i1_inv
    return products.sum(axis=1) / x.shape[0]


def two_sided_p_value(z: float) -> float:
    """2 * (1 - Phi(|z|)), computed as erfc(|z|/sqrt(2)) for full accuracy."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def wald_test(estimates, standard_errors):
    """Per-coordinate z-scores and two-sided normal p-values against a null
    of zero.

    Args:
        estimates: Flat vector of fitted values.
        standard_errors: Matching vector of positive standard errors.

    Returns:
        (z_scores, p_values) as float arrays.
    """
    est = np.asarray(estimates, dtype=np.float64)
    se = np.asarray(standard_errors, dtype=np.float64)
    if est.shape != se.shape:
        raise ValueError("estimates and standard errors must align")
    if np.any(se <= 0):
        raise ValueError("standard errors must be strictly positive")
    z = est / se
    p = np.array([two_sided_p_value(v) for v in z])
    return z, p


def fdr_adjust(p_values, method: str = "by") -> np.ndarray:
    """Step-up FDR-adjusted p-values (Benjamini-Hochberg or -Yekutieli)."""
    method = method.lower()
    if method not in ("bh", "by"):
        raise ValueError(f"method must be 'bh' or 'by', got {method!r}")
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p-values must form a 1-D vector")
    if p.size == 0:
        return p.copy()
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    c = 1.0 if method == "bh" else float(np.sum(1.0 / np.arange(1, m + 1)))
    order = np.argsort(p, kind="stable")
    scaled = p[order] * (c * m / np.arange(1, m + 1))
    adjusted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    out = np.empty(m)
    out[order] = adjusted
    return out


@dataclass(frozen=True)
class InferenceReport:
    """Estimates, standard errors, Wald tests, and FDR-adjusted p-values.

    All vectors share the flat layout of a dimension ``d`` (any other length
    is refused).  ``adjustment_groups`` maps a family name to the coordinate
    indices adjusted together; the default treats the bias block and the
    interaction block as separate families.  The constructor refuses, with
    a ValueError, a vector that is not finite, an index that is not an int
    (a bool included), groups that do not partition the layout, and a
    ``method`` other than ``"by"`` or ``"bh"``, whether the record was read
    from JSON or built in memory.
    """

    estimates: np.ndarray
    standard_errors: np.ndarray
    z_scores: np.ndarray
    p_values: np.ndarray
    adjusted_p_values: np.ndarray
    adjustment_groups: dict[str, list[int]]
    method: str = "by"

    def __post_init__(self) -> None:
        names = ("estimates", "standard_errors", "z_scores", "p_values", "adjusted_p_values")
        vectors = [_readonly(getattr(self, name)) for name in names]
        for name, v in zip(names, vectors):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        length = vectors[0].size
        if any(v.shape != (length,) for v in vectors):
            raise ValueError("all report vectors must share one length")
        if flat_dimension(length) is None:
            raise ValueError(
                f"report has {length} coordinates, which matches no "
                f"bias-plus-upper-triangle layout"
            )
        covered = [i for idx in self.adjustment_groups.values() for i in idx]
        if bad := [i for i in covered if isinstance(i, bool) or not isinstance(i, (int, np.integer))]:
            raise ValueError(f"adjustment group indices must be ints, got {bad[0]!r}")
        if sorted(covered) != list(range(length)):
            raise ValueError("adjustment groups must partition the flat layout")
        if self.method not in ("by", "bh"):
            raise ValueError(f"method must be 'by' or 'bh', got {self.method!r}")
        if np.any(self.adjusted_p_values + 1e-15 < self.p_values):
            raise ValueError("adjusted p-values cannot fall below raw p-values")

    @property
    def n_params(self) -> int:
        return self.estimates.size

    @property
    def d(self) -> int:
        return flat_dimension(self.n_params)

    def to_json_dict(self, labels: list[str] | None = None) -> dict:
        out = {
            "schema_version": 1,
            "estimates": self.estimates.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "z_scores": self.z_scores.tolist(),
            "p_values": self.p_values.tolist(),
            "adjusted_p_values": self.adjusted_p_values.tolist(),
            "adjustment_groups": {
                name: list(map(int, idx))
                for name, idx in self.adjustment_groups.items()
            },
            "method": self.method,
        }
        if labels is not None:
            out["labels"] = list(labels)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "InferenceReport":
        try:
            return cls(
                obj["estimates"], obj["standard_errors"], obj["z_scores"], obj["p_values"],
                obj["adjusted_p_values"],
                {k: list(v) for k, v in obj["adjustment_groups"].items()},
                method=obj.get("method", "by"),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(f"malformed report record: {exc}") from exc


def default_groups(d: int) -> dict[str, list[int]]:
    """Bias and interaction blocks adjusted as separate families."""
    p = flat_length(d)
    return {"bias": list(range(d)), "interaction": list(range(d, p))}


def grouped_fdr_adjust(
    p_values: np.ndarray, groups: dict[str, list[int]], method: str = "by"
) -> np.ndarray:
    """FDR adjustment applied independently within each index group."""
    adjusted = np.empty_like(np.asarray(p_values, dtype=np.float64))
    for idx in groups.values():
        idx = np.asarray(idx, dtype=int)
        adjusted[idx] = fdr_adjust(np.asarray(p_values)[idx], method=method)
    return adjusted


def build_report(
    fit_result: FitResult,
    data,
    groups: dict[str, list[int]] | None = None,
    method: str = "by",
    coordinate_names: list[str] | None = None,
) -> InferenceReport:
    """Assemble the full inference report for a fitted model.

    Raises:
        DataError: If the fit is not converged: its standard errors and
            p-values would describe an estimate that may not exist.  The
            message gives :meth:`FitResult.unconverged_reason`.
    """
    params = fit_result.params
    names = coordinate_names or [str(q) for q in range(params.n_params)]
    if reason := fit_result.unconverged_reason(names):
        raise DataError(f"refusing inference on an unconverged fit: {reason}")
    theta = params.to_flat()
    variances = _sandwich_variances(params, data, coordinate_names)
    if np.any(variances <= 0):
        bad = [int(i) for i in np.flatnonzero(variances <= 0)]
        raise NumericalError(f"nonpositive variance for coordinate(s) {bad}")
    se = np.sqrt(variances)
    z, p = wald_test(theta, se)
    if groups is None:
        groups = default_groups(params.d)
    adjusted = grouped_fdr_adjust(p, groups, method=method)
    return InferenceReport(
        estimates=theta,
        standard_errors=se,
        z_scores=z,
        p_values=p,
        adjusted_p_values=adjusted,
        adjustment_groups=groups,
        method=method.lower(),
    )


def format_report_tables(report: InferenceReport, labels: list[str]) -> str:
    """Aligned plain-text tables: one bias row block, lower-triangle blocks
    for the interactions, per reported quantity."""
    d = len(check_labels(labels, report.d))
    quantities = [
        ("Estimate", report.estimates, ".3f"),
        ("Std. err.", report.standard_errors, ".3f"),
        ("z-score", report.z_scores, ".3f"),
        ("p-value", report.p_values, ".2E"),
        ("adj. p", report.adjusted_p_values, ".2E"),
    ]
    # widest realistic cell is a 3-digit-exponent p-value ("1.86E-154")
    width = max(11, max(len(s) for s in labels) + 2)

    def row(values: list, spec: str = "") -> str:
        return (f"{{:>{width}{spec}}}" * len(values)).format(*values)

    lines = ["A: biases", f"{'':12s}{row(labels)}"]
    for name, vec, spec in quantities:
        lines.append(f"{name:12s}{row(vec[:d].tolist(), spec)}")
    lines.append("")
    lines.append("B: interactions")
    slot = slot_map(d)
    for name, vec, spec in quantities:
        lines.append(name)
        lines.append(f"{'':{width}}" + row(labels[:-1]))
        for r in range(1, d):
            lines.append(f"{labels[r]:>{width}}" + row(vec[slot[r, :r]].tolist(), spec))
        lines.append("")
    return "\n".join(lines)
