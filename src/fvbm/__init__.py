"""Fully-visible Boltzmann machines on +/-1 data.

Exact enumeration-based evaluation and sampling, maximum pseudolikelihood
fitting by damped Newton iteration, sandwich-covariance Wald inference
(refused for fits whose estimate did not converge) with FDR adjustment, a
vote-record preparation pipeline, and network export.
"""

from .errors import DataError, NumericalError
from .fit import FitConfig, FitResult, fit
from .graph import build_network, emit_dot
from .inference import (
    InferenceReport,
    build_report,
    default_groups,
    empirical_info_1,
    empirical_info_2,
    fdr_adjust,
    format_report_tables,
    sandwich_covariance,
    wald_test,
)
from .model import (
    ENUMERATION_CAP,
    PmfTable,
    concordance,
    enumerate_pmf,
    marginal_probability,
    pairwise_joint,
    sample,
)
from .params import (
    FvbmParams,
    as_spin_matrix,
    check_labels,
    flat_labels,
    flat_length,
)
from .pseudolikelihood import (
    log_pseudolikelihood,
    per_observation_scores,
    pseudo_hessian,
    pseudo_score,
)
from .votes import (
    ImputeConfig,
    Vote,
    VoteTable,
    drop_sparse_columns,
    empirical_proportions,
    encode_agreement,
    knn_impute,
    parse_split_records,
    parse_votes,
    read_spin_csv,
    resolve_splits,
    spin_matrix_to_json_dict,
    write_spin_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "ENUMERATION_CAP",
    "FitConfig",
    "FitResult",
    "FvbmParams",
    "ImputeConfig",
    "InferenceReport",
    "NumericalError",
    "PmfTable",
    "Vote",
    "VoteTable",
    "as_spin_matrix",
    "build_network",
    "build_report",
    "check_labels",
    "concordance",
    "default_groups",
    "drop_sparse_columns",
    "emit_dot",
    "empirical_info_1",
    "empirical_info_2",
    "empirical_proportions",
    "encode_agreement",
    "enumerate_pmf",
    "fdr_adjust",
    "fit",
    "flat_labels",
    "flat_length",
    "format_report_tables",
    "knn_impute",
    "log_pseudolikelihood",
    "marginal_probability",
    "pairwise_joint",
    "parse_split_records",
    "parse_votes",
    "per_observation_scores",
    "pseudo_hessian",
    "pseudo_score",
    "read_spin_csv",
    "resolve_splits",
    "sample",
    "sandwich_covariance",
    "spin_matrix_to_json_dict",
    "wald_test",
    "write_spin_csv",
    "__version__",
]
