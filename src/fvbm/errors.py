"""Exception types shared across the package.

The CLI maps these onto stable exit codes: bad input data exits with 2,
numerical failures with 3.
"""


class DataError(ValueError):
    """Raised when input data violates a documented contract.

    Examples: malformed CSV cells, unresolved split votes, unimputable
    missing entries, spin matrices containing values other than -1/+1,
    or an enumeration request beyond the dimension cap ``ENUMERATION_CAP``.
    """


class NumericalError(RuntimeError):
    """Raised when a computation cannot proceed numerically.

    Examples: a singular or ill-conditioned information matrix, or
    nonpositive variance estimates on a degenerate fit.
    """
