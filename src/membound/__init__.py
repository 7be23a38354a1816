"""Memory-error frontiers and two-sided filters for membership testing.

The library answers, in bits per key, how much memory a membership
tester needs at target false-negative/false-positive budgets, and
provides a matching construction: ``measures`` holds the distribution
calculus, ``rate_distortion`` the frontier solver and closed forms,
``galois`` the prime-field substrate, ``filter`` the buildable
two-sided filter, ``bruteforce`` exhaustive desk-scale oracles, and
``cli`` the command-line surface.
"""

from .errors import (
    DistributionError,
    DomainError,
    EnumerationTooLargeError,
    FieldError,
    FileFormatError,
    InfeasibleError,
    MemboundError,
    TrivialRegimeError,
)
from .measures import (
    DiscreteDistribution,
    binarize,
    binary_entropy,
    chi_squared,
    estimate_from_samples,
    f_p,
    f_p_derivative,
    kl_divergence,
    read_scores,
    wasserstein1,
)
from .rate_distortion import (
    ErrorMetric,
    FrontierPoint,
    LogLossOptimum,
    OptimalScorePair,
    first_order_rate,
    memory_lower_bound,
    metric_value,
    optimal_binary,
    optimal_logloss,
    solve_rp,
)
from .galois import (
    FieldVector,
    WordStream,
    is_prime,
)
from .filter import (
    BuildReport,
    FilterParams,
    FilterState,
    MeasuredRates,
    build,
    derive_params,
    deserialize,
    measure_rates,
    query,
    query_many,
    random_bytes_sampler,
    read_keys,
    serialize,
)
from .bruteforce import (
    ParetoPoint,
    TinyTesterSpec,
    exhaustive_fpr,
    optimal_tiny_tester,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MemboundError",
    "DistributionError",
    "DomainError",
    "TrivialRegimeError",
    "InfeasibleError",
    "FieldError",
    "FileFormatError",
    "EnumerationTooLargeError",
    # measures
    "DiscreteDistribution",
    "kl_divergence",
    "chi_squared",
    "binary_entropy",
    "f_p",
    "f_p_derivative",
    "binarize",
    "wasserstein1",
    "estimate_from_samples",
    "read_scores",
    # rate_distortion
    "ErrorMetric",
    "FrontierPoint",
    "OptimalScorePair",
    "LogLossOptimum",
    "metric_value",
    "optimal_binary",
    "optimal_logloss",
    "first_order_rate",
    "memory_lower_bound",
    "solve_rp",
    # galois
    "FieldVector",
    "WordStream",
    "is_prime",
    # filter
    "FilterParams",
    "FilterState",
    "BuildReport",
    "MeasuredRates",
    "derive_params",
    "build",
    "query",
    "query_many",
    "serialize",
    "deserialize",
    "measure_rates",
    "random_bytes_sampler",
    "read_keys",
    # bruteforce
    "TinyTesterSpec",
    "ParetoPoint",
    "exhaustive_fpr",
    "optimal_tiny_tester",
]
