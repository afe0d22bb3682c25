"""KL-controlled optimization over finite sample spaces.

Tilted exponential families with bounded rewards, the filtered model and
its moment-map geometry, exact autoregressive toy policies, and the
mode-collapse sweep experiments built on them.
"""

__version__ = "0.1.0"

from .dist import (
    BinaryVerifier,
    FiniteDistribution,
    RewardFn,
    condition,
    entropy,
    expected_reward,
    kl_divergence,
    kl_divergence_finite,
    support,
    total_variation,
)
from .geometry import (
    ComparisonReport,
    GeometryPoint,
    TiltedFamily,
    attained_bound_limits,
    compare,
    convergence_profile,
    divergence_cost,
    j_beta,
    kl_difference,
    log_partition,
    moment,
    natural_param,
    tilted,
)
from .ngram import (
    NGramPolicy,
    SequenceSpace,
    bigram_orders,
    conditional_projection,
    full_orders,
    grad_objective,
    make_verifier_first_equals_last,
    random_base_model,
    to_distribution,
)
from .optimize import (
    OptimizerConfig,
    RunTrace,
    ascend_j_beta,
    fit_forward_kl,
    fit_tvd,
    verify_gradients,
)
from .rng import SeededRng
