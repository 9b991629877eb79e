"""Network-MIMO simulation toolkit.

Simulates a network of K co-located transmitter/receiver pairs in the plane
where each transmitter precodes from its own, individually quantized estimate
of the full channel matrix. Provides geometry-aware bit-allocation policies,
distributed zero-forcing, Monte-Carlo evaluation of ergodic rates and their
high-SNR slopes, and a numerical verification suite for the asymptotic
machinery behind the allocation formulas.
"""

__version__ = "0.1.0"

from .topology import (
    NodeLayout,
    InterferenceLevelMatrix,
    UnboundedRadiusError,
    place_grid,
    place_uniform_random,
    pairwise_distance,
    interference_levels,
    cooperation_radius,
    data_sharing_sets,
)
from .channel import (
    PathlossModel,
    ChannelRealization,
    pathloss_matrix,
    draw_channel,
    trial_rng,
)
from .allocation import (
    CsitAllocation,
    AllocationSize,
    PolicySpec,
    conventional,
    distance_based,
    uniform_matched,
    clustered_matched,
    perfect_allocation,
    zero_allocation,
    allocation_size,
    build_allocation,
)
from .precoding import (
    IllConditionedError,
    Precoder,
    zf_precoder,
    distributed_precoder,
)
from .evaluation import (
    RejectionRateError,
    RateSample,
    RatePoint,
    RateCurve,
    DofEstimate,
    DeviationPoint,
    instantaneous_rates,
    evaluate_point,
    evaluate_curves,
    dof_slope,
    db_to_linear,
    linear_to_db,
)
from .oracle import (
    DivergentSeriesError,
    TruncationOrder,
    truncation_order,
    resolvent_check,
    neumann_partial_sum,
    neumann_term_matrix,
    term_decay_check,
    inverse_decay_estimate,
    proof_exponent_table,
    run_verification,
)
