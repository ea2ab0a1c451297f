"""GCD sums over multi-index sets: search, transforms, and bound certification."""

from .errors import (
    ConvergenceError,
    DomainError,
    ParseError,
    PrimeRangeError,
    TransformLimitError,
)
from .multiindex import (
    MultiIndex,
    abs_diff,
    format_multiindex,
    from_integer,
    from_mask,
    is_square_free,
    lcm,
    leq,
    parse_multiindex,
    support,
    to_integer,
    to_mask,
)
from .primes import DEFAULT_TABLE, PrimeTable
from .weights import (
    AuxiliaryWeights,
    DoubledWeights,
    ExplicitWeights,
    PrimePowerWeights,
    WeightSequence,
    count_above_half,
    doubled_weights,
    loglog,
    logloglog,
    verify_decay,
)
from .gcdsum import (
    GcdMatrix,
    IndexSet,
    cross_sum,
    cube_sum_closed_form,
    gcd_matrix,
    gcd_row_sums,
    gcd_sum,
    gcd_sum_integers,
    gcd_sum_mp,
    group_by_support,
    index_set_from_integers,
    lcm_closure,
    lcm_closure_bound,
    min_eigenvalue,
    rayleigh_bounds,
    spectral_norm,
    support_grouping_form,
    support_grouping_ratio,
    weighted_sf_form,
)
from .transforms import (
    ExchangeIdentity,
    SwapPartition,
    TransformTrace,
    completeness_exchange_identity,
    completeness_step,
    divisor_closure,
    first_active_swap,
    is_complete,
    is_divisor_closed,
    normalize_to_complete,
    swap_partition,
)
from .search import (
    SearchReport,
    cube_construction,
    enumerate_downsets,
    extremal_sf,
    local_search,
)
from .bounds import (
    BoundChainReport,
    TailEstimate,
    bound_chain_report,
    doubled_weight_reduction_check,
    general_upper_curve,
    lower_curve,
    squarefree_upper_curve,
    support_tail_bound,
    tail_sum,
)

__version__ = "0.1.0"
