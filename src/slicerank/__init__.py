"""Exact toolkit for sunflower-free set families.

Predicates and encodings for set families, the slice-rank machinery that
certifies size bounds for them (symbolic tensor expansion, grouping into
slices, exact verification against the product form), closed-form bound
evaluation, and brute-force extremal search at small instance sizes.
"""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    capacities_summary,
    capacity_upper,
    constant_weight_bound,
    count_below_growth_power,
    erdos_rado_bound,
    mod_count_bound,
    mod_growth_rate,
    subset_family_bound,
)
from .search import (  # noqa: F401
    CAPSET,
    SearchConfig,
    SearchResult,
    greedy_witness,
    max_free_family,
    tensor_power,
)
from .setsys import (  # noqa: F401
    BINARY,
    MOD,
    DVector,
    EncodedFamily,
    Family,
    SubsetVector,
    find_progression,
    find_sunflower,
    is_capset,
    is_sunflower,
    is_sunflower_free,
    layer_extract,
    layer_split,
    pair_encode,
    parse_family,
    triple_is_sunflower,
)
from .tensor import (  # noqa: F401
    BoundCertificate,
    SliceDecomposition,
    TermSum,
    certify_family,
    check_diagonal,
    decompose,
    decomposition_size,
    diagonal_decomposition,
    expand_tensor,
    tensor_value,
    verify_decomposition,
    verify_expansion,
)
