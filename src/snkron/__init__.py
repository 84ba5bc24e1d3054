"""Exact Kronecker coefficients of symmetric groups.

The library computes Kronecker coefficients by a character-theoretic
oracle (Murnaghan-Nakayama characters, exact integer arithmetic) and
implements two closed-form multiplicity-free decompositions for two-row
rectangle shapes, cross-verifying the two routes against each other and
against dimension identities.
"""

from .characters import (
    CharacterTable,
    CycleType,
    DEFAULT_CAP,
    centralizer_order,
    character_row,
    character_table,
    character_value,
    class_sizes,
)
from .closed_forms import (
    theorem1_coefficient,
    theorem1_decomposition,
    theorem2_coefficient,
    theorem2_decomposition,
)
from .kronecker import (
    Decomposition,
    kronecker,
    rectangle_invariant_multiplicity,
    tensor_decompose,
)
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    hook_dimension,
    is_even,
    is_odd,
    length,
    parse_partition,
    scale,
    schur_dimension,
)
from .weights import (
    GeneratorCombination,
    SemiInvariantWeight,
    T1_W_GENERATORS,
    T2_W_GENERATORS,
    membership_t1,
    membership_t2,
    theorem1_weights,
    theorem2_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "CycleType",
    "DEFAULT_CAP",
    "Decomposition",
    "GeneratorCombination",
    "Partition",
    "SemiInvariantWeight",
    "T1_W_GENERATORS",
    "T2_W_GENERATORS",
    "centralizer_order",
    "character_row",
    "character_table",
    "character_value",
    "check_partition",
    "class_sizes",
    "conjugate",
    "enumerate_partitions",
    "format_partition",
    "hook_dimension",
    "is_even",
    "is_odd",
    "kronecker",
    "length",
    "membership_t1",
    "membership_t2",
    "parse_partition",
    "rectangle_invariant_multiplicity",
    "scale",
    "schur_dimension",
    "tensor_decompose",
    "theorem1_coefficient",
    "theorem1_decomposition",
    "theorem1_weights",
    "theorem2_coefficient",
    "theorem2_decomposition",
    "theorem2_weights",
]
