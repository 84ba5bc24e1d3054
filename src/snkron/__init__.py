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
    character_row,
    character_table,
    class_sizes,
)
from .closed_forms import (
    closed_form,
    theorem1_decomposition,
    theorem2_decomposition,
)
from .kronecker import (
    Decomposition,
    kronecker,
    tensor_decompose,
)
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    hook_dimension,
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
    "character_row",
    "character_table",
    "check_partition",
    "class_sizes",
    "closed_form",
    "conjugate",
    "enumerate_partitions",
    "format_partition",
    "hook_dimension",
    "kronecker",
    "membership_t1",
    "membership_t2",
    "parse_partition",
    "scale",
    "schur_dimension",
    "tensor_decompose",
    "theorem1_decomposition",
    "theorem1_weights",
    "theorem2_decomposition",
    "theorem2_weights",
]
