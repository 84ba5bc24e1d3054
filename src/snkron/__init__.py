"""Exact Kronecker coefficients of symmetric groups.

The library computes Kronecker coefficients by a character-theoretic
oracle (Murnaghan-Nakayama characters, exact integer arithmetic) and
implements two closed-form multiplicity-free decompositions for two-row
rectangle shapes, cross-verifying the two routes against each other and
against dimension identities.
"""

from . import characters, closed_forms, kronecker, partitions, weights

__version__ = "0.1.0"

__all__ = [
    *partitions.__all__,
    *characters.__all__,
    *kronecker.__all__,
    *closed_forms.__all__,
    *weights.__all__,
]

# The function kronecker rebinds the name of its submodule from here on.
from .partitions import *  # noqa: E402, F403
from .characters import *  # noqa: E402, F403
from .kronecker import *  # noqa: E402, F403
from .closed_forms import *  # noqa: E402, F403
from .weights import *  # noqa: E402, F403
