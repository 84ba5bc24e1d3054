"""Exact Kronecker coefficients of symmetric groups.

The library computes Kronecker coefficients by three routes, cross-verified
against each other and against dimension identities: a character-theoretic
oracle (Murnaghan-Nakayama characters, exact integer arithmetic), two
closed-form multiplicity-free decompositions for two-row rectangle shapes,
and semigroup membership over the stored semi-invariant weights.
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
