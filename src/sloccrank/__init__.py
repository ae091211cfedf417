"""SLOCC classification of pure n-qubit states by coefficient-matrix rank.

The pipeline: represent a state with exact amplitudes in Q(i, sqrt2),
reshape it into a coefficient matrix along any of the enumerated qubit
bipartitions, and take exact matrix ranks.  The resulting rank signature is
invariant under invertible local operators, so it sorts states into SLOCC
families; the library also verifies the underlying matrix identities by
randomized exact testing and reproduces the built-in four-qubit family
tables.

The package republishes every module's ``__all__``, in the order below.
"""

from . import classify, coeffmatrix, rank, scalar, slocc, states
from .scalar import *
from .states import *
from .coeffmatrix import *
from .rank import *
from .classify import *
from .slocc import *

__version__ = "0.1.0"

__all__ = []
__all__ += scalar.__all__
__all__ += states.__all__
__all__ += coeffmatrix.__all__
__all__ += rank.__all__
__all__ += classify.__all__
__all__ += slocc.__all__
