"""Exact integer octonion algebra, third-order Jacobsthal and
Jacobsthal-Lucas sequences (scalar and octonion-valued), and a verifier
that checks every registered identity along two independent computation
paths, reporting exact witnesses for any discrepancy.
"""

from . import errors, identities, octonion, octonion_sequences, sequences
from .errors import *
from .identities import *
from .octonion import *
from .octonion_sequences import *
from .sequences import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *octonion.__all__,
    *sequences.__all__,
    *octonion_sequences.__all__,
    *identities.__all__,
    "__version__",
]
