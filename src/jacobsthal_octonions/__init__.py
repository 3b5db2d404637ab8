"""Exact integer octonion algebra, third-order Jacobsthal and
Jacobsthal-Lucas sequences (scalar and octonion-valued), and a verifier
that checks every registered identity along two independent computation
paths, reporting exact witnesses for any discrepancy.
"""

from . import errors, octonion, octonion_sequences, sequences
from .errors import *
from .octonion import *
from .octonion_sequences import *
from .sequences import *

__version__ = "0.1.0"

# The public names of ``identities``, which loads on first use (PEP 562):
# a process that only generates sequences never builds its table.
_IDENTITIES_ALL = ("IdentityId", "Variant", "ProductOrder", "IdentityDescriptor",
                   "VerificationReport", "RangeReport", "REGISTRY", "verify",
                   "verify_range", "verify_ranges", "run_suite", "closed_product",
                   "value_to_json")
__all__ = [*errors.__all__, *octonion.__all__, *sequences.__all__,
           *octonion_sequences.__all__, *_IDENTITIES_ALL, "__version__"]


def __getattr__(name: str):
    if name != "identities" and name not in _IDENTITIES_ALL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import identities``, which asks this hook
    # for the name again and recurses.
    from importlib import import_module
    identities = import_module(".identities", __name__)
    return identities if name == "identities" else getattr(identities, name)
