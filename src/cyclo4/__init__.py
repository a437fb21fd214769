"""Exact arithmetic for period-2p quaternary sequences over Z4.

The package constructs the generalized cyclotomic classes modulo 2p,
generates the quaternary sequence they define, computes its linear
complexity by three independent routes (register synthesis over Z4,
brute-force search, closed form), and mechanically verifies the
supporting algebra inside Galois rings of characteristic 4.

The package namespace holds the entry points of the README's Library
section; everything else is imported from its module (``cyclo4.galois``,
``cyclo4.lfsr``, ...).
"""

from .cyclotomy import build_classes
from .galois import construct_ring, find_gamma
from .lfsr import reeds_sloane, theorem_lc
from .sequence import generate_sequence
from .verify import full_report

__version__ = "0.1.0"

__all__ = [
    "build_classes",
    "generate_sequence",
    "reeds_sloane",
    "theorem_lc",
    "construct_ring",
    "find_gamma",
    "full_report",
    "__version__",
]
