"""Exact computation of the centre of the quantum group U_q(g).

The library builds, entirely in exact arithmetic, the combinatorial model of
the centre: the monoid M+ of dominant weights in the half root lattice and
its Hilbert basis, binomial relations among its generators, the
Harish-Chandra images of the central elements in the character ring, and the
explicit rank-1 Casimir elements obtained from the quasi R-matrix.
"""

from .errors import DomainError, ResourceLimitError
from .report import CheckItem, Report
from .root_system import (
    RootSystem,
    Weight,
    build_root_system,
)
from .half_lattice_monoid import (
    TYPE_I,
    TYPE_II,
    HilbertBasis,
    classify_type,
    conjugate,
    ell,
    hilbert_basis,
    in_monoid,
    involution,
    min_multipliers,
    rel1,
    rel2,
)
from .monoid_presentation import (
    BinomialRelation,
    Presentation,
    generation_check,
    phi,
    presentation,
    verify_relations,
)
from .character_ring import (
    CharacterTable,
    independence_check,
    verify_centre_relations,
    weight_multiplicities,
    xi_simple,
)
from .qrational import QRat, q_int, q_power
from .uq_rank1 import (
    SimpleModule,
    UqElement,
    UqMatrix,
    casimir,
    express_in_powers,
    gamma,
    hc_project,
    is_central,
)

__version__ = "0.1.0"
