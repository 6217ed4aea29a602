"""Lattice tilings of Z^n by Lee spheres: exact geometry, group-ring
verification, exhaustive search and per-dimension nonexistence certificates."""

from .abelian_groups import (
    AbelianGroup,
    LatticeBasis,
    enumerate_groups,
    factorize,
    quotient_map,
    smith_normal_form,
)
from .certify import (
    CertificationSummary,
    NonexistenceCertificate,
    branch_for,
    certify,
    certify_range,
)
from .errors import (
    ArmCollisionError,
    FactorizationError,
    GroupMismatchError,
    LeeTileError,
    RejectedCandidateError,
    SingularMatrixError,
)
from .group_ring import GroupRingElement
from .lee_geometry import LeeSphereSpec, lee_distance, sphere_points, sphere_size
from .profiles import (
    DeltaReport,
    IdentityReport,
    MultiplicityProfile,
    PredictedProfile,
    check_identities_k2,
    check_identities_k4,
    predicted_profile_mod3,
    profile,
)
from .search_engine import (
    SearchOptions,
    SearchOutcome,
    brute_force_search,
    search_all,
    search_group,
)
from .tiling_core import (
    TilingCandidate,
    VerificationReport,
    check_conditions,
    pair_multiplicity,
    radius2_group_order,
    to_group_model,
    verify_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "ArmCollisionError",
    "CertificationSummary",
    "DeltaReport",
    "FactorizationError",
    "GroupMismatchError",
    "GroupRingElement",
    "IdentityReport",
    "LatticeBasis",
    "LeeSphereSpec",
    "LeeTileError",
    "MultiplicityProfile",
    "NonexistenceCertificate",
    "PredictedProfile",
    "RejectedCandidateError",
    "SearchOptions",
    "SearchOutcome",
    "SingularMatrixError",
    "TilingCandidate",
    "VerificationReport",
    "branch_for",
    "brute_force_search",
    "certify",
    "certify_range",
    "check_conditions",
    "check_identities_k2",
    "check_identities_k4",
    "enumerate_groups",
    "factorize",
    "lee_distance",
    "pair_multiplicity",
    "predicted_profile_mod3",
    "profile",
    "quotient_map",
    "radius2_group_order",
    "search_all",
    "search_group",
    "smith_normal_form",
    "sphere_points",
    "sphere_size",
    "to_group_model",
    "verify_lattice",
]
