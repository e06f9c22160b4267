"""Exact symbolic computation of graded Homs, mutations and Serre chains
on blow-ups of isolated nodal singularities, with the nodal cubic
fourfold pipeline and its Mukai-lattice certification."""

from .graded import GradedDim, dual, euler, shift
from .quadric import (
    QuadricSheaf,
    brute_force_q2,
    chi_quadric,
    cohomology,
    cone_ring_dim,
    hom_quadric,
)
from .formalcat import (
    Cone,
    Context,
    Gen,
    LefschetzData,
    SOD,
    Shift,
    Sum,
    check_exceptional,
    check_semiorthogonal,
    check_spherical,
    hom,
    mutate_left,
    mutate_right,
    normalize,
    render,
    serre_in,
)
from .nodal import (
    VerificationReport,
    build_context,
    hom_push,
    kernel_generator,
    perp_collection,
    relative_serre,
    verify_dim,
)
from .mukai import ChowClass, MukaiVector, ch_spinor_odd, chi_k3, mukai_pairing, restrict_to_k3
from .cubic import apply_chain, build_psi, verify_cubic

__all__ = [
    "GradedDim", "shift", "dual", "euler",
    "QuadricSheaf", "cohomology", "hom_quadric", "cone_ring_dim", "chi_quadric",
    "brute_force_q2",
    "Gen", "Shift", "Sum", "Cone", "Context", "SOD", "LefschetzData",
    "normalize", "render", "hom", "mutate_right", "mutate_left", "serre_in",
    "check_exceptional", "check_semiorthogonal", "check_spherical",
    "build_context", "hom_push", "kernel_generator", "perp_collection",
    "relative_serre", "verify_dim", "VerificationReport",
    "ChowClass", "MukaiVector", "ch_spinor_odd", "restrict_to_k3",
    "mukai_pairing", "chi_k3",
    "build_psi", "apply_chain", "verify_cubic",
]

__version__ = "0.1.0"
