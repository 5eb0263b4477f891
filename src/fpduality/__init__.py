"""Computer algebra over prime fields: Groebner engine, Frobenius
pushforwards, Gabber truncations, dualizing complexes and the shriek
tensor product, with machine-checked isomorphism certificates."""

from .polyring import PolyRing, Polynomial, RingMap, MonomialOrder, poly_str
from .groebner import (
    Ideal,
    QuotientRing,
    VectorPoly,
    groebner_basis,
    normal_form,
    syzygies,
    elimination_kernel,
    ideal_sum,
    ideal_product,
    ideal_intersection,
    ideal_quotient,
)
from .modules import (
    FPModule,
    ModuleMap,
    cyclic_module,
    direct_sum,
    exterior_power,
    free_module,
    generic_rank,
    hilbert_function,
    hom_module,
    ideal_module,
    is_isomorphism,
    kernel_cokernel,
    minimal_generators_at,
    prune,
    tensor_module,
)
from .complexes import (
    FreeComplex,
    ChainMap,
    cohomology,
    hom_complex,
    koszul_complex,
    rank_one_complex,
    resolution_complex,
    rhom_to_module,
    shift,
    tensor_complex,
)
from .frobenius import (
    FrobPushforward,
    bracket_power,
    frobenius_decompose,
    frobenius_pushforward,
    is_p_basis,
    is_p_generating,
    pbasis_trace_generator,
    pushforward_module,
)
from .gabber import (
    GabberStage,
    GabberTruncation,
    extend_pgens_check,
    gabber_step,
    gabber_truncation,
    verify_kernel_bracket,
)
from .differentials import (
    CanonicalOmega,
    KahlerModule,
    canonical_omega_regular,
    conormal_sequence,
)
from .duality import (
    DualizingComplex,
    XiIso,
    biduality_certificate,
    canonical_dualizing,
    commutation_sign_check,
    compare_presentations,
    ext_two_pipelines,
    fli_eta,
    upper_shriek_finite,
    upper_shriek_smooth,
    verify_frobenius_duality,
    xi_lci_class,
    xi_smooth,
    xi_via_factorization,
)
from .shriek import (
    EnvelopingRing,
    external_tensor,
    exterior_hom_comparison,
    shriek_tensor,
    verify_associativity,
    verify_symmetry,
    verify_unit,
)
from .session import Session, execute, parse_session

__all__ = [name for name in dir() if not name.startswith("_")]
