"""Exact verification toolkit for skew trusses, Hopf trusses, and cocycles."""

from .algfile import document_of, kind_of, load, loads, save, serialize, verify_structure
from .coalgebra import (
    ComonoidData,
    HopfMonoidData,
    MonoidData,
    NonUnitalBimonoidData,
    grouplikes,
    solve_antipode,
    verify_comonoid,
    verify_hopf_monoid,
    verify_monoid,
    verify_morphism,
    verify_nonunital_bimonoid,
)
from .cocycle import (
    InvertibleCocycle,
    cocycle_of_truss,
    is_brace_case,
    roundtrip_report,
    truss_of_cocycle,
    verify_cocycle,
    verify_cocycle_morphism,
)
from .fields import RATIONALS, FieldSpec, prime_field
from .hopfmodules import (
    ComoduleData,
    HopfModuleData,
    TrussHopfModule,
    adjunction_check,
    coinvariants,
    fundamental_iso,
    induction_functor,
    verify_comodule,
    verify_hopf_module,
    verify_truss_hopf_module,
)
from .hopftruss import (
    HopfTruss,
    derive_cocycle,
    hopf_brace_antipode,
    twisted_action,
    twisted_product,
    verify_hopf_truss,
)
from .linmap import (
    LinMap,
    identity,
    invert,
    kron,
    nullspace,
    rank,
    solve_through,
    split_idempotent,
)
from .modules import (
    PiModule,
    TrussModule,
    functor_G_H,
    functor_H_tr_pi,
    induction_truss_module,
    module_twisted_action,
    regular_pi_module,
    regular_truss_module,
    restrict_along,
    trivial_truss_module,
    verify_pi_module,
    verify_pi_module_morphism,
    verify_truss_module,
)
from .report import CheckResult, VerificationReport
from .settruss import (
    FiniteGroup,
    FiniteSemigroup,
    SetMorphism,
    SkewTruss,
    cyclic_group,
    enumerate_skew_trusses,
    isomorphism_classes,
    linearize,
    symmetric_group,
    truss_of_grouplikes,
    verify_set_morphism,
    verify_skew_truss,
)

__version__ = "0.1.0"
