"""courantlab: an exact workbench for Courant algebroids on trivial bundles.

Everything symbolic is computed over exact rationals (polynomial identities
hold or fail with zero tolerance); floating point appears only in the
port-Hamiltonian simulator.
"""

from .polyexpr import ParseError, PolyMap, Polynomial, monomials_up_to, parse
from .bundles import (
    BundleMorphism,
    LinearSubspace,
    NonExistenceCertificate,
    Section,
    TrivialBundle,
    check_related,
    compose_morphisms,
    related_section,
)
from .courant_core import (
    AxiomReport,
    CourantStructure,
    LeibnizReport,
    check_axioms,
    check_leibniz,
    dirac_check,
    dorfman_bracket,
    product_structure,
    scaled_structure,
    standard_structure,
)
from .morphisms import (
    MorphismVerdict,
    check_general_base,
    check_identity_base,
    graph_subbundle,
)
from .pullback import (
    HypothesisReport,
    PullbackProblem,
    check_hypotheses,
    construct,
    extension_perturbation_test,
    uniqueness_test,
    well_definedness_test,
)
from .intrinsic import (
    IntrinsicResult,
    SplittingIso,
    build_intrinsic,
    canonical_splitting,
    pontryagin_embedding,
    splitting_composite,
    uniqueness_check,
)
from .phsim import (
    BalanceReport,
    InputSignal,
    PHSystem,
    Trajectory,
    dirac_structure_of,
    energy_balance,
    project_behavior,
    simulate_interaction,
    simulate_ph,
    simulate_poisson,
)
from .scene import Scene, SceneError, load_scene, structure_to_json

__version__ = "0.1.0"
