"""Exact structure-constant computations for self-injective algebras.

Canonical decompositions into primitive orthogonal idempotents, Nakayama
permutations, Frobenius pairs on basic algebras, and families of spread
comultiplications on amplified algebras, all over the rationals or prime
fields with exact arithmetic.
"""

from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    act_left,
    apply_functional,
    check_associativity,
    check_coassociativity,
    check_unit,
    delta_rank,
    is_invariant,
    minimal_polynomial,
    multiply,
    permute_basis,
)
from .amplify import (
    AmplifiedAlgebra,
    ComultiplicationReport,
    SpreadSpec,
    build_counit,
    certify_family,
    comultiplication_report,
    copy_boxes,
    counit_from_incidence,
    counit_solution_space,
    is_bijection_graph,
    is_incidence_invertible,
    preset_spec,
    spread,
)
from .families import (
    CorpusEntry,
    NsyPresentation,
    corpus,
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
    path_algebra_a2,
    reference_delta_one,
)
from .fields import Field, Fp, QQ, is_prime
from .frobenius import (
    FrobeniusPair,
    dual_basis_tensor,
    frobenius_pair,
    tensor_blocks,
    transport_pair,
    verify_frobenius_pair,
)
from .linalg import Matrix
from .pipeline import (
    AnalysisResult,
    ModelIsomorphism,
    PipelineRun,
    analyze,
    prepare,
    run_spec,
)
from .poly import factor as poly_factor
from .structure import (
    DEFAULT_SEED,
    CanonicalDecomposition,
    IsoWitness,
    NakayamaData,
    RadicalData,
    basic_reduction,
    canonical_decomposition,
    duality_pattern,
    iso_witnesses,
    nakayama,
    radical,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
