"""Autocorrelation functions of characteristic polynomials over U(N),
USp(2N), SO(2N) and the determinant -1 coset of O(2N).

Every family's shifted moment is computable through several independent
routes (Schur sums, determinant sums, sign-vector closed forms, contour
integrals) plus two Haar-measure oracles (deterministic Weyl quadrature
and Monte Carlo sampling); the package exists to evaluate these and to
cross-check them against each other.
"""

from .contour import (
    BipartiteKernel,
    ContourConfig,
    LemmaCheckResult,
    SymmetricKernel,
    circular_integral,
    lemma_sym_check,
    lemma_unitary_check,
)
from .errors import (
    ContourTooTight,
    DimensionCap,
    InconsistentCoefficients,
    NearConfluent,
    PoleHit,
    RouteError,
)
from .haar import (
    GroupSpec,
    char_poly_eval,
    functional_equation_residual,
    group,
    monte_carlo_average,
    quadrature_average,
    sample_eigenangles,
    weyl_autocorrelation,
    weyl_density,
    znorm_residual,
)
from .identities import (
    IdentitySuiteReport,
    fn_eval,
    identity1_residual,
    identity2_residual,
    identity3_residual,
    identity4_residual,
    lemma1_residual,
    run_identity_suite,
    symmb_coeff_transform,
)
from .orthogonal import (
    PartialSumResult,
    SubsetStats,
    ominus_autocorr_det,
    ominus_autocorr_eps,
    orthogonal_contour,
    pairing_determinant,
    pairing_matrix,
    so_autocorr_det,
    so_autocorr_eps,
    so_autocorr_schur,
    so_partial_sums,
    subset_stats,
)
from .precision import PrecisionConfig
from .routes import full_o2n_average
from .symcore import (
    Partition,
    SplitPermutation,
    conjugate_partition,
    enumerate_even_partitions,
    enumerate_so_index_sets,
    enumerate_split_permutations,
    schur_bialternant,
    schur_stable,
    vandermonde,
)
from .symplectic import (
    sp_autocorr_contour,
    sp_autocorr_det,
    sp_autocorr_eps,
    sp_autocorr_schur,
    sp_large_n_ratio,
)
from .unitary import (
    UnitaryQuery,
    autocorr_alpha_sum,
    autocorr_comb,
    autocorr_contour,
    autocorr_det,
    autocorr_schur,
    shifted_product_average,
)

__version__ = "0.1.0"
