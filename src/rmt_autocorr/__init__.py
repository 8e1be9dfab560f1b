"""Autocorrelation functions of characteristic polynomials over U(N),
USp(2N), SO(2N) and the determinant -1 coset of O(2N).

Every family's shifted moment is computable through several independent
routes (Schur sums, determinant sums, sign-vector closed forms, contour
integrals) plus two Haar-measure oracles (deterministic Weyl quadrature
and Monte Carlo sampling); the package exists to evaluate these and to
cross-check them against each other.

Each name below is imported from its submodule on first access (PEP 562),
so importing the package imports no submodule.  The closed forms run on
Python complex or `precision.DecimalComplex` scalars and never import
numpy; numpy is imported on first use by the contour routes, the Weyl
quadrature, Monte Carlo and the identity suite (`BENCH_cold_start.json`
has the start-up times).
"""

from importlib import import_module

__version__ = "0.1.0"

# The exports, by the submodule that defines them.
_EXPORTS = {
    "contour": ("BipartiteKernel", "ContourConfig", "LemmaCheckResult", "SymmetricKernel",
                "circular_integral", "lemma_sym_check", "lemma_unitary_check"),
    "errors": ("ContourTooTight", "DimensionCap", "InconsistentCoefficients", "NearConfluent",
               "PoleHit", "PrecisionLoss", "RouteError"),
    "haar": ("char_poly_eval", "functional_equation_residual", "group", "monte_carlo_average",
             "quadrature_average", "sample_eigenangle_batch", "weyl_autocorrelation",
             "weyl_density", "znorm_residual"),
    "identities": ("IdentitySuiteReport", "fn_eval", "identity1_residual", "identity2_residual",
                   "identity3_residual", "identity4_residual", "lemma1_residual",
                   "run_identity_suite", "symmb_coeff_transform"),
    "orthogonal": ("PartialSumResult", "SubsetStats", "ominus_autocorr_det",
                   "ominus_autocorr_eps", "ominus_autocorr_schur", "orthogonal_contour",
                   "pairing_determinant", "pairing_matrix", "so_autocorr_det", "so_autocorr_eps",
                   "so_autocorr_schur", "so_partial_sums", "subset_stats"),
    "precision": ("PrecisionConfig",),
    "routes": ("GroupSpec", "full_o2n_average"),
    "symcore": ("Partition", "conjugate_partition", "enumerate_even_partitions",
                "enumerate_so_index_sets", "enumerate_split_permutations", "schur_stable",
                "vandermonde"),
    "symplectic": ("sp_autocorr_contour", "sp_autocorr_det", "sp_autocorr_eps",
                   "sp_autocorr_schur", "sp_large_n_ratio"),
    "unitary": ("UnitaryQuery", "autocorr_comb", "autocorr_contour", "autocorr_det",
                "autocorr_schur", "shifted_product_average"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An export, imported from its submodule and kept here.  Any other name
    raises AttributeError, so `from rmt_autocorr import haar` imports the
    submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
