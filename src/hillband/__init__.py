"""Band/gap spectra of complex Hill operators with DTV potentials."""

from .elliptic import LatticeInvariants, TorusParam, invariants, wp, wp_prime
from .errors import (
    BandStructureMissing,
    ConstancyFailure,
    HillbandError,
    IllConditioned,
    NotAnEigenvalue,
    NotNormalized,
    ParityError,
    PoleProximity,
    RankDeficiency,
    ResolutionError,
    SeriesDivergence,
    StepLimitExceeded,
    TolFailure,
    UnsupportedMultiplicity,
)
from .floquet import (
    EigenvalueHit,
    IntegratorSettings,
    Monodromy,
    discriminant,
    discriminant_derivative,
    monodromy,
    multiplicity_estimate,
    periodic_eigenvalues_on_interval,
)
from .kdv_spectral import (
    KdVChain,
    RootCluster,
    SpectralPolynomial,
    kdv_chain,
    poly_discriminant,
    product_solution,
    spectral_polynomial,
    spectral_roots,
    trig_spectral_polynomial,
)
from .potential import (
    CONSTANT,
    ELLIPTIC,
    TRIG_LIMIT,
    DTVClassification,
    MultiplicityVector,
    PotentialSpec,
    classify,
    evaluate_potential,
    gap_conditions,
    genus,
    mean_potential,
    takemura_dual,
    trig_constant,
)
from .spectrum import (
    ArcSet,
    GapReport,
    SpectrumReport,
    classify_spectrum,
    gap_eigenvalue_report,
    stability_region,
    verify_theorems,
)

__version__ = "0.1.0"
