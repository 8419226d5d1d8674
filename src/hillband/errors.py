"""Exception hierarchy shared by all hillband modules."""


class HillbandError(Exception):
    """Base class for all numeric and contract failures raised by hillband."""


class PoleProximity(HillbandError):
    """Evaluation point is too close to a lattice pole of the potential."""


class SeriesDivergence(HillbandError):
    """Nome series cannot converge (|exp(i*pi*tau)| >= 1, i.e. Im tau <= 0)."""


class NotNormalized(HillbandError):
    """Case classification requires the normalization n0 = max_k n_k."""


class ParityError(HillbandError):
    """Operation requires sum(n_k) to be odd."""


class UnsupportedMultiplicity(HillbandError):
    """max_k n_k > 8: past the range the KdV chain certifies in double precision."""


class StepLimitExceeded(HillbandError):
    """Adaptive integrator exhausted max_steps before reaching the endpoint."""


class TolFailure(HillbandError):
    """A Hill eigenvalue fails its Delta certificate, or the adaptive
    transport's step size underflows."""


class TransportOverflow(HillbandError):
    """The fundamental solutions outgrew double precision (|Delta| > ~1e308)."""


class NotAnEigenvalue(HillbandError):
    """Discriminant at the query point is not within 1e-4 of +-2."""


class ResolutionError(HillbandError):
    """Fourier grid does not resolve the potential (top-mode decay failed), or
    a Hill eigenvector's tail exceeds 1e-10."""


class RankDeficiency(HillbandError):
    """KdV termination system has rank < g (wrong genus or degenerate tau)."""


class ConstancyFailure(HillbandError):
    """Wronskian-square values varied along z beyond tolerance."""


class DiscriminantOverflow(HillbandError):
    """The discriminant of Q exceeds double precision (|disc| > e^700)."""


class IllConditioned(HillbandError):
    """Polynomial root extraction exceeded the condition-number guard."""


class BandStructureMissing(HillbandError):
    """Gap report requested but the spectrum is not of real band form."""
