"""Exception types shared across the package."""


class NuSampleError(Exception):
    """Base class for all package-specific errors."""


class InputError(NuSampleError):
    """Malformed user input (files, CLI arguments)."""


class RootFindingError(NuSampleError):
    """The Vandermonde basis of the roots overflows a float, or their
    Wronskian at zero is singular, or the modal coefficients solved against
    it overflow."""


class DegenerateSamplingError(NuSampleError):
    """The sampling instants cannot be evaluated: they are not strictly
    increasing, or an interval is so long that a growing mode e^{Re lambda
    alpha} overflows a float (or the basis determinant does), or that a
    decaying mode vector vanishes; or a vector the simulation needs (the
    input vector y0, a solution, the simulated outputs) overflows a float."""


class RankDeficientError(NuSampleError):
    """A linear solve hit a numerically rank-deficient matrix."""


class DesignError(NuSampleError):
    """A sampling-design method cannot be applied to the given system."""


class InadmissibleDesignError(DesignError):
    """No admissible candidate found during a design search.  The best
    sequence found anyway is attached as ``best``."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
