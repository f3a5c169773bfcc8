"""Exception types shared across the package."""


class RegionMedianError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPolygonError(RegionMedianError):
    """The vertex loop does not describe a valid simple polygon."""


class SingularRegionError(RegionMedianError):
    """A solver was handed a region it cannot work on (wrong type, degenerate)."""


class InvalidTriangleError(RegionMedianError):
    """Side lengths violate the strict triangle inequality."""


class NonConvergenceError(RegionMedianError):
    """An adaptive quadrature or the oracle's Newton loop failed to reach its tolerance."""


class EmptySampleError(RegionMedianError):
    """A sampling lattice produced no points inside the region."""


class RegionFileError(RegionMedianError):
    """An input region file is malformed or inconsistent."""


class OutputFileError(RegionMedianError):
    """A report or figure file cannot be written."""
