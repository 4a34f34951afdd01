"""Exception types shared across the package."""


class PorousOptError(Exception):
    """Base class for all package errors."""


class ConfigError(PorousOptError):
    """Raised for invalid configuration: unknown keys, type mismatches,
    values outside their documented ranges."""


class MeshStructureError(ConfigError):
    """Raised for malformed mesh input: unparsable mesh-file lines, bad
    indices, duplicate or degenerate triangles.  A mesh file comes from the
    configuration, so this is a configuration error."""


class MeshConformityError(ConfigError):
    """Raised when the triangulation is non-conforming (an edge shared by
    more than two triangles) or folded (the two triangles of an interior edge
    lie on one side of it).  A configuration error, as above."""


class DomainError(ConfigError):
    """Raised when well placement is geometrically invalid (outside the
    domain, coincident points, or overlapping or empty patches), or when the
    mesh is not one piece joined through its edges, so that the stream
    function cannot span its divergence-free velocities.  The well data and
    the mesh come from the configuration, so this is a configuration
    error."""


class AssemblyError(PorousOptError):
    """Raised when matrix assembly encounters non-finite coefficient data."""


class CompatibilityError(PorousOptError):
    """Raised when a pure-Neumann right-hand side violates the zero-sum
    compatibility condition."""


class SolverError(PorousOptError):
    """Raised when a linear solve fails or exceeds its residual tolerance."""
