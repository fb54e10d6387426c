"""Exception types shared across the package."""


class NozzleflowError(Exception):
    """Base class for all package errors."""


class DomainError(NozzleflowError):
    """An argument lies outside the mathematical domain of an operation."""


class VacuumStateError(NozzleflowError):
    """Operation requires a strictly positive density / invariant gap."""


class InvalidStateError(NozzleflowError):
    """State violates a structural invariant (e.g. w < z)."""


class PoleError(NozzleflowError):
    """Evaluation at a pole of a formula (r = +-1, sonic speed in a divisor)."""


class CertificateFailure(NozzleflowError):
    """A derived bound that the certificates guarantee positive came out <= 0."""


class ContractViolationError(NozzleflowError):
    """A precondition that upstream certificates should have ensured is broken."""


class SearchError(NozzleflowError):
    """Internal root, feasibility or quadrature search failed to bracket or
    converge."""


class RunAbortedError(NozzleflowError):
    """The run cannot go on; carries the failure time and cell, and
    ``solver.run`` attaches the partial trajectory."""

    def __init__(self, message, t=None, cell=None, trajectory=None):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.trajectory = trajectory


class BlowUpError(RunAbortedError):
    """Numerical solution left the finite range."""


class SonicBoundaryError(RunAbortedError):
    """Boundary state does not have the characteristic signs the problem needs."""


class ExpressionError(NozzleflowError):
    """Arithmetic expression rejected; carries the offending position."""

    def __init__(self, message, pos=None):
        suffix = f" (at position {pos})" if pos is not None else ""
        super().__init__(message + suffix)
        self.pos = pos


class ConfigError(NozzleflowError):
    """Configuration file rejected; carries a line-anchored diagnostic."""

    def __init__(self, message, source="<config>", line=None):
        anchor = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(anchor + message)
        self.source = source
        self.line = line


class TrajectoryFileError(NozzleflowError):
    """Stored trajectory file cannot be read, lacks an array, holds one of
    the wrong shape, or is not the run of its config."""
