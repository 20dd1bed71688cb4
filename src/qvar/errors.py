"""Exception types shared across the package."""


class QvarError(Exception):
    """Base class for all package-specific errors."""


class MeshError(QvarError):
    """Invalid mesh parameters (cell count, boundary tag)."""


class GridMismatchError(QvarError):
    """Operands live on incompatible meshes."""


class EllipticityError(QvarError):
    """Coefficient violates the uniform ellipticity requirement."""


class SolverError(QvarError):
    """A solve failed or did not meet its residual contract."""


class StagnationError(SolverError):
    """Newton step underflowed; the inner solver cannot make progress."""


class OracleSizeError(QvarError):
    """Active-set enumeration requested on a problem too large to enumerate."""


class OracleInfeasibleError(QvarError):
    """No active set was accepted by the enumeration oracle (signals a bug)."""


class OrderingViolationError(QvarError):
    """A monotone iteration produced out-of-order iterates."""


class InsufficientDataError(QvarError):
    """Too few usable points for a rate fit."""


class NestingError(QvarError):
    """Mesh-refinement levels do not nest into the reference grid."""


class ConfigError(QvarError):
    """Experiment configuration could not be parsed or validated."""
