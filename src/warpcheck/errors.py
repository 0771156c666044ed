"""Exception types shared across the package."""


class WarpcheckError(Exception):
    """Base class for all warpcheck errors."""


class JetDomainError(WarpcheckError):
    """A jet operation was evaluated outside its domain (division by zero,
    log/sqrt of a non-positive value, ...)."""

    def __init__(self, op: str, value: float, pos: int | None = None):
        super().__init__(op, value, pos)
        self.op = op
        self.value = float(value)
        self.pos = pos  # byte offset into the source expression, attached when known

    def __str__(self) -> str:
        at = f" at offset {self.pos}" if self.pos is not None else ""
        return f"domain error in '{self.op}' (argument value {self.value!r}){at}"


class DegenerateMetricError(WarpcheckError):
    """Metric is singular or not positive definite at the evaluation point."""


class DegeneratePlaneError(WarpcheckError):
    """Vectors supposed to span a 2-plane are linearly dependent."""


class DependentSeedsError(WarpcheckError):
    """Frame seed vectors are linearly dependent."""


class ImmersionDegenerateError(WarpcheckError):
    """Immersion differential drops rank at the evaluation point."""


class NonFiniteImageError(WarpcheckError):
    """Immersion maps a sample point to non-finite ambient coordinates."""


class InvalidWarpingError(WarpcheckError):
    """Warping function is non-positive at a sampled point."""


class InvalidNormalError(WarpcheckError):
    """Vector passed as a normal has a non-negligible tangential component."""


class ConfigurationError(WarpcheckError):
    """Inconsistent or incomplete declaration (missing structure tensors,
    missing warped-block declaration, unknown names, ...)."""
